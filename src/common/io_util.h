#ifndef SISG_COMMON_IO_UTIL_H_
#define SISG_COMMON_IO_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace sisg {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant). `crc` chains calls:
/// Crc32(b, nb, Crc32(a, na)) == Crc32(ab, na + nb). Runs the `crc32` kernel
/// of GetSimdOps() (common/simd.h); every dispatch level returns the same
/// value, so stored checksums do not depend on the machine that wrote them.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

/// A file that becomes visible atomically: writes go to `<path>.tmp`, and
/// Commit() flushes + fsyncs the temp file, renames it over `path`, and
/// fsyncs the parent directory so the rename itself is durable. A writer
/// that dies (or errors) before Commit() leaves the previous `path` — if
/// any — untouched; the destructor unlinks the orphaned temp file. Readers
/// therefore never observe a partial write.
class AtomicFile {
 public:
  /// Opens `<path>.tmp` for binary writing.
  static StatusOr<AtomicFile> Create(const std::string& path);

  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&& other) noexcept;
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;
  ~AtomicFile();

  std::FILE* stream() { return file_; }
  const std::string& path() const { return path_; }

  /// Flush + fsync + rename into place. The file handle is closed either
  /// way; on error the temp file is removed and `path` is untouched.
  Status Commit();

  /// Close and delete the temp file without publishing (also what the
  /// destructor does when Commit was never called).
  void Abandon();

 private:
  AtomicFile(std::string path, std::string tmp_path, std::FILE* file)
      : path_(std::move(path)), tmp_path_(std::move(tmp_path)), file_(file) {}

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
};

/// Publishes `bytes` as the whole content of `path` through an AtomicFile:
/// readers see the old file or the complete new one, never a torn write.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// On-disk artifact header shared by every binary artifact in the repo
/// (embedding models, vocabularies, checkpoints, ANN indexes):
///
///   offset  size  field
///   0       8     magic "SISGART1"
///   8       8     kind  (artifact type tag, space padded, e.g. "EMBMODEL")
///   16      4     version (little-endian u32, per-kind format revision)
///   20      4     reserved (zero)
///   24      8     payload size in bytes (little-endian u64)
///   32      4     CRC-32 of the payload
///   36      -     payload
///
/// Writers stream the payload while accumulating size + CRC, then patch the
/// header and publish via AtomicFile. Readers validate magic, kind, declared
/// size against the actual file size, and the checksum over the whole
/// payload *before* handing out any bytes, so a truncated or byte-flipped
/// artifact is rejected with Status::DataLoss instead of being parsed.
constexpr size_t kArtifactHeaderBytes = 36;

class ArtifactWriter {
 public:
  /// `kind` is 1-8 ASCII characters identifying the artifact type.
  static StatusOr<ArtifactWriter> Open(const std::string& path,
                                       const std::string& kind,
                                       uint32_t version);

  ArtifactWriter(ArtifactWriter&&) = default;
  ArtifactWriter& operator=(ArtifactWriter&&) = default;

  Status Write(const void* data, size_t len);

  template <typename T>
  Status WriteScalar(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Write(&v, sizeof(T));
  }

  /// Patches size + CRC into the header and atomically publishes the file.
  Status Commit();

 private:
  explicit ArtifactWriter(AtomicFile file) : file_(std::move(file)) {}

  AtomicFile file_;
  uint64_t payload_bytes_ = 0;
  uint32_t crc_ = 0;
};

class ArtifactReader {
 public:
  /// Opens and fully validates the artifact (header fields + payload CRC in
  /// one streaming pass), then rewinds to the start of the payload. Returns
  /// DataLoss for truncation/corruption, InvalidArgument for a kind
  /// mismatch, IOError when the file cannot be opened.
  static StatusOr<ArtifactReader> Open(const std::string& path,
                                       const std::string& kind);

  ArtifactReader(ArtifactReader&& other) noexcept;
  ArtifactReader& operator=(ArtifactReader&& other) noexcept;
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;
  ~ArtifactReader();

  uint32_t version() const { return version_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  /// Payload bytes not yet consumed by Read.
  uint64_t remaining() const { return payload_bytes_ - consumed_; }

  /// Reads exactly `len` payload bytes; DataLoss if fewer remain.
  Status Read(void* data, size_t len);

  template <typename T>
  Status ReadScalar(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Read(v, sizeof(T));
  }

 private:
  ArtifactReader(std::string path, std::FILE* file, uint32_t version,
                 uint64_t payload_bytes)
      : path_(std::move(path)),
        file_(file),
        version_(version),
        payload_bytes_(payload_bytes) {}

  std::string path_;
  std::FILE* file_ = nullptr;
  uint32_t version_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t consumed_ = 0;
};

/// A read-only memory-mapped artifact: the whole file is mapped MAP_PRIVATE
/// and the SISGART1 header plus the full payload CRC are validated BEFORE
/// the mapping is handed out, so the never-partially-loaded contract of
/// ArtifactReader holds here too (the one validation pass also warms the
/// page cache). The payload pointer stays valid for the lifetime of this
/// object; consumers (the quantized arenas, the serving arena) point their
/// row blocks straight into the map, which is what makes a model larger
/// than RAM a page-cache problem instead of an allocation.
///
/// Error contract mirrors ArtifactReader::Open: IOError when the file
/// cannot be opened/mapped, DataLoss for truncation or corruption,
/// InvalidArgument for a kind mismatch.
class MappedArtifact {
 public:
  static StatusOr<MappedArtifact> Open(const std::string& path,
                                       const std::string& kind);

  MappedArtifact() = default;
  MappedArtifact(MappedArtifact&& other) noexcept;
  MappedArtifact& operator=(MappedArtifact&& other) noexcept;
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;
  ~MappedArtifact();

  uint32_t version() const { return version_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  /// First payload byte (file offset kArtifactHeaderBytes).
  const uint8_t* payload() const {
    return static_cast<const uint8_t*>(map_) + kArtifactHeaderBytes;
  }

 private:
  MappedArtifact(void* map, size_t map_len, uint32_t version,
                 uint64_t payload_bytes)
      : map_(map),
        map_len_(map_len),
        version_(version),
        payload_bytes_(payload_bytes) {}

  void* map_ = nullptr;
  size_t map_len_ = 0;
  uint32_t version_ = 0;
  uint64_t payload_bytes_ = 0;
};

}  // namespace sisg

#endif  // SISG_COMMON_IO_UTIL_H_
