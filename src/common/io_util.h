#ifndef SISG_COMMON_IO_UTIL_H_
#define SISG_COMMON_IO_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
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
/// (embedding models, vocabularies, checkpoints, corpus caches, arenas):
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
/// header and publish via AtomicFile. ArtifactReader validates magic, kind,
/// reserved, declared size against the actual file size, and the checksum
/// over the whole payload *before* handing out any bytes, so a truncated or
/// byte-flipped artifact is rejected with Status::DataLoss instead of being
/// parsed.
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

/// The one SISGART1 reader. Open maps the whole file read-only (MAP_PRIVATE)
/// and runs the one header check before any byte is handed out: magic,
/// kind, reserved == 0, declared payload size == bytes on disk, and the
/// CRC-32 over the mapped payload. Returns DataLoss for truncation or
/// corruption, InvalidArgument for a kind mismatch, IOError when the path
/// cannot be opened or mapped (or is not a regular file).
///
/// Parsers walk the payload with Read/ReadScalar, a bounds-checked cursor
/// that copies out of the mapping. Zero-copy users take payload() instead:
/// the serving and int8 arenas keep the reader and point their row blocks
/// into it, which makes a model larger than RAM a page-cache problem rather
/// than an allocation. The payload starts at file offset
/// kArtifactHeaderBytes of a page-aligned mapping, so a block stored at a
/// 64-byte-aligned file offset is 64-byte aligned in memory. The mapping
/// lives exactly as long as the reader.
class ArtifactReader {
 public:
  static StatusOr<ArtifactReader> Open(const std::string& path,
                                       const std::string& kind);

  /// An empty reader (no mapping); only assignment and destruction apply.
  ArtifactReader() = default;

  uint32_t version() const { return version_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  /// Payload bytes not yet consumed by Read.
  uint64_t remaining() const { return payload_bytes_ - consumed_; }
  /// First payload byte (file offset kArtifactHeaderBytes).
  const uint8_t* payload() const {
    return static_cast<const uint8_t*>(map_.get()) + kArtifactHeaderBytes;
  }

  /// Copies exactly `len` payload bytes; DataLoss if fewer remain.
  Status Read(void* data, size_t len);

  template <typename T>
  Status ReadScalar(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Read(v, sizeof(T));
  }

 private:
  struct Unmap {
    size_t len;
    void operator()(void* map) const;
  };

  std::string path_;
  std::unique_ptr<void, Unmap> map_;
  uint32_t version_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t consumed_ = 0;
};

}  // namespace sisg

#endif  // SISG_COMMON_IO_UTIL_H_
