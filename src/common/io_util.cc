#include "common/io_util.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>

#include "common/simd.h"

namespace sisg {
namespace {

constexpr char kArtifactMagic[8] = {'S', 'I', 'S', 'G', 'A', 'R', 'T', '1'};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return Status::IOError(ErrnoMessage("fsync", path));
  return Status::OK();
}

/// fsync the directory containing `path` so a completed rename survives a
/// crash. Best-effort: some filesystems refuse to open directories.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Fixed-size artifact header, written verbatim at offset 0.
struct ArtifactHeader {
  char magic[8];
  char kind[8];
  uint32_t version;
  uint32_t reserved;
  uint64_t payload_bytes;
  uint32_t crc;
} __attribute__((packed));
static_assert(sizeof(ArtifactHeader) == kArtifactHeaderBytes);

void FillKind(const std::string& kind, char out[8]) {
  std::memset(out, ' ', 8);
  std::memcpy(out, kind.data(), std::min<size_t>(kind.size(), 8));
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  return GetSimdOps().crc32(data, len, crc);
}

StatusOr<AtomicFile> AtomicFile::Create(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("atomic file: empty path");
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open for write", tmp));
  }
  return AtomicFile(path, std::move(tmp), f);
}

AtomicFile::AtomicFile(AtomicFile&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_path_(std::move(other.tmp_path_)),
      file_(other.file_) {
  other.file_ = nullptr;
}

AtomicFile& AtomicFile::operator=(AtomicFile&& other) noexcept {
  if (this != &other) {
    Abandon();
    path_ = std::move(other.path_);
    tmp_path_ = std::move(other.tmp_path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

AtomicFile::~AtomicFile() { Abandon(); }

Status AtomicFile::Commit() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("atomic file: already closed");
  }
  std::FILE* f = file_;
  file_ = nullptr;
  bool ok = std::fflush(f) == 0;
  Status sync_status;
  if (ok) sync_status = FsyncFd(::fileno(f), tmp_path_);
  ok = std::fclose(f) == 0 && ok;
  if (!ok || !sync_status.ok()) {
    std::remove(tmp_path_.c_str());
    return !sync_status.ok() ? sync_status
                             : Status::IOError("write failed: " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::IOError(ErrnoMessage("rename", path_));
  }
  FsyncParentDir(path_);
  return Status::OK();
}

void AtomicFile::Abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  std::remove(tmp_path_.c_str());
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  SISG_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));
  if (std::fwrite(bytes.data(), 1, bytes.size(), file.stream()) !=
      bytes.size()) {
    return Status::IOError(ErrnoMessage("short write", file.path()));
  }
  return file.Commit();
}

StatusOr<ArtifactWriter> ArtifactWriter::Open(const std::string& path,
                                              const std::string& kind,
                                              uint32_t version) {
  if (kind.empty() || kind.size() > 8) {
    return Status::InvalidArgument("artifact: kind must be 1-8 chars, got '" +
                                   kind + "'");
  }
  SISG_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));
  ArtifactHeader header{};
  std::memcpy(header.magic, kArtifactMagic, 8);
  FillKind(kind, header.kind);
  header.version = version;
  // payload_bytes/crc patched at Commit.
  if (std::fwrite(&header, sizeof(header), 1, file.stream()) != 1) {
    return Status::IOError("artifact: cannot write header: " + path);
  }
  return ArtifactWriter(std::move(file));
}

Status ArtifactWriter::Write(const void* data, size_t len) {
  if (len == 0) return Status::OK();
  if (std::fwrite(data, 1, len, file_.stream()) != len) {
    return Status::IOError("artifact: short write: " + file_.path());
  }
  crc_ = Crc32(data, len, crc_);
  payload_bytes_ += len;
  return Status::OK();
}

Status ArtifactWriter::Commit() {
  std::FILE* f = file_.stream();
  if (f == nullptr) {
    return Status::FailedPrecondition("artifact: already committed");
  }
  if (std::fseek(f, offsetof(ArtifactHeader, payload_bytes), SEEK_SET) != 0 ||
      std::fwrite(&payload_bytes_, sizeof(payload_bytes_), 1, f) != 1 ||
      std::fwrite(&crc_, sizeof(crc_), 1, f) != 1) {
    return Status::IOError("artifact: cannot patch header: " + file_.path());
  }
  return file_.Commit();
}

void ArtifactReader::Unmap::operator()(void* map) const { ::munmap(map, len); }

StatusOr<ArtifactReader> ArtifactReader::Open(const std::string& path,
                                              const std::string& kind) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open for read", path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("cannot stat", path));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("artifact: not a regular file: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kArtifactHeaderBytes) {
    ::close(fd);
    return Status::DataLoss("artifact: truncated file " + path + " (" +
                            std::to_string(file_size) +
                            " bytes is smaller than the header)");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::IOError(ErrnoMessage("cannot mmap", path));
  }
  ArtifactReader reader;  // owns the unmap from here on
  reader.path_ = path;
  reader.map_ = std::unique_ptr<void, Unmap>(map, Unmap{file_size});

  ArtifactHeader header{};
  std::memcpy(&header, map, sizeof(header));
  if (std::memcmp(header.magic, kArtifactMagic, 8) != 0) {
    return Status::DataLoss("artifact: bad magic in " + path);
  }
  char want_kind[8];
  FillKind(kind, want_kind);
  if (std::memcmp(header.kind, want_kind, 8) != 0) {
    return Status::InvalidArgument(
        "artifact: kind mismatch in " + path + " (want '" + kind + "', got '" +
        std::string(header.kind, 8) + "')");
  }
  // The reserved field is written as zero and is not CRC-covered (the CRC
  // spans only the payload), so a byte flip here would otherwise load
  // silently.
  if (header.reserved != 0) {
    return Status::DataLoss("artifact: corrupt header (reserved != 0) in " +
                            path);
  }
  // Declared payload size must match the bytes actually on disk; a shorter
  // file is a truncated write, a longer one trailing garbage.
  const uint64_t on_disk = file_size - kArtifactHeaderBytes;
  if (header.payload_bytes != on_disk) {
    return Status::DataLoss(
        "artifact: truncated file " + path + " (header declares " +
        std::to_string(header.payload_bytes) + " payload bytes, file has " +
        std::to_string(on_disk) + ")");
  }
  if (Crc32(reader.payload(), on_disk) != header.crc) {
    return Status::DataLoss("artifact: checksum mismatch in " + path);
  }
  reader.version_ = header.version;
  reader.payload_bytes_ = on_disk;
  return reader;
}

Status ArtifactReader::Read(void* data, size_t len) {
  if (len > remaining()) {
    return Status::DataLoss("artifact: read past payload in " + path_);
  }
  if (len > 0) std::memcpy(data, payload() + consumed_, len);
  consumed_ += len;
  return Status::OK();
}

}  // namespace sisg
