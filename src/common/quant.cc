#include "common/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace sisg {
namespace {

constexpr char kQuantArenaKind[] = "QNTARENA";
constexpr uint32_t kQuantArenaVersion = 2;

/// Fixed-size prologue of the QNTARENA v2 payload:
///   u32 num_rows, u32 dim, u32 group bytes, u32 data_off
/// followed by scales (num_rows f32), mins (num_rows f32), zero padding up
/// to data_off, then the code block (ceil(num_rows / 16) groups of
/// I8GroupBytes(dim) bytes, the kernel's layout, zero past the last row and
/// past dim). data_off is chosen so the code block's FILE offset (header +
/// data_off) is 64-byte aligned, making mmap'd groups cache-line aligned
/// like heap ones. v1 stored the codes row-major at a 64-byte stride.
constexpr size_t kQuantPrologueBytes = 16;

uint64_t CodeBlockOffset(uint32_t num_rows) {
  const uint64_t meta = kQuantPrologueBytes +
                        static_cast<uint64_t>(num_rows) * 2 * sizeof(float);
  const uint64_t file_off = kArtifactHeaderBytes + meta;
  return (file_off + 63) / 64 * 64 - kArtifactHeaderBytes;
}

}  // namespace

void QuantizeRowInt8(const float* row, size_t dim, uint8_t* codes,
                     float* scale, float* min) {
  float lo = row[0], hi = row[0];
  for (size_t i = 1; i < dim; ++i) {
    lo = row[i] < lo ? row[i] : lo;
    hi = row[i] > hi ? row[i] : hi;
  }
  const float s = (hi - lo) / 255.0f;
  *min = lo;
  *scale = s;
  if (s <= 0.0f) {
    std::memset(codes, 0, dim);
    return;
  }
  const float inv = 1.0f / s;
  for (size_t i = 0; i < dim; ++i) {
    const float c = std::nearbyintf((row[i] - lo) * inv);
    codes[i] = static_cast<uint8_t>(c < 0.0f ? 0.0f : (c > 255.0f ? 255.0f : c));
  }
}

Int8Query QuantizeQueryInt8(const float* q, size_t dim, int8_t* codes) {
  float amax = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    const float a = std::fabs(q[i]);
    amax = a > amax ? a : amax;
  }
  Int8Query out;
  out.codes = codes;
  if (amax <= 0.0f) {
    std::memset(codes, 0, dim);
    return out;
  }
  out.scale = amax / 127.0f;
  const float inv = 127.0f / amax;
  int32_t sum = 0;
  for (size_t i = 0; i < dim; ++i) {
    const float c = std::nearbyintf(q[i] * inv);
    const int32_t ci =
        static_cast<int32_t>(c < -127.0f ? -127.0f : (c > 127.0f ? 127.0f : c));
    codes[i] = static_cast<int8_t>(ci);
    sum += ci;
  }
  out.sum = sum;
  return out;
}

Status Int8Arena::BuildFromRows(const float* rows, uint32_t n, uint32_t dim,
                                size_t row_stride) {
  if (rows == nullptr || n == 0 || dim == 0 || row_stride < dim) {
    return Status::InvalidArgument("int8 arena: empty or inconsistent input");
  }
  num_rows_ = n;
  dim_ = dim;
  own_codes_.assign(code_bytes(), 0);
  own_params_.assign(static_cast<size_t>(n) * 2, 0.0f);
  std::vector<uint8_t> row_codes(dim);
  for (uint32_t r = 0; r < n; ++r) {
    QuantizeRowInt8(rows + static_cast<size_t>(r) * row_stride, dim,
                    row_codes.data(), &own_params_[r],
                    &own_params_[static_cast<size_t>(n) + r]);
    // Code dword p of the row goes to vector p of its group.
    uint8_t* dst = own_codes_.data() + I8CodeOffset(r, 0, dim);
    for (size_t d = 0; d < dim; d += 4) {
      std::memcpy(dst + d / 4 * 64, row_codes.data() + d,
                  std::min<size_t>(4, dim - d));
    }
  }
  codes_ = own_codes_.data();
  scales_ = own_params_.data();
  mins_ = own_params_.data() + n;
  map_ = ArtifactReader();
  return Status::OK();
}

Status Int8Arena::Save(const std::string& path) const {
  if (num_rows_ == 0) {
    return Status::FailedPrecondition("int8 arena: cannot save an empty arena");
  }
  SISG_ASSIGN_OR_RETURN(
      ArtifactWriter w,
      ArtifactWriter::Open(path, kQuantArenaKind, kQuantArenaVersion));
  const uint32_t group32 = static_cast<uint32_t>(group_bytes());
  const uint32_t data_off = static_cast<uint32_t>(CodeBlockOffset(num_rows_));
  SISG_RETURN_IF_ERROR(w.WriteScalar(num_rows_));
  SISG_RETURN_IF_ERROR(w.WriteScalar(dim_));
  SISG_RETURN_IF_ERROR(w.WriteScalar(group32));
  SISG_RETURN_IF_ERROR(w.WriteScalar(data_off));
  SISG_RETURN_IF_ERROR(
      w.Write(scales_, static_cast<size_t>(num_rows_) * sizeof(float)));
  SISG_RETURN_IF_ERROR(
      w.Write(mins_, static_cast<size_t>(num_rows_) * sizeof(float)));
  const uint64_t meta_end =
      kQuantPrologueBytes + static_cast<uint64_t>(num_rows_) * 2 * sizeof(float);
  const char zeros[64] = {0};
  SISG_RETURN_IF_ERROR(w.Write(zeros, data_off - meta_end));
  SISG_RETURN_IF_ERROR(w.Write(codes_, code_bytes()));
  return w.Commit();
}

StatusOr<Int8Arena> Int8Arena::Load(const std::string& path, bool use_mmap) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(path, kQuantArenaKind));
  if (r.version() != kQuantArenaVersion) {
    return Status::InvalidArgument("int8 arena: unsupported version " +
                                   std::to_string(r.version()) + " in " +
                                   path);
  }
  uint32_t num_rows = 0, dim = 0, group = 0, data_off = 0;
  for (uint32_t* field : {&num_rows, &dim, &group, &data_off}) {
    SISG_RETURN_IF_ERROR(r.ReadScalar(field));
  }
  if (num_rows == 0 || dim == 0) {
    return Status::DataLoss("int8 arena: empty shape in " + path);
  }
  if (group != I8GroupBytes(dim)) {
    return Status::DataLoss("int8 arena: group size " + std::to_string(group) +
                            " does not match dim " + std::to_string(dim) +
                            " in " + path);
  }
  const size_t code_bytes =
      static_cast<size_t>((num_rows + kI8GroupRows - 1) / kI8GroupRows) * group;
  if (data_off != CodeBlockOffset(num_rows) ||
      r.payload_bytes() != data_off + static_cast<uint64_t>(code_bytes)) {
    return Status::DataLoss(
        "int8 arena: artifact layout inconsistent with declared shape in " +
        path);
  }

  // The shape check pinned every block inside the payload. Heap mode copies
  // the blocks out and lets the mapping go with `r`; mmap mode keeps them in
  // the mapping the arena holds.
  const float* params =
      reinterpret_cast<const float*>(r.payload() + kQuantPrologueBytes);
  const uint8_t* codes = r.payload() + data_off;
  Int8Arena arena;
  if (use_mmap) {
    arena.map_ = std::move(r);
  } else {
    arena.own_params_.assign(params,
                             params + 2 * static_cast<size_t>(num_rows));
    arena.own_codes_.assign(codes, codes + code_bytes);
    params = arena.own_params_.data();
    codes = arena.own_codes_.data();
  }
  arena.num_rows_ = num_rows;
  arena.dim_ = dim;
  arena.scales_ = params;
  arena.mins_ = params + num_rows;
  arena.codes_ = codes;
  return arena;
}

}  // namespace sisg
