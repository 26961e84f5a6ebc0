#ifndef SISG_COMMON_QUANT_H_
#define SISG_COMMON_QUANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "common/simd.h"
#include "common/status.h"

namespace sisg {

/// Post-training int8 scalar quantization of embedding rows, the 4x
/// compression tier of the serving stack. Rows are affine-quantized
/// independently (x[i] ~= min + scale * u8code[i], scale = (max - min) / 255)
/// so one outlier row cannot widen every other row's step; queries are
/// symmetric int8 (q[i] ~= q_scale * i8code[i]). The reconstruction error of
/// any coordinate is at most scale / 2 — the property the error-bound tests
/// pin.

/// Quantizes one row. Writes `dim` codes; a constant row (max == min) gets
/// scale 0 and all-zero codes, reconstructing exactly.
void QuantizeRowInt8(const float* row, size_t dim, uint8_t* codes,
                     float* scale, float* min);

/// Quantizes a query for the int8 scan kernels. Writes `dim` codes into the
/// caller-owned buffer and returns the view (codes pointer, code sum, scale)
/// the kernels consume. A zero query yields scale 0 and all-zero codes.
Int8Query QuantizeQueryInt8(const float* q, size_t dim, int8_t* codes);

/// A block of int8-quantized rows in the group layout the scan kernel reads
/// (16-row groups of code dwords, see kI8GroupRows in common/simd.h), plus
/// the per-row affine parameters. The layout is written once, by
/// BuildFromRows, and stored as is (QNTARENA v2), so loading it is a copy or
/// a mapping, never a repack. Either owns its storage (BuildFromRows / heap
/// Load) or points into the validated mapping of the ArtifactReader it holds
/// (Load with use_mmap), in which case the big code block never touches the
/// heap.
class Int8Arena {
 public:
  Int8Arena() = default;

  /// Quantizes `n` rows of `dim` floats spaced `row_stride` floats apart.
  Status BuildFromRows(const float* rows, uint32_t n, uint32_t dim,
                       size_t row_stride);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t dim() const { return dim_; }
  /// Bytes of one 16-row group (I8GroupBytes(dim)).
  size_t group_bytes() const { return I8GroupBytes(dim_); }
  /// Bytes of the code block: whole groups, zero-padded past the last row.
  size_t code_bytes() const {
    return static_cast<size_t>((num_rows_ + kI8GroupRows - 1) / kI8GroupRows) *
           group_bytes();
  }

  /// The code block; row r's group starts at codes() + (r / 16) *
  /// group_bytes().
  const uint8_t* codes() const { return codes_; }
  const float* scales() const { return scales_; }
  const float* mins() const { return mins_; }

  /// Serializes as a checksummed QNTARENA v2 artifact. The code block is
  /// padded inside the payload so its file offset is 64-byte aligned — an
  /// mmap of the file (page-aligned by definition) therefore yields
  /// cache-line aligned groups, the same guarantee heap storage gives.
  Status Save(const std::string& path) const;

  /// Loads an arena saved by Save(). One parse: ArtifactReader validates
  /// the whole artifact (CRC included, so corruption is DataLoss up front,
  /// never a mid-query surprise) and the prologue and shape are checked
  /// once. `use_mmap` decides only where the codes and parameters live:
  /// kept in the mapping, or copied to the heap (the mapping is released
  /// before Load returns). Both produce bit-identical scan results. A v1
  /// file (row-major codes) is InvalidArgument: rebuild it with this
  /// version.
  static StatusOr<Int8Arena> Load(const std::string& path, bool use_mmap);

 private:
  uint32_t num_rows_ = 0;
  uint32_t dim_ = 0;

  // Views into whichever backing is live.
  const uint8_t* codes_ = nullptr;
  const float* scales_ = nullptr;
  const float* mins_ = nullptr;

  // Heap backing (BuildFromRows, heap Load).
  AlignedByteVector own_codes_;
  std::vector<float> own_params_;  // scales then mins

  // Mmap backing: the reader whose mapping codes_/scales_/mins_ point into.
  ArtifactReader map_;
};

}  // namespace sisg

#endif  // SISG_COMMON_QUANT_H_
