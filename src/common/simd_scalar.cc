#include "common/simd.h"

#include <array>

namespace sisg {
namespace simd_scalar {
namespace {

/// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// kCrcTables[0] is the classic byte-at-a-time table, and kCrcTables[k][b]
/// is the CRC of byte b followed by k zero bytes, so one lookup per input
/// byte of an 8-byte word advances the register by the whole word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

float Dot(const float* a, const float* b, size_t dim) {
  float acc = 0.0f;
  for (size_t i = 0; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(float alpha, const float* x, float* y, size_t dim) {
  for (size_t i = 0; i < dim; ++i) y[i] += alpha * x[i];
}

void SgnsUpdateFused(const float* in, float* grad_in, float* out_pos,
                     float* const* out_negs, int num_negs, float lr,
                     size_t dim, const SigmoidTable& sigmoid) {
  // Row-at-a-time: the dot and the combined update sweep run back to back
  // while the row is hot in L1. grad_in must accumulate the PRE-update row,
  // so the combined sweep reads out[i] before overwriting it.
  auto row_step = [&](float* out, float label) {
    const float f = Dot(in, out, dim);
    const float g = (label - sigmoid.Sigmoid(f)) * lr;
    for (size_t i = 0; i < dim; ++i) {
      const float o = out[i];
      grad_in[i] += g * o;
      out[i] = o + g * in[i];
    }
  };
  row_step(out_pos, 1.0f);
  for (int k = 0; k < num_negs; ++k) {
    float* out_neg = out_negs[k];
    if (out_neg == nullptr) continue;
    row_step(out_neg, 0.0f);
  }
}

void TopKScan(const float* query, const float* rows, size_t stride, uint32_t n,
              size_t dim, const uint32_t* ids, uint32_t exclude,
              TopKSelector* sel) {
  // Same accumulation order as the pre-SIMD per-candidate loop, so scores
  // are bit-identical to the scalar brute-force reference.
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t id = ids != nullptr ? ids[i] : i;
    if (id == exclude) continue;
    const float s = Dot(query, rows + static_cast<size_t>(i) * stride, dim);
    if (s > sel->Threshold()) sel->Push(s, id);
  }
}

void TopKScanI8(const Int8Query* queries, size_t num_queries,
                const uint8_t* groups, size_t dim, const float* row_scales,
                const float* row_mins, uint32_t n, uint32_t first_id,
                TopKSelector* const* sels) {
  // The integer dot is exact and the dequantization is the one shared
  // expression, so this loop defines the scores every dispatch level must
  // reproduce bit-for-bit.
  for (size_t j = 0; j < num_queries; ++j) {
    const Int8Query& q = queries[j];
    TopKSelector* sel = sels[j];
    for (uint32_t i = 0; i < n; ++i) {
      // Row i's codes sit 4 at a time, 64 bytes apart, in its group.
      const uint8_t* row = groups + I8CodeOffset(i, 0, dim);
      int32_t idot = 0;
      for (size_t d = 0; d < dim; ++d) {
        idot += static_cast<int32_t>(q.codes[d]) *
                static_cast<int32_t>(row[d / 4 * 64 + d % 4]);
      }
      const float s = Int8DequantScore(q, row_scales[i], row_mins[i], idot);
      if (s > sel->Threshold()) sel->Push(s, first_id + i);
    }
  }
}

void AdcScan(const float* table, const uint8_t* codes, size_t m, uint32_t n,
             const uint32_t* ids, uint32_t exclude, TopKSelector* sel) {
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t id = ids != nullptr ? ids[i] : i;
    if (id == exclude) continue;
    const uint8_t* row = codes + static_cast<size_t>(i) * m;
    float s = 0.0f;
    for (size_t sub = 0; sub < m; ++sub) s += table[sub * 256 + row[sub]];
    if (s > sel->Threshold()) sel->Push(s, id);
  }
}

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, p += 8) {
    // Byte-wise assembly keeps the word little-endian on any host; compilers
    // fold it into one load on little-endian targets.
    const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^
        t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace simd_scalar
}  // namespace sisg
