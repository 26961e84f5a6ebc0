// AVX2+FMA(+PCLMUL) kernels. This translation unit is the only one compiled
// with -mavx2 -mfma -mpclmul (see src/common/CMakeLists.txt); everything here
// is gated on those macros so the file degrades to a stub on non-x86 targets
// or compilers without AVX2 support, keeping the build portable.

#include "common/simd.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__PCLMUL__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

namespace sisg {
namespace simd_avx2 {
namespace {

inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

float DotAvx2(const float* a, const float* b, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= dim) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    i += 8;
  }
  float acc = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t dim) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < dim; ++i) y[i] += alpha * x[i];
}

/// Combined sweep of one output row: grad_in += g * out (pre-update value)
/// and out += g * in, in a single pass while the row is in registers.
void UpdateRowAvx2(const float* in, float* grad_in, float* out, float g,
                   size_t dim) {
  const __m256 gv = _mm256_set1_ps(g);
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 o = _mm256_loadu_ps(out + i);
    _mm256_storeu_ps(grad_in + i,
                     _mm256_fmadd_ps(gv, o, _mm256_loadu_ps(grad_in + i)));
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(gv, _mm256_loadu_ps(in + i), o));
  }
  for (; i < dim; ++i) {
    const float o = out[i];
    grad_in[i] += g * o;
    out[i] = o + g * in[i];
  }
}

void SgnsUpdateFusedAvx2(const float* in, float* grad_in, float* out_pos,
                         float* const* out_negs, int num_negs, float lr,
                         size_t dim, const SigmoidTable& sigmoid) {
  // Phase 1: all dot products (the input vector stays hot across rows),
  // mapped through the sigmoid LUT into per-row gradient scales. Rows are
  // chunked so the scratch stays on the stack for any negative count.
  constexpr int kChunk = 64;
  float* rows[kChunk];
  float gains[kChunk];
  int processed = -1;  // -1: positive row not yet emitted
  while (processed < num_negs) {
    int n = 0;
    if (processed < 0) {
      rows[n] = out_pos;
      gains[n] = 1.0f;  // label
      ++n;
      processed = 0;
    }
    for (; processed < num_negs && n < kChunk; ++processed) {
      float* out_neg = out_negs[processed];
      if (out_neg == nullptr) continue;
      rows[n] = out_neg;
      gains[n] = 0.0f;  // label
      ++n;
    }
    for (int r = 0; r < n; ++r) {
      const float f = DotAvx2(in, rows[r], dim);
      gains[r] = (gains[r] - sigmoid.Sigmoid(f)) * lr;
    }
    // Phase 2: one combined update sweep per row.
    for (int r = 0; r < n; ++r) {
      UpdateRowAvx2(in, grad_in, rows[r], gains[r], dim);
    }
  }
}

/// Sums the 8 lanes of each of 4 accumulators into one __m128
/// (lane r = hsum(acc_r)), so a 4-row tile stores its scores with one blend.
inline __m128 Hsum4x256(__m256 a0, __m256 a1, __m256 a2, __m256 a3) {
  const __m256 h01 = _mm256_hadd_ps(a0, a1);
  const __m256 h23 = _mm256_hadd_ps(a2, a3);
  const __m256 h = _mm256_hadd_ps(h01, h23);
  return _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
}

/// scores[i] = query . rows[i] over `n` rows spaced `stride` floats apart:
/// 4-row tiles keep the query in registers and prefetch ahead of the stream.
void DotBatchAvx2(const float* query, const float* rows, size_t stride,
                  uint32_t n, size_t dim, float* scores) {
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = rows + static_cast<size_t>(i) * stride;
    const float* r1 = r0 + stride;
    const float* r2 = r1 + stride;
    const float* r3 = r2 + stride;
    if (i + 8 <= n) {
      // Pull the next tile into cache while this one computes; rows are at
      // most a few cache lines (dim <= 256), so the row starts suffice to
      // trigger the hardware streamer.
      _mm_prefetch(reinterpret_cast<const char*>(r3 + stride), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(r3 + 2 * stride), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(r3 + 3 * stride), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(r3 + 4 * stride), _MM_HINT_T0);
    }
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      const __m256 qv = _mm256_loadu_ps(query + d);
      acc0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + d), acc0);
      acc1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + d), acc1);
      acc2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r2 + d), acc2);
      acc3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r3 + d), acc3);
    }
    __m128 sums = Hsum4x256(acc0, acc1, acc2, acc3);
    if (d < dim) {
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; d < dim; ++d) {
        const float q = query[d];
        t0 += q * r0[d];
        t1 += q * r1[d];
        t2 += q * r2[d];
        t3 += q * r3[d];
      }
      sums = _mm_add_ps(sums, _mm_setr_ps(t0, t1, t2, t3));
    }
    _mm_storeu_ps(scores + i, sums);
  }
  for (; i < n; ++i) {
    scores[i] = DotAvx2(query, rows + static_cast<size_t>(i) * stride, dim);
  }
}

void TopKScanAvx2(const float* query, const float* rows, size_t stride,
                  uint32_t n, size_t dim, const uint32_t* ids, uint32_t exclude,
                  TopKSelector* sel) {
  // Chunked: one batched-dot pass fills a stack buffer, then a cheap scalar
  // pass folds it into the selector. Pruning against the running threshold
  // keeps the heap out of the way once it warms up.
  constexpr uint32_t kChunk = 256;
  float scores[kChunk];
  for (uint32_t base = 0; base < n; base += kChunk) {
    const uint32_t len = n - base < kChunk ? n - base : kChunk;
    DotBatchAvx2(query, rows + static_cast<size_t>(base) * stride, stride, len,
                 dim, scores);
    float thr = sel->Threshold();
    for (uint32_t j = 0; j < len; ++j) {
      if (scores[j] <= thr) continue;
      const uint32_t id = ids != nullptr ? ids[base + j] : base + j;
      if (id == exclude) continue;
      sel->Push(scores[j], id);
      thr = sel->Threshold();
    }
  }
}

inline int32_t Hsum256i(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

/// 16 codes per step: widen u8 rows and i8 queries to i16 and multiply-add
/// pairs with madd_epi16. The obvious maddubs_epi16 path is NOT used: it
/// saturates its intermediate i16 sums (255 * 127 * 2 > 32767), which would
/// both lose precision and break the bit-exact-across-dispatch contract.
/// The widened path is exact for any code values, at half the throughput of
/// maddubs and still ~4x the fp32 lanes.
int32_t DotI8Avx2(const int8_t* q, const uint8_t* row, size_t dim) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256i r16 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i)));
    const __m256i q16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(r16, q16));
  }
  int32_t dot = Hsum256i(acc);
  for (; i < dim; ++i) {
    dot += static_cast<int32_t>(q[i]) * static_cast<int32_t>(row[i]);
  }
  return dot;
}

/// idots[i] = exact integer q . rows[i] over `n` u8 rows spaced `stride`
/// bytes apart (only the first `dim` codes of a row are read).
void DotBatchI8Avx2(const int8_t* q, const uint8_t* rows, size_t stride,
                    uint32_t n, size_t dim, int32_t* idots) {
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t* r0 = rows + static_cast<size_t>(i) * stride;
    const uint8_t* r1 = r0 + stride;
    const uint8_t* r2 = r1 + stride;
    const uint8_t* r3 = r2 + stride;
    if (i + 8 <= n) {
      // A whole int8 row is <= 4 cache lines at dim 256; the row starts are
      // enough to keep the stream ahead of the loads.
      _mm_prefetch(reinterpret_cast<const char*>(r3 + stride), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(r3 + 2 * stride), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(r3 + 3 * stride), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(r3 + 4 * stride), _MM_HINT_T0);
    }
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      const __m256i q16 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + d)));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(r0 + d))),
                    q16));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(r1 + d))),
                    q16));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(r2 + d))),
                    q16));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(r3 + d))),
                    q16));
    }
    int32_t t0 = Hsum256i(acc0);
    int32_t t1 = Hsum256i(acc1);
    int32_t t2 = Hsum256i(acc2);
    int32_t t3 = Hsum256i(acc3);
    for (; d < dim; ++d) {
      const int32_t qd = q[d];
      t0 += qd * r0[d];
      t1 += qd * r1[d];
      t2 += qd * r2[d];
      t3 += qd * r3[d];
    }
    idots[i] = t0;
    idots[i + 1] = t1;
    idots[i + 2] = t2;
    idots[i + 3] = t3;
  }
  for (; i < n; ++i) {
    idots[i] = DotI8Avx2(q, rows + static_cast<size_t>(i) * stride, dim);
  }
}

void TopKScanI8Avx2(const Int8Query& query, const uint8_t* rows, size_t stride,
                    const float* row_scales, const float* row_mins, uint32_t n,
                    size_t dim, const uint32_t* ids, uint32_t exclude,
                    TopKSelector* sel) {
  // Chunked like the fp32 scan: one batched integer pass fills a stack
  // buffer, then a scalar pass dequantizes (same expression as the scalar
  // kernel, on exactly the same integer dots) and folds into the selector —
  // bit-identical to simd_scalar::TopKScanI8.
  constexpr uint32_t kChunk = 256;
  int32_t idots[kChunk];
  for (uint32_t base = 0; base < n; base += kChunk) {
    const uint32_t len = n - base < kChunk ? n - base : kChunk;
    DotBatchI8Avx2(query.codes, rows + static_cast<size_t>(base) * stride,
                   stride, len, dim, idots);
    float thr = sel->Threshold();
    for (uint32_t j = 0; j < len; ++j) {
      const uint32_t i = base + j;
      const uint32_t id = ids != nullptr ? ids[i] : i;
      if (id == exclude) continue;
      const float s =
          Int8DequantScore(query, row_scales[i], row_mins[i], idots[j]);
      if (s <= thr) continue;
      sel->Push(s, id);
      thr = sel->Threshold();
    }
  }
}

/// Per-thread scratch of the tile kernel: one repacked chunk of rows and the
/// i16 code pairs of every query of the call.
struct I8TileScratch {
  std::vector<int32_t, AlignedAllocator<int32_t, 64>> rows;
  std::vector<int32_t> qpairs;
};

/// Bound on the repacked chunk: 512 rows at dim 64, fewer at larger dims
/// (never fewer than two 8-row groups).
constexpr size_t kI8TileScratchBytes = 64 * 1024;

/// In-register transpose of an 8x8 matrix of 32-bit lanes: afterwards v[p]
/// lane r holds what v[r] lane p held.
inline void Transpose8x8Epi32(__m256i v[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(v[0], v[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(v[0], v[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(v[2], v[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(v[2], v[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(v[4], v[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(v[4], v[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(v[6], v[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(v[6], v[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  v[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  v[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  v[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  v[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  v[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  v[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  v[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  v[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// Widens `count` (<= 8) u8 rows into one 8-row group of the tile layout:
/// out[p] lane r = (row r code 2p, row r code 2p+1) as an i16 pair, for
/// pairs up to a whole 16-code block. Codes past `dim` and rows past
/// `count` are zero, so the padding of the source rows is never read.
void PackGroupI8(const uint8_t* rows, size_t stride, uint32_t count,
                 size_t dim, __m256i* out) {
  for (size_t d = 0; d < dim; d += 16, out += 8) {
    const size_t len = dim - d < 16 ? dim - d : 16;
    __m256i v[8];
    for (uint32_t r = 0; r < 8; ++r) {
      __m128i x = _mm_setzero_si128();
      if (r < count) {
        const uint8_t* src = rows + r * stride + d;
        if (len == 16) {
          x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
        } else {
          alignas(16) uint8_t tail[16] = {};
          std::memcpy(tail, src, len);
          x = _mm_load_si128(reinterpret_cast<const __m128i*>(tail));
        }
      }
      v[r] = _mm256_cvtepu8_epi16(x);
    }
    Transpose8x8Epi32(v);
    for (int p = 0; p < 8; ++p) _mm256_store_si256(out + p, v[p]);
  }
}

/// Loads 8 per-row floats starting at row i, zero past row n.
inline __m256 LoadRowParams(const float* p, uint32_t i, uint32_t n) {
  if (i + 8 <= n) return _mm256_loadu_ps(p + i);
  alignas(32) float tmp[8] = {};
  std::memcpy(tmp, p + i, (n - i) * sizeof(float));
  return _mm256_load_ps(tmp);
}

/// Integer dots of a tile of 4 queries (code pairs q0..q3) against two
/// 8-row groups: acc[2j + h] lane r = query j . row r of group h. One named
/// accumulator per (query, group) keeps all eight in registers.
inline void DotTileI8(const __m256i* ga, const __m256i* gb, size_t pairs,
                      const int32_t* q0, const int32_t* q1, const int32_t* q2,
                      const int32_t* q3, __m256i acc[8]) {
  __m256i a0 = _mm256_setzero_si256(), b0 = a0, a1 = a0, b1 = a0;
  __m256i a2 = a0, b2 = a0, a3 = a0, b3 = a0;
  for (size_t p = 0; p < pairs; ++p) {
    const __m256i ra = _mm256_load_si256(ga + p);
    const __m256i rb = _mm256_load_si256(gb + p);
    __m256i q = _mm256_set1_epi32(q0[p]);
    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(ra, q));
    b0 = _mm256_add_epi32(b0, _mm256_madd_epi16(rb, q));
    q = _mm256_set1_epi32(q1[p]);
    a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(ra, q));
    b1 = _mm256_add_epi32(b1, _mm256_madd_epi16(rb, q));
    q = _mm256_set1_epi32(q2[p]);
    a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(ra, q));
    b2 = _mm256_add_epi32(b2, _mm256_madd_epi16(rb, q));
    q = _mm256_set1_epi32(q3[p]);
    a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(ra, q));
    b3 = _mm256_add_epi32(b3, _mm256_madd_epi16(rb, q));
  }
  acc[0] = a0, acc[1] = b0, acc[2] = a1, acc[3] = b1;
  acc[4] = a2, acc[5] = b2, acc[6] = a3, acc[7] = b3;
}

/// Scores `m` (<= kI8TileQueries) queries against one repacked chunk that
/// holds rows [base, end) as `groups` 8-row groups (an even count), 16 rows
/// per tile, then folds every lane that beats its query's threshold into
/// the query's selector in ascending row order. `qpairs` holds the code
/// pairs of the m queries back to back; `zero_pairs` stands in for the
/// missing queries of a partial tile.
void ScanTileI8(const __m256i* packed, uint32_t groups, size_t group_vecs,
                size_t pairs, const int32_t* qpairs, const int32_t* zero_pairs,
                const Int8Query* queries, size_t m, const float* row_scales,
                const float* row_mins, uint32_t base, uint32_t end,
                const uint32_t* ids, uint32_t exclude, TopKSelector* sels) {
  const int32_t* qp[kI8TileQueries];
  __m256 qscale[kI8TileQueries], qsum[kI8TileQueries];
  float thr[kI8TileQueries];
  for (size_t j = 0; j < kI8TileQueries; ++j) {
    qp[j] = j < m ? qpairs + j * pairs : zero_pairs;
    if (j >= m) continue;
    qscale[j] = _mm256_set1_ps(queries[j].scale);
    qsum[j] = _mm256_set1_ps(static_cast<float>(queries[j].sum));
    thr[j] = sels[j].Threshold();
  }
  for (uint32_t g = 0; g < groups; g += 2) {
    const __m256i* ga = packed + g * group_vecs;
    __m256i acc[2 * kI8TileQueries];
    DotTileI8(ga, ga + group_vecs, pairs, qp[0], qp[1], qp[2], qp[3], acc);
    for (uint32_t h = 0; h < 2; ++h) {
      const uint32_t row0 = base + (g + h) * 8;
      if (row0 >= end) break;
      const unsigned valid =
          row0 + 8 <= end ? 0xFFu : (1u << (end - row0)) - 1;
      const __m256 rs = LoadRowParams(row_scales, row0, end);
      const __m256 rm = LoadRowParams(row_mins, row0, end);
      for (size_t j = 0; j < m; ++j) {
        // Int8DequantScore lane-wise, as separate multiplies and adds: this
        // translation unit is built with -ffp-contract=off, so the compiler
        // cannot fuse them into an FMA that rounds differently.
        const __m256 s = _mm256_mul_ps(
            qscale[j],
            _mm256_add_ps(_mm256_mul_ps(rs, _mm256_cvtepi32_ps(acc[2 * j + h])),
                          _mm256_mul_ps(rm, qsum[j])));
        // NLE_UQ is !(s <= thr): the lanes the scalar filter lets through.
        unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
                            _mm256_cmp_ps(s, _mm256_set1_ps(thr[j]),
                                          _CMP_NLE_UQ))) &
                        valid;
        if (mask == 0) continue;
        alignas(32) float sv[8];
        _mm256_store_ps(sv, s);
        do {
          const int lane = std::countr_zero(mask);
          mask &= mask - 1;
          const uint32_t i = row0 + static_cast<uint32_t>(lane);
          const uint32_t id = ids != nullptr ? ids[i] : i;
          if (id == exclude || sv[lane] <= thr[j]) continue;
          sels[j].Push(sv[lane], id);
          thr[j] = sels[j].Threshold();
        } while (mask != 0);
      }
    }
  }
}

void TopKScanI8TileAvx2(const Int8Query* queries, size_t num_queries,
                        const uint8_t* rows, size_t stride,
                        const float* row_scales, const float* row_mins,
                        uint32_t n, size_t dim, const uint32_t* ids,
                        uint32_t exclude, TopKSelector* sels) {
  if (n == 0 || num_queries == 0 || dim == 0) {
    simd_scalar::TopKScanI8Tile(queries, num_queries, rows, stride,
                                row_scales, row_mins, n, dim, ids, exclude,
                                sels);
    return;
  }
  const size_t group_vecs = (dim + 15) / 16 * 8;  // __m256i per 8-row group
  const size_t pairs = (dim + 1) / 2;
  const uint32_t chunk_groups = static_cast<uint32_t>(
      std::max<size_t>(2, kI8TileScratchBytes / (group_vecs * 32)) & ~size_t{1});
  thread_local I8TileScratch scratch;
  scratch.rows.resize(static_cast<size_t>(chunk_groups) * group_vecs * 8);
  // The queries' code pairs, then one all-zero row for partial tiles.
  scratch.qpairs.assign((num_queries + 1) * pairs, 0);
  for (size_t j = 0; j < num_queries; ++j) {
    const int8_t* c = queries[j].codes;
    for (size_t p = 0; p < pairs; ++p) {
      const int16_t lo = c[2 * p];
      const int16_t hi = 2 * p + 1 < dim ? c[2 * p + 1] : 0;
      scratch.qpairs[j * pairs + p] = static_cast<int32_t>(
          static_cast<uint32_t>(static_cast<uint16_t>(lo)) |
          static_cast<uint32_t>(static_cast<uint16_t>(hi)) << 16);
    }
  }
  const int32_t* zero_pairs = scratch.qpairs.data() + num_queries * pairs;
  auto* packed = reinterpret_cast<__m256i*>(scratch.rows.data());
  const uint32_t chunk_rows = chunk_groups * 8;
  for (uint32_t c0 = 0; c0 < n; c0 += chunk_rows) {
    const uint32_t cn = std::min(chunk_rows, n - c0);
    uint32_t groups = (cn + 7) / 8;
    for (uint32_t g = 0; g < groups; ++g) {
      PackGroupI8(rows + static_cast<size_t>(c0 + g * 8) * stride, stride,
                  std::min(8u, cn - g * 8), dim, packed + g * group_vecs);
    }
    if (groups % 2 != 0) {
      // The tile scores groups in pairs; the odd one out pairs with zeros.
      std::fill_n(packed + groups * group_vecs, group_vecs,
                  _mm256_setzero_si256());
      ++groups;
    }
    for (size_t q0 = 0; q0 < num_queries; q0 += kI8TileQueries) {
      ScanTileI8(packed, groups, group_vecs, pairs,
                 scratch.qpairs.data() + q0 * pairs, zero_pairs, queries + q0,
                 std::min(kI8TileQueries, num_queries - q0), row_scales,
                 row_mins, c0, c0 + cn, ids, exclude, sels + q0);
    }
  }
}

void AdcScanAvx2(const float* table, const uint8_t* codes, size_t m,
                 uint32_t n, const uint32_t* ids, uint32_t exclude,
                 TopKSelector* sel) {
  // 8 subspaces per step: widen 8 codes to i32, offset lane s by s * 256 and
  // gather from the per-query table. The table is m * 256 floats (~16KB at
  // m = 16), so it stays L1/L2-resident across the whole scan.
  const __m256i lane_base =
      _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t id = ids != nullptr ? ids[i] : i;
    if (id == exclude) continue;
    const uint8_t* row = codes + static_cast<size_t>(i) * m;
    __m256 acc = _mm256_setzero_ps();
    size_t s = 0;
    for (; s + 8 <= m; s += 8) {
      const __m256i c = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + s)));
      const __m256i idx = _mm256_add_epi32(lane_base, c);
      acc = _mm256_add_ps(acc, _mm256_i32gather_ps(table + s * 256, idx, 4));
    }
    float sum = Hsum256(acc);
    for (; s < m; ++s) sum += table[s * 256 + row[s]];
    if (sum > sel->Threshold()) sel->Push(sum, id);
  }
}

/// One fold step: carry-less multiplies the low and high halves of `x` by the
/// constant pair in `k` (bit-reflected powers of x mod P for a fold distance
/// of n bits) and adds `next`, the 128 bits that sit n bits after `x`.
inline __m128i CrcFold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// CRC-32 by carry-less-multiply folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) in the
/// bit-reflected domain of 0xEDB88320, with the paper's constants (the same
/// ones Linux's crc32-pclmul uses). Four 128-bit lanes fold 64 bytes per
/// step so the multiplier latency overlaps; the lanes then fold into one,
/// 16 bytes at a time, and a Barrett reduction yields the 32-bit register.
/// Inputs under 64 bytes and the final <16 bytes go through the scalar
/// kernel, which the chaining contract makes a plain continuation.
uint32_t Crc32Avx2(const void* data, size_t len, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  if (len < 64) return simd_scalar::Crc32(p, len, crc);
  const auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(~crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;
  const __m128i k512 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = CrcFold(x0, k512, load(p));
    x1 = CrcFold(x1, k512, load(p + 16));
    x2 = CrcFold(x2, k512, load(p + 32));
    x3 = CrcFold(x3, k512, load(p + 48));
  }
  const __m128i k128 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  x0 = CrcFold(x0, k128, x1);
  x0 = CrcFold(x0, k128, x2);
  x0 = CrcFold(x0, k128, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = CrcFold(x0, k128, load(p));
  // 128 -> 96 bits (appending the 32 zero bits a CRC implies), then 96 -> 64.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, 0, 0);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k128, 0x10),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                           _mm_set_epi64x(0, 0x163CD6124), 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction 64 -> 32 bits: low half is P', high half is mu'.
  const __m128i poly_mu = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  const auto state = static_cast<uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
  return simd_scalar::Crc32(p, len, ~state);
}

constexpr SimdOps kAvx2Ops = {DotAvx2,
                              AxpyAvx2,
                              SgnsUpdateFusedAvx2,
                              TopKScanAvx2,
                              TopKScanI8Avx2,
                              TopKScanI8TileAvx2,
                              AdcScanAvx2,
                              Crc32Avx2,
                              SimdLevel::kAvx2};

}  // namespace

const SimdOps* Ops() { return &kAvx2Ops; }

}  // namespace simd_avx2
}  // namespace sisg

#else  // !(__AVX2__ && __FMA__ && __PCLMUL__)

namespace sisg {
namespace simd_avx2 {

const SimdOps* Ops() { return nullptr; }

}  // namespace simd_avx2
}  // namespace sisg

#endif
