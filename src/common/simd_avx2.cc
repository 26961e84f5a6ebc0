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

/// Loads 8 per-row floats starting at row i, zero past row n.
inline __m256 LoadRowParams(const float* p, uint32_t i, uint32_t n) {
  if (i + 8 <= n) return _mm256_loadu_ps(p + i);
  alignas(32) float tmp[8] = {};
  std::memcpy(tmp, p + i, (n - i) * sizeof(float));
  return _mm256_load_ps(tmp);
}

/// Folds the lanes of `s` (rows row0 + lane) set in `mask` into `sel` in
/// ascending row order, re-checking each against the threshold the previous
/// push left. `mask` comes from a NLE_UQ compare against *thr, i.e. exactly
/// the lanes the scalar filter lets through, and the threshold only rises.
inline void PushLanes(__m256 s, unsigned mask, uint32_t id0, TopKSelector* sel,
                      float* thr) {
  alignas(32) float sv[8];
  _mm256_store_ps(sv, s);
  do {
    const int lane = std::countr_zero(mask);
    mask &= mask - 1;
    if (sv[lane] <= *thr) continue;
    sel->Push(sv[lane], id0 + static_cast<uint32_t>(lane));
    *thr = sel->Threshold();
  } while (mask != 0);
}

/// Scores kQ queries against every group of rows [0, n). Each 64-byte
/// vector of a group splits into two 8-row halves; a half's bytes widen to
/// i16 as its even codes (`and` 0x00FF) and its odd codes (shift right 8),
/// and two madd_epi16 against the query's (code 4p, 4p+2) and
/// (code 4p+1, 4p+3) i16 pairs leave code dword p of each row's dot in that
/// row's own i32 lane. u8 x s8 products and their pair sums fit i16 x i16
/// -> i32 exactly, which maddubs_epi16 (saturating i16 sums) would not.
/// `qe`/`qo` hold the pairs of the kQ queries, `dwords` each.
template <int kQ>
void ScanQueriesI8(const uint8_t* groups, size_t dwords, const int32_t* qe,
                   const int32_t* qo, const Int8Query* queries,
                   const float* row_scales, const float* row_mins, uint32_t n,
                   uint32_t first_id, TopKSelector* const* sels) {
  __m256 qscale[kQ], qsum[kQ];
  float thr[kQ];
#pragma GCC unroll 4
  for (int j = 0; j < kQ; ++j) {
    qscale[j] = _mm256_set1_ps(queries[j].scale);
    qsum[j] = _mm256_set1_ps(static_cast<float>(queries[j].sum));
    thr[j] = sels[j]->Threshold();
  }
  const __m256i low_bytes = _mm256_set1_epi16(0x00FF);
  const size_t group_bytes = dwords * 64;
  for (uint32_t row0 = 0; row0 < n; row0 += 16, groups += group_bytes) {
    // Every loop over the accumulators is fully unrolled so they live in
    // registers.
    __m256i acc[kQ][2];
#pragma GCC unroll 4
    for (int j = 0; j < kQ; ++j) {
      acc[j][0] = acc[j][1] = _mm256_setzero_si256();
    }
    for (size_t p = 0; p < dwords; ++p) {
      const __m256i x0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(groups + p * 64));
      const __m256i x1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(groups + p * 64 + 32));
      const __m256i e0 = _mm256_and_si256(x0, low_bytes);
      const __m256i o0 = _mm256_srli_epi16(x0, 8);
      const __m256i e1 = _mm256_and_si256(x1, low_bytes);
      const __m256i o1 = _mm256_srli_epi16(x1, 8);
#pragma GCC unroll 4
      for (int j = 0; j < kQ; ++j) {
        const __m256i qev = _mm256_set1_epi32(qe[j * dwords + p]);
        const __m256i qov = _mm256_set1_epi32(qo[j * dwords + p]);
        acc[j][0] = _mm256_add_epi32(
            acc[j][0], _mm256_add_epi32(_mm256_madd_epi16(e0, qev),
                                        _mm256_madd_epi16(o0, qov)));
        acc[j][1] = _mm256_add_epi32(
            acc[j][1], _mm256_add_epi32(_mm256_madd_epi16(e1, qev),
                                        _mm256_madd_epi16(o1, qov)));
      }
    }
#pragma GCC unroll 2
    for (uint32_t h = 0; h < 2; ++h) {
      const uint32_t r0 = row0 + 8 * h;
      if (r0 >= n) break;
      const unsigned valid = r0 + 8 <= n ? 0xFFu : (1u << (n - r0)) - 1;
      const __m256 rs = LoadRowParams(row_scales, r0, n);
      const __m256 rm = LoadRowParams(row_mins, r0, n);
#pragma GCC unroll 4
      for (int j = 0; j < kQ; ++j) {
        // Int8DequantScore lane-wise, as separate multiplies and adds: this
        // translation unit is built with -ffp-contract=off, so the compiler
        // cannot fuse them into an FMA that rounds differently.
        const __m256 s = _mm256_mul_ps(
            qscale[j],
            _mm256_add_ps(_mm256_mul_ps(rs, _mm256_cvtepi32_ps(acc[j][h])),
                          _mm256_mul_ps(rm, qsum[j])));
        // NLE_UQ is !(s <= thr): the lanes the scalar filter lets through.
        const unsigned mask =
            static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
                s, _mm256_set1_ps(thr[j]), _CMP_NLE_UQ))) &
            valid;
        if (mask != 0) PushLanes(s, mask, first_id + r0, sels[j], &thr[j]);
      }
    }
  }
}

/// Queries per pass of ScanQueriesI8: four keep the eight accumulators,
/// the four widened halves and the broadcast pairs within 16 registers.
constexpr size_t kAvx2QueryBlock = 4;

void TopKScanI8Avx2(const Int8Query* queries, size_t num_queries,
                    const uint8_t* groups, size_t dim, const float* row_scales,
                    const float* row_mins, uint32_t n, uint32_t first_id,
                    TopKSelector* const* sels) {
  if (n == 0 || num_queries == 0) return;
  const size_t dwords = I8GroupDwords(dim);
  // The i16 code pairs of every query, zero past dim: qe[p] packs codes 4p
  // and 4p+2, qo[p] codes 4p+1 and 4p+3.
  thread_local std::vector<int32_t> qe, qo;
  qe.assign(num_queries * dwords, 0);
  qo.assign(num_queries * dwords, 0);
  const auto pair = [](int8_t lo, int8_t hi) {
    return static_cast<int32_t>(
        static_cast<uint32_t>(static_cast<uint16_t>(int16_t{lo})) |
        static_cast<uint32_t>(static_cast<uint16_t>(int16_t{hi})) << 16);
  };
  for (size_t j = 0; j < num_queries; ++j) {
    const int8_t* c = queries[j].codes;
    const auto code = [&](size_t d) { return d < dim ? c[d] : int8_t{0}; };
    for (size_t p = 0; p < dwords; ++p) {
      qe[j * dwords + p] = pair(code(4 * p), code(4 * p + 2));
      qo[j * dwords + p] = pair(code(4 * p + 1), code(4 * p + 3));
    }
  }
  for (size_t q0 = 0; q0 < num_queries; q0 += kAvx2QueryBlock) {
    const size_t m = std::min(kAvx2QueryBlock, num_queries - q0);
    const int32_t* e = qe.data() + q0 * dwords;
    const int32_t* o = qo.data() + q0 * dwords;
    const auto run = [&](auto scan) {
      scan(groups, dwords, e, o, queries + q0, row_scales, row_mins, n,
           first_id, sels + q0);
    };
    switch (m) {
      case 1: run(ScanQueriesI8<1>); break;
      case 2: run(ScanQueriesI8<2>); break;
      case 3: run(ScanQueriesI8<3>); break;
      default: run(ScanQueriesI8<4>); break;
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
