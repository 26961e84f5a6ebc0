// AVX-512 VNNI int8 scan kernels. This translation unit is the only one
// compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vnni (see
// src/common/CMakeLists.txt); everything here is gated on those macros so the
// file degrades to a stub on other targets or compilers. Its dispatch table
// is the AVX2 table with the int8 scan replaced: every fp32 kernel and the
// CRC run the AVX2 code unchanged at this level.
//
// vpdpbusd multiplies 4 unsigned bytes by 4 signed bytes and adds the four
// products into one i32 lane without saturation, which is exactly the
// QNTARENA code layout (affine u8 row codes x symmetric s8 query codes, one
// code dword of 16 rows per 64-byte vector), so the kernel scores the raw
// codes with no widening and no horizontal sums and stays bit-identical to
// simd_scalar::TopKScanI8.

#include "common/simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

// GCC 12's AVX-512 intrinsics (here _mm512_cvtepi32_ps) pass a
// self-initialized _mm512_undefined_*() as their pass-through operand, which
// -W(maybe-)uninitialized reports at every use; the value is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

namespace sisg {
namespace simd_avx512 {
namespace {

/// Int8DequantScore over 16 lanes, as separate multiplies and adds: this
/// translation unit is built with -ffp-contract=off, so the compiler cannot
/// fuse them into an FMA that rounds differently from the scalar reference.
inline __m512 DequantI8(__m512 qscale, __m512 qsum, __m512 rs, __m512 rm,
                        __m512i idots) {
  return _mm512_mul_ps(
      qscale, _mm512_add_ps(_mm512_mul_ps(rs, _mm512_cvtepi32_ps(idots)),
                            _mm512_mul_ps(rm, qsum)));
}

/// Folds the lanes of `s` (ids id0 + lane) set in `mask` into `sel` in
/// ascending row order, re-checking each against the threshold the previous
/// push left. `mask` comes from a NLE_UQ compare against *thr, i.e. exactly
/// the lanes the scalar filter lets through, and the threshold only rises.
inline void PushLanes(__m512 s, __mmask16 mask, uint32_t id0,
                      TopKSelector* sel, float* thr) {
  alignas(64) float sv[16];
  _mm512_store_ps(sv, s);
  unsigned bits = mask;
  do {
    const int lane = std::countr_zero(bits);
    bits &= bits - 1;
    if (sv[lane] <= *thr) continue;
    sel->Push(sv[lane], id0 + static_cast<uint32_t>(lane));
    *thr = sel->Threshold();
  } while (bits != 0);
}

/// Scores kQ queries against the kG consecutive groups at `g` (rows row0,
/// row0 + 1, ...) and folds every lane that beats its query's threshold
/// into the query's selector in ascending row order. acc[j][h] lane r =
/// query j . row r of group h: one vpdpbusd per (query, group, dword) with
/// the query dword broadcast, the kQ x kG accumulators independent chains
/// that hide its latency. Every loop over them is fully unrolled so they
/// live in registers. `qd` holds the code dwords of the kQ queries,
/// `dwords` each.
template <int kQ, int kG>
inline void StepGroups(const uint8_t* g, size_t dwords, const int32_t* qd,
                       const __m512* qscale, const __m512* qsum,
                       const float* row_scales, const float* row_mins,
                       uint32_t row0, uint32_t n, uint32_t first_id,
                       TopKSelector* const* sels, float* thr) {
  __m512i acc[kQ][kG];
#pragma GCC unroll 8
  for (int j = 0; j < kQ; ++j) {
#pragma GCC unroll 4
    for (int h = 0; h < kG; ++h) acc[j][h] = _mm512_setzero_si512();
  }
  const size_t group_bytes = dwords * 64;
  for (size_t p = 0; p < dwords; ++p) {
    __m512i x[kG];
#pragma GCC unroll 4
    for (int h = 0; h < kG; ++h) {
      x[h] = _mm512_loadu_si512(g + h * group_bytes + p * 64);
    }
#pragma GCC unroll 8
    for (int j = 0; j < kQ; ++j) {
      const __m512i q = _mm512_set1_epi32(qd[j * dwords + p]);
#pragma GCC unroll 4
      for (int h = 0; h < kG; ++h) {
        acc[j][h] = _mm512_dpbusd_epi32(acc[j][h], x[h], q);
      }
    }
  }
#pragma GCC unroll 4
  for (int h = 0; h < kG; ++h) {
    const uint32_t r0 = row0 + 16 * static_cast<uint32_t>(h);
    const __mmask16 valid =
        r0 + 16 <= n ? __mmask16{0xFFFF}
                     : static_cast<__mmask16>((1u << (n - r0)) - 1);
    const __m512 rs = _mm512_maskz_loadu_ps(valid, row_scales + r0);
    const __m512 rm = _mm512_maskz_loadu_ps(valid, row_mins + r0);
#pragma GCC unroll 8
    for (int j = 0; j < kQ; ++j) {
      const __m512 s = DequantI8(qscale[j], qsum[j], rs, rm, acc[j][h]);
      // NLE_UQ is !(s <= thr): the lanes the scalar filter lets through.
      const __mmask16 mask = _mm512_mask_cmp_ps_mask(
          valid, s, _mm512_set1_ps(thr[j]), _CMP_NLE_UQ);
      if (mask != 0) PushLanes(s, mask, first_id + r0, sels[j], &thr[j]);
    }
  }
}

/// Scores kQ queries against every group of rows [0, n), kG groups per
/// step, then one at a time for the rest.
template <int kQ, int kG>
void ScanQueriesI8(const uint8_t* groups, size_t dwords, const int32_t* qd,
                   const Int8Query* queries, const float* row_scales,
                   const float* row_mins, uint32_t n, uint32_t first_id,
                   TopKSelector* const* sels) {
  __m512 qscale[kQ], qsum[kQ];
  float thr[kQ];
#pragma GCC unroll 8
  for (int j = 0; j < kQ; ++j) {
    qscale[j] = _mm512_set1_ps(queries[j].scale);
    qsum[j] = _mm512_set1_ps(static_cast<float>(queries[j].sum));
    thr[j] = sels[j]->Threshold();
  }
  const size_t group_bytes = dwords * 64;
  const uint32_t num_groups = (n + 15) / 16;
  uint32_t g = 0;
  for (; g + kG <= num_groups; g += kG) {
    StepGroups<kQ, kG>(groups + g * group_bytes, dwords, qd, qscale, qsum,
                       row_scales, row_mins, g * 16, n, first_id, sels, thr);
  }
  for (; g < num_groups; ++g) {
    StepGroups<kQ, 1>(groups + g * group_bytes, dwords, qd, qscale, qsum,
                      row_scales, row_mins, g * 16, n, first_id, sels, thr);
  }
}

/// Queries per pass of ScanQueriesI8: eight take 16 of the 32 vector
/// registers as accumulators at two groups per step.
constexpr size_t kVnniQueryBlock = 8;

void TopKScanI8Vnni(const Int8Query* queries, size_t num_queries,
                    const uint8_t* groups, size_t dim, const float* row_scales,
                    const float* row_mins, uint32_t n, uint32_t first_id,
                    TopKSelector* const* sels) {
  if (n == 0 || num_queries == 0) return;
  const size_t dwords = I8GroupDwords(dim);
  // The code dwords of every query, zero past dim: the row padding they
  // meet multiplies by zero.
  thread_local std::vector<int32_t> qd;
  qd.assign(num_queries * dwords, 0);
  for (size_t j = 0; j < num_queries; ++j) {
    std::memcpy(qd.data() + j * dwords, queries[j].codes, dim);
  }
  for (size_t q0 = 0; q0 < num_queries; q0 += kVnniQueryBlock) {
    const size_t m = std::min(kVnniQueryBlock, num_queries - q0);
    const auto run = [&](auto scan) {
      scan(groups, dwords, qd.data() + q0 * dwords, queries + q0, row_scales,
           row_mins, n, first_id, sels + q0);
    };
    // Few queries take more groups per step, so there are always enough
    // independent accumulators in flight.
    switch (m) {
      case 1: run(ScanQueriesI8<1, 4>); break;
      case 2: run(ScanQueriesI8<2, 4>); break;
      case 3: run(ScanQueriesI8<3, 2>); break;
      case 4: run(ScanQueriesI8<4, 2>); break;
      case 5: run(ScanQueriesI8<5, 2>); break;
      case 6: run(ScanQueriesI8<6, 2>); break;
      case 7: run(ScanQueriesI8<7, 2>); break;
      default: run(ScanQueriesI8<8, 2>); break;
    }
  }
}

}  // namespace

const SimdOps* Ops() {
  static const SimdOps* const ops = []() -> const SimdOps* {
    const SimdOps* avx2 = simd_avx2::Ops();
    if (avx2 == nullptr) return nullptr;
    static SimdOps table = *avx2;
    table.top_k_scan_i8 = TopKScanI8Vnni;
    table.level = SimdLevel::kAvx512Vnni;
    return &table;
  }();
  return ops;
}

}  // namespace simd_avx512
}  // namespace sisg

#else  // !(AVX-512 F/BW/VL/VNNI)

namespace sisg {
namespace simd_avx512 {

const SimdOps* Ops() { return nullptr; }

}  // namespace simd_avx512
}  // namespace sisg

#endif
