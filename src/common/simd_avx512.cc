// AVX-512 VNNI int8 scan kernels. This translation unit is the only one
// compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vnni (see
// src/common/CMakeLists.txt); everything here is gated on those macros so the
// file degrades to a stub on other targets or compilers. Its dispatch table
// is the AVX2 table with the two int8 scans replaced: every fp32 kernel and
// the CRC run the AVX2 code unchanged at this level.
//
// vpdpbusd multiplies 4 unsigned bytes by 4 signed bytes and adds the four
// products into one i32 lane without saturation, which is exactly the
// QNTARENA code layout (affine u8 row codes x symmetric s8 query codes), so
// both kernels score the raw codes with no widening and stay bit-identical
// to simd_scalar::TopKScanI8.

#include "common/simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

// GCC 12's AVX-512 unpack/shuffle intrinsics pass a self-initialized
// _mm512_undefined_epi32() as their pass-through operand, which
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

/// Byte mask of the first `len` (< 64) lanes.
inline __mmask64 LowBytes(size_t len) { return (__mmask64{1} << len) - 1; }

/// Load mask of a row's last 64-byte chunk. When the stride covers every
/// chunk the whole chunk is loaded (its padding meets the query's zero pad);
/// otherwise only the codes below `dim`.
inline __mmask64 LastChunkMask(size_t dim, size_t stride) {
  const size_t chunks = (dim + 63) / 64;
  return chunks * 64 <= stride ? ~__mmask64{0} : LowBytes(dim % 64);
}

/// Int8DequantScore over 16 lanes, as separate multiplies and adds: this
/// translation unit is built with -ffp-contract=off, so the compiler cannot
/// fuse them into an FMA that rounds differently from the scalar reference.
inline __m512 DequantI8(__m512 qscale, __m512 qsum, __m512 rs, __m512 rm,
                        __m512i idots) {
  return _mm512_mul_ps(
      qscale, _mm512_add_ps(_mm512_mul_ps(rs, _mm512_cvtepi32_ps(idots)),
                            _mm512_mul_ps(rm, qsum)));
}

/// Folds the lanes of `s` (rows row0 + lane) set in `mask` into `sel` in
/// ascending row order, re-checking each against the threshold the previous
/// push left. `mask` comes from a NLE_UQ compare against *thr, i.e. exactly
/// the lanes the scalar filter lets through, and the threshold only rises.
inline void PushLanes(__m512 s, __mmask16 mask, uint32_t row0,
                      const uint32_t* ids, uint32_t exclude, TopKSelector* sel,
                      float* thr) {
  alignas(64) float sv[16];
  _mm512_store_ps(sv, s);
  unsigned bits = mask;
  do {
    const int lane = std::countr_zero(bits);
    bits &= bits - 1;
    const uint32_t i = row0 + static_cast<uint32_t>(lane);
    const uint32_t id = ids != nullptr ? ids[i] : i;
    if (id == exclude || sv[lane] <= *thr) continue;
    sel->Push(sv[lane], id);
    *thr = sel->Threshold();
  } while (bits != 0);
}

/// Reduces 16 row accumulators (16 i32 partial dots each) to one vector
/// whose lane r is the full dot of row r: unpack_epi32 and unpack_epi64
/// gather four rows' partials per 128-bit lane, then two shuffle_i32x4
/// rounds add the four 128-bit lanes. Integer adds, so the order is free.
/// Every loop here and in the callers is fully unrolled so the arrays live
/// in registers.
inline __m512i ReduceRows16(const __m512i a[16]) {
  __m512i t[8];
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) {
    t[k] = _mm512_add_epi32(_mm512_unpacklo_epi32(a[2 * k], a[2 * k + 1]),
                            _mm512_unpackhi_epi32(a[2 * k], a[2 * k + 1]));
  }
  // u[k] 128-bit lane L: rows 4k..4k+3, partial over lane L of the rows.
  __m512i u[4];
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    u[k] = _mm512_add_epi32(_mm512_unpacklo_epi64(t[2 * k], t[2 * k + 1]),
                            _mm512_unpackhi_epi64(t[2 * k], t[2 * k + 1]));
  }
  // v[k] = [u[2k] L0+L1, u[2k] L2+L3, u[2k+1] L0+L1, u[2k+1] L2+L3].
  __m512i v[2];
#pragma GCC unroll 2
  for (int k = 0; k < 2; ++k) {
    v[k] = _mm512_add_epi32(
        _mm512_shuffle_i32x4(u[2 * k], u[2 * k + 1], _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_shuffle_i32x4(u[2 * k], u[2 * k + 1], _MM_SHUFFLE(3, 1, 3, 1)));
  }
  return _mm512_add_epi32(
      _mm512_shuffle_i32x4(v[0], v[1], _MM_SHUFFLE(2, 0, 2, 0)),
      _mm512_shuffle_i32x4(v[0], v[1], _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Integer dots of 16 rows spaced `stride` bytes apart against the padded
/// query `qv` (`chunks` 64-byte vectors): lane r = query . row r. kMasked
/// handles a partial group (rows past `count` read nothing and score 0) and
/// strides too short for whole-chunk loads (`last_mask`).
template <bool kMasked>
inline __m512i DotRows16(const uint8_t* rows, size_t stride, const __m512i* qv,
                         size_t chunks, uint32_t count, __mmask64 last_mask) {
  __m512i acc[16];
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) acc[r] = _mm512_setzero_si512();
  for (size_t c = 0; c < chunks; ++c) {
    const __m512i q = qv[c];
    const uint8_t* row = rows + c * 64;
    const __mmask64 cm = c + 1 < chunks ? ~__mmask64{0} : last_mask;
#pragma GCC unroll 16
    for (uint32_t r = 0; r < 16; ++r, row += stride) {
      __m512i x;
      if constexpr (kMasked) {
        x = r < count ? _mm512_maskz_loadu_epi8(cm, row)
                      : _mm512_setzero_si512();
      } else {
        x = _mm512_loadu_si512(row);
      }
      acc[r] = _mm512_dpbusd_epi32(acc[r], x, q);
    }
  }
  return ReduceRows16(acc);
}

void TopKScanI8Vnni(const Int8Query& query, const uint8_t* rows, size_t stride,
                    const float* row_scales, const float* row_mins, uint32_t n,
                    size_t dim, const uint32_t* ids, uint32_t exclude,
                    TopKSelector* sel) {
  // The query codes, zero-padded to whole 64-byte chunks in per-thread
  // scratch: row loads then take whole chunks at any dim, and the row
  // padding they pick up multiplies by zero.
  const size_t chunks = (dim + 63) / 64;
  thread_local std::vector<int32_t, AlignedAllocator<int32_t, 64>> qbuf;
  qbuf.resize(chunks * 16);
  auto* qv = reinterpret_cast<__m512i*>(qbuf.data());
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = std::min<size_t>(64, dim - c * 64);
    qv[c] = _mm512_maskz_loadu_epi8(len == 64 ? ~__mmask64{0} : LowBytes(len),
                                    query.codes + c * 64);
  }
  const __mmask64 last_mask = LastChunkMask(dim, stride);
  const bool whole = last_mask == ~__mmask64{0};
  const __m512 qscale = _mm512_set1_ps(query.scale);
  const __m512 qsum = _mm512_set1_ps(static_cast<float>(query.sum));
  float thr = sel->Threshold();
  for (uint32_t i = 0; i < n; i += 16) {
    const uint8_t* group = rows + static_cast<size_t>(i) * stride;
    const uint32_t count = std::min(16u, n - i);
    const __m512i idots =
        whole && count == 16
            ? DotRows16<false>(group, stride, qv, chunks, 16, last_mask)
            : DotRows16<true>(group, stride, qv, chunks, count, last_mask);
    const __mmask16 valid =
        count == 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << count) - 1);
    const __m512 s =
        DequantI8(qscale, qsum, _mm512_maskz_loadu_ps(valid, row_scales + i),
                  _mm512_maskz_loadu_ps(valid, row_mins + i), idots);
    // NLE_UQ is !(s <= thr): the lanes the scalar filter lets through.
    const __mmask16 mask =
        _mm512_mask_cmp_ps_mask(valid, s, _mm512_set1_ps(thr), _CMP_NLE_UQ);
    if (mask != 0) PushLanes(s, mask, i, ids, exclude, sel, &thr);
  }
}

/// Per-thread scratch of the tile kernel: one repacked chunk of rows and the
/// code dwords of every query of the call.
struct I8TileScratch {
  std::vector<int32_t, AlignedAllocator<int32_t, 64>> rows;
  std::vector<int32_t> qdwords;
};

/// Bound on the repacked chunk: 512 rows at dim 64 (the engine's chunk),
/// fewer at larger dims, never fewer than two 16-row groups.
constexpr size_t kI8TileScratchBytes = 32 * 1024;

/// Repacks up to 16 rows (`count`) into one group of the tile layout:
/// out[p] lane r = row r's code dword p (codes 4p..4p+3), for the `dwords`
/// dwords that cover dim. Each 64-byte chunk of the 16 rows is a 16x16
/// transpose of dwords. Absent rows pack as zeros; padding codes come along
/// when the stride allows whole-chunk loads and meet the query's zero pad.
void PackGroupI8(const uint8_t* rows, size_t stride, uint32_t count,
                 size_t chunks, size_t dwords, __mmask64 last_mask,
                 __m512i* out) {
  for (size_t c = 0; c < chunks; ++c) {
    const __mmask64 cm = c + 1 < chunks ? ~__mmask64{0} : last_mask;
    __m512i a[16];
#pragma GCC unroll 16
    for (uint32_t r = 0; r < 16; ++r) {
      a[r] = r < count ? _mm512_maskz_loadu_epi8(cm, rows + r * stride + c * 64)
                       : _mm512_setzero_si512();
    }
    // t[2k], t[2k+1] 128-bit lane L: rows 2k, 2k+1 interleaved over dwords
    // 4L..4L+1 and 4L+2..4L+3.
    __m512i t[16];
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
      t[2 * k] = _mm512_unpacklo_epi32(a[2 * k], a[2 * k + 1]);
      t[2 * k + 1] = _mm512_unpackhi_epi32(a[2 * k], a[2 * k + 1]);
    }
    // u[4k + j] 128-bit lane L: rows 4k..4k+3 of dword 4L + j.
    __m512i u[16];
#pragma GCC unroll 4
    for (int k = 0; k < 4; ++k) {
      u[4 * k] = _mm512_unpacklo_epi64(t[4 * k], t[4 * k + 2]);
      u[4 * k + 1] = _mm512_unpackhi_epi64(t[4 * k], t[4 * k + 2]);
      u[4 * k + 2] = _mm512_unpacklo_epi64(t[4 * k + 1], t[4 * k + 3]);
      u[4 * k + 3] = _mm512_unpackhi_epi64(t[4 * k + 1], t[4 * k + 3]);
    }
    // 4x4 transpose of 128-bit lanes: dword 4L + j gathers lane L of
    // u[j], u[4 + j], u[8 + j], u[12 + j] (rows 0-3, 4-7, 8-11, 12-15).
    __m512i* dst = out + c * 16;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const __m512i s0 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x88);
      const __m512i s1 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xDD);
      const __m512i s2 = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x88);
      const __m512i s3 = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xDD);
      const __m512i v[4] = {_mm512_shuffle_i32x4(s0, s2, 0x88),
                            _mm512_shuffle_i32x4(s1, s3, 0x88),
                            _mm512_shuffle_i32x4(s0, s2, 0xDD),
                            _mm512_shuffle_i32x4(s1, s3, 0xDD)};
#pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        const size_t p = static_cast<size_t>(4 * l + j);
        if (c * 16 + p < dwords) _mm512_store_si512(dst + p, v[l]);
      }
    }
  }
}

/// Integer dots of a tile of 4 queries (code dwords q0..q3) against two
/// 16-row groups: acc[2j + h] lane r = query j . row r of group h. One
/// vpdpbusd per (query, group, dword) with the query dword broadcast; eight
/// independent accumulators hide its latency.
inline void DotTileI8(const __m512i* ga, const __m512i* gb, size_t dwords,
                      const int32_t* q0, const int32_t* q1, const int32_t* q2,
                      const int32_t* q3, __m512i acc[8]) {
  __m512i a0 = _mm512_setzero_si512(), b0 = a0, a1 = a0, b1 = a0;
  __m512i a2 = a0, b2 = a0, a3 = a0, b3 = a0;
  for (size_t p = 0; p < dwords; ++p) {
    const __m512i ra = _mm512_load_si512(ga + p);
    const __m512i rb = _mm512_load_si512(gb + p);
    __m512i q = _mm512_set1_epi32(q0[p]);
    a0 = _mm512_dpbusd_epi32(a0, ra, q);
    b0 = _mm512_dpbusd_epi32(b0, rb, q);
    q = _mm512_set1_epi32(q1[p]);
    a1 = _mm512_dpbusd_epi32(a1, ra, q);
    b1 = _mm512_dpbusd_epi32(b1, rb, q);
    q = _mm512_set1_epi32(q2[p]);
    a2 = _mm512_dpbusd_epi32(a2, ra, q);
    b2 = _mm512_dpbusd_epi32(b2, rb, q);
    q = _mm512_set1_epi32(q3[p]);
    a3 = _mm512_dpbusd_epi32(a3, ra, q);
    b3 = _mm512_dpbusd_epi32(b3, rb, q);
  }
  acc[0] = a0, acc[1] = b0, acc[2] = a1, acc[3] = b1;
  acc[4] = a2, acc[5] = b2, acc[6] = a3, acc[7] = b3;
}

/// Scores `m` (<= kI8TileQueries) queries against one repacked chunk that
/// holds rows [base, end) as `groups` 16-row groups (an even count), 32 rows
/// per tile, then folds every lane that beats its query's threshold into
/// the query's selector in ascending row order. `qdwords` holds the code
/// dwords of the m queries back to back; `zero_dwords` stands in for the
/// missing queries of a partial tile.
void ScanTileI8(const __m512i* packed, uint32_t groups, size_t dwords,
                const int32_t* qdwords, const int32_t* zero_dwords,
                const Int8Query* queries, size_t m, const float* row_scales,
                const float* row_mins, uint32_t base, uint32_t end,
                const uint32_t* ids, uint32_t exclude, TopKSelector* sels) {
  const int32_t* qd[kI8TileQueries];
  __m512 qscale[kI8TileQueries], qsum[kI8TileQueries];
  float thr[kI8TileQueries];
  for (size_t j = 0; j < kI8TileQueries; ++j) {
    qd[j] = j < m ? qdwords + j * dwords : zero_dwords;
    if (j >= m) continue;
    qscale[j] = _mm512_set1_ps(queries[j].scale);
    qsum[j] = _mm512_set1_ps(static_cast<float>(queries[j].sum));
    thr[j] = sels[j].Threshold();
  }
  for (uint32_t g = 0; g < groups; g += 2) {
    const __m512i* ga = packed + g * dwords;
    __m512i acc[2 * kI8TileQueries];
    DotTileI8(ga, ga + dwords, dwords, qd[0], qd[1], qd[2], qd[3], acc);
    for (uint32_t h = 0; h < 2; ++h) {
      const uint32_t row0 = base + (g + h) * 16;
      if (row0 >= end) break;
      const __mmask16 valid =
          row0 + 16 <= end ? __mmask16{0xFFFF}
                           : static_cast<__mmask16>((1u << (end - row0)) - 1);
      const __m512 rs = _mm512_maskz_loadu_ps(valid, row_scales + row0);
      const __m512 rm = _mm512_maskz_loadu_ps(valid, row_mins + row0);
      for (size_t j = 0; j < m; ++j) {
        const __m512 s = DequantI8(qscale[j], qsum[j], rs, rm, acc[2 * j + h]);
        const __mmask16 mask = _mm512_mask_cmp_ps_mask(
            valid, s, _mm512_set1_ps(thr[j]), _CMP_NLE_UQ);
        if (mask != 0) {
          PushLanes(s, mask, row0, ids, exclude, &sels[j], &thr[j]);
        }
      }
    }
  }
}

void TopKScanI8TileVnni(const Int8Query* queries, size_t num_queries,
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
  const size_t chunks = (dim + 63) / 64;
  const size_t dwords = (dim + 3) / 4;  // __m512i per 16-row group
  const __mmask64 last_mask = LastChunkMask(dim, stride);
  const uint32_t chunk_groups = static_cast<uint32_t>(
      std::max<size_t>(2, kI8TileScratchBytes / (dwords * 64)) & ~size_t{1});
  thread_local I8TileScratch scratch;
  scratch.rows.resize(static_cast<size_t>(chunk_groups) * dwords * 16);
  // The queries' code dwords (zero past dim), then one all-zero query for
  // partial tiles.
  scratch.qdwords.assign((num_queries + 1) * dwords, 0);
  for (size_t j = 0; j < num_queries; ++j) {
    std::memcpy(scratch.qdwords.data() + j * dwords, queries[j].codes, dim);
  }
  const int32_t* zero_dwords = scratch.qdwords.data() + num_queries * dwords;
  auto* packed = reinterpret_cast<__m512i*>(scratch.rows.data());
  const uint32_t chunk_rows = chunk_groups * 16;
  for (uint32_t c0 = 0; c0 < n; c0 += chunk_rows) {
    const uint32_t cn = std::min(chunk_rows, n - c0);
    uint32_t groups = (cn + 15) / 16;
    for (uint32_t g = 0; g < groups; ++g) {
      PackGroupI8(rows + static_cast<size_t>(c0 + g * 16) * stride, stride,
                  std::min(16u, cn - g * 16), chunks, dwords, last_mask,
                  packed + g * dwords);
    }
    if (groups % 2 != 0) {
      // The tile scores groups in pairs; the odd one out pairs with zeros.
      std::fill_n(packed + groups * dwords, dwords, _mm512_setzero_si512());
      ++groups;
    }
    for (size_t q0 = 0; q0 < num_queries; q0 += kI8TileQueries) {
      ScanTileI8(packed, groups, dwords, scratch.qdwords.data() + q0 * dwords,
                 zero_dwords, queries + q0,
                 std::min(kI8TileQueries, num_queries - q0), row_scales,
                 row_mins, c0, c0 + cn, ids, exclude, sels + q0);
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
    table.top_k_scan_i8_tile = TopKScanI8TileVnni;
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
