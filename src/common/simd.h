#ifndef SISG_COMMON_SIMD_H_
#define SISG_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/top_k.h"

namespace sisg {

/// Runtime-dispatched dense kernels for the SGNS hot path, the retrieval
/// (serving) hot path and the artifact checksum. The engine's per-pair cost
/// is dominated by Dot/Axpy over dim 64-256 rows, a top-K query by
/// one-query-vs-many candidate scans, and an artifact load by the CRC-32
/// over its payload; these are provided as portable scalar references and
/// as AVX2+FMA(+PCLMUL) versions, selected once at startup from CPUID
/// (overridable via the SISG_SIMD env var: "scalar", "avx2", "avx512vnni"
/// or "auto"). All kernels accept unaligned pointers; alignment
/// (EmbeddingModel's and the indexes' 64-byte rows) is a performance
/// property, not a correctness requirement.
///
/// A third level, kAvx512Vnni, serves the int8 scan only. Its table is a
/// copy of the AVX2 table with top_k_scan_i8 replaced by a vpdpbusd kernel
/// (u8 row codes x s8 query codes, summed into i32), so every fp32 kernel and
/// the CRC run the very same AVX2 code and cannot change a bit. The int8
/// answers stay bit-identical across all three levels: the integer dots are
/// exact at every level, and every level dequantizes with
/// Int8DequantScore's multiply/add order.

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512Vnni = 2,
};

const char* SimdLevelName(SimdLevel level);

/// A query prepared for the int8 scan path: symmetric quantization
/// q[i] ~= scale * codes[i] with codes in [-127, 127], plus the code sum the
/// affine dequantization needs (see Int8DequantScore). Built per query by
/// QuantizeQueryInt8 (common/quant.h); the codes buffer is caller-owned.
struct Int8Query {
  const int8_t* codes = nullptr;
  int32_t sum = 0;    // sum of codes[0..dim)
  float scale = 0.0f; // q[i] ~= scale * codes[i]
};

/// Reconstructs the fp32 score of one int8-quantized candidate row from the
/// exact integer dot product. Rows are affine-quantized
/// (x[i] ~= row_min + row_scale * u8code[i]), queries symmetric, so
///   q . x ~= q_scale * (row_scale * idot + row_min * sum(q_codes)).
/// Every kernel (scalar and SIMD) funnels through this one expression with
/// an exactly-accumulated integer `idot`, which is what makes int8 scores
/// bit-identical across dispatch levels. Deliberately out-of-line (defined
/// in simd.cc, built without -mfma): inlined into the AVX2 translation unit
/// the compiler would contract the expression into an FMA and round
/// differently than the scalar reference.
float Int8DequantScore(const Int8Query& q, float row_scale, float row_min,
                       int32_t idot);

/// The int8 code layout (Int8Arena, QNTARENA v2): rows come in groups of
/// kI8GroupRows, and a group is I8GroupDwords(dim) 64-byte vectors, where
/// vector p holds code dword p (codes 4p..4p+3) of each of the 16 rows, row r
/// at bytes 4r..4r+3. Codes past `dim` and rows past the last row are zero.
/// One vector load therefore brings the same four codes of 16 rows, and a
/// query dword broadcast against it scores all 16 at once with no
/// horizontal reduction.
inline constexpr uint32_t kI8GroupRows = 16;
inline size_t I8GroupDwords(size_t dim) { return (dim + 3) / 4; }
inline size_t I8GroupBytes(size_t dim) { return I8GroupDwords(dim) * 64; }
/// Byte offset of code `d` of row `row` in a block of that layout.
inline size_t I8CodeOffset(uint32_t row, size_t d, size_t dim) {
  return static_cast<size_t>(row / kI8GroupRows) * I8GroupBytes(dim) +
         d / 4 * 64 + (row % kI8GroupRows) * 4 + d % 4;
}

/// Dispatch table of the hot kernels. `sgns_update_fused` is the fused SGNS
/// gradient step: it computes the positive and all negative dot products,
/// maps them through the sigmoid LUT, then updates every output row in place
/// and accumulates the input gradient into `grad_in` — the same contract as
/// the portable reference `simd_scalar::SgnsUpdateFused` (null negative
/// pointers are skipped), with one fewer sweep per row.
struct SimdOps {
  float (*dot)(const float* a, const float* b, size_t dim);
  void (*axpy)(float alpha, const float* x, float* y, size_t dim);
  void (*sgns_update_fused)(const float* in, float* grad_in, float* out_pos,
                            float* const* out_negs, int num_negs, float lr,
                            size_t dim, const SigmoidTable& sigmoid);
  /// Fused retrieval scan + top-K selection over one contiguous block of
  /// `n` candidate rows spaced `stride` floats apart (stride >= dim; the
  /// padding tail is ignored): computes the dot products chunk-wise and
  /// folds them straight into `sel`, pruning against sel->Threshold() so
  /// heap traffic only happens for improving candidates. `ids` maps block
  /// row -> external id (nullptr: the row index is the id); rows whose id
  /// equals `exclude` are skipped.
  void (*top_k_scan)(const float* query, const float* rows, size_t stride,
                     uint32_t n, size_t dim, const uint32_t* ids,
                     uint32_t exclude, TopKSelector* sel);
  /// Fused int8 scan + top-K selection of `num_queries` queries over `n`
  /// rows in the group layout above: `groups` points at the first row's
  /// group (so the range starts on a group boundary), and the bytes of every
  /// group the range touches must be readable. Row i of the range has id
  /// `first_id + i` and per-row affine params (row_scales[i], row_mins[i]);
  /// query j folds into *sels[j] in ascending row order, pruning against its
  /// threshold like top_k_scan. Exact integer dots (no saturation:
  /// 127 * 255 * dim stays far below the int32 bound for dim <= 2^16),
  /// dequantized through Int8DequantScore, so every level is bit-identical
  /// to the scalar kernel and to one call per query. Only codes below `dim`
  /// and rows below `n` are scored; whatever the padding holds never changes
  /// a result.
  void (*top_k_scan_i8)(const Int8Query* queries, size_t num_queries,
                        const uint8_t* groups, size_t dim,
                        const float* row_scales, const float* row_mins,
                        uint32_t n, uint32_t first_id,
                        TopKSelector* const* sels);
  /// Asymmetric-distance (ADC) scan over PQ codes: row i holds `m` subspace
  /// codes at rows + i * m, scored as sum_s table[s * 256 + code[s]] against
  /// a per-query lookup table (m x 256 floats), folded into `sel` like
  /// top_k_scan. The AVX2 version gathers 8 subspaces per step, so its float
  /// summation order differs from scalar (parity is approximate, like the
  /// fp32 kernels).
  void (*adc_scan)(const float* table, const uint8_t* codes, size_t m,
                   uint32_t n, const uint32_t* ids, uint32_t exclude,
                   TopKSelector* sel);
  /// CRC-32 (IEEE, reflected 0xEDB88320) with the contract of sisg::Crc32
  /// in common/io_util.h, chaining included. Every level returns the same
  /// value for every input: it is the integrity check of every on-disk
  /// artifact, so the dispatch level must never change a stored checksum.
  /// Scalar is slicing-by-8; AVX2 folds 4x128-bit lanes with PCLMULQDQ.
  uint32_t (*crc32)(const void* data, size_t len, uint32_t crc);
  SimdLevel level;
};

/// The active dispatch table. Resolved exactly once (thread-safe local
/// static) from `SISG_SIMD` and CPU feature detection; every trainer hoists
/// this reference out of its inner loop.
const SimdOps& GetSimdOps();

/// Pure resolution logic, exposed for tests: maps a preference string and
/// the widest level the CPU can run (CpuSimdLevel) to the level that would
/// be dispatched. "scalar" and "avx2" are honored when runnable, "avx2"
/// falling back to scalar; "avx512vnni", "auto" and anything unrecognized
/// take the widest level that is both built into this binary and runnable.
SimdLevel ResolveSimdLevel(const std::string& preference, SimdLevel cpu_level);

/// True when the running CPU supports AVX2+FMA and PCLMULQDQ, everything the
/// AVX2 table executes (false on non-x86 builds).
bool CpuSupportsAvx2();

/// The widest level the running CPU can execute: kAvx512Vnni when
/// CpuSupportsAvx2() holds and the CPU (and OS, for the ZMM state) also
/// supports AVX-512 F, BW, VL and VNNI; kScalar on non-x86 builds.
SimdLevel CpuSimdLevel();

namespace simd_scalar {
/// Portable reference implementations (always compiled).
float Dot(const float* a, const float* b, size_t dim);
void Axpy(float alpha, const float* x, float* y, size_t dim);
void SgnsUpdateFused(const float* in, float* grad_in, float* out_pos,
                     float* const* out_negs, int num_negs, float lr,
                     size_t dim, const SigmoidTable& sigmoid);
void TopKScan(const float* query, const float* rows, size_t stride, uint32_t n,
              size_t dim, const uint32_t* ids, uint32_t exclude,
              TopKSelector* sel);
void TopKScanI8(const Int8Query* queries, size_t num_queries,
                const uint8_t* groups, size_t dim, const float* row_scales,
                const float* row_mins, uint32_t n, uint32_t first_id,
                TopKSelector* const* sels);
void AdcScan(const float* table, const uint8_t* codes, size_t m, uint32_t n,
             const uint32_t* ids, uint32_t exclude, TopKSelector* sel);
uint32_t Crc32(const void* data, size_t len, uint32_t crc);
}  // namespace simd_scalar

namespace simd_avx2 {
/// Returns the AVX2+FMA+PCLMUL dispatch table, or nullptr when this binary
/// was built without it (non-x86 target or compiler without the flags).
const SimdOps* Ops();
}  // namespace simd_avx2

namespace simd_avx512 {
/// Returns the AVX-512 VNNI dispatch table (the AVX2 table with the int8
/// scan replaced), or nullptr when this binary was built without it.
const SimdOps* Ops();
}  // namespace simd_avx512

/// Software-prefetch hint for an upcoming embedding row (read-only, all
/// cache levels). Compiles to nothing on toolchains without the builtin, so
/// beam-search loops can call it unconditionally.
inline void PrefetchRow(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Minimal aligned allocator so embedding matrices can guarantee 64-byte
/// row starts (no AVX load ever splits a cache line).
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two >= alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// 64-byte aligned float buffer, the storage type of EmbeddingModel.
using AlignedFloatVector = std::vector<float, AlignedAllocator<float, 64>>;

/// 64-byte aligned byte buffer, the storage type of the int8 and PQ code
/// arenas.
using AlignedByteVector = std::vector<uint8_t, AlignedAllocator<uint8_t, 64>>;

/// Rounds `dim` up to a whole number of 64-byte cache lines worth of floats
/// (the row stride of aligned embedding storage).
inline size_t AlignedRowStride(size_t dim) {
  constexpr size_t kFloatsPerLine = 64 / sizeof(float);
  return (dim + kFloatsPerLine - 1) / kFloatsPerLine * kFloatsPerLine;
}

}  // namespace sisg

#endif  // SISG_COMMON_SIMD_H_
