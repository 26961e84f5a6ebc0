#include "common/simd.h"

#include "common/env_util.h"
#include "common/logging.h"

namespace sisg {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

float Int8DequantScore(const Int8Query& q, float row_scale, float row_min,
                       int32_t idot) {
  return q.scale * (row_scale * static_cast<float>(idot) +
                    row_min * static_cast<float>(q.sum));
}

bool CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

SimdLevel ResolveSimdLevel(const std::string& preference, bool cpu_has_avx2) {
  if (preference == "scalar") return SimdLevel::kScalar;
  const bool avx2_built = simd_avx2::Ops() != nullptr;
  if (preference == "avx2") {
    // Explicit request: honor it only when actually runnable; a binary
    // without the AVX2 TU or a CPU without the feature falls back rather
    // than crashing on an illegal instruction.
    return (avx2_built && cpu_has_avx2) ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  }
  // "auto" (and anything unrecognized): best available.
  return (avx2_built && cpu_has_avx2) ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

namespace {

const SimdOps kScalarOps = {simd_scalar::Dot,
                            simd_scalar::Axpy,
                            simd_scalar::SgnsUpdateFused,
                            simd_scalar::TopKScan,
                            simd_scalar::DotI8,
                            simd_scalar::TopKScanI8,
                            simd_scalar::TopKScanI8Tile,
                            simd_scalar::AdcScan,
                            simd_scalar::Crc32,
                            SimdLevel::kScalar};

}  // namespace

const SimdOps& GetSimdOps() {
  static const SimdOps* const ops = [] {
    const std::string pref = GetEnvString("SISG_SIMD", "auto");
    const SimdLevel level = ResolveSimdLevel(pref, CpuSupportsAvx2());
    const SimdOps* chosen =
        level == SimdLevel::kAvx2 ? simd_avx2::Ops() : &kScalarOps;
    SISG_LOG(Info) << "simd: dispatching " << SimdLevelName(chosen->level)
                   << " kernels (SISG_SIMD=" << pref << ")";
    return chosen;
  }();
  return *ops;
}

}  // namespace sisg
