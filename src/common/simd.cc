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
    case SimdLevel::kAvx512Vnni:
      return "avx512vnni";
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

SimdLevel CpuSimdLevel() {
  if (!CpuSupportsAvx2()) return SimdLevel::kScalar;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // libgcc's feature bits for AVX-512 also require the OS to save the ZMM
  // state (XCR0), so a kernel without AVX-512 support reads as AVX2 here.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni")) {
    return SimdLevel::kAvx512Vnni;
  }
#endif
  return SimdLevel::kAvx2;
}

SimdLevel ResolveSimdLevel(const std::string& preference, SimdLevel cpu_level) {
  if (preference == "scalar") return SimdLevel::kScalar;
  // A level dispatches only when this binary carries its table and the CPU
  // can run it; anything else would die on an illegal instruction.
  const auto runnable = [cpu_level](SimdLevel level) {
    const bool built = level == SimdLevel::kAvx512Vnni
                           ? simd_avx512::Ops() != nullptr
                           : simd_avx2::Ops() != nullptr;
    return built && static_cast<int>(cpu_level) >= static_cast<int>(level);
  };
  if (preference == "avx2") {
    return runnable(SimdLevel::kAvx2) ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  }
  // "avx512vnni", "auto" and anything unrecognized: best runnable level.
  if (runnable(SimdLevel::kAvx512Vnni)) return SimdLevel::kAvx512Vnni;
  if (runnable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

namespace {

const SimdOps kScalarOps = {simd_scalar::Dot,
                            simd_scalar::Axpy,
                            simd_scalar::SgnsUpdateFused,
                            simd_scalar::TopKScan,
                            simd_scalar::TopKScanI8,
                            simd_scalar::AdcScan,
                            simd_scalar::Crc32,
                            SimdLevel::kScalar};

}  // namespace

const SimdOps& GetSimdOps() {
  static const SimdOps* const ops = [] {
    const std::string pref = GetEnvString("SISG_SIMD", "auto");
    const SimdLevel level = ResolveSimdLevel(pref, CpuSimdLevel());
    const SimdOps* chosen = level == SimdLevel::kAvx512Vnni ? simd_avx512::Ops()
                            : level == SimdLevel::kAvx2     ? simd_avx2::Ops()
                                                            : &kScalarOps;
    SISG_LOG(Info) << "simd: dispatching " << SimdLevelName(chosen->level)
                   << " kernels (SISG_SIMD=" << pref << ")";
    return chosen;
  }();
  return *ops;
}

}  // namespace sisg
