#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "sgns/embedding_model.h"

namespace sisg {
namespace {

// Odd dims exercise the vector tail loop; 64/128/256 the main lanes.
const size_t kDims[] = {1, 7, 64, 100, 128, 256};

std::vector<float> RandomVec(Rng& rng, size_t dim, float scale = 0.1f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = (rng.UniformFloat() * 2.0f - 1.0f) * scale;
  return v;
}

// --------------------------- dispatch ---------------------------

TEST(SimdDispatchTest, ResolveRespectsPreferenceAndCpu) {
  const SimdLevel kScalar = SimdLevel::kScalar;
  const SimdLevel kAvx2 = SimdLevel::kAvx2;
  const SimdLevel kVnni = SimdLevel::kAvx512Vnni;
  for (SimdLevel cpu : {kScalar, kAvx2, kVnni}) {
    EXPECT_EQ(ResolveSimdLevel("scalar", cpu), kScalar);
  }
  // A CPU without AVX2 runs scalar whatever is asked for.
  for (const char* pref : {"auto", "avx2", "avx512vnni", "bogus"}) {
    EXPECT_EQ(ResolveSimdLevel(pref, kScalar), kScalar) << pref;
  }
  const bool avx2_built = simd_avx2::Ops() != nullptr;
  const bool vnni_built = simd_avx512::Ops() != nullptr;
  const SimdLevel best_avx2 = avx2_built ? kAvx2 : kScalar;
  const SimdLevel best_vnni = vnni_built ? kVnni : best_avx2;
  // A CPU with AVX2 but no AVX-512 VNNI: an explicit avx512vnni request
  // falls back to the best runnable level, never to an illegal instruction.
  EXPECT_EQ(ResolveSimdLevel("auto", kAvx2), best_avx2);
  EXPECT_EQ(ResolveSimdLevel("avx2", kAvx2), best_avx2);
  EXPECT_EQ(ResolveSimdLevel("avx512vnni", kAvx2), best_avx2);
  // A VNNI CPU: auto and avx512vnni take the widest built level, and avx2
  // still pins the AVX2 table.
  EXPECT_EQ(ResolveSimdLevel("auto", kVnni), best_vnni);
  EXPECT_EQ(ResolveSimdLevel("avx512vnni", kVnni), best_vnni);
  EXPECT_EQ(ResolveSimdLevel("bogus", kVnni), best_vnni);
  EXPECT_EQ(ResolveSimdLevel("avx2", kVnni), best_avx2);
}

TEST(SimdDispatchTest, LevelNamesAndTables) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512Vnni), "avx512vnni");
  EXPECT_EQ(CpuSimdLevel() != SimdLevel::kScalar, CpuSupportsAvx2());
  const SimdOps* avx2 = simd_avx2::Ops();
  const SimdOps* vnni = simd_avx512::Ops();
  if (vnni == nullptr) return;
  ASSERT_NE(avx2, nullptr);
  EXPECT_EQ(vnni->level, SimdLevel::kAvx512Vnni);
  // Only the int8 scan differs, so fp32 results cannot move.
  EXPECT_EQ(vnni->dot, avx2->dot);
  EXPECT_EQ(vnni->axpy, avx2->axpy);
  EXPECT_EQ(vnni->sgns_update_fused, avx2->sgns_update_fused);
  EXPECT_EQ(vnni->top_k_scan, avx2->top_k_scan);
  EXPECT_EQ(vnni->adc_scan, avx2->adc_scan);
  EXPECT_EQ(vnni->crc32, avx2->crc32);
  EXPECT_NE(vnni->top_k_scan_i8, avx2->top_k_scan_i8);
}

TEST(SimdDispatchTest, ActiveOpsAreRunnable) {
  const SimdOps& ops = GetSimdOps();
  ASSERT_NE(ops.dot, nullptr);
  ASSERT_NE(ops.axpy, nullptr);
  ASSERT_NE(ops.sgns_update_fused, nullptr);
  ASSERT_NE(ops.top_k_scan, nullptr);
  const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float b[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_NEAR(ops.dot(a, b, 4), 10.0f, 1e-6f);
}

// --------------------------- parity ---------------------------

TEST(SimdParityTest, DotMatchesScalar) {
  const SimdOps& ops = GetSimdOps();
  Rng rng(11);
  for (size_t dim : kDims) {
    const auto a = RandomVec(rng, dim);
    const auto b = RandomVec(rng, dim);
    const float ref = simd_scalar::Dot(a.data(), b.data(), dim);
    EXPECT_NEAR(ops.dot(a.data(), b.data(), dim), ref, 1e-5f)
        << "dim=" << dim;
  }
}

TEST(SimdParityTest, AxpyMatchesScalar) {
  const SimdOps& ops = GetSimdOps();
  Rng rng(12);
  for (size_t dim : kDims) {
    const auto x = RandomVec(rng, dim);
    auto y_ref = RandomVec(rng, dim);
    auto y_simd = y_ref;
    simd_scalar::Axpy(0.37f, x.data(), y_ref.data(), dim);
    ops.axpy(0.37f, x.data(), y_simd.data(), dim);
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(y_simd[i], y_ref[i], 1e-5f) << "dim=" << dim << " i=" << i;
    }
  }
}

TEST(SimdParityTest, SgnsUpdateFusedMatchesScalar) {
  const SimdOps& ops = GetSimdOps();
  Rng rng(13);
  const int num_negs = 5;
  const SigmoidTable sigmoid;
  for (size_t dim : kDims) {
    const auto in = RandomVec(rng, dim, 0.5f);
    auto pos_ref = RandomVec(rng, dim, 0.5f);
    auto pos_simd = pos_ref;
    std::vector<std::vector<float>> negs_ref, negs_simd;
    std::vector<float*> neg_ptrs_ref, neg_ptrs_simd;
    for (int k = 0; k < num_negs; ++k) {
      negs_ref.push_back(RandomVec(rng, dim, 0.5f));
      negs_simd.push_back(negs_ref.back());
    }
    for (int k = 0; k < num_negs; ++k) {
      // A null in the middle checks the skip path on both sides.
      neg_ptrs_ref.push_back(k == 2 ? nullptr : negs_ref[k].data());
      neg_ptrs_simd.push_back(k == 2 ? nullptr : negs_simd[k].data());
    }
    std::vector<float> grad_ref(dim, 0.0f), grad_simd(dim, 0.0f);
    simd_scalar::SgnsUpdateFused(in.data(), grad_ref.data(), pos_ref.data(),
                                 neg_ptrs_ref.data(), num_negs, 0.1f, dim,
                                 sigmoid);
    ops.sgns_update_fused(in.data(), grad_simd.data(), pos_simd.data(),
                          neg_ptrs_simd.data(), num_negs, 0.1f, dim, sigmoid);
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(grad_simd[i], grad_ref[i], 1e-5f) << "dim=" << dim;
      EXPECT_NEAR(pos_simd[i], pos_ref[i], 1e-5f) << "dim=" << dim;
      for (int k = 0; k < num_negs; ++k) {
        EXPECT_NEAR(negs_simd[k][i], negs_ref[k][i], 1e-5f)
            << "dim=" << dim << " neg=" << k;
      }
    }
  }
}

TEST(SimdParityTest, FusedHandlesManyNegativesAcrossChunks) {
  // More negatives than the AVX2 kernel's stack chunk (64) in one call.
  const SimdOps& ops = GetSimdOps();
  Rng rng(14);
  const size_t dim = 64;
  const int num_negs = 150;
  const SigmoidTable sigmoid;
  const auto in = RandomVec(rng, dim, 0.5f);
  auto pos_ref = RandomVec(rng, dim, 0.5f);
  auto pos_simd = pos_ref;
  std::vector<std::vector<float>> negs_ref(num_negs), negs_simd(num_negs);
  std::vector<float*> ptrs_ref(num_negs), ptrs_simd(num_negs);
  for (int k = 0; k < num_negs; ++k) {
    negs_ref[k] = RandomVec(rng, dim, 0.5f);
    negs_simd[k] = negs_ref[k];
    ptrs_ref[k] = negs_ref[k].data();
    ptrs_simd[k] = negs_simd[k].data();
  }
  std::vector<float> grad_ref(dim, 0.0f), grad_simd(dim, 0.0f);
  simd_scalar::SgnsUpdateFused(in.data(), grad_ref.data(), pos_ref.data(),
                               ptrs_ref.data(), num_negs, 0.05f, dim, sigmoid);
  ops.sgns_update_fused(in.data(), grad_simd.data(), pos_simd.data(),
                        ptrs_simd.data(), num_negs, 0.05f, dim, sigmoid);
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(grad_simd[i], grad_ref[i], 1e-4f);
    EXPECT_NEAR(pos_simd[i], pos_ref[i], 1e-5f);
  }
}

// --------------------------- retrieval kernels ---------------------------

TEST(SimdParityTest, TopKScanMatchesScalarSelector) {
  const SimdOps& ops = GetSimdOps();
  Rng rng(16);
  for (size_t dim : {1ul, 7ul, 64ul, 128ul}) {
    // Spans several of the AVX2 kernel's 256-row chunks.
    const uint32_t n = 700;
    const size_t stride = AlignedRowStride(dim);
    AlignedFloatVector rows(n * stride, 0.0f);
    for (uint32_t r = 0; r < n; ++r) {
      for (size_t d = 0; d < dim; ++d) {
        rows[r * stride + d] = rng.UniformFloat() * 2.0f - 1.0f;
      }
    }
    const auto q = RandomVec(rng, dim, 1.0f);
    std::vector<uint32_t> ids(n);
    for (uint32_t r = 0; r < n; ++r) ids[r] = r * 2;  // non-identity id map
    TopKSelector ref_sel(10), got_sel(10);
    simd_scalar::TopKScan(q.data(), rows.data(), stride, n, dim, ids.data(),
                          /*exclude=*/6, &ref_sel);
    ops.top_k_scan(q.data(), rows.data(), stride, n, dim, ids.data(),
                   /*exclude=*/6, &got_sel);
    const auto ref = ref_sel.Take();
    const auto got = got_sel.Take();
    ASSERT_EQ(ref.size(), got.size()) << "dim=" << dim;
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].id, ref[i].id) << "dim=" << dim << " rank=" << i;
      EXPECT_NEAR(got[i].score, ref[i].score, 1e-4f) << "dim=" << dim;
      EXPECT_NE(got[i].id, 6u);  // excluded id never surfaces
    }
  }
}

TEST(SimdParityTest, TopKScanNullIdsUsesRowIndex) {
  const SimdOps& ops = GetSimdOps();
  Rng rng(17);
  const size_t dim = 16, stride = AlignedRowStride(dim);
  const uint32_t n = 50;
  AlignedFloatVector rows(n * stride, 0.0f);
  for (uint32_t r = 0; r < n; ++r) {
    for (size_t d = 0; d < dim; ++d) {
      rows[r * stride + d] = rng.UniformFloat() - 0.5f;
    }
  }
  const auto q = RandomVec(rng, dim, 1.0f);
  TopKSelector sel(n);
  ops.top_k_scan(q.data(), rows.data(), stride, n, dim, nullptr,
                 /*exclude=*/3, &sel);
  const auto res = sel.Take();
  EXPECT_EQ(res.size(), n - 1);  // row 3 excluded by index
  for (const auto& r : res) {
    EXPECT_LT(r.id, n);
    EXPECT_NE(r.id, 3u);
  }
}

// --------------------------- aligned storage ---------------------------

TEST(AlignedStorageTest, RowStrideRoundsUpToCacheLine) {
  EXPECT_EQ(AlignedRowStride(1), 16u);
  EXPECT_EQ(AlignedRowStride(16), 16u);
  EXPECT_EQ(AlignedRowStride(17), 32u);
  EXPECT_EQ(AlignedRowStride(64), 64u);
  EXPECT_EQ(AlignedRowStride(100), 112u);
  EXPECT_EQ(AlignedRowStride(128), 128u);
}

TEST(AlignedStorageTest, EmbeddingRowsAre64ByteAligned) {
  for (uint32_t dim : {7u, 12u, 64u, 100u}) {
    EmbeddingModel m;
    ASSERT_TRUE(m.Init(17, dim, 5).ok());
    EXPECT_GE(m.row_stride(), dim);
    EXPECT_EQ(m.row_stride() % 16, 0u);
    for (uint32_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Input(r)) % 64, 0u)
          << "dim=" << dim << " row=" << r;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Output(r)) % 64, 0u)
          << "dim=" << dim << " row=" << r;
    }
  }
}

}  // namespace
}  // namespace sisg
