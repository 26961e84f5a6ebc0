// SIMD property suite: scalar-reference vs dispatched-kernel parity over
// generated dims 1-256 and adversarial values (±0, subnormals, exact small
// ints, ~1e15 magnitudes). The fp32/ADC kernels differ from scalar only in
// summation order, so parity is a scaled tolerance; the int8 kernels
// accumulate exactly and must match bit-for-bit, and so must the CRC-32
// kernels (against a bit-at-a-time oracle), since artifacts store its value.
// The int8 kernel (any number of queries in one call, over the packed group
// layout) must equal the per-query scalar scan bit for bit at every
// dispatch level the host can run: scalar, avx2 and avx512vnni.
// For the other properties, when the build machine has AVX2 the dispatched
// side is the AVX2 table regardless of SISG_SIMD; the AVX-512 VNNI table
// shares every one of those kernels with it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/io_util.h"
#include "common/quant.h"
#include "common/simd.h"
#include "common/top_k.h"
#include "gtest/gtest.h"
#include "prop.h"

namespace sisg::prop {
namespace {

const SimdOps& DispatchedOps() {
  const SimdOps* avx2 = simd_avx2::Ops();
  return avx2 != nullptr ? *avx2 : GetSimdOps();
}

/// The int8 kernel of every dispatch level this binary carries and the
/// host can run, scalar first.
struct Int8Level {
  const char* name;
  decltype(SimdOps::top_k_scan_i8) scan;
};

std::vector<Int8Level> Int8Levels() {
  std::vector<Int8Level> levels = {{"scalar", simd_scalar::TopKScanI8}};
  const int cpu = static_cast<int>(CpuSimdLevel());
  for (const SimdOps* ops : {simd_avx2::Ops(), simd_avx512::Ops()}) {
    if (ops != nullptr && cpu >= static_cast<int>(ops->level)) {
      levels.push_back({SimdLevelName(ops->level), ops->top_k_scan_i8});
    }
  }
  return levels;
}

/// Dim generator weighted toward vector-width boundaries, where remainder
/// loops live.
Gen<size_t> DimGen() {
  return Frequency<size_t>(
      {{3, InRange<size_t>(1, 8)},
       {2, ElementOf<size_t>({7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                              127, 128, 129, 255, 256})},
       {3, InRange<size_t>(1, 256)}});
}

struct VecPairCase {
  size_t dim = 1;
  std::vector<float> a, b;
};

Gen<VecPairCase> VecPairGen() {
  return Gen<VecPairCase>([](Rng& rng) {
    VecPairCase c;
    c.dim = DimGen()(rng);
    const auto val = AdversarialFloat();
    for (size_t i = 0; i < c.dim; ++i) {
      c.a.push_back(val(rng));
      c.b.push_back(val(rng));
    }
    return c;
  });
}

std::string ShowVecPair(const VecPairCase& c) {
  std::ostringstream os;
  os << "{dim=" << c.dim << ", a=" << ShowValue(c.a)
     << ", b=" << ShowValue(c.b) << "}";
  return os.str();
}

/// Two-sided float-summation error bound for comparing two orderings of the
/// same dot product: each ordering errs by at most ~dim * eps * sum|terms|.
double DotTolerance(const float* a, const float* b, size_t dim) {
  double mag = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    mag += std::fabs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  return 1e-4 * mag + 1e-6;
}

TEST(PropSimd, DotParityScalarVsDispatched) {
  const SimdOps& ops = DispatchedOps();
  const Result r = ForAllSeeded<VecPairCase>(
      "dot_parity", 200, VecPairGen(),
      [&](const VecPairCase& c) -> std::string {
        const float ref = simd_scalar::Dot(c.a.data(), c.b.data(), c.dim);
        const float got = ops.dot(c.a.data(), c.b.data(), c.dim);
        const double tol = DotTolerance(c.a.data(), c.b.data(), c.dim);
        if (std::fabs(static_cast<double>(ref) - got) > tol) {
          std::ostringstream os;
          os << "dot mismatch: scalar=" << ref << " dispatched=" << got
             << " tol=" << tol;
          return os.str();
        }
        return "";
      },
      nullptr, ShowVecPair);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropSimd, AxpyParityScalarVsDispatched) {
  const SimdOps& ops = DispatchedOps();
  const auto gen = Gen<VecPairCase>([](Rng& rng) {
    VecPairCase c;
    c.dim = DimGen()(rng);
    const auto val = AdversarialFloat();
    c.a.push_back(val(rng));  // a[0] is alpha
    for (size_t i = 0; i < c.dim; ++i) {
      c.a.push_back(val(rng));  // x
      c.b.push_back(val(rng));  // y
    }
    return c;
  });
  const Result r = ForAllSeeded<VecPairCase>(
      "axpy_parity", 200, gen,
      [&](const VecPairCase& c) -> std::string {
        const float alpha = c.a[0];
        const float* x = c.a.data() + 1;
        std::vector<float> y_ref(c.b), y_got(c.b);
        simd_scalar::Axpy(alpha, x, y_ref.data(), c.dim);
        ops.axpy(alpha, x, y_got.data(), c.dim);
        for (size_t i = 0; i < c.dim; ++i) {
          // FMA contraction differs from mul+add by one rounding of the
          // product term; scale the bound accordingly.
          const double tol =
              1e-5 * (std::fabs(static_cast<double>(alpha) * x[i]) +
                      std::fabs(static_cast<double>(c.b[i]))) +
              1e-30;
          if (std::fabs(static_cast<double>(y_ref[i]) - y_got[i]) > tol) {
            std::ostringstream os;
            os << "axpy mismatch at i=" << i << ": scalar=" << y_ref[i]
               << " dispatched=" << y_got[i] << " tol=" << tol;
            return os.str();
          }
        }
        return "";
      },
      nullptr, ShowVecPair);
  EXPECT_TRUE(r.ok) << r.message;
}

struct BlockCase {
  size_t dim = 1;
  uint32_t n = 1;
  uint32_t k = 1;
  bool use_ids = false;
  uint32_t exclude = UINT32_MAX;
  std::vector<float> query;
  std::vector<float> rows;  // n * AlignedRowStride(dim), padding zeroed
  std::vector<uint32_t> ids;
};

Gen<BlockCase> BlockGen() {
  return Gen<BlockCase>([](Rng& rng) {
    BlockCase c;
    c.dim = DimGen()(rng);
    c.n = static_cast<uint32_t>(rng.UniformInt(1, 40));
    c.k = static_cast<uint32_t>(rng.UniformInt(0, c.n + 5));
    const auto val = AdversarialFloat();
    for (size_t i = 0; i < c.dim; ++i) c.query.push_back(val(rng));
    const size_t stride = AlignedRowStride(c.dim);
    c.rows.assign(static_cast<size_t>(c.n) * stride, 0.0f);
    for (uint32_t r = 0; r < c.n; ++r) {
      for (size_t i = 0; i < c.dim; ++i) c.rows[r * stride + i] = val(rng);
    }
    c.use_ids = rng.Bernoulli(0.5);
    if (c.use_ids) {
      for (uint32_t r = 0; r < c.n; ++r) c.ids.push_back(1000 + r);
      rng.Shuffle(c.ids);
    }
    if (rng.Bernoulli(0.5)) {
      const uint32_t row = static_cast<uint32_t>(rng.UniformU64(c.n));
      c.exclude = c.use_ids ? c.ids[row] : row;
    }
    return c;
  });
}

std::string ShowBlock(const BlockCase& c) {
  std::ostringstream os;
  os << "{dim=" << c.dim << ", n=" << c.n << ", k=" << c.k
     << ", use_ids=" << c.use_ids << ", exclude=" << c.exclude
     << ", query=" << ShowValue(c.query) << "}";
  return os.str();
}

/// Ground-truth score of block row r, computed in double.
double GroundTruth(const BlockCase& c, uint32_t r) {
  const size_t stride = AlignedRowStride(c.dim);
  double s = 0.0;
  for (size_t i = 0; i < c.dim; ++i) {
    s += static_cast<double>(c.query[i]) *
         static_cast<double>(c.rows[r * stride + i]);
  }
  return s;
}

double RowTolerance(const BlockCase& c, uint32_t r) {
  const size_t stride = AlignedRowStride(c.dim);
  double mag = 0.0;
  for (size_t i = 0; i < c.dim; ++i) {
    mag += std::fabs(static_cast<double>(c.query[i]) *
                     static_cast<double>(c.rows[r * stride + i]));
  }
  return 1e-4 * mag + 1e-6;
}

/// Soundness + completeness of a top-K result against double ground truth:
/// right count, no excluded id, unique ids, every kept score correct for its
/// id, and no skipped candidate beating the kept set by more than tolerance.
std::string CheckTopK(const BlockCase& c, std::vector<ScoredId> got) {
  std::vector<double> gt(c.n);
  double max_tol = 0.0;
  uint32_t eligible = 0;
  for (uint32_t r = 0; r < c.n; ++r) {
    gt[r] = GroundTruth(c, r);
    max_tol = std::max(max_tol, RowTolerance(c, r));
    const uint32_t id = c.use_ids ? c.ids[r] : r;
    if (id != c.exclude) ++eligible;
  }
  const size_t want = std::min<size_t>(c.k, eligible);
  if (got.size() != want) {
    return "result count " + std::to_string(got.size()) + " != " +
           std::to_string(want);
  }
  std::vector<bool> kept(c.n, false);
  double min_kept = std::numeric_limits<double>::infinity();
  for (const ScoredId& s : got) {
    uint32_t row = UINT32_MAX;
    for (uint32_t r = 0; r < c.n; ++r) {
      const uint32_t id = c.use_ids ? c.ids[r] : r;
      if (id == s.id) row = r;
    }
    if (row == UINT32_MAX) return "unknown id " + std::to_string(s.id);
    if (s.id == c.exclude) return "excluded id returned";
    if (kept[row]) return "duplicate id " + std::to_string(s.id);
    kept[row] = true;
    if (std::fabs(gt[row] - s.score) > RowTolerance(c, row)) {
      std::ostringstream os;
      os << "id " << s.id << " score " << s.score << " != ground truth "
         << gt[row];
      return os.str();
    }
    min_kept = std::min(min_kept, static_cast<double>(s.score));
  }
  for (uint32_t r = 0; r < c.n; ++r) {
    const uint32_t id = c.use_ids ? c.ids[r] : r;
    if (kept[r] || id == c.exclude) continue;
    if (gt[r] > min_kept + 2.0 * max_tol) {
      std::ostringstream os;
      os << "skipped id " << id << " (gt " << gt[r]
         << ") beats kept minimum " << min_kept;
      return os.str();
    }
  }
  return "";
}

TEST(PropSimd, TopKScanSoundAgainstGroundTruth) {
  const SimdOps& ops = DispatchedOps();
  const Result r = ForAllSeeded<BlockCase>(
      "top_k_scan_sound", 150, BlockGen(),
      [&](const BlockCase& c) -> std::string {
        const size_t stride = AlignedRowStride(c.dim);
        TopKSelector sel(c.k);
        ops.top_k_scan(c.query.data(), c.rows.data(), stride, c.n, c.dim,
                       c.use_ids ? c.ids.data() : nullptr, c.exclude, &sel);
        return CheckTopK(c, sel.Take());
      },
      nullptr, ShowBlock);
  EXPECT_TRUE(r.ok) << r.message;
}

/// The rows the int8 property scans: dense fp32 rows where ties decide
/// (copies of earlier rows, constant rows with scale 0), the id of the first
/// row, an optional split into two calls at a group boundary, and the seed
/// of the non-zero noise planted in the padding of the group layout.
struct Int8Block {
  size_t dim = 1;
  uint32_t n = 1;
  uint32_t split = 0;  // rows [0, split) and [split, n) are two calls
  uint32_t first_id = 0;
  std::vector<float> rows;  // n * dim, dense
  uint64_t pad_seed = 0;    // 0 = padding left zero
};

/// Draws the rows, split, first id and pad seed, given dim and n.
void GenRowsAndSplit(Rng& rng, Int8Block* b) {
  b->split = rng.Bernoulli(0.3) ? static_cast<uint32_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(b->n / 16))) *
                                      16
                                : b->n;
  b->rows.resize(static_cast<size_t>(b->n) * b->dim);
  for (uint32_t r = 0; r < b->n; ++r) {
    float* row = b->rows.data() + static_cast<size_t>(r) * b->dim;
    const double kind = rng.UniformDouble();
    if (kind < 0.15 && r > 0) {
      const uint32_t src = static_cast<uint32_t>(rng.UniformU64(r));
      std::copy_n(b->rows.data() + static_cast<size_t>(src) * b->dim, b->dim,
                  row);
    } else if (kind < 0.25) {
      std::fill_n(row, b->dim, static_cast<float>(rng.Gaussian()));
    } else {
      for (size_t i = 0; i < b->dim; ++i) {
        row[i] = static_cast<float>(rng.Gaussian());
      }
    }
  }
  b->first_id = rng.Bernoulli(0.5) ? 0 : static_cast<uint32_t>(rng.UniformU64(1u << 20));
  b->pad_seed = rng.Bernoulli(0.8) ? rng.UniformU64(UINT64_MAX) + 1 : 0;
}

/// A query of `dim` Gaussian values, all zero one time in ten.
std::vector<float> GenQuery(Rng& rng, size_t dim) {
  std::vector<float> q(dim);
  const bool zero = rng.Bernoulli(0.1);
  for (float& x : q) x = zero ? 0.0f : static_cast<float>(rng.Gaussian());
  return q;
}

/// The block quantized into the group layout (Int8Arena, the production
/// packer), in exactly its whole groups' bytes (a kernel reading past the
/// last group is a heap overflow under ASan). The scalar reference scans
/// `clean`, whose padding is zero; every level scans `planted`, the same
/// codes with non-zero bytes past dim and in the rows past n, which must
/// not change any result.
struct Int8Codes {
  std::vector<uint8_t> clean, planted;
  std::vector<float> scales, mins;
};

Int8Codes QuantizeBlock(const Int8Block& b) {
  Int8Arena arena;
  EXPECT_TRUE(arena.BuildFromRows(b.rows.data(), b.n, static_cast<uint32_t>(b.dim),
                                  b.dim)
                  .ok());
  Int8Codes q;
  q.clean.assign(arena.codes(), arena.codes() + arena.code_bytes());
  q.scales.assign(arena.scales(), arena.scales() + b.n);
  q.mins.assign(arena.mins(), arena.mins() + b.n);
  q.planted = q.clean;
  if (b.pad_seed != 0) {
    Rng pad(b.pad_seed);
    const uint32_t padded_rows = (b.n + 15) / 16 * 16;
    const size_t padded_dim = I8GroupDwords(b.dim) * 4;
    for (uint32_t r = 0; r < padded_rows; ++r) {
      for (size_t d = r < b.n ? b.dim : 0; d < padded_dim; ++d) {
        q.planted[I8CodeOffset(r, d, b.dim)] =
            static_cast<uint8_t>(1 + pad.UniformU64(255));
      }
    }
  }
  return q;
}

/// "" when `got` equals `ref` in ids and score bits, else the first
/// difference, prefixed with `what`.
std::string CompareBits(const std::string& what,
                        const std::vector<ScoredId>& got,
                        const std::vector<ScoredId>& ref) {
  if (got.size() != ref.size()) {
    return what + ": " + std::to_string(got.size()) + " results vs scalar " +
           std::to_string(ref.size());
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (got[i].id != ref[i].id ||
        std::memcmp(&got[i].score, &ref[i].score, sizeof(float)) != 0) {
      std::ostringstream os;
      os << what << " rank " << i << ": (" << got[i].score << ", "
         << got[i].id << ") != scalar (" << ref[i].score << ", " << ref[i].id
         << ")";
      return os.str();
    }
  }
  return "";
}

struct ScanI8Case {
  Int8Block block;
  std::vector<uint32_t> ks;  // one per query
  std::vector<std::vector<float>> queries;
  std::vector<ScoredId> prefill;  // pushed into every selector first
};

/// Cases: dims 1-300 (odd and non-multiples of 4 and 16 included), row
/// counts weighted to the sizes around the 16-row group (n % 16 != 0 most
/// of the time) and sometimes spanning hundreds of groups, 1-17 queries
/// (whole and partial query blocks at every level) with k from 0 to past
/// n, selectors that already hold entries, plus the degenerate inputs where
/// ties decide: duplicate rows, constant rows (scale 0) and a zero query.
Gen<ScanI8Case> ScanI8Gen() {
  return Gen<ScanI8Case>([](Rng& rng) {
    ScanI8Case c;
    Int8Block& b = c.block;
    b.dim = Frequency<size_t>(
        {{2, ElementOf<size_t>({1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 50, 63,
                                64, 65, 127, 128, 129, 255, 256, 299, 300})},
         {3, InRange<size_t>(1, 300)}})(rng);
    b.n = Frequency<uint32_t>(
        {{2, ElementOf<uint32_t>({1, 15, 16, 17, 31, 32, 33, 47, 48, 49})},
         {3, InRange<uint32_t>(1, 60)},
         {2, InRange<uint32_t>(100, 700)}})(rng);
    const auto num_queries = static_cast<size_t>(
        Frequency<int64_t>({{3, InRange<int64_t>(1, 4)},
                            {2, InRange<int64_t>(5, 17)}})(rng));
    for (size_t j = 0; j < num_queries; ++j) {
      c.ks.push_back(static_cast<uint32_t>(rng.UniformInt(0, b.n + 5)));
      c.queries.push_back(GenQuery(rng, b.dim));
    }
    if (rng.Bernoulli(0.3)) {
      // Ids far from the scanned ones; scores around the scanned scale so
      // some rows fall below the selector's threshold from the start.
      const auto count = static_cast<uint32_t>(rng.UniformInt(1, 6));
      for (uint32_t i = 0; i < count; ++i) {
        c.prefill.push_back(
            {static_cast<float>(rng.Gaussian() * static_cast<double>(b.dim)),
             (1u << 30) + i});
      }
    }
    GenRowsAndSplit(rng, &b);
    return c;
  });
}

std::string ShowScanI8(const ScanI8Case& c) {
  std::ostringstream os;
  const Int8Block& b = c.block;
  os << "{dim=" << b.dim << ", n=" << b.n << ", split=" << b.split
     << ", first_id=" << b.first_id << ", pad_seed=" << b.pad_seed
     << ", queries=" << c.queries.size() << ", ks=" << ShowValue(c.ks)
     << ", prefill=" << c.prefill.size() << "}";
  return os.str();
}

TEST(PropSimd, TopKScanInt8BitIdenticalToPerQueryScalarScan) {
  const std::vector<Int8Level> levels = Int8Levels();
  const Result r = ForAllSeeded<ScanI8Case>(
      "top_k_scan_i8_bit_identical", 300, ScanI8Gen(),
      [&](const ScanI8Case& c) -> std::string {
        const Int8Block& b = c.block;
        const Int8Codes q = QuantizeBlock(b);
        const size_t m = c.queries.size();
        std::vector<int8_t> qcodes(m * b.dim);
        std::vector<Int8Query> iq(m);
        for (size_t j = 0; j < m; ++j) {
          iq[j] = QuantizeQueryInt8(c.queries[j].data(), b.dim,
                                    qcodes.data() + j * b.dim);
        }
        // Scans rows [0, split) and [split, n) (skipping an empty range) with
        // `per_call` queries per kernel call: the second range starts from
        // selectors that already hold rows, as the engine's chunk loop does.
        const auto run = [&](decltype(SimdOps::top_k_scan_i8) scan,
                             const std::vector<uint8_t>& codes,
                             size_t per_call) {
          std::vector<TopKSelector> sels;
          for (uint32_t k : c.ks) {
            sels.emplace_back(k);
            for (const ScoredId& e : c.prefill) sels.back().Push(e.score, e.id);
          }
          std::vector<TopKSelector*> ptrs;
          for (TopKSelector& sel : sels) ptrs.push_back(&sel);
          for (const auto& [begin, end] :
               {std::pair<uint32_t, uint32_t>{0, b.split}, {b.split, b.n}}) {
            if (begin == end) continue;
            for (size_t j = 0; j < m; j += per_call) {
              scan(iq.data() + j, std::min(per_call, m - j),
                   codes.data() + begin / 16 * I8GroupBytes(b.dim), b.dim,
                   q.scales.data() + begin, q.mins.data() + begin,
                   end - begin, b.first_id + begin, ptrs.data() + j);
            }
          }
          std::vector<std::vector<ScoredId>> out;
          for (TopKSelector& sel : sels) out.push_back(sel.Take());
          return out;
        };
        const auto ref = run(simd_scalar::TopKScanI8, q.clean, 1);
        for (const Int8Level& level : levels) {
          const auto got = run(level.scan, q.planted, m);
          for (size_t j = 0; j < m; ++j) {
            const std::string diff = CompareBits(
                std::string(level.name) + " query " + std::to_string(j),
                got[j], ref[j]);
            if (!diff.empty()) return diff;
          }
        }
        return "";
      },
      nullptr, ShowScanI8);
  EXPECT_TRUE(r.ok) << r.message;
}

struct AdcCase {
  size_t m = 1;
  uint32_t n = 1;
  uint32_t k = 1;
  uint32_t exclude = UINT32_MAX;
  std::vector<float> table;    // m * 256
  std::vector<uint8_t> codes;  // n * m
};

TEST(PropSimd, AdcScanSoundAgainstGroundTruth) {
  const SimdOps& ops = DispatchedOps();
  const auto gen = Gen<AdcCase>([](Rng& rng) {
    AdcCase c;
    c.m = static_cast<size_t>(rng.UniformInt(1, 16));
    c.n = static_cast<uint32_t>(rng.UniformInt(1, 40));
    c.k = static_cast<uint32_t>(rng.UniformInt(0, c.n + 3));
    for (size_t i = 0; i < c.m * 256; ++i) {
      c.table.push_back(static_cast<float>(rng.Gaussian()));
    }
    for (size_t i = 0; i < static_cast<size_t>(c.n) * c.m; ++i) {
      c.codes.push_back(static_cast<uint8_t>(rng.UniformU64(256)));
    }
    if (rng.Bernoulli(0.5)) {
      c.exclude = static_cast<uint32_t>(rng.UniformU64(c.n));
    }
    return c;
  });
  const Result r = ForAllSeeded<AdcCase>(
      "adc_scan_sound", 150, gen,
      [&](const AdcCase& c) -> std::string {
        TopKSelector sel(c.k);
        ops.adc_scan(c.table.data(), c.codes.data(), c.m, c.n, nullptr,
                     c.exclude, &sel);
        const auto got = sel.Take();

        std::vector<double> gt(c.n, 0.0);
        double tol = 1e-6;
        for (uint32_t r = 0; r < c.n; ++r) {
          double mag = 0.0;
          for (size_t s = 0; s < c.m; ++s) {
            const double v = c.table[s * 256 + c.codes[r * c.m + s]];
            gt[r] += v;
            mag += std::fabs(v);
          }
          tol = std::max(tol, 1e-4 * mag + 1e-6);
        }
        const uint32_t eligible = c.n - (c.exclude != UINT32_MAX ? 1 : 0);
        const size_t want = std::min<size_t>(c.k, eligible);
        if (got.size() != want) {
          return "result count " + std::to_string(got.size()) + " != " +
                 std::to_string(want);
        }
        std::vector<bool> kept(c.n, false);
        double min_kept = std::numeric_limits<double>::infinity();
        for (const ScoredId& s : got) {
          if (s.id >= c.n) return "unknown id " + std::to_string(s.id);
          if (s.id == c.exclude) return "excluded id returned";
          if (kept[s.id]) return "duplicate id " + std::to_string(s.id);
          kept[s.id] = true;
          if (std::fabs(gt[s.id] - s.score) > tol) {
            std::ostringstream os;
            os << "id " << s.id << " score " << s.score
               << " != ground truth " << gt[s.id] << " (tol " << tol << ")";
            return os.str();
          }
          min_kept = std::min(min_kept, static_cast<double>(s.score));
        }
        for (uint32_t r = 0; r < c.n; ++r) {
          if (kept[r] || r == c.exclude) continue;
          if (gt[r] > min_kept + 2.0 * tol) {
            std::ostringstream os;
            os << "skipped id " << r << " (gt " << gt[r]
               << ") beats kept minimum " << min_kept;
            return os.str();
          }
        }
        return "";
      });
  EXPECT_TRUE(r.ok) << r.message;
}

/// Independent CRC-32 oracle: the textbook shift-and-xor loop, one bit per
/// step, sharing no table or code with the kernels under test.
uint32_t Crc32Bitwise(const uint8_t* p, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

struct CrcCase {
  std::vector<uint8_t> bytes;
  std::vector<size_t> splits;  // ascending chain points in [0, bytes.size()]
};

/// Lengths weighted to the short inputs the scalar head/tail handles and to
/// multiples of the 16- and 64-byte fold widths +-1, with a share of long
/// buffers up to 70k that run many 64-byte fold steps.
Gen<size_t> CrcLengthGen() {
  const auto boundary = Gen<size_t>([](Rng& rng) {
    const size_t width = rng.Bernoulli(0.5) ? 16 : 64;
    const size_t blocks = static_cast<size_t>(rng.UniformInt(1, 40));
    return width * blocks - 1 + rng.UniformU64(3);
  });
  return Frequency<size_t>({{4, InRange<size_t>(0, 130)},
                            {3, boundary},
                            {1, InRange<size_t>(0, 70000)}});
}

Gen<CrcCase> CrcCaseGen() {
  return Gen<CrcCase>([](Rng& rng) {
    CrcCase c;
    const size_t len = CrcLengthGen()(rng);
    // Adversarial byte mixes: random, all-zero (the CRC's own register
    // image), all-ones, one set bit in zeros, and the bit-edge bytes.
    const uint64_t mode = rng.UniformU64(5);
    c.bytes.assign(len, mode == 2 ? 0xFF : 0x00);
    if (mode == 0) {
      for (auto& b : c.bytes) b = static_cast<uint8_t>(rng.UniformU64(256));
    } else if (mode == 3 && len > 0) {
      c.bytes[rng.UniformU64(len)] =
          static_cast<uint8_t>(1u << rng.UniformU64(8));
    } else if (mode == 4) {
      static constexpr uint8_t kEdges[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
      for (auto& b : c.bytes) b = kEdges[rng.UniformU64(5)];
    }
    const size_t n_splits = static_cast<size_t>(rng.UniformInt(0, 4));
    for (size_t i = 0; i < n_splits; ++i) {
      c.splits.push_back(static_cast<size_t>(rng.UniformU64(len + 1)));
    }
    std::sort(c.splits.begin(), c.splits.end());
    return c;
  });
}

std::string ShowCrcCase(const CrcCase& c) {
  std::ostringstream os;
  os << "{len=" << c.bytes.size() << ", splits=" << ShowValue(c.splits)
     << ", bytes="
     << ShowValue(std::vector<int>(c.bytes.begin(), c.bytes.end())) << "}";
  return os.str();
}

/// Shrinks toward shorter buffers and fewer chain points; splits past the
/// new end are clamped so every candidate stays well-formed.
std::vector<CrcCase> ShrinkCrcCase(const CrcCase& c) {
  std::vector<CrcCase> out;
  if (!c.splits.empty()) out.push_back({c.bytes, {}});
  const size_t n = c.bytes.size();
  for (size_t keep : {n / 2, n - 1}) {
    if (n == 0 || keep >= n) continue;
    for (bool front : {true, false}) {
      CrcCase d;
      d.bytes.assign(front ? c.bytes.end() - keep : c.bytes.begin(),
                     front ? c.bytes.end() : c.bytes.begin() + keep);
      for (size_t s : c.splits) d.splits.push_back(std::min(s, keep));
      out.push_back(std::move(d));
    }
  }
  return out;
}

TEST(PropSimd, Crc32BitIdenticalToOracleAtEveryLevel) {
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  ASSERT_EQ(Crc32Bitwise(check, sizeof(check)), 0xCBF43926u);
  const SimdOps& ops = DispatchedOps();
  const Result r = ForAllSeeded<CrcCase>(
      "crc32_oracle_parity", 250, CrcCaseGen(),
      [&](const CrcCase& c) -> std::string {
        const size_t len = c.bytes.size();
        const uint32_t want = Crc32Bitwise(c.bytes.data(), len);
        if (const uint32_t got = Crc32(c.bytes.data(), len); got != want) {
          return "Crc32 (active dispatch) " + std::to_string(got) +
                 " != oracle " + std::to_string(want);
        }
        // Every start offset within a cache line: the fold loads are
        // unaligned, and the 16-byte lanes straddle lines differently.
        std::vector<uint8_t> buf(len + 64);
        for (size_t off = 0; off < 64; ++off) {
          if (len > 0) std::memcpy(buf.data() + off, c.bytes.data(), len);
          const uint32_t scalar = simd_scalar::Crc32(buf.data() + off, len, 0);
          const uint32_t dispatched = ops.crc32(buf.data() + off, len, 0);
          if (scalar != want || dispatched != want) {
            return "offset " + std::to_string(off) + ": scalar " +
                   std::to_string(scalar) + ", dispatched " +
                   std::to_string(dispatched) + " != oracle " +
                   std::to_string(want);
          }
        }
        // Chained at the split points, alternating the level per segment:
        // the levels must hand each other the same running register.
        for (int first = 0; first < 2; ++first) {
          uint32_t crc = 0;
          size_t begin = 0;
          for (size_t i = 0; i <= c.splits.size(); ++i) {
            const size_t end = i < c.splits.size() ? c.splits[i] : len;
            const auto kernel =
                (i + first) % 2 == 0 ? &simd_scalar::Crc32 : ops.crc32;
            crc = kernel(c.bytes.data() + begin, end - begin, crc);
            begin = end;
          }
          if (crc != want) {
            return "chained (first level " +
                   std::string(first == 0 ? "scalar" : "dispatched") + ") " +
                   std::to_string(crc) + " != oracle " + std::to_string(want);
          }
        }
        return "";
      },
      ShrinkCrcCase, ShowCrcCase);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
