// Quantization property suite: the int8 affine row scheme's analytic
// guarantees on generated embeddings — per-coordinate round-trip error at
// most scale/2, score error within the bound that follows from it, and
// recall preservation of the int8 top-K against the fp32 ranking.

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/quant.h"
#include "common/simd.h"
#include "common/top_k.h"
#include "gtest/gtest.h"
#include "prop.h"

namespace sisg::prop {
namespace {

/// Row values mix gaussians with occasional heavy outliers, the regime that
/// stresses an affine-per-row scheme (one outlier widens that row's step).
Gen<float> RowValue() {
  return Frequency<float>({{8, GaussianFloat()},
                           {1, GaussianFloat(100.0f)},
                           {1, ElementOf<float>({0.0f, -0.0f, 1.0f, -1.0f})}});
}

struct RowCase {
  size_t dim = 1;
  std::vector<float> row;
};

Gen<RowCase> RowGen() {
  return Gen<RowCase>([](Rng& rng) {
    RowCase c;
    c.dim = static_cast<size_t>(rng.UniformInt(1, 256));
    if (rng.Bernoulli(0.1)) {
      // Constant rows (max == min) must reconstruct exactly.
      const float v = static_cast<float>(rng.Gaussian());
      c.row.assign(c.dim, v);
    } else {
      const auto val = RowValue();
      for (size_t i = 0; i < c.dim; ++i) c.row.push_back(val(rng));
    }
    return c;
  });
}

std::string ShowRow(const RowCase& c) {
  std::ostringstream os;
  os << "{dim=" << c.dim << ", row=" << ShowValue(c.row) << "}";
  return os.str();
}

TEST(PropQuant, RowRoundTripErrorAtMostHalfScale) {
  const Result r = ForAllSeeded<RowCase>(
      "row_round_trip", 300, RowGen(),
      [](const RowCase& c) -> std::string {
        std::vector<uint8_t> codes(c.dim);
        float scale = 0.0f, min = 0.0f;
        QuantizeRowInt8(c.row.data(), c.dim, codes.data(), &scale, &min);
        // scale/2 is the analytic bound; the extra term absorbs the float
        // rounding of min + scale * code itself.
        const double bound = static_cast<double>(scale) / 2.0;
        for (size_t i = 0; i < c.dim; ++i) {
          const double rec =
              static_cast<double>(min) + static_cast<double>(scale) * codes[i];
          const double err = std::fabs(rec - static_cast<double>(c.row[i]));
          const double slop =
              1e-5 * (std::fabs(static_cast<double>(c.row[i])) +
                      std::fabs(static_cast<double>(min)));
          if (err > bound * 1.0001 + slop + 1e-12) {
            std::ostringstream os;
            os << "coord " << i << ": |" << rec << " - " << c.row[i]
               << "| = " << err << " > scale/2 = " << bound;
            return os.str();
          }
          if (scale == 0.0f && rec != static_cast<double>(c.row[i])) {
            return "constant row did not reconstruct exactly";
          }
        }
        return "";
      },
      nullptr, ShowRow);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropQuant, QueryRoundTripAndCodeSum) {
  const Result r = ForAllSeeded<RowCase>(
      "query_round_trip", 300, RowGen(),
      [](const RowCase& c) -> std::string {
        std::vector<int8_t> codes(c.dim);
        const Int8Query q = QuantizeQueryInt8(c.row.data(), c.dim, codes.data());
        if (q.codes != codes.data()) return "query view does not alias buffer";
        int64_t sum = 0;
        double max_abs = 0.0;
        for (size_t i = 0; i < c.dim; ++i) {
          sum += codes[i];
          max_abs = std::max(max_abs,
                             std::fabs(static_cast<double>(c.row[i])));
        }
        if (sum != q.sum) {
          return "declared code sum " + std::to_string(q.sum) +
                 " != actual " + std::to_string(sum);
        }
        // Symmetric scheme: q[i] ~= scale * code[i], step = max|q| / 127.
        const double bound = static_cast<double>(q.scale) / 2.0;
        for (size_t i = 0; i < c.dim; ++i) {
          const double rec = static_cast<double>(q.scale) * codes[i];
          const double err = std::fabs(rec - static_cast<double>(c.row[i]));
          if (err > bound * 1.0001 + 1e-5 * max_abs + 1e-12) {
            std::ostringstream os;
            os << "coord " << i << ": |" << rec << " - " << c.row[i]
               << "| = " << err << " > scale/2 = " << bound;
            return os.str();
          }
        }
        if (q.scale == 0.0f) {
          for (size_t i = 0; i < c.dim; ++i) {
            if (c.row[i] != 0.0f) return "zero scale on a nonzero query";
          }
        }
        return "";
      },
      nullptr, ShowRow);
  EXPECT_TRUE(r.ok) << r.message;
}

struct ScoreCase {
  size_t dim = 1;
  std::vector<float> query;
  std::vector<float> row;
};

TEST(PropQuant, ScoreErrorWithinAnalyticBound) {
  const auto gen = Gen<ScoreCase>([](Rng& rng) {
    ScoreCase c;
    c.dim = static_cast<size_t>(rng.UniformInt(1, 256));
    const auto val = RowValue();
    for (size_t i = 0; i < c.dim; ++i) {
      c.query.push_back(val(rng));
      c.row.push_back(val(rng));
    }
    return c;
  });
  const Result r = ForAllSeeded<ScoreCase>(
      "score_error_bound", 250, gen,
      [](const ScoreCase& c) -> std::string {
        std::vector<uint8_t> rcodes(c.dim);
        float rscale = 0.0f, rmin = 0.0f;
        QuantizeRowInt8(c.row.data(), c.dim, rcodes.data(), &rscale, &rmin);
        std::vector<int8_t> qcodes(c.dim);
        const Int8Query q =
            QuantizeQueryInt8(c.query.data(), c.dim, qcodes.data());

        int32_t idot = 0;
        for (size_t i = 0; i < c.dim; ++i) {
          idot += int32_t{qcodes[i]} * int32_t{rcodes[i]};
        }
        const float got = Int8DequantScore(q, rscale, rmin, idot);

        double exact = 0.0, sum_abs_q = 0.0, sum_abs_rec_row = 0.0;
        for (size_t i = 0; i < c.dim; ++i) {
          exact += static_cast<double>(c.query[i]) *
                   static_cast<double>(c.row[i]);
          sum_abs_q += std::fabs(static_cast<double>(c.query[i]));
          sum_abs_rec_row += std::fabs(static_cast<double>(rmin) +
                                       static_cast<double>(rscale) * rcodes[i]);
        }
        // |q^.x^ - q.x| <= |q^ - q|.|x^| + |q|.|x^ - x|
        //               <= (q_scale/2) sum|x^_i| + (r_scale/2) sum|q_i|.
        const double bound =
            (static_cast<double>(q.scale) / 2.0) * sum_abs_rec_row +
            (static_cast<double>(rscale) / 2.0) * sum_abs_q;
        const double err = std::fabs(static_cast<double>(got) - exact);
        if (err > bound * 1.05 + 1e-4 * (std::fabs(exact) + 1.0)) {
          std::ostringstream os;
          os << "score error " << err << " exceeds bound " << bound
             << " (exact " << exact << ", int8 " << got << ")";
          return os.str();
        }
        return "";
      });
  EXPECT_TRUE(r.ok) << r.message;
}

struct RecallCase {
  size_t dim = 8;
  uint32_t n = 4;
  uint32_t k = 2;
  std::vector<float> query;
  std::vector<float> rows;  // n * AlignedRowStride(dim)
};

TEST(PropQuant, Int8TopKPreservesRecallWithinQuantizationSlack) {
  const auto gen = Gen<RecallCase>([](Rng& rng) {
    RecallCase c;
    c.dim = static_cast<size_t>(rng.UniformInt(4, 128));
    c.n = static_cast<uint32_t>(rng.UniformInt(5, 60));
    c.k = static_cast<uint32_t>(rng.UniformInt(1, 10));
    for (size_t i = 0; i < c.dim; ++i) {
      c.query.push_back(static_cast<float>(rng.Gaussian()));
    }
    const size_t stride = AlignedRowStride(c.dim);
    c.rows.assign(static_cast<size_t>(c.n) * stride, 0.0f);
    for (uint32_t r = 0; r < c.n; ++r) {
      for (size_t i = 0; i < c.dim; ++i) {
        c.rows[r * stride + i] = static_cast<float>(rng.Gaussian());
      }
    }
    return c;
  });
  const Result r = ForAllSeeded<RecallCase>(
      "int8_recall_preservation", 200, gen,
      [](const RecallCase& c) -> std::string {
        const size_t stride = AlignedRowStride(c.dim);
        Int8Arena arena;
        const Status st =
            arena.BuildFromRows(c.rows.data(), c.n, c.dim, stride);
        if (!st.ok()) return "arena build failed: " + st.ToString();

        std::vector<int8_t> qcodes(c.dim);
        const Int8Query q =
            QuantizeQueryInt8(c.query.data(), c.dim, qcodes.data());

        TopKSelector sel(c.k);
        TopKSelector* sels[] = {&sel};
        simd_scalar::TopKScanI8(&q, 1, arena.codes(), c.dim, arena.scales(),
                                arena.mins(), c.n, 0, sels);
        const auto int8_top = sel.Take();
        const size_t want = std::min<size_t>(c.k, c.n);
        if (int8_top.size() != want) {
          return "int8 top-k returned " + std::to_string(int8_top.size()) +
                 " results, want " + std::to_string(want);
        }

        // fp32 ground truth and the per-case worst-case score perturbation.
        std::vector<double> fp(c.n);
        double sum_abs_q = 0.0;
        for (size_t i = 0; i < c.dim; ++i) {
          sum_abs_q += std::fabs(static_cast<double>(c.query[i]));
        }
        double max_bound = 0.0;
        for (uint32_t row = 0; row < c.n; ++row) {
          double s = 0.0, sum_abs_x = 0.0;
          for (size_t i = 0; i < c.dim; ++i) {
            const double x = c.rows[row * stride + i];
            s += static_cast<double>(c.query[i]) * x;
            sum_abs_x += std::fabs(x);
          }
          fp[row] = s;
          const double bound =
              (static_cast<double>(q.scale) / 2.0) *
                  (sum_abs_x + c.dim * arena.scales()[row] / 2.0) +
              (static_cast<double>(arena.scales()[row]) / 2.0) * sum_abs_q;
          max_bound = std::max(max_bound, bound);
        }
        std::vector<double> sorted(fp);
        std::sort(sorted.begin(), sorted.end(), std::greater<double>());
        const double kth = sorted[want - 1];

        // Recall preservation: a score perturbed by at most max_bound can
        // only displace items within 2*max_bound of the fp32 k-th score.
        for (const ScoredId& s : int8_top) {
          if (fp[s.id] < kth - 2.0 * max_bound - 1e-6) {
            std::ostringstream os;
            os << "int8 kept id " << s.id << " with fp32 score " << fp[s.id]
               << ", below kth " << kth << " by more than slack "
               << 2.0 * max_bound;
            return os.str();
          }
        }
        return "";
      });
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
