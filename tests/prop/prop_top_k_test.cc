// TopKSelector model test: the keyed replace-root heap against the
// pop_heap/push_heap selector it replaced, kept below verbatim as the
// oracle. Push sequences are generated with heavy ties, ±0 and ±inf, and
// after every push the two must agree on size, fullness and the threshold's
// bits; at the end Take() must return the same ids with the same score bits
// in the same order.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/top_k.h"
#include "gtest/gtest.h"
#include "prop.h"

namespace sisg::prop {
namespace {

/// The selector before the keyed heap, verbatim (renamed).
class LegacyTopKSelector {
 public:
  explicit LegacyTopKSelector(size_t k) : k_(k) { heap_.reserve(k + 1); }

  void Push(float score, uint32_t id) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back({score, id});
      std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp);
      return;
    }
    if (score <= heap_.front().score) return;
    std::pop_heap(heap_.begin(), heap_.end(), MinHeapCmp);
    heap_.back() = {score, id};
    std::push_heap(heap_.begin(), heap_.end(), MinHeapCmp);
  }

  bool Full() const { return heap_.size() >= k_; }
  float Threshold() const {
    if (!Full()) return -std::numeric_limits<float>::infinity();
    if (heap_.empty()) return std::numeric_limits<float>::infinity();
    return heap_.front().score;
  }
  size_t size() const { return heap_.size(); }

  std::vector<ScoredId> Take() {
    std::vector<ScoredId> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const ScoredId& a, const ScoredId& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
    return out;
  }

 private:
  static bool MinHeapCmp(const ScoredId& a, const ScoredId& b) {
    if (a.score != b.score) return a.score > b.score;  // min-heap on score
    return a.id < b.id;
  }

  size_t k_;
  std::vector<ScoredId> heap_;
};

struct PushCase {
  uint32_t k = 0;
  std::vector<ScoredId> pushes;  // distinct ids, any order
};

/// Scores from a small pool (so ties are the rule, not the exception) that
/// holds both zeros and both infinities, mixed with arbitrary floats.
Gen<float> TieHeavyScore() {
  const float inf = std::numeric_limits<float>::infinity();
  return Frequency<float>(
      {{4, ElementOf<float>({-inf, -1.0f, -0.0f, 0.0f, 0.5f, 1.0f, inf})},
       {1, AdversarialFloat()},
       {1, GaussianFloat()}});
}

Gen<PushCase> PushCaseGen() {
  return Gen<PushCase>([](Rng& rng) {
    PushCase c;
    c.k = static_cast<uint32_t>(rng.UniformInt(0, 24));
    const auto len = static_cast<uint32_t>(rng.UniformInt(0, 200));
    std::vector<uint32_t> ids(len);
    for (uint32_t i = 0; i < len; ++i) {
      ids[i] = static_cast<uint32_t>(rng.UniformU64(3)) * 0x40000000u + i;
    }
    rng.Shuffle(ids);
    const auto score = TieHeavyScore();
    for (uint32_t id : ids) c.pushes.push_back({score(rng), id});
    return c;
  });
}

std::string ShowPushCase(const PushCase& c) {
  std::ostringstream os;
  os << "{k=" << c.k << ", pushes=[";
  for (size_t i = 0; i < c.pushes.size(); ++i) {
    os << (i > 0 ? " " : "") << c.pushes[i].score << ":" << c.pushes[i].id;
  }
  os << "]}";
  return os.str();
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(PropTopK, KeyedHeapKeepsTheLegacySelectorsSetAndBits) {
  const Result r = ForAllSeeded<PushCase>(
      "top_k_selector_model", 400, PushCaseGen(),
      [](const PushCase& c) -> std::string {
        TopKSelector got(c.k);
        LegacyTopKSelector want(c.k);
        for (size_t i = 0; i < c.pushes.size(); ++i) {
          got.Push(c.pushes[i].score, c.pushes[i].id);
          want.Push(c.pushes[i].score, c.pushes[i].id);
          if (got.size() != want.size() || got.Full() != want.Full() ||
              !SameBits(got.Threshold(), want.Threshold())) {
            std::ostringstream os;
            os << "after push " << i << ": size " << got.size() << " vs "
               << want.size() << ", threshold " << got.Threshold() << " vs "
               << want.Threshold();
            return os.str();
          }
        }
        const auto a = got.Take();
        const auto b = want.Take();
        if (a.size() != b.size()) return "Take() sizes differ";
        for (size_t i = 0; i < a.size(); ++i) {
          if (a[i].id != b[i].id || !SameBits(a[i].score, b[i].score)) {
            std::ostringstream os;
            os << "rank " << i << ": (" << a[i].score << ", " << a[i].id
               << ") vs legacy (" << b[i].score << ", " << b[i].id << ")";
            return os.str();
          }
        }
        if (got.size() != 0) return "Take() left entries behind";
        return "";
      },
      nullptr, ShowPushCase);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
