#ifndef SISG_CORPUS_SUBSAMPLE_H_
#define SISG_CORPUS_SUBSAMPLE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "corpus/vocabulary.h"

namespace sisg {

/// Subsampling threshold of user-type tokens (one per session).
constexpr double kUserTypeSubsampleThreshold = 1e-4;

/// Frequent-token subsampling thresholds. The ATNS engine "aggressively
/// downsamples" hot SI tokens (Section III-A), hence the much smaller SI
/// threshold: an SI token like leaf_category_X occurs once per item click,
/// so without this the trainer would spend most updates on SI pairs.
struct SubsampleConfig {
  double item_threshold = 1e-3;
  double si_threshold = 1e-4;

  /// The ATNS production setting (Section III-A): hot SI downsampled an
  /// order of magnitude harder, trading a little SI signal for worker load
  /// balance. The distributed engine ablation uses this.
  static SubsampleConfig Aggressive() {
    SubsampleConfig c;
    c.si_threshold = 1e-5;
    return c;
  }
};

/// word2vec keep probability for a token with corpus frequency ratio `f`
/// and threshold `t`: min(1, sqrt(t/f) + t/f).
inline double KeepProbability(double f, double t) {
  if (f <= 0.0 || f <= t) return 1.0;
  const double p = std::sqrt(t / f) + t / f;
  return p > 1.0 ? 1.0 : p;
}

/// Precomputed per-vocab-id keep probabilities.
class Subsampler {
 public:
  Subsampler() = default;

  void Build(const Vocabulary& vocab, const SubsampleConfig& config) {
    keep_.resize(vocab.size());
    const double total = static_cast<double>(vocab.total_count());
    for (uint32_t v = 0; v < vocab.size(); ++v) {
      double t = config.item_threshold;
      switch (vocab.ClassOf(v)) {
        case TokenClass::kItem:
          t = config.item_threshold;
          break;
        case TokenClass::kItemSi:
          t = config.si_threshold;
          break;
        case TokenClass::kUserType:
          t = kUserTypeSubsampleThreshold;
          break;
      }
      keep_[v] = static_cast<float>(
          KeepProbability(static_cast<double>(vocab.Frequency(v)) / total, t));
    }
  }

  float Keep(uint32_t vocab_id) const { return keep_[vocab_id]; }
  bool empty() const { return keep_.empty(); }

 private:
  std::vector<float> keep_;
};

}  // namespace sisg

#endif  // SISG_CORPUS_SUBSAMPLE_H_
