#ifndef SISG_SGNS_WINDOW_H_
#define SISG_SGNS_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "corpus/subsample.h"

namespace sisg {

/// Pair-sampling policy (Sections II-A and II-C). Symmetric is the classic
/// word2vec window W_m; directional restricts to the RIGHT context window
/// only, which is how SISG captures the asymmetry of user behavior: pairs
/// (target, context) are only formed with the context occurring AFTER the
/// target, and retrieval scores i->j as input(i) . output(j).
/// The window is always dynamic, word2vec-style: each target draws its own
/// radius b = 1 + rng % window.
struct WindowOptions {
  uint32_t window = 4;        // max token distance
  bool directional = false;   // right-context-only sampling
};

/// The learning-rate floor of every SGNS trainer, as a fraction of lr0.
constexpr float kMinLearningRateRatio = 1e-3f;

/// The linear-decay schedule all three trainers (SgnsTrainer,
/// DistributedTrainer, EgesTrainer) share: lr0 * (1 - done / planned),
/// floored at lr0 * kMinLearningRateRatio. `done` and `planned` count
/// pre-subsampling tokens.
inline float LinearDecayLr(float lr0, uint64_t done, uint64_t planned) {
  const float lr =
      lr0 * (1.0f - static_cast<float>(done) / static_cast<float>(planned));
  const float min_lr = lr0 * kMinLearningRateRatio;
  return lr < min_lr ? min_lr : lr;
}

/// Bounded retries when a sampled negative collides with the target or the
/// current context. On a degenerate noise distribution (a one-token
/// vocabulary or shard) retries cannot succeed, and the caller drops the
/// negative.
constexpr int kMaxNegativeResamples = 8;

/// Redraws `neg` through `draw()` while `reject(neg)` holds, at most
/// kMaxNegativeResamples times, and returns the last draw (which may still
/// be rejected). The caller's sampler is the draw, so each trainer keeps
/// its own noise table and RNG draw order.
template <typename Draw, typename Reject>
inline uint32_t ResampleNegative(uint32_t neg, Draw&& draw, Reject&& reject) {
  for (int r = 0; r < kMaxNegativeResamples && reject(neg); ++r) neg = draw();
  return neg;
}

/// Applies frequent-token subsampling to a vocab-id sequence, keeping order.
/// Takes a span so both owned vectors and PackedCorpus arena views feed the
/// same code (and the same RNG draw sequence for identical contents).
inline void SubsampleSequence(std::span<const uint32_t> seq,
                              const Subsampler& subsampler, Rng& rng,
                              std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(seq.size());
  for (uint32_t v : seq) {
    if (subsampler.empty() || rng.UniformFloat() < subsampler.Keep(v)) {
      out->push_back(v);
    }
  }
}

/// Enumerates the context window of every target position: `fn(i, lo, hi)`
/// is called with the target index and its context range [lo, hi) (which
/// still contains `i` in symmetric mode — context iteration must skip it,
/// plus any position holding the target's own token). Exposing the window
/// instead of flat pairs lets trainers batch per-window work — negatives
/// are sampled once per target window and reused across its contexts.
template <typename Fn>
inline void ForEachWindow(std::span<const uint32_t> seq,
                          const WindowOptions& options, Rng& rng, Fn&& fn) {
  const size_t n = seq.size();
  if (options.window == 0) return;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t b =
        1 + static_cast<uint32_t>(rng.UniformU64(options.window));
    const size_t lo = options.directional ? i + 1 : (i >= b ? i - b : 0);
    const size_t hi = std::min(n, i + 1 + b);
    if (lo < hi) fn(i, lo, hi);
  }
}

/// Enumerates (target, context) positive pairs of a (possibly subsampled)
/// sequence under the window policy. `fn(target, context)` is called once
/// per pair; the context always occurs after the target when
/// `options.directional` is set. Draws the same RNG stream as
/// ForEachWindow for identical window bounds.
template <typename Fn>
inline void ForEachPair(std::span<const uint32_t> seq,
                        const WindowOptions& options, Rng& rng, Fn&& fn) {
  ForEachWindow(seq, options, rng, [&](size_t i, size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      if (j == i) continue;
      if (seq[j] == seq[i]) continue;  // self-pairs carry no signal
      fn(seq[i], seq[j]);
    }
  });
}

}  // namespace sisg

#endif  // SISG_SGNS_WINDOW_H_
