#ifndef SISG_CORPUS_VOCABULARY_H_
#define SISG_CORPUS_VOCABULARY_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/alias_table.h"
#include "common/status.h"
#include "corpus/token_space.h"

namespace sisg {

/// Negative-sampling weight of a token seen `count` times: count^0.75
/// (Section III-C). The one noise exponent of the codebase: the vocabulary's
/// noise tables below and EGES's walk-corpus noise both use it.
constexpr double kNoiseAlpha = 0.75;
inline double NoiseWeight(uint64_t count) {
  return std::pow(static_cast<double>(count), kNoiseAlpha);
}

/// The frequency dictionary D of Section III-C: counts every token in the
/// enriched corpus, drops tokens below `min_count`, and assigns dense vocab
/// ids (descending frequency, word2vec-style, so id 0 is the hottest token).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Builds from a flat per-token count array (counts[t] = occurrences of
  /// global token t; any other size is OutOfRange). Vocab id assignment
  /// is a total order — count descending, token id ascending — so the
  /// result does not depend on how the counts were gathered (e.g. the
  /// ingest thread count).
  Status BuildFromCounts(std::span<const uint64_t> counts, uint32_t min_count,
                         const TokenSpace& token_space);

  uint32_t size() const { return static_cast<uint32_t>(token_of_.size()); }

  /// Vocab id for a global token, or -1 if below min_count / unseen.
  int32_t ToVocab(uint32_t token) const {
    if (token >= vocab_of_.size()) return -1;
    return vocab_of_[token];
  }

  uint32_t ToToken(uint32_t vocab_id) const { return token_of_[vocab_id]; }
  uint64_t Frequency(uint32_t vocab_id) const { return freq_[vocab_id]; }
  uint64_t total_count() const { return total_count_; }
  TokenClass ClassOf(uint32_t vocab_id) const { return class_[vocab_id]; }

  /// Number of vocab entries of each class.
  uint32_t CountOfClass(TokenClass c) const {
    return class_counts_[static_cast<int>(c)];
  }

  /// Builds the negative-sampling noise distribution P(v) ~ NoiseWeight(
  /// freq(v)) over all vocab entries, or over a subset of vocab ids
  /// (per-shard local noise in TNS).
  StatusOr<AliasTable> BuildNoise() const;
  StatusOr<AliasTable> BuildNoiseOver(
      const std::vector<uint32_t>& vocab_ids) const;

  /// Binary serialization of the dictionary (token ids, counts, classes).
  Status Save(const std::string& path) const;
  static StatusOr<Vocabulary> Load(const std::string& path);

 private:
  /// Tail of BuildFromCounts: sorts (count desc, token asc) and assigns
  /// dense ids. Precondition: `kept` is in ascending token order — the
  /// stable count sort turns that into the tie-break.
  Status AssignIds(std::vector<std::pair<uint32_t, uint64_t>> kept,
                   uint32_t num_global_tokens, const TokenSpace& token_space);

  std::vector<int32_t> vocab_of_;   // global token -> vocab id (or -1)
  std::vector<uint32_t> token_of_;  // vocab id -> global token
  std::vector<uint64_t> freq_;      // vocab id -> count
  std::vector<TokenClass> class_;   // vocab id -> class
  uint32_t class_counts_[3] = {0, 0, 0};
  uint64_t total_count_ = 0;
};

/// ATNS's hot-set rule (Section III-C step 4): "all elements with frequency
/// above a certain threshold", as a relative corpus frequency.
constexpr double kHotFreqThreshold = 5e-5;

/// Size K of the hot set: vocab ids are frequency-sorted, so the hottest
/// tokens are the prefix [0, K) of ids whose relative corpus frequency
/// reaches kHotFreqThreshold, capped at `cap`. The one hot-set rule of the
/// codebase: ATNS's replicated set Q (DistributedTrainer) and the local
/// trainer's per-thread replica rows (SgnsTrainer) both use it.
inline uint32_t HotPrefixSize(const Vocabulary& vocab, uint32_t cap) {
  const double total = static_cast<double>(vocab.total_count());
  uint32_t k = 0;
  while (k < vocab.size() && k < cap &&
         static_cast<double>(vocab.Frequency(k)) / total >=
             kHotFreqThreshold) {
    ++k;
  }
  return k;
}

}  // namespace sisg

#endif  // SISG_CORPUS_VOCABULARY_H_
