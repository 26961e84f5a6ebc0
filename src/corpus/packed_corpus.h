#ifndef SISG_CORPUS_PACKED_CORPUS_H_
#define SISG_CORPUS_PACKED_CORPUS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"

namespace sisg {

/// The trainers' native corpus layout: every sequence's tokens laid out
/// back-to-back in one 64-byte-aligned arena with CSR offsets, replacing
/// vector<vector<uint32_t>>. One sequential stream instead of a pointer
/// chase per sequence keeps the SGNS hot loop in cache and makes the
/// whole corpus one checksummed artifact on disk.
///
///   offsets_[i] .. offsets_[i+1]  ->  tokens of sequence i
///
/// Building is either streaming (AppendSequence) or bulk (Resize + raw
/// fill, used by the parallel ingest to write disjoint ranges from many
/// threads at once).
class PackedCorpus {
 public:
  /// The arena's allocator: 64-byte aligned, and resize() leaves new tokens
  /// uninitialized, because the bulk fill writes every one of them.
  template <typename T>
  struct TokenAllocator : AlignedAllocator<T, 64> {
    template <typename U>
    struct rebind {
      using other = TokenAllocator<U>;
    };
    TokenAllocator() = default;
    template <typename U>
    TokenAllocator(const TokenAllocator<U>&) {}

    /// Value-less construction only; construction from a value falls back
    /// to std::allocator_traits' placement new.
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };
  using TokenVector = std::vector<uint32_t, TokenAllocator<uint32_t>>;

  PackedCorpus() { offsets_.push_back(0); }

  /// Number of sequences.
  uint64_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  /// Total tokens across all sequences.
  uint64_t num_tokens() const { return offsets_.back(); }

  /// Tokens of sequence `i`.
  std::span<const uint32_t> seq(uint64_t i) const {
    return {tokens_.data() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }
  uint64_t seq_size(uint64_t i) const { return offsets_[i + 1] - offsets_[i]; }

  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const TokenVector& tokens() const { return tokens_; }

  /// Appends one sequence (serial builder — EGES walk corpus, tests).
  void AppendSequence(const uint32_t* toks, size_t n) {
    tokens_.insert(tokens_.end(), toks, toks + n);
    offsets_.push_back(tokens_.size());
  }
  void AppendSequence(std::span<const uint32_t> toks) {
    AppendSequence(toks.data(), toks.size());
  }

  /// Pre-sizes the arena for the bulk fill path: `num_seqs` sequences and
  /// `total_tokens` tokens. After this, writers fill disjoint ranges of
  /// mutable_offsets()/mutable_tokens() concurrently; offsets[0] is 0 and
  /// offsets[num_seqs] must end up == total_tokens. New tokens start
  /// uninitialized: the writers must fill every one.
  void Resize(uint64_t num_seqs, uint64_t total_tokens) {
    offsets_.assign(num_seqs + 1, 0);
    offsets_[num_seqs] = total_tokens;
    tokens_.resize(total_tokens);
  }
  uint64_t* mutable_offsets() { return offsets_.data(); }
  uint32_t* mutable_tokens() { return tokens_.data(); }

  void Clear() {
    offsets_.assign(1, 0);
    tokens_.clear();
  }

  bool operator==(const PackedCorpus& o) const {
    return offsets_ == o.offsets_ && tokens_ == o.tokens_;
  }

  /// The packed section of a larger checksummed artifact (the Corpus
  /// cache): AppendTo writes it into an open writer; ReadFrom consumes it as
  /// the reader's tail and validates the offset table (monotone, ends at the
  /// token count) and that every token is < `token_bound` when
  /// token_bound > 0, so a corrupt section is DataLoss — never partial data.
  Status AppendTo(class ArtifactWriter* w) const;
  static StatusOr<PackedCorpus> ReadFrom(class ArtifactReader* r,
                                         uint32_t token_bound);

 private:
  std::vector<uint64_t> offsets_;
  TokenVector tokens_;
};

}  // namespace sisg

#endif  // SISG_CORPUS_PACKED_CORPUS_H_
