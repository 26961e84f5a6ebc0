#ifndef SISG_CORPUS_ENRICHER_H_
#define SISG_CORPUS_ENRICHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "corpus/token_space.h"
#include "datagen/session_generator.h"

namespace sisg {

/// Which extra tokens to inject into sequences; selects the SISG variant
/// family of Section IV-A (SGNS = neither, SISG-F = SI, SISG-U = user
/// types, SISG-F-U = both).
struct EnrichOptions {
  bool include_item_si = true;
  bool include_user_type = true;
};

/// Transforms a raw click session into the enriched token sequence of
/// Eq. (4): v1, SI_1^1..SI_n^1, ..., vp, SI_1^p..SI_n^p, UT_u.
class SequenceEnricher {
 public:
  /// token_space and catalog must outlive the enricher.
  SequenceEnricher(const TokenSpace* token_space, const ItemCatalog* catalog,
                   const EnrichOptions& options);

  const EnrichOptions& options() const { return options_; }

  /// Tokens emitted per item click (1 + #SI if SI enabled).
  uint32_t TokensPerItem() const {
    return options_.include_item_si ? 1 + kNumItemFeatures : 1;
  }

  /// Appends the enriched form of `session` to `out` (out is cleared first).
  void Enrich(const Session& session, std::vector<uint32_t>* out) const {
    Enrich(session.user_type, session.items, out);
  }
  void Enrich(uint32_t user_type, std::span<const uint32_t> items,
              std::vector<uint32_t>* out) const;

  std::vector<uint32_t> Enrich(const Session& session) const {
    std::vector<uint32_t> out;
    Enrich(session, &out);
    return out;
  }

 private:
  const TokenSpace* token_space_;
  const ItemCatalog* catalog_;
  EnrichOptions options_;
};

}  // namespace sisg

#endif  // SISG_CORPUS_ENRICHER_H_
