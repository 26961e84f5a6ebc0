#include "corpus/enricher.h"

#include "common/logging.h"

namespace sisg {

SequenceEnricher::SequenceEnricher(const TokenSpace* token_space,
                                   const ItemCatalog* catalog,
                                   const EnrichOptions& options)
    : token_space_(token_space), catalog_(catalog), options_(options) {
  SISG_CHECK(token_space != nullptr);
  SISG_CHECK(catalog != nullptr);
}

void SequenceEnricher::Enrich(uint32_t user_type,
                              std::span<const uint32_t> items,
                              std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(items.size() * TokensPerItem() + 1);
  for (uint32_t item : items) {
    out->push_back(token_space_->ItemToken(item));
    if (options_.include_item_si) {
      const ItemMeta& m = catalog_->meta(item);
      for (ItemFeatureKind kind : AllItemFeatureKinds()) {
        out->push_back(token_space_->SiToken(kind, m.Feature(kind)));
      }
    }
  }
  if (options_.include_user_type) {
    out->push_back(token_space_->UserTypeToken(user_type));
  }
}

}  // namespace sisg
