#ifndef SISG_EGES_EGES_H_
#define SISG_EGES_EGES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "datagen/catalog.h"
#include "datagen/session_generator.h"

namespace sisg {

/// Hyper-parameters of the EGES baseline (Wang et al., KDD 2018) — the
/// paper's previous production system (Section II-D): build the weighted
/// item graph from sessions, generate random-walk sequences, then run a
/// modified SGNS where the hidden vector of an item is an attention-
/// weighted average of its item embedding and its SI embeddings.
struct EgesOptions {
  uint32_t dim = 64;
  uint32_t negatives = 20;
  uint32_t epochs = 2;
  float learning_rate = 0.025f;
  uint32_t window = 3;          // item window over walks
  uint32_t walks_per_node = 8;
  uint32_t walk_length = 10;
  double subsample_threshold = 1e-3;
  uint64_t seed = 31;
};

/// The trained EGES parameters. Unlike SISG, SI embeddings have NO output
/// vectors (only items are contexts) — the expressiveness gap Section IV-A
/// discusses.
class EgesModel {
 public:
  EgesModel() = default;

  Status Init(const ItemCatalog& catalog, uint32_t dim, uint64_t seed);

  uint32_t num_items() const { return num_items_; }
  uint32_t dim() const { return dim_; }

  float* ItemEmbedding(uint32_t item) {
    return item_emb_.data() + static_cast<size_t>(item) * dim_;
  }
  const float* ItemEmbedding(uint32_t item) const {
    return item_emb_.data() + static_cast<size_t>(item) * dim_;
  }
  float* SiEmbedding(ItemFeatureKind kind, uint32_t value) {
    return si_emb_[static_cast<int>(kind)].data() +
           static_cast<size_t>(value) * dim_;
  }
  const float* SiEmbedding(ItemFeatureKind kind, uint32_t value) const {
    return si_emb_[static_cast<int>(kind)].data() +
           static_cast<size_t>(value) * dim_;
  }
  float* Output(uint32_t item) {
    return output_.data() + static_cast<size_t>(item) * dim_;
  }
  /// Attention logits a_v^j, j = 0 (item) .. kNumItemFeatures.
  float* Attention(uint32_t item) {
    return attention_.data() + static_cast<size_t>(item) * (1 + kNumItemFeatures);
  }
  const float* Attention(uint32_t item) const {
    return attention_.data() + static_cast<size_t>(item) * (1 + kNumItemFeatures);
  }

  /// H_v: the attention-weighted aggregated embedding (what EGES retrieval
  /// and cold-start both use). `out` must hold dim() floats.
  void AggregatedEmbedding(uint32_t item, const ItemCatalog& catalog,
                           float* out) const;

  /// H for all items, row-major num_items x dim.
  std::vector<float> AllAggregatedEmbeddings(const ItemCatalog& catalog) const;

 private:
  uint32_t num_items_ = 0;
  uint32_t dim_ = 0;
  std::vector<float> item_emb_;
  std::array<std::vector<float>, kNumItemFeatures> si_emb_;
  std::vector<float> output_;
  std::vector<float> attention_;
};

/// Trains EGES end to end: sessions -> item graph -> walks -> weighted SGNS.
class EgesTrainer {
 public:
  explicit EgesTrainer(const EgesOptions& options) : options_(options) {}

  const EgesOptions& options() const { return options_; }

  Status Train(const std::vector<Session>& sessions, const ItemCatalog& catalog,
               EgesModel* model) const;

 private:
  EgesOptions options_;
};

}  // namespace sisg

#endif  // SISG_EGES_EGES_H_
