#include "eges/eges.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/alias_table.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "corpus/packed_corpus.h"
#include "corpus/subsample.h"
#include "graph/item_graph.h"
#include "graph/random_walker.h"
#include "sgns/window.h"

namespace sisg {
namespace {

/// SI cardinality per kind for a given catalog (mirrors TokenSpace layout).
uint32_t KindCardinality(const ItemCatalog& catalog, ItemFeatureKind kind) {
  const CatalogConfig& cfg = catalog.config();
  switch (kind) {
    case ItemFeatureKind::kTopLevelCategory:
      return catalog.num_tops();
    case ItemFeatureKind::kLeafCategory:
      return cfg.num_leaf_categories;
    case ItemFeatureKind::kShop:
      return cfg.num_shops;
    case ItemFeatureKind::kCity:
      return cfg.num_cities;
    case ItemFeatureKind::kBrand:
      return cfg.num_brands;
    case ItemFeatureKind::kStyle:
      return cfg.num_styles;
    case ItemFeatureKind::kMaterial:
      return cfg.num_materials;
    case ItemFeatureKind::kAgeGenderPurchaseLevel:
      return kNumGenders * kNumAgeBuckets * kNumPurchaseLevels;
  }
  return 0;
}

}  // namespace

Status EgesModel::Init(const ItemCatalog& catalog, uint32_t dim, uint64_t seed) {
  if (dim == 0) return Status::InvalidArgument("eges: dim must be > 0");
  num_items_ = catalog.num_items();
  dim_ = dim;
  Rng rng(seed);
  const float scale = 0.5f / static_cast<float>(dim);
  auto init_matrix = [&](std::vector<float>& m, size_t rows) {
    m.resize(rows * dim);
    for (auto& x : m) x = (rng.UniformFloat() * 2.0f - 1.0f) * scale;
  };
  init_matrix(item_emb_, num_items_);
  for (ItemFeatureKind kind : AllItemFeatureKinds()) {
    init_matrix(si_emb_[static_cast<int>(kind)], KindCardinality(catalog, kind));
  }
  output_.assign(static_cast<size_t>(num_items_) * dim, 0.0f);
  // Attention logits start with the item slot at ~50% weight (logit ln(8)
  // against 8 unit SI slots) — without this warm start H_v is SI-dominated
  // and item-level precision at small K never recovers.
  attention_.assign(static_cast<size_t>(num_items_) * (1 + kNumItemFeatures), 0.0f);
  for (uint32_t i = 0; i < num_items_; ++i) {
    Attention(i)[0] = 2.08f;
  }
  return Status::OK();
}

void EgesModel::AggregatedEmbedding(uint32_t item, const ItemCatalog& catalog,
                                    float* out) const {
  const ItemMeta& m = catalog.meta(item);
  const float* a = Attention(item);
  float w[1 + kNumItemFeatures];
  float wsum = 0.0f;
  for (int j = 0; j <= kNumItemFeatures; ++j) {
    w[j] = std::exp(std::clamp(a[j], -10.0f, 10.0f));
    wsum += w[j];
  }
  Zero(out, dim_);
  Axpy(w[0] / wsum, ItemEmbedding(item), out, dim_);
  for (ItemFeatureKind kind : AllItemFeatureKinds()) {
    const int j = static_cast<int>(kind) + 1;
    Axpy(w[j] / wsum, SiEmbedding(kind, m.Feature(kind)), out, dim_);
  }
}

std::vector<float> EgesModel::AllAggregatedEmbeddings(
    const ItemCatalog& catalog) const {
  std::vector<float> out(static_cast<size_t>(num_items_) * dim_);
  for (uint32_t i = 0; i < num_items_; ++i) {
    AggregatedEmbedding(i, catalog, out.data() + static_cast<size_t>(i) * dim_);
  }
  return out;
}

Status EgesTrainer::Train(const std::vector<Session>& sessions,
                          const ItemCatalog& catalog, EgesModel* model) const {
  if (model == nullptr) {
    return Status::InvalidArgument("eges: model must not be null");
  }
  if (sessions.empty()) return Status::InvalidArgument("eges: no sessions");
  SISG_RETURN_IF_ERROR(model->Init(catalog, options_.dim, options_.seed));

  // 1. Weighted item graph from sessions; 2. random-walk corpus.
  ItemGraph graph;
  SISG_RETURN_IF_ERROR(graph.Build(sessions, catalog.num_items()));
  RandomWalker walker;
  SISG_RETURN_IF_ERROR(walker.Build(&graph));
  // Walks stream straight into a packed arena (one token stream + CSR
  // offsets), and item frequencies — which drive noise + subsampling — are
  // tallied in the same pass, so the walk corpus is never held as a
  // vector-of-vectors.
  PackedCorpus walks;
  std::vector<uint64_t> freq(catalog.num_items(), 0);
  uint64_t total = 0;
  walker.ForEachWalk(options_.walks_per_node, options_.walk_length,
                     options_.seed + 1, [&](std::span<const uint32_t> w) {
                       walks.AppendSequence(w);
                       for (uint32_t it : w) {
                         ++freq[it];
                         ++total;
                       }
                     });
  if (walks.empty()) return Status::Internal("eges: random walks are empty");
  std::vector<double> noise_w(catalog.num_items());
  for (uint32_t i = 0; i < catalog.num_items(); ++i) {
    noise_w[i] = NoiseWeight(freq[i]);
  }
  AliasTable noise;
  SISG_RETURN_IF_ERROR(noise.Build(noise_w));

  std::vector<float> keep(catalog.num_items());
  for (uint32_t i = 0; i < catalog.num_items(); ++i) {
    keep[i] = static_cast<float>(KeepProbability(
        static_cast<double>(freq[i]) / static_cast<double>(total),
        options_.subsample_threshold));
  }

  // 3. Weighted skip-gram with per-item attention over {item} U SI.
  const SigmoidTable sigmoid;
  const SimdOps& ops = GetSimdOps();
  Rng rng(options_.seed + 2);
  const size_t dim = options_.dim;
  const int kSlots = 1 + kNumItemFeatures;
  std::vector<float> hidden(dim), grad_h(dim);
  std::vector<uint32_t> kept;
  const WindowOptions window{options_.window};  // symmetric, dynamic

  const uint64_t planned =
      static_cast<uint64_t>(options_.epochs) * total;
  uint64_t processed = 0;

  for (uint32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    for (uint64_t s = 0; s < walks.size(); ++s) {
      const std::span<const uint32_t> walk = walks.seq(s);
      processed += walk.size();
      const float lr =
          LinearDecayLr(options_.learning_rate, processed, planned);

      kept.clear();
      for (uint32_t it : walk) {
        if (rng.UniformFloat() < keep[it]) kept.push_back(it);
      }
      ForEachWindow(kept, window, rng, [&](size_t i, size_t lo, size_t hi) {
        const uint32_t target = kept[i];
        const ItemMeta& tm = catalog.meta(target);
        // Attention softmax weights for the target.
        float* a = model->Attention(target);
        float w[1 + kNumItemFeatures];
        float wsum = 0.0f;
        for (int j = 0; j < kSlots; ++j) {
          w[j] = std::exp(std::clamp(a[j], -10.0f, 10.0f));
          wsum += w[j];
        }
        for (int j = 0; j < kSlots; ++j) w[j] /= wsum;
        // H_v.
        Zero(hidden.data(), dim);
        Axpy(w[0], model->ItemEmbedding(target), hidden.data(), dim);
        const float* slot_vec[1 + kNumItemFeatures];
        slot_vec[0] = model->ItemEmbedding(target);
        for (ItemFeatureKind kind : AllItemFeatureKinds()) {
          const int j = static_cast<int>(kind) + 1;
          slot_vec[j] = model->SiEmbedding(kind, tm.Feature(kind));
          Axpy(w[j], slot_vec[j], hidden.data(), dim);
        }

        for (size_t cpos = lo; cpos < hi; ++cpos) {
          if (cpos == i || kept[cpos] == target) continue;
          const uint32_t context = kept[cpos];

          Zero(grad_h.data(), dim);
          // Positive + negatives against item output vectors only.
          auto update = [&](uint32_t out_item, float label) {
            float* z = model->Output(out_item);
            const float f = ops.dot(hidden.data(), z, dim);
            const float g = (label - sigmoid.Sigmoid(f)) * lr;
            ops.axpy(g, z, grad_h.data(), dim);
            ops.axpy(g, hidden.data(), z, dim);
          };
          update(context, 1.0f);
          const auto draw = [&] { return noise.Sample(rng); };
          const auto collides = [target, context](uint32_t n) {
            return n == context || n == target;
          };
          for (uint32_t k = 0; k < options_.negatives; ++k) {
            // Bounded resample on collision instead of silently dropping
            // the negative (which shrank the effective negative count).
            const uint32_t neg = ResampleNegative(draw(), draw, collides);
            if (collides(neg)) continue;
            update(neg, 0.0f);
          }

          // Propagate grad_h into the slots and the attention logits:
          // dH/dW_j = w_j * I; dH/da_j = w_j * (W_j - H).
          const float gh_dot_h = ops.dot(grad_h.data(), hidden.data(), dim);
          for (int j = 0; j < kSlots; ++j) {
            const float gh_dot_wj = ops.dot(grad_h.data(), slot_vec[j], dim);
            a[j] += w[j] * (gh_dot_wj - gh_dot_h);
          }
          ops.axpy(w[0], grad_h.data(), model->ItemEmbedding(target), dim);
          for (ItemFeatureKind kind : AllItemFeatureKinds()) {
            const int j = static_cast<int>(kind) + 1;
            ops.axpy(w[j], grad_h.data(),
                     model->SiEmbedding(kind, tm.Feature(kind)), dim);
          }
        }
      });
    }
  }
  return Status::OK();
}

}  // namespace sisg
