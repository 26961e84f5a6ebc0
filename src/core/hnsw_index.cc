#include "core/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/flat_hash.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace sisg {

float HnswIndex::Score(const float* q, uint32_t node) const {
  return GetSimdOps().dot(
      q, vectors_.data() + static_cast<size_t>(node) * stride_, dim_);
}

std::vector<ScoredId> HnswIndex::SearchLayer(const float* q, uint32_t entry,
                                             uint32_t ef, int layer,
                                             uint64_t* visited_count) const {
  // Max-heap of candidates to expand, bounded set of best results.
  using Entry = std::pair<float, uint32_t>;
  std::priority_queue<Entry> candidates;                       // best first
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> best;  // worst on top
  // Node ids are dense in [0, ids_.size()), so membership is an epoch-
  // stamped array instead of a hash set: the per-query unordered_set this
  // replaces was a malloc storm (one node per insert) paid on every beam
  // step of the serving path. One instance per thread, reset by epoch bump,
  // reused across queries — and purely an implementation detail of the
  // visited check, so traversal order and results are bit-identical.
  static thread_local EpochVisitedSet visited;
  visited.Reset(ids_.size());

  const float entry_score = Score(q, entry);
  candidates.push({entry_score, entry});
  best.push({entry_score, entry});
  visited.TestAndSet(entry);

  while (!candidates.empty()) {
    const auto [score, node] = candidates.top();
    candidates.pop();
    if (best.size() >= ef && score < best.top().first) break;
    const auto& nbrs = links_[static_cast<size_t>(layer)][node];
    // Beam expansion touches neighbor rows in graph (random) order, so the
    // hardware streamer cannot help; prefetch the next row while scoring the
    // current one to hide the miss.
    for (size_t j = 0; j < nbrs.size(); ++j) {
      if (j + 1 < nbrs.size()) {
        const size_t next = static_cast<size_t>(nbrs[j + 1]);
        PrefetchRow(vectors_.data() + next * stride_);
      }
      const uint32_t nbr = nbrs[j];
      if (!visited.TestAndSet(nbr)) continue;
      const float s = Score(q, nbr);
      if (best.size() < ef || s > best.top().first) {
        candidates.push({s, nbr});
        best.push({s, nbr});
        if (best.size() > ef) best.pop();
      }
    }
  }
  if (visited_count != nullptr) *visited_count += visited.count();
  std::vector<ScoredId> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back({best.top().first, best.top().second});
    best.pop();
  }
  std::reverse(out.begin(), out.end());  // best first
  return out;
}

Status HnswIndex::Build(const float* data, uint32_t rows, uint32_t dim,
                        const HnswOptions& options) {
  if (data == nullptr || rows == 0 || dim == 0) {
    return Status::InvalidArgument("hnsw: empty input");
  }
  if (options.M < 2 || options.ef_construction < options.M) {
    return Status::InvalidArgument(
        "hnsw: need M >= 2 and ef_construction >= M");
  }
  options_ = options;
  dim_ = dim;
  stride_ = AlignedRowStride(dim);
  level_mult_ = 1.0 / std::log(static_cast<double>(options.M));
  ids_.clear();
  vectors_.clear();
  links_.assign(1, {});
  node_level_.clear();
  max_level_ = -1;

  Rng rng(options.seed);
  for (uint32_t r = 0; r < rows; ++r) {
    const float* row = data + static_cast<size_t>(r) * dim;
    if (L2Norm(row, dim) == 0.0f) continue;
    const uint32_t node = static_cast<uint32_t>(ids_.size());
    ids_.push_back(r);
    vectors_.resize(vectors_.size() + stride_, 0.0f);
    std::copy_n(row, dim,
                vectors_.data() + static_cast<size_t>(node) * stride_);

    // Exponentially distributed level.
    double u = rng.UniformDouble();
    if (u < 1e-12) u = 1e-12;
    const int level = static_cast<int>(-std::log(u) * level_mult_);
    node_level_.push_back(level);
    while (static_cast<int>(links_.size()) <= level) links_.emplace_back();
    for (int l = 0; l <= level; ++l) {
      links_[static_cast<size_t>(l)].resize(ids_.size());
    }
    for (auto& layer : links_) layer.resize(ids_.size());

    if (node == 0) {
      entry_point_ = 0;
      max_level_ = level;
      continue;
    }

    // Greedy descent from the global entry point to level+1.
    uint32_t entry = entry_point_;
    for (int l = max_level_; l > level; --l) {
      bool improved = true;
      while (improved) {
        improved = false;
        for (uint32_t nbr : links_[static_cast<size_t>(l)][entry]) {
          if (Score(row, nbr) > Score(row, entry)) {
            entry = nbr;
            improved = true;
          }
        }
      }
    }

    // Connect on each layer from min(level, max_level_) down to 0.
    for (int l = std::min(level, max_level_); l >= 0; --l) {
      const auto found =
          SearchLayer(row, entry, options.ef_construction, l);
      const uint32_t max_links = l == 0 ? 2 * options.M : options.M;
      auto& node_links = links_[static_cast<size_t>(l)][node];
      for (const auto& cand : found) {
        if (node_links.size() >= max_links) break;
        node_links.push_back(cand.id);
        // Bidirectional link with pruning on the neighbor side: keep the
        // highest-scoring links relative to the neighbor itself.
        auto& back = links_[static_cast<size_t>(l)][cand.id];
        back.push_back(node);
        if (back.size() > max_links) {
          const float* nbr_vec =
              vectors_.data() + static_cast<size_t>(cand.id) * stride_;
          std::sort(back.begin(), back.end(), [&](uint32_t a, uint32_t b) {
            return Score(nbr_vec, a) > Score(nbr_vec, b);
          });
          back.resize(max_links);
        }
      }
      if (!found.empty()) entry = found[0].id;
    }
    if (level > max_level_) {
      max_level_ = level;
      entry_point_ = node;
    }
  }
  if (ids_.empty()) return Status::InvalidArgument("hnsw: all rows are zero");
  return Status::OK();
}

std::vector<ScoredId> HnswIndex::Query(const float* query, uint32_t k,
                                       uint32_t exclude) const {
  if (ids_.empty() || k == 0) return {};
  uint32_t entry = entry_point_;
  for (int l = max_level_; l > 0; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nbr : links_[static_cast<size_t>(l)][entry]) {
        if (Score(query, nbr) > Score(query, entry)) {
          entry = nbr;
          improved = true;
        }
      }
    }
  }
  const uint32_t ef = std::max(options_.ef_search, k + 1);
  uint64_t visited = 0;
  const auto found = SearchLayer(query, entry, ef, 0,
                                 obs::MetricsEnabled() ? &visited : nullptr);
  if (visited > 0) {
    static obs::Counter* const m_visited =
        obs::MetricsRegistry::Global().counter("serve.hnsw_visited_nodes");
    m_visited->Add(visited);
  }
  std::vector<ScoredId> out;
  out.reserve(k);
  for (const auto& cand : found) {
    const uint32_t orig = ids_[cand.id];
    if (orig == exclude) continue;
    out.push_back({cand.score, orig});
    if (out.size() >= k) break;
  }
  return out;
}

Status HnswIndex::QueryBatch(const float* queries, uint32_t num_queries,
                             uint32_t query_dim, uint32_t k,
                             uint32_t num_threads,
                             std::vector<std::vector<ScoredId>>* out,
                             const uint32_t* excludes) const {
  if (out == nullptr) return Status::InvalidArgument("hnsw: null output");
  if (ids_.empty()) return Status::FailedPrecondition("hnsw: index not built");
  if (queries == nullptr || num_queries == 0) {
    return Status::InvalidArgument("hnsw: empty query batch");
  }
  if (k == 0) return Status::InvalidArgument("hnsw: k must be > 0");
  if (query_dim != dim_) {
    return Status::InvalidArgument("hnsw: query dim " +
                                   std::to_string(query_dim) +
                                   " != index dim " + std::to_string(dim_));
  }
  out->assign(num_queries, {});
  auto run_one = [&](size_t i) {
    (*out)[i] = Query(queries + i * query_dim, k,
                      excludes != nullptr ? excludes[i] : UINT32_MAX);
  };
  if (num_threads <= 1 || num_queries == 1) {
    for (uint32_t i = 0; i < num_queries; ++i) run_one(i);
    return Status::OK();
  }
  ThreadPool pool(num_threads);
  pool.ParallelFor(num_queries, run_one);
  return Status::OK();
}

}  // namespace sisg
