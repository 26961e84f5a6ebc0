#include "core/matching_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sisg {
namespace {

/// Candidate-scan byte counters. serve.bytes_scanned counts the bytes
/// scored (block bytes once per query, plus fp32 rerank rows);
/// serve.bytes_streamed counts the block bytes read (once per shard pass; a
/// Query() is a pass of one), so their ratio is the coalescing factor. An
/// IVF-PQ walk adds its code and rerank bytes to both (IvfIndex::Query).
obs::Counter* ScanBytes() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().counter("serve.bytes_scanned");
  return c;
}
obs::Counter* StreamedBytes() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().counter("serve.bytes_streamed");
  return c;
}
obs::Counter* RerankRows() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().counter("serve.rerank_rows");
  return c;
}

obs::Counter* Queries() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().counter("serve.queries");
  return c;
}

/// serve.query_seconds: one observation per engine scan call (Scan), and
/// one per ring query from BeginQuery to FinishQuery.
obs::Histogram* QuerySeconds() {
  static obs::Histogram* const h =
      obs::MetricsRegistry::Global().histogram("serve.query_seconds");
  return h;
}

/// Queries per scan shard: bounds a shard's shortlist scratch.
constexpr size_t kMaxShardQueries = 256;

/// The one fan-out rule of multi-query scans: cuts n queries into shards of
/// min(256, ceil(n / workers)) and calls run(begin, count) for each, through
/// one ParallelFor on `pool` (workers = its threads) or serially without
/// one. A span too small to give every worker two queries is one serial
/// shard.
template <typename F>
void ForEachShard(size_t n, ThreadPool* pool, F&& run) {
  const size_t workers = pool == nullptr ? 1 : pool->num_threads();
  if (n < 2 * workers) {
    run(size_t{0}, n);
    return;
  }
  const size_t shard = std::min(kMaxShardQueries, (n + workers - 1) / workers);
  const size_t shards = (n + shard - 1) / shard;
  const auto run_shard = [&](size_t s) {
    const size_t begin = s * shard;
    run(begin, std::min(shard, n - begin));
  };
  if (pool == nullptr) {
    for (size_t s = 0; s < shards; ++s) run_shard(s);
  } else {
    pool->ParallelFor(shards, run_shard);
  }
}

/// Merges two best-first lists into the best `depth` entries of their
/// union, in the order TopKSelector::Take returns (score desc, id asc).
std::vector<ScoredId> MergeBest(const std::vector<ScoredId>& a,
                                const std::vector<ScoredId>& b,
                                size_t depth) {
  std::vector<ScoredId> out;
  out.reserve(std::min(depth, a.size() + b.size()));
  size_t i = 0, j = 0;
  while (out.size() < depth && (i < a.size() || j < b.size())) {
    const bool take_a =
        j == b.size() ||
        (i < a.size() && (a[i].score > b[j].score ||
                          (a[i].score == b[j].score && a[i].id < b[j].id)));
    out.push_back(take_a ? a[i++] : b[j++]);
  }
  return out;
}

/// Scales a row to unit length (zero rows stay zero).
void NormalizeRow(float* row, uint32_t dim) {
  const float norm = L2Norm(row, dim);
  if (norm > 0.0f) Scale(1.0f / norm, row, dim);
}

}  // namespace

struct MatchingEngine::Active {
  const float* query;
  uint32_t exclude;
  uint32_t k;
  std::vector<ScoredId>* out;
};

Status MatchingEngine::Build(std::vector<float> in, std::vector<float> out,
                             uint32_t num_items, uint32_t dim,
                             SimilarityMode mode) {
  if (num_items == 0 || dim == 0) {
    return Status::InvalidArgument("matching engine: empty shape");
  }
  const size_t expected = static_cast<size_t>(num_items) * dim;
  if (in.size() != expected) {
    return Status::InvalidArgument("matching engine: input matrix size mismatch");
  }
  const bool directional = mode == SimilarityMode::kDirectionalInOut;
  if (directional && out.size() != expected) {
    return Status::InvalidArgument(
        "matching engine: output matrix required for directional mode");
  }

  // Liveness is a non-zero IN row; in directional mode an item seen only as
  // input keeps its zero OUT row in the block and scores 0.
  std::vector<uint8_t> has_item(num_items, 0);
  std::vector<uint32_t> cand_ids;
  cand_ids.reserve(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    float* row = in.data() + static_cast<size_t>(i) * dim;
    const float norm = L2Norm(row, dim);
    if (!(norm > 0.0f)) continue;
    has_item[i] = 1;
    cand_ids.push_back(i);
    if (!directional) Scale(1.0f / norm, row, dim);
  }

  // Pack the candidate rows into the aligned serving block. Directional
  // scores are inner products in(q) . out(c); candidate rows are normalized
  // so ranking is cosine-like — a raw out-norm carries the item's context
  // frequency and would drown the query signal under Zipf popularity.
  const size_t stride = AlignedRowStride(dim);
  const float* cand_src = directional ? out.data() : in.data();
  AlignedFloatVector cand_rows(cand_ids.size() * stride, 0.0f);
  for (size_t r = 0; r < cand_ids.size(); ++r) {
    float* row = cand_rows.data() + r * stride;
    std::memcpy(row, cand_src + static_cast<size_t>(cand_ids[r]) * dim,
                dim * sizeof(float));
    if (directional) NormalizeRow(row, dim);
  }

  // The arena adopts `in` as its query block, so Build never holds more
  // than the dense inputs plus the candidate block.
  InstallArena(std::make_unique<ServingArena>(ServingArena::FromRows(
      num_items, dim, static_cast<uint32_t>(mode), std::move(in),
      std::move(cand_rows), std::move(cand_ids), std::move(has_item))));
  return Status::OK();
}

void MatchingEngine::InstallArena(std::unique_ptr<ServingArena> arena) {
  arena_ = std::move(arena);
  const ServingArena::View& v = arena_->view();
  num_items_ = v.num_items;
  dim_ = v.dim;
  mode_ = static_cast<SimilarityMode>(v.mode);
  ivf_.reset();
  quant_mode_ = QuantMode::kFp32;
  int8_arena_.reset();
}

void MatchingEngine::InstallInt8(std::unique_ptr<Int8Arena> codes) {
  int8_arena_ = std::move(codes);
  quant_mode_ = QuantMode::kInt8;
}

std::vector<float> MatchingEngine::DenseCandidateMatrix() const {
  std::vector<float> dense(static_cast<size_t>(num_items_) * dim_, 0.0f);
  if (arena_ == nullptr) return dense;
  const ServingArena::View& v = arena_->view();
  for (uint32_t r = 0; r < v.num_cand; ++r) {
    std::memcpy(dense.data() + static_cast<size_t>(v.cand_ids[r]) * dim_,
                v.cand_rows + static_cast<size_t>(r) * v.cand_stride,
                dim_ * sizeof(float));
  }
  return dense;
}

Status MatchingEngine::SaveArena(const std::string& path) const {
  if (arena_ == nullptr) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  return ServingArena::Save(path, arena_->view());
}

Status MatchingEngine::LoadArena(const std::string& path, bool use_mmap) {
  SISG_ASSIGN_OR_RETURN(ServingArena arena, ServingArena::Load(path, use_mmap));
  InstallArena(std::make_unique<ServingArena>(std::move(arena)));
  return Status::OK();
}

Status MatchingEngine::EnableInt8() {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  const ServingArena::View& v = arena_->view();
  auto arena = std::make_unique<Int8Arena>();
  SISG_RETURN_IF_ERROR(
      arena->BuildFromRows(v.cand_rows, v.num_cand, dim_, v.cand_stride));
  InstallInt8(std::move(arena));
  return Status::OK();
}

Status MatchingEngine::EnableInt8FromFile(const std::string& path,
                                          bool use_mmap) {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  SISG_ASSIGN_OR_RETURN(Int8Arena loaded, Int8Arena::Load(path, use_mmap));
  const uint32_t num_cand = arena_->view().num_cand;
  if (loaded.dim() != dim_ || loaded.num_rows() != num_cand) {
    return Status::FailedPrecondition(
        "int8 arena holds " + std::to_string(loaded.num_rows()) +
        " rows of dim " + std::to_string(loaded.dim()) +
        " but this engine serves " + std::to_string(num_cand) +
        " candidates of dim " + std::to_string(dim_));
  }
  InstallInt8(std::make_unique<Int8Arena>(std::move(loaded)));
  return Status::OK();
}

Status MatchingEngine::SaveInt8(const std::string& path) const {
  if (quant_mode_ != QuantMode::kInt8 || int8_arena_ == nullptr) {
    return Status::FailedPrecondition(
        "matching engine: int8 quantization not enabled");
  }
  return int8_arena_->Save(path);
}

Status MatchingEngine::EnableIvfPq(const IvfOptions& ivf_options,
                                   const PqOptions& pq_options) {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  auto index = std::make_unique<IvfIndex>();
  SISG_RETURN_IF_ERROR(index->Build(DenseCandidateMatrix().data(), num_items_,
                                    dim_, ivf_options));
  SISG_RETURN_IF_ERROR(index->EnablePq(pq_options));
  ivf_ = std::move(index);
  return Status::OK();
}

std::vector<ScoredId> MatchingEngine::Query(uint32_t item, uint32_t k) const {
  std::vector<ScoredId> result;
  if (!HasItem(item) || k == 0) return result;
  const Active query{QueryRow(item), item, k, &result};
  Scan(&query, 1, nullptr);
  return result;
}

std::vector<ScoredId> MatchingEngine::QueryVector(const float* query,
                                                  uint32_t k) const {
  std::vector<ScoredId> result;
  if (num_items_ == 0 || k == 0) return result;
  std::vector<float> q(query, query + dim_);
  if (mode_ == SimilarityMode::kCosineInput) NormalizeRow(q.data(), dim_);
  const Active prepared{q.data(), UINT32_MAX, k, &result};
  Scan(&prepared, 1, nullptr);
  return result;
}

std::vector<std::vector<ScoredId>> MatchingEngine::QueryBatch(
    const std::vector<uint32_t>& items, uint32_t k,
    uint32_t num_threads) const {
  const std::vector<uint32_t> ks(items.size(), k);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  return QueryBatchCoalesced(items.data(), ks.data(), items.size(), pool.get());
}

std::vector<std::vector<ScoredId>> MatchingEngine::QueryBatchCoalesced(
    const uint32_t* items, const uint32_t* ks, size_t n,
    ThreadPool* pool) const {
  // Queries with nothing to scan (untrained item, k == 0) keep their empty
  // result slot; only the rest pay for the pass.
  std::vector<std::vector<ScoredId>> results(n);
  std::vector<Active> act;
  act.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!HasItem(items[i]) || ks[i] == 0) continue;
    act.push_back({QueryRow(items[i]), items[i], ks[i], &results[i]});
  }
  if (!act.empty()) Scan(act.data(), act.size(), pool);
  return results;
}

void MatchingEngine::Scan(const Active* act, size_t n, ThreadPool* pool) const {
  const obs::TraceSpan span(obs::MetricsEnabled() ? QuerySeconds() : nullptr);
  // One shard = a contiguous span of at most kMaxShardQueries queries,
  // answered with its own lap over the block: the shard streams the block
  // once, and its scratch never exceeds that many shortlists.
  ForEachShard(n, pool,
               [&](size_t begin, size_t count) { ScanSpan(act + begin, count); });
}

void MatchingEngine::ScanSpan(const Active* act, size_t m) const {
  if (ivf_ != nullptr) {
    for (size_t j = 0; j < m; ++j) {
      *act[j].out = ivf_->Query(act[j].query, act[j].k, act[j].exclude);
    }
    if (obs::MetricsEnabled()) Queries()->Add(m);
    return;
  }
  std::vector<ChunkQuery> qs(m);
  std::vector<ChunkQuery*> ptrs(m);
  for (size_t j = 0; j < m; ++j) {
    Prepare(act[j], 0, &qs[j]);
    ptrs[j] = &qs[j];
  }
  ScanChunks(0, num_chunks(), ptrs.data(), m);
  for (size_t j = 0; j < m; ++j) *act[j].out = FinishQuery(&qs[j]);
}

uint32_t MatchingEngine::ChunkRows() const {
  // Keep one chunk within ~32KB so the 2nd..Bth queries of a step re-read
  // it from L1/L2 instead of DRAM.
  constexpr size_t kChunkBytes = 32 * 1024;
  if (quant_mode_ == QuantMode::kInt8) {
    const size_t row_bytes = int8_arena_->group_bytes() / kI8GroupRows;
    return static_cast<uint32_t>(
        std::max<size_t>(1, kChunkBytes / row_bytes / kI8GroupRows) *
        kI8GroupRows);
  }
  const size_t row_bytes = arena_->view().cand_stride * sizeof(float);
  return static_cast<uint32_t>(std::max<size_t>(16, kChunkBytes / row_bytes));
}

uint32_t MatchingEngine::num_chunks() const {
  if (arena_ == nullptr) return 0;
  const uint32_t rows = arena_->view().num_cand;
  const uint32_t chunk = ChunkRows();
  return (rows + chunk - 1) / chunk;
}

void MatchingEngine::Prepare(const Active& a, uint32_t start,
                             ChunkQuery* q) const {
  const bool int8 = quant_mode_ == QuantMode::kInt8;
  q->query_ = a.query;
  q->exclude_ = a.exclude;
  q->k_ = a.k;
  // The int8 scan keeps a 4x-deeper shortlist of block rows, reranked
  // exactly at FinishQuery; the fp32 scan keeps the answer itself.
  q->depth_ = int8 ? ShortlistDepth(a.k, arena_->view().num_cand) : a.k;
  q->start_ = start;
  q->begin_ns_ = 0;
  q->head_ = TopKSelector(q->depth_);
  q->tail_ = TopKSelector(start > 0 ? q->depth_ : 0);
  if (int8) {
    q->codes_.resize(dim_);
    q->iq_ = QuantizeQueryInt8(a.query, dim_, q->codes_.data());
  }
}

bool MatchingEngine::BeginQuery(uint32_t item, uint32_t k, uint32_t start,
                                ChunkQuery* q) const {
  if (!HasItem(item) || k == 0 || start >= num_chunks()) return false;
  Prepare(Active{QueryRow(item), item, k, nullptr}, start, q);
  if (obs::MetricsEnabled()) q->begin_ns_ = MonotonicNanos();
  return true;
}

void MatchingEngine::ScanChunks(uint32_t first, uint32_t count,
                                ChunkQuery* const* qs, size_t n) const {
  if (n == 0) return;
  const SimdOps& ops = GetSimdOps();
  const ServingArena::View& v = arena_->view();
  const uint32_t rows = v.num_cand;
  const uint32_t chunk_rows = ChunkRows();
  const uint32_t chunks = num_chunks();
  const bool int8 = quant_mode_ == QuantMode::kInt8;
  // A query's rows from its start chunk on go to its head selector, the
  // wrapped rows before it to its tail: each is then filled in ascending
  // row order, which is what makes the merged answer the solo pass's.
  const auto selector = [](ChunkQuery* q, uint32_t c) {
    return c >= q->start_ ? &q->head_ : &q->tail_;
  };
  thread_local std::vector<Int8Query> iq;
  thread_local std::vector<TopKSelector*> sels;
  if (int8) {
    iq.clear();
    for (size_t j = 0; j < n; ++j) iq.push_back(qs[j]->iq_);
  }
  // Block bytes of the run: read once, scored once per query.
  uint64_t run_bytes = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t c = (first + i) % chunks;
    const uint32_t c0 = c * chunk_rows;
    const uint32_t cn = std::min(chunk_rows, rows - c0);
    if (int8) {
      sels.clear();
      for (size_t j = 0; j < n; ++j) sels.push_back(selector(qs[j], c));
      const size_t group_bytes = int8_arena_->group_bytes();
      ops.top_k_scan_i8(iq.data(), n,
                        int8_arena_->codes() +
                            static_cast<size_t>(c0 / kI8GroupRows) *
                                group_bytes,
                        dim_, int8_arena_->scales() + c0,
                        int8_arena_->mins() + c0, cn, c0, sels.data());
      run_bytes += uint64_t{(cn + kI8GroupRows - 1) / kI8GroupRows} *
                   group_bytes;
      continue;
    }
    const float* chunk = v.cand_rows + static_cast<size_t>(c0) * v.cand_stride;
    for (size_t j = 0; j < n; ++j) {
      ChunkQuery* q = qs[j];
      ops.top_k_scan(q->query_, chunk, v.cand_stride, cn, dim_,
                     v.cand_ids + c0, q->exclude_, selector(q, c));
    }
    run_bytes += uint64_t{cn} * v.cand_stride * sizeof(float);
  }
  if (obs::MetricsEnabled()) {
    StreamedBytes()->Add(run_bytes);
    ScanBytes()->Add(run_bytes * n);
  }
}

std::vector<ScoredId> MatchingEngine::FinishQuery(ChunkQuery* q) const {
  std::vector<ScoredId> best =
      MergeBest(q->head_.Take(), q->tail_.Take(), q->depth_);
  const bool metrics = obs::MetricsEnabled();
  if (metrics) Queries()->Increment();
  // A ring query's scan call ends here, with its rerank done.
  const auto observe = [&] {
    if (metrics && q->begin_ns_ != 0) {
      QuerySeconds()->Observe(
          static_cast<double>(MonotonicNanos() - q->begin_ns_) * 1e-9);
    }
  };
  if (quant_mode_ != QuantMode::kInt8) {
    observe();
    return best;
  }
  // Int8: the shortlist holds block rows. The quantization error only has
  // to keep the true top-k inside the 4x-deeper shortlist; the scores the
  // caller sees are exact fp32 dots.
  const SimdOps& ops = GetSimdOps();
  const ServingArena::View& v = arena_->view();
  TopKSelector sel(q->k_);
  uint64_t reranked = 0;
  for (const ScoredId& cand : best) {
    const uint32_t row = cand.id;
    const uint32_t id = v.cand_ids[row];
    if (id == q->exclude_) continue;
    ++reranked;
    const float* crow = v.cand_rows + static_cast<size_t>(row) * v.cand_stride;
    const float s = ops.dot(q->query_, crow, dim_);
    if (s > sel.Threshold()) sel.Push(s, id);
  }
  if (metrics) {
    ScanBytes()->Add(reranked * dim_ * sizeof(float));
    RerankRows()->Add(reranked);
  }
  observe();
  return sel.Take();
}

}  // namespace sisg
