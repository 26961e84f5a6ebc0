#include "core/matching_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/math_util.h"
#include "common/thread_pool.h"
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

/// Queries per scan shard (Scan): bounds a shard's shortlist scratch.
constexpr size_t kMaxShardQueries = 256;

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
  int8_row_ids_.clear();
}

void MatchingEngine::InstallInt8(std::unique_ptr<Int8Arena> codes) {
  int8_arena_ = std::move(codes);
  int8_row_ids_.resize(int8_arena_->num_rows());
  std::iota(int8_row_ids_.begin(), int8_row_ids_.end(), 0u);
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
  obs::Histogram* latency = nullptr;
  if (obs::MetricsEnabled()) {
    static obs::Counter* const m_queries =
        obs::MetricsRegistry::Global().counter("serve.queries");
    static obs::Histogram* const m_latency =
        obs::MetricsRegistry::Global().histogram("serve.query_seconds");
    m_queries->Add(n);
    latency = m_latency;
  }
  const obs::TraceSpan span(latency);
  // One shard = a contiguous span of at most kMaxShardQueries queries,
  // answered with its own chunk-tiled pass: the shard streams the block
  // once, and its scratch never exceeds that many shortlists. A batch too
  // small to give every worker two queries is one serial pass.
  const size_t workers = pool == nullptr ? 1 : pool->num_threads();
  if (n < 2 * workers) {
    ScanSpan(act, n);
    return;
  }
  const size_t shard = std::min(kMaxShardQueries, (n + workers - 1) / workers);
  const size_t shards = (n + shard - 1) / shard;
  const auto run_shard = [&](size_t s) {
    const size_t begin = s * shard;
    ScanSpan(act + begin, std::min(shard, n - begin));
  };
  if (pool == nullptr) {
    for (size_t s = 0; s < shards; ++s) run_shard(s);
  } else {
    pool->ParallelFor(shards, run_shard);
  }
}

void MatchingEngine::ScanSpan(const Active* act, size_t m) const {
  // IVF-PQ fast path; the brute-force block below stays intact as the
  // serving fallback, so a failed or missing index only costs latency.
  if (ivf_ != nullptr) {
    for (size_t j = 0; j < m; ++j) {
      *act[j].out = ivf_->Query(act[j].query, act[j].k, act[j].exclude);
    }
    return;
  }

  const SimdOps& ops = GetSimdOps();
  const ServingArena::View& v = arena_->view();
  const uint32_t rows = v.num_cand;
  const bool int8 = quant_mode_ == QuantMode::kInt8 && int8_arena_ != nullptr;

  // Chunk size: keep one chunk of candidate rows within ~32KB so the 2nd..Bth
  // queries of the batch re-read it from L1/L2 instead of DRAM.
  constexpr size_t kChunkBytes = 32 * 1024;
  const size_t row_bytes =
      int8 ? int8_arena_->stride() : v.cand_stride * sizeof(float);
  const uint32_t chunk_rows = static_cast<uint32_t>(
      std::max<size_t>(16, row_bytes == 0 ? 16 : kChunkBytes / row_bytes));
  const uint64_t block = static_cast<uint64_t>(rows) * row_bytes;

  if (int8) {
    // Int8 scan: quantize each query, scan 1-byte codes for a shortlist of
    // block rows, then exactly re-score the shortlist against the fp32 rows.
    // The quantization error only has to keep the true top-k inside the
    // 4x-deeper shortlist; the scores the caller sees are exact fp32 dots.
    std::vector<int8_t> qcodes(m * dim_);
    std::vector<Int8Query> iq(m);
    std::vector<TopKSelector> shortlists;
    shortlists.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      iq[j] = QuantizeQueryInt8(act[j].query, dim_, qcodes.data() + j * dim_);
      shortlists.emplace_back(ShortlistDepth(act[j].k, rows));
    }
    // Whole tiles of queries share one register-tiled pass per chunk;
    // the remainder (and any batch under one tile) scans per query.
    const size_t tiled = m / kI8TileQueries * kI8TileQueries;
    for (uint32_t c0 = 0; c0 < rows; c0 += chunk_rows) {
      const uint32_t cn = std::min(chunk_rows, rows - c0);
      const uint8_t* chunk =
          int8_arena_->codes() + static_cast<size_t>(c0) * row_bytes;
      if (tiled > 0) {
        ops.top_k_scan_i8_tile(iq.data(), tiled, chunk, row_bytes,
                               int8_arena_->scales() + c0,
                               int8_arena_->mins() + c0, cn, dim_,
                               int8_row_ids_.data() + c0, UINT32_MAX,
                               shortlists.data());
      }
      for (size_t j = tiled; j < m; ++j) {
        ops.top_k_scan_i8(iq[j], chunk, row_bytes, int8_arena_->scales() + c0,
                          int8_arena_->mins() + c0, cn, dim_,
                          int8_row_ids_.data() + c0, UINT32_MAX,
                          &shortlists[j]);
      }
    }
    uint64_t reranked = 0;
    for (size_t j = 0; j < m; ++j) {
      TopKSelector sel(act[j].k);
      for (const ScoredId& cand : shortlists[j].Take()) {
        const uint32_t row = cand.id;
        const uint32_t id = v.cand_ids[row];
        if (id == act[j].exclude) continue;
        ++reranked;
        const float* crow =
            v.cand_rows + static_cast<size_t>(row) * v.cand_stride;
        const float s = ops.dot(act[j].query, crow, dim_);
        if (s > sel.Threshold()) sel.Push(s, id);
      }
      *act[j].out = sel.Take();
    }
    if (obs::MetricsEnabled()) {
      ScanBytes()->Add(block * m + reranked * dim_ * sizeof(float));
      StreamedBytes()->Add(block);
      RerankRows()->Add(reranked);
    }
    return;
  }

  std::vector<TopKSelector> sels;
  sels.reserve(m);
  for (size_t j = 0; j < m; ++j) sels.emplace_back(act[j].k);
  for (uint32_t c0 = 0; c0 < rows; c0 += chunk_rows) {
    const uint32_t cn = std::min(chunk_rows, rows - c0);
    const float* chunk = v.cand_rows + static_cast<size_t>(c0) * v.cand_stride;
    for (size_t j = 0; j < m; ++j) {
      ops.top_k_scan(act[j].query, chunk, v.cand_stride, cn, dim_,
                     v.cand_ids + c0, act[j].exclude, &sels[j]);
    }
  }
  for (size_t j = 0; j < m; ++j) *act[j].out = sels[j].Take();
  if (obs::MetricsEnabled()) {
    ScanBytes()->Add(block * m);
    StreamedBytes()->Add(block);
  }
}

}  // namespace sisg
