#include "core/matching_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sisg {
namespace {

/// Candidate-scan byte counters. serve.bytes_scanned counts the bytes
/// scored (block bytes once per query, plus fp32 rerank rows);
/// serve.bytes_streamed counts the block bytes read (once per query on the
/// per-query path, once per shard pass on the coalesced one), so their ratio
/// is the coalescing factor.
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

}  // namespace

void MatchingEngine::PublishDegraded() const {
  // Unconditional (not gated on MetricsEnabled): a degradation transition is
  // rare and operationally important, and tests that enable metrics after an
  // engine was built still see the current state.
  obs::MetricsRegistry::Global()
      .gauge("serve.degraded")
      ->Set(degraded_ ? 1.0 : 0.0);
}

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
  if (mode == SimilarityMode::kDirectionalInOut && out.size() != expected) {
    return Status::InvalidArgument(
        "matching engine: output matrix required for directional mode");
  }
  num_items_ = num_items;
  dim_ = dim;
  mode_ = mode;
  in_ = std::move(in);
  out_ = std::move(out);

  has_item_.assign(num_items, 0);
  for (uint32_t i = 0; i < num_items; ++i) {
    float* row = in_.data() + static_cast<size_t>(i) * dim;
    const float norm = L2Norm(row, dim);
    if (norm > 0.0f) has_item_[i] = 1;
    if (mode == SimilarityMode::kCosineInput && norm > 0.0f) {
      Scale(1.0f / norm, row, dim);
    }
  }
  if (mode == SimilarityMode::kDirectionalInOut) {
    // Directional scores are inner products in(q) . out(c); candidate rows
    // are normalized so ranking is cosine-like — a raw out-norm carries the
    // item's context frequency and would drown the query signal under Zipf
    // popularity. Items never observed as a context keep a zero row and are
    // never retrieved.
    for (uint32_t i = 0; i < num_items; ++i) {
      float* row = out_.data() + static_cast<size_t>(i) * dim;
      const float norm = L2Norm(row, dim);
      if (norm > 0.0f) Scale(1.0f / norm, row, dim);
    }
  }

  // Pack the trained candidate rows into the aligned serving block. Liveness
  // is has_item_ (non-zero IN row), the same gate the per-candidate loop
  // used; in directional mode an item seen only as input keeps its zero OUT
  // row in the block and scores 0, as before.
  const std::vector<float>& cand = candidate_matrix();
  block_stride_ = AlignedRowStride(dim);
  cand_ids_.clear();
  cand_ids_.reserve(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    if (has_item_[i] == 0) continue;
    cand_ids_.push_back(i);
  }
  cand_block_.assign(cand_ids_.size() * block_stride_, 0.0f);
  for (size_t r = 0; r < cand_ids_.size(); ++r) {
    std::memcpy(cand_block_.data() + r * block_stride_,
                cand.data() + static_cast<size_t>(cand_ids_[r]) * dim,
                dim * sizeof(float));
  }
  arena_.reset();
  int8_arena_.reset();
  quant_mode_ = QuantMode::kFp32;
  query_data_ = in_.data();
  query_stride_ = dim_;
  cand_data_ = cand_block_.data();
  IndexCandidates();
  return Status::OK();
}

void MatchingEngine::IndexCandidates() {
  row_of_item_.assign(num_items_, UINT32_MAX);
  for (size_t r = 0; r < cand_ids_.size(); ++r) {
    row_of_item_[cand_ids_[r]] = static_cast<uint32_t>(r);
  }
}

const float* MatchingEngine::DenseCandidateMatrix(
    std::vector<float>* scratch) const {
  const std::vector<float>& m =
      mode_ == SimilarityMode::kDirectionalInOut ? out_ : in_;
  if (!m.empty()) return m.data();
  // Arena-backed: scatter the compact padded block back to a dense
  // num_items x dim matrix (zero rows for absent items). Only index BUILDS
  // pay this allocation; the query path never does.
  scratch->assign(static_cast<size_t>(num_items_) * dim_, 0.0f);
  for (size_t r = 0; r < cand_ids_.size(); ++r) {
    std::memcpy(scratch->data() + static_cast<size_t>(cand_ids_[r]) * dim_,
                cand_data_ + r * block_stride_, dim_ * sizeof(float));
  }
  return scratch->data();
}

Status MatchingEngine::SaveArena(const std::string& path) const {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  ServingArena::View v;
  v.num_items = num_items_;
  v.dim = dim_;
  v.num_cand = static_cast<uint32_t>(cand_ids_.size());
  v.mode = static_cast<uint32_t>(mode_);
  v.query_stride = query_stride_;
  v.cand_stride = block_stride_;
  v.query_rows = query_data_;
  v.cand_rows = cand_data_;
  v.cand_ids = cand_ids_.data();
  v.has_item = has_item_.data();
  return ServingArena::Save(path, v);
}

Status MatchingEngine::LoadArena(const std::string& path, bool use_mmap) {
  SISG_ASSIGN_OR_RETURN(ServingArena arena, ServingArena::Load(path, use_mmap));
  const ServingArena::View& v = arena.view();
  arena_ = std::make_unique<ServingArena>(std::move(arena));
  // NOTE: `v` points into the moved-from local's buffers; re-read the view
  // from its final home.
  const ServingArena::View& view = arena_->view();
  num_items_ = view.num_items;
  dim_ = view.dim;
  mode_ = static_cast<SimilarityMode>(view.mode);
  in_.clear();
  out_.clear();
  has_item_.assign(view.has_item, view.has_item + view.num_items);
  cand_ids_.assign(view.cand_ids, view.cand_ids + view.num_cand);
  cand_block_.clear();
  block_stride_ = view.cand_stride;
  query_data_ = view.query_rows;
  query_stride_ = view.query_stride;
  cand_data_ = view.cand_rows;
  backend_ = AnnBackend::kBruteForce;
  degraded_ = false;
  ivf_.reset();
  hnsw_.reset();
  int8_arena_.reset();
  quant_mode_ = QuantMode::kFp32;
  IndexCandidates();
  return Status::OK();
}

Status MatchingEngine::EnableInt8() {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  auto arena = std::make_unique<Int8Arena>();
  const Status built = arena->BuildFromRows(
      cand_data_, static_cast<uint32_t>(cand_ids_.size()), dim_,
      block_stride_);
  if (!built.ok()) {
    degraded_ = true;
    PublishDegraded();
    LOG_WARN << "matching engine: int8 quantization failed ("
             << built.message() << "); serving stays on the fp32 scan";
    return built;
  }
  int8_arena_ = std::move(arena);
  quant_mode_ = QuantMode::kInt8;
  degraded_ = false;
  PublishDegraded();
  return Status::OK();
}

Status MatchingEngine::EnableInt8FromFile(const std::string& path,
                                          bool use_mmap) {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  auto degrade = [&](const Status& why) {
    degraded_ = true;
    quant_mode_ = QuantMode::kFp32;
    int8_arena_.reset();
    PublishDegraded();
    LOG_WARN << "matching engine: int8 arena load from " << path
             << " failed (" << why.message()
             << "); serving stays on the fp32 scan";
    return why;
  };
  StatusOr<Int8Arena> loaded = Int8Arena::Load(path, use_mmap);
  if (!loaded.ok()) return degrade(loaded.status());
  if (loaded->dim() != dim_ ||
      loaded->num_rows() != cand_ids_.size()) {
    return degrade(Status::FailedPrecondition(
        "int8 arena holds " + std::to_string(loaded->num_rows()) +
        " rows of dim " + std::to_string(loaded->dim()) +
        " but this engine serves " + std::to_string(cand_ids_.size()) +
        " candidates of dim " + std::to_string(dim_)));
  }
  int8_arena_ = std::make_unique<Int8Arena>(std::move(loaded).value());
  quant_mode_ = QuantMode::kInt8;
  degraded_ = false;
  PublishDegraded();
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
                                   const PqOptions& pq_options,
                                   uint32_t rerank) {
  SISG_RETURN_IF_ERROR(EnableIvf(ivf_options));
  const Status st = ivf_->EnablePq(pq_options, rerank);
  if (!st.ok()) {
    degraded_ = true;
    backend_ = AnnBackend::kBruteForce;
    ivf_.reset();
    PublishDegraded();
    LOG_WARN << "matching engine: PQ enable failed (" << st.message()
             << "); serving degrades to brute-force scan";
    return st;
  }
  return Status::OK();
}

std::vector<ScoredId> MatchingEngine::ScanBlock(const float* query, uint32_t k,
                                                uint32_t exclude) const {
  if (obs::MetricsEnabled()) {
    static obs::Counter* const m_queries =
        obs::MetricsRegistry::Global().counter("serve.queries");
    static obs::Histogram* const m_latency =
        obs::MetricsRegistry::Global().histogram("serve.query_seconds");
    m_queries->Increment();
    obs::TraceSpan span(m_latency);
    return ScanBlockImpl(query, k, exclude);
  }
  return ScanBlockImpl(query, k, exclude);
}

std::vector<ScoredId> MatchingEngine::ScanBlockImpl(const float* query,
                                                    uint32_t k,
                                                    uint32_t exclude) const {
  // ANN fast path; the brute-force block below stays intact as the serving
  // fallback, so a failed or missing index only costs latency, not queries.
  if (backend_ == AnnBackend::kIvf && ivf_ != nullptr) {
    return ivf_->Query(query, k, exclude);
  }
  if (backend_ == AnnBackend::kHnsw && hnsw_ != nullptr) {
    return hnsw_->Query(query, k, exclude);
  }
  const SimdOps& ops = GetSimdOps();
  const uint32_t n = static_cast<uint32_t>(cand_ids_.size());

  if (quant_mode_ == QuantMode::kInt8 && int8_arena_ != nullptr) {
    // Int8 scan: quantize the query, scan 1-byte codes for a shortlist of
    // BLOCK rows (ids = nullptr -> row index), then exactly re-score the
    // shortlist against the fp32 rows. The quantization error only has to
    // keep the true top-k inside the 4x-deeper shortlist; the scores the
    // caller sees are exact fp32 dots.
    std::vector<int8_t> qcodes(dim_);
    const Int8Query iq = QuantizeQueryInt8(query, dim_, qcodes.data());
    const uint32_t shortlist_k =
        std::min(n, std::max(4 * k, 32u)) + 1;  // +1 absorbs the exclude
    TopKSelector shortlist(shortlist_k);
    ops.top_k_scan_i8(iq, int8_arena_->codes(), int8_arena_->stride(),
                      int8_arena_->scales(), int8_arena_->mins(), n, dim_,
                      nullptr, UINT32_MAX, &shortlist);
    TopKSelector sel(k);
    uint64_t reranked = 0;
    for (const ScoredId& cand : shortlist.Take()) {
      const uint32_t row = cand.id;
      const uint32_t id = cand_ids_[row];
      if (id == exclude) continue;
      ++reranked;
      const float s = ops.dot(
          query, cand_data_ + static_cast<size_t>(row) * block_stride_, dim_);
      if (s > sel.Threshold()) sel.Push(s, id);
    }
    if (obs::MetricsEnabled()) {
      const uint64_t block = static_cast<uint64_t>(n) * int8_arena_->stride();
      ScanBytes()->Add(block + reranked * dim_ * sizeof(float));
      StreamedBytes()->Add(block);
      RerankRows()->Add(reranked);
    }
    return sel.Take();
  }

  TopKSelector sel(k);
  ops.top_k_scan(query, cand_data_, block_stride_, n, dim_, cand_ids_.data(),
                 exclude, &sel);
  if (obs::MetricsEnabled()) {
    const uint64_t block =
        static_cast<uint64_t>(n) * block_stride_ * sizeof(float);
    ScanBytes()->Add(block);
    StreamedBytes()->Add(block);
  }
  return sel.Take();
}

Status MatchingEngine::EnableIvf(const IvfOptions& options) {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  auto index = std::make_unique<IvfIndex>();
  std::vector<float> scratch;
  const Status built =
      index->Build(DenseCandidateMatrix(&scratch), num_items_, dim_, options);
  if (!built.ok()) {
    degraded_ = true;
    backend_ = AnnBackend::kBruteForce;
    PublishDegraded();
    LOG_WARN << "matching engine: IVF build failed (" << built.message()
             << "); serving degrades to brute-force scan";
    return built;
  }
  ivf_ = std::move(index);
  backend_ = AnnBackend::kIvf;
  degraded_ = false;
  PublishDegraded();
  return Status::OK();
}

Status MatchingEngine::EnableHnsw(const HnswOptions& options) {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  auto index = std::make_unique<HnswIndex>();
  std::vector<float> scratch;
  const Status built =
      index->Build(DenseCandidateMatrix(&scratch), num_items_, dim_, options);
  if (!built.ok()) {
    degraded_ = true;
    backend_ = AnnBackend::kBruteForce;
    PublishDegraded();
    LOG_WARN << "matching engine: HNSW build failed (" << built.message()
             << "); serving degrades to brute-force scan";
    return built;
  }
  hnsw_ = std::move(index);
  backend_ = AnnBackend::kHnsw;
  degraded_ = false;
  PublishDegraded();
  return Status::OK();
}

Status MatchingEngine::EnableIvfFromFile(const std::string& path) {
  if (num_items_ == 0) {
    return Status::FailedPrecondition("matching engine: not built");
  }
  auto degrade = [&](const Status& why) {
    degraded_ = true;
    backend_ = AnnBackend::kBruteForce;
    PublishDegraded();
    LOG_WARN << "matching engine: IVF load from " << path << " failed ("
             << why.message() << "); serving degrades to brute-force scan";
    return why;
  };
  StatusOr<IvfIndex> loaded = IvfIndex::Load(path);
  if (!loaded.ok()) return degrade(loaded.status());
  if (loaded->dim() != dim_ || loaded->num_vectors() > num_items_) {
    return degrade(Status::FailedPrecondition(
        "ivf artifact indexes " + std::to_string(loaded->num_vectors()) +
        " vectors of dim " + std::to_string(loaded->dim()) +
        " but this engine serves " + std::to_string(num_items_) +
        " items of dim " + std::to_string(dim_)));
  }
  ivf_ = std::make_unique<IvfIndex>(std::move(loaded).value());
  backend_ = AnnBackend::kIvf;
  degraded_ = false;
  PublishDegraded();
  return Status::OK();
}

Status MatchingEngine::SaveIvf(const std::string& path) const {
  if (backend_ != AnnBackend::kIvf || ivf_ == nullptr) {
    return Status::FailedPrecondition(
        "matching engine: no IVF index installed");
  }
  return ivf_->Save(path);
}

std::vector<ScoredId> MatchingEngine::Query(uint32_t item, uint32_t k) const {
  if (!HasItem(item)) return {};
  return ScanBlock(QueryRow(item), k, item);
}

std::vector<ScoredId> MatchingEngine::QueryVector(const float* query,
                                                  uint32_t k) const {
  std::vector<float> q(query, query + dim_);
  if (mode_ == SimilarityMode::kCosineInput) {
    const float norm = L2Norm(q.data(), dim_);
    if (norm > 0.0f) Scale(1.0f / norm, q.data(), dim_);
  }
  return ScanBlock(q.data(), k, UINT32_MAX);
}

std::vector<std::vector<ScoredId>> MatchingEngine::QueryBatch(
    const std::vector<uint32_t>& items, uint32_t k,
    uint32_t num_threads) const {
  // Fixed blocks of items, each one serial coalesced pass: a block streams
  // the candidate rows once, and a worker's scratch never exceeds one
  // block's shortlists.
  constexpr size_t kBlockItems = 256;
  std::vector<std::vector<ScoredId>> results(items.size());
  const std::vector<uint32_t> ks(std::min(items.size(), kBlockItems), k);
  const size_t blocks = (items.size() + kBlockItems - 1) / kBlockItems;
  const auto run_block = [&](size_t b) {
    const size_t begin = b * kBlockItems;
    const size_t len = std::min(kBlockItems, items.size() - begin);
    auto part = QueryBatchCoalesced(items.data() + begin, ks.data(), len);
    std::move(part.begin(), part.end(), results.begin() + begin);
  };
  if (num_threads <= 1 || blocks <= 1) {
    for (size_t b = 0; b < blocks; ++b) run_block(b);
    return results;
  }
  ThreadPool pool(std::min<size_t>(num_threads, blocks));
  pool.ParallelFor(blocks, run_block);
  return results;
}

std::vector<std::vector<ScoredId>> MatchingEngine::QueryBatchCoalesced(
    const uint32_t* items, const uint32_t* ks, size_t n,
    ThreadPool* pool) const {
  std::vector<std::vector<ScoredId>> results(n);
  if (n == 0) return results;
  // ANN backends walk per-query index structures — there is no shared
  // linear scan to coalesce. A batch of one IS the per-query path.
  if (backend_ != AnnBackend::kBruteForce || n == 1) {
    for (size_t i = 0; i < n; ++i) results[i] = Query(items[i], ks[i]);
    return results;
  }

  // Queries with nothing to scan (untrained item, k == 0) keep their empty
  // result slot; only the rest pay for the pass.
  struct Active {
    const float* query;
    uint32_t exclude;
    uint32_t k;
    size_t slot;
  };
  std::vector<Active> act;
  act.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!HasItem(items[i]) || ks[i] == 0) continue;
    act.push_back({QueryRow(items[i]), items[i], ks[i], i});
  }
  if (act.empty()) return results;

  const SimdOps& ops = GetSimdOps();
  const uint32_t rows = static_cast<uint32_t>(cand_ids_.size());
  const bool int8 = quant_mode_ == QuantMode::kInt8 && int8_arena_ != nullptr;

  // Chunk size: keep one chunk of candidate rows within ~32KB so the 2nd..Bth
  // queries of the batch re-read it from L1/L2 instead of DRAM.
  constexpr size_t kChunkBytes = 32 * 1024;
  const size_t row_bytes =
      int8 ? int8_arena_->stride() : block_stride_ * sizeof(float);
  const uint32_t chunk_rows = static_cast<uint32_t>(
      std::max<size_t>(16, row_bytes == 0 ? 16 : kChunkBytes / row_bytes));

  // The chunked int8 shortlist scan needs global row indices as ids (the
  // per-query path passes ids=nullptr, meaning "row index within the call").
  std::vector<uint32_t> row_ids;
  if (int8) {
    row_ids.resize(rows);
    for (uint32_t r = 0; r < rows; ++r) row_ids[r] = r;
  }

  // One shard = a contiguous span of the active queries, answered with its
  // own chunk-tiled pass. Serial serving is a single shard; with a pool each
  // worker streams the block once for its span.
  const auto scan_span = [&](size_t begin, size_t end) {
    const size_t m = end - begin;
    if (int8) {
      std::vector<int8_t> qcodes(m * dim_);
      std::vector<Int8Query> iq(m);
      std::vector<TopKSelector> shortlists;
      shortlists.reserve(m);
      for (size_t j = 0; j < m; ++j) {
        const Active& a = act[begin + j];
        iq[j] = QuantizeQueryInt8(a.query, dim_, qcodes.data() + j * dim_);
        const uint32_t shortlist_k =
            std::min(rows, std::max(4 * a.k, 32u)) + 1;
        shortlists.emplace_back(shortlist_k);
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
                                 row_ids.data() + c0, UINT32_MAX,
                                 shortlists.data());
        }
        for (size_t j = tiled; j < m; ++j) {
          ops.top_k_scan_i8(iq[j], chunk, row_bytes,
                            int8_arena_->scales() + c0,
                            int8_arena_->mins() + c0, cn, dim_,
                            row_ids.data() + c0, UINT32_MAX, &shortlists[j]);
        }
      }
      uint64_t reranked = 0;
      for (size_t j = 0; j < m; ++j) {
        const Active& a = act[begin + j];
        TopKSelector sel(a.k);
        for (const ScoredId& cand : shortlists[j].Take()) {
          const uint32_t row = cand.id;
          const uint32_t id = cand_ids_[row];
          if (id == a.exclude) continue;
          ++reranked;
          const float s = ops.dot(
              a.query, cand_data_ + static_cast<size_t>(row) * block_stride_,
              dim_);
          if (s > sel.Threshold()) sel.Push(s, id);
        }
        results[a.slot] = sel.Take();
      }
      if (obs::MetricsEnabled()) {
        const uint64_t block = static_cast<uint64_t>(rows) * row_bytes;
        ScanBytes()->Add(block * m + reranked * dim_ * sizeof(float));
        StreamedBytes()->Add(block);
        RerankRows()->Add(reranked);
      }
      return;
    }
    std::vector<TopKSelector> sels;
    sels.reserve(m);
    for (size_t j = 0; j < m; ++j) sels.emplace_back(act[begin + j].k);
    for (uint32_t c0 = 0; c0 < rows; c0 += chunk_rows) {
      const uint32_t cn = std::min(chunk_rows, rows - c0);
      const float* chunk = cand_data_ + static_cast<size_t>(c0) * block_stride_;
      for (size_t j = 0; j < m; ++j) {
        ops.top_k_scan(act[begin + j].query, chunk, block_stride_, cn, dim_,
                       cand_ids_.data() + c0, act[begin + j].exclude,
                       &sels[j]);
      }
    }
    for (size_t j = 0; j < m; ++j) results[act[begin + j].slot] = sels[j].Take();
    if (obs::MetricsEnabled()) {
      const uint64_t block = static_cast<uint64_t>(rows) * row_bytes;
      ScanBytes()->Add(block * m);
      StreamedBytes()->Add(block);
    }
  };

  if (obs::MetricsEnabled()) {
    static obs::Counter* const m_queries =
        obs::MetricsRegistry::Global().counter("serve.queries");
    m_queries->Add(act.size());
  }

  const size_t workers = pool == nullptr ? 1 : pool->num_threads();
  if (workers <= 1 || act.size() < 2 * workers) {
    scan_span(0, act.size());
    return results;
  }
  const size_t shard = (act.size() + workers - 1) / workers;
  pool->ParallelFor((act.size() + shard - 1) / shard, [&](size_t s) {
    const size_t begin = s * shard;
    scan_span(begin, std::min(begin + shard, act.size()));
  });
  return results;
}

float MatchingEngine::Score(uint32_t query_item, uint32_t candidate) const {
  if (query_item >= num_items_ || candidate >= num_items_) return 0.0f;
  const float* c = CandidateRow(candidate);
  if (c == nullptr) return 0.0f;
  return Dot(QueryRow(query_item), c, dim_);
}

}  // namespace sisg
