#include "corpus/corpus.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <thread>

#include "common/io_util.h"
#include "common/thread_pool.h"

namespace sisg {
namespace {

constexpr char kCacheKind[] = "CORPCACH";
constexpr uint32_t kCacheVersion = 1;

/// One ingest work unit: a block read from the SessionSource and parsed on
/// a worker. Enriched tokens are never materialized: `lens` holds each
/// session's encoded length and sequences are written straight into the
/// arena.
struct ChunkState {
  SessionBlock block;
  std::vector<uint32_t> lens;
  uint64_t token_total = 0;  // encoded tokens in this chunk
  uint64_t seq_total = 0;    // surviving sequences in this chunk
  Status status;
  std::atomic<bool> ingested{false};  // parsed and counted

  /// fn(i, user_type, items) for each session in order, until fn returns
  /// false.
  template <typename Fn>
  void ForEachSession(Fn&& fn) const {
    const SessionBatch& batch = block.sessions;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!fn(i, batch.user_types[i], batch.items_of(i))) return;
    }
  }
};

/// Per-worker click counters: one add per item click and one per session,
/// instead of one per enriched token. Token counts are recovered afterwards
/// by expanding item clicks through the per-item token block (every click
/// of item i contributes exactly its block of tokens).
struct ClickCounts {
  std::vector<uint64_t> items;
  std::vector<uint64_t> user_types;
};

}  // namespace

Status Corpus::BuildFromSource(SessionSource* source,
                               const TokenSpace& token_space,
                               const ItemCatalog& catalog,
                               const CorpusOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("corpus: null session source");
  }
  options_ = options;
  vocab_ = Vocabulary();
  packed_.Clear();

  size_t num_threads = options.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::optional<ThreadPool> pool;
  if (num_threads > 1) pool.emplace(num_threads);

  const SequenceEnricher enricher(&token_space, &catalog, options.enrich);
  const uint32_t block = enricher.TokensPerItem();
  const bool has_ut = options.enrich.include_user_type;
  const uint32_t num_items = token_space.num_items();

  // Phase 1: count. Chunks are processed independently; each worker tallies
  // item clicks and user types into its own slot (no locks, no sharing).
  // The main thread (index -1) uses slot 0, which is safe because it only
  // runs chunks itself when there is no pool. Sessions are kept for encode.
  std::vector<ClickCounts> clicks(num_threads);
  auto count_chunk = [&](ChunkState* cs) {
    const int widx = ThreadPool::CurrentWorkerIndex();
    ClickCounts& local = clicks[widx < 0 ? 0 : static_cast<size_t>(widx)];
    if (local.items.empty()) {
      local.items.resize(num_items, 0);
      local.user_types.resize(token_space.num_user_types(), 0);
    }
    cs->ForEachSession([&](size_t, uint32_t user_type,
                           std::span<const uint32_t> items) {
      if (user_type >= token_space.num_user_types()) {
        cs->status = Status::OutOfRange(
            "corpus: user type " + std::to_string(user_type) +
            " outside the universe of " +
            std::to_string(token_space.num_user_types()));
        return false;
      }
      for (uint32_t item : items) {
        if (item >= num_items) {
          cs->status = Status::OutOfRange(
              "corpus: item " + std::to_string(item) +
              " outside the catalog of " + std::to_string(num_items));
          return false;
        }
        ++local.items[item];
      }
      if (has_ut) ++local.user_types[user_type];
      return true;
    });
  };

  // This thread only reads raw blocks; the workers parse and count them.
  // Each block's bad lines are folded into the source's error budget in
  // input order, a window of blocks behind the reader, so at most that many
  // raw blocks are in flight and reading stops soon after a line that fails
  // the stream.
  std::deque<ChunkState> chunks;  // deque: stable addresses across growth
  auto ingest = [&count_chunk, source](ChunkState* cs) {
    source->ParseBlock(&cs->block);
    count_chunk(cs);
    cs->ingested.store(true, std::memory_order_release);
    cs->ingested.notify_one();
  };
  const size_t window = pool ? 2 * num_threads : 0;
  size_t folded = 0;
  auto fold_next = [&]() {
    ChunkState& cs = chunks[folded++];
    cs.ingested.wait(false, std::memory_order_acquire);
    size_t num_ok = 0;
    return source->FoldBlock(cs.block, &num_ok);
  };
  Status ingest_status;
  for (;;) {
    ChunkState& cs = chunks.emplace_back();
    ingest_status = source->ReadBlock(&cs.block);
    if (!ingest_status.ok() || cs.block.empty()) {
      chunks.pop_back();
      break;
    }
    if (pool) {
      pool->Submit([&ingest, cs_ptr = &cs] { ingest(cs_ptr); });
    } else {
      ingest(&cs);
    }
    if (chunks.size() - folded > window) {
      ingest_status = fold_next();
      if (!ingest_status.ok()) break;
    }
  }
  if (pool) pool->Wait();  // workers hold pointers into chunks/counters
  while (ingest_status.ok() && folded < chunks.size()) {
    ingest_status = fold_next();
  }
  SISG_RETURN_IF_ERROR(ingest_status);
  size_t total_sessions = 0;
  for (const ChunkState& cs : chunks) total_sessions += cs.block.sessions.size();
  if (total_sessions == 0) return Status::InvalidArgument("corpus: no sessions");
  for (const ChunkState& cs : chunks) {
    // First failed chunk in input order wins, so the reported error does
    // not depend on worker scheduling.
    SISG_RETURN_IF_ERROR(cs.status);
  }

  // Phase 2: deterministic merge + vocabulary. Addition is commutative, so
  // the merge order across worker counters cannot affect any count; vocab
  // id assignment sorts by (count desc, token asc) — a total order.
  ClickCounts merged = std::move(clicks[0]);
  if (merged.items.empty()) {
    merged.items.resize(num_items, 0);
    merged.user_types.resize(token_space.num_user_types(), 0);
  }
  for (size_t w = 1; w < clicks.size(); ++w) {
    if (clicks[w].items.empty()) continue;
    for (size_t i = 0; i < merged.items.size(); ++i) {
      merged.items[i] += clicks[w].items[i];
    }
    for (size_t u = 0; u < merged.user_types.size(); ++u) {
      merged.user_types[u] += clicks[w].user_types[u];
    }
    clicks[w] = ClickCounts();
  }

  // The enriched form of a click is a pure function of the item, so the
  // catalog/feature lookups are paid once per clicked item, not once per
  // click. Item i's block is blocks[enc_off[i], enc_off[i + 1]): its item
  // token, then its SI tokens in AllItemFeatureKinds order, exactly as
  // SequenceEnricher::Enrich emits them (prop_ingest_test's Enrich-based
  // reference pins this); items nobody clicked get an empty block.
  std::vector<uint32_t> enc_off(static_cast<size_t>(num_items) + 1, 0);
  std::vector<uint32_t> blocks;
  {
    size_t clicked = 0;
    for (uint64_t c : merged.items) clicked += c != 0;
    blocks.reserve(clicked * block);
    for (uint32_t item = 0; item < num_items; ++item) {
      if (merged.items[item] != 0) {
        blocks.push_back(token_space.ItemToken(item));
        if (options.enrich.include_item_si) {
          const ItemMeta& m = catalog.meta(item);
          for (ItemFeatureKind kind : AllItemFeatureKinds()) {
            blocks.push_back(token_space.SiToken(kind, m.Feature(kind)));
          }
        }
      }
      enc_off[item + 1] = static_cast<uint32_t>(blocks.size());
    }
  }
  {
    // Expand clicks to token counts through the blocks: a click of item i
    // contributes exactly one occurrence of each token in block i.
    std::vector<uint64_t> token_counts(token_space.num_tokens(), 0);
    for (uint32_t item = 0; item < num_items; ++item) {
      const uint64_t c = merged.items[item];
      for (uint32_t k = enc_off[item]; k < enc_off[item + 1]; ++k) {
        token_counts[blocks[k]] += c;
      }
    }
    if (has_ut) {
      for (size_t ut = 0; ut < merged.user_types.size(); ++ut) {
        token_counts[token_space.UserTypeToken(static_cast<uint32_t>(ut))] +=
            merged.user_types[ut];
      }
    }
    merged = ClickCounts();
    SISG_RETURN_IF_ERROR(vocab_.BuildFromCounts(token_counts,
                                                options.min_count, token_space));
  }

  // Phase 3: re-encode the blocks into vocab-id space in place, dropping
  // sub-min_count tokens. Each token yields at most one id, so the write
  // cursor never passes the read cursor and no second table is needed.
  {
    size_t r = 0, w = 0;
    for (uint32_t item = 0; item < num_items; ++item) {
      for (const size_t end = enc_off[item + 1]; r < end; ++r) {
        const int32_t v = vocab_.ToVocab(blocks[r]);
        if (v >= 0) blocks[w++] = static_cast<uint32_t>(v);
      }
      enc_off[item + 1] = static_cast<uint32_t>(w);
    }
  }
  std::vector<int32_t> ut_enc;
  if (has_ut) {
    ut_enc.resize(token_space.num_user_types());
    for (uint32_t ut = 0; ut < ut_enc.size(); ++ut) {
      ut_enc[ut] = vocab_.ToVocab(token_space.UserTypeToken(ut));
    }
  }

  // 3a: exact per-session encoded lengths (0 = dropped), chunk totals.
  auto size_chunk = [&](ChunkState* cs) {
    cs->lens.resize(cs->block.sessions.size());
    cs->token_total = 0;
    cs->seq_total = 0;
    cs->ForEachSession([&](size_t i, uint32_t user_type,
                           std::span<const uint32_t> items) {
      uint64_t n = 0;
      for (uint32_t item : items) n += enc_off[item + 1] - enc_off[item];
      if (has_ut && ut_enc[user_type] >= 0) ++n;
      if (n < 2) n = 0;  // dropped: fewer than 2 surviving tokens
      cs->lens[i] = static_cast<uint32_t>(n);
      cs->token_total += n;
      cs->seq_total += n != 0;
      return true;
    });
  };
  if (pool) {
    for (ChunkState& cs : chunks) {
      pool->Submit([&size_chunk, cs_ptr = &cs] { size_chunk(cs_ptr); });
    }
    pool->Wait();
  } else {
    for (ChunkState& cs : chunks) size_chunk(&cs);
  }

  // 3b: prefix sums fix every chunk's destination range up front.
  std::vector<uint64_t> tok_off(chunks.size()), seq_off(chunks.size());
  uint64_t total_tokens = 0, total_seqs = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    tok_off[i] = total_tokens;
    seq_off[i] = total_seqs;
    total_tokens += chunks[i].token_total;
    total_seqs += chunks[i].seq_total;
  }
  if (total_seqs == 0) {
    return Status::InvalidArgument("corpus: all sequences empty after filtering");
  }
  packed_.Resize(total_seqs, total_tokens);

  // 3c: the writes target disjoint ranges, so chunks encode concurrently;
  // output order == input order, independent of threads.
  auto encode_chunk = [&, this](size_t ci) {
    ChunkState& cs = chunks[ci];
    uint32_t* out = packed_.mutable_tokens() + tok_off[ci];
    uint64_t* offsets = packed_.mutable_offsets();
    uint64_t off = tok_off[ci];
    uint64_t seq = seq_off[ci];
    cs.ForEachSession([&](size_t i, uint32_t user_type,
                          std::span<const uint32_t> items) {
      const uint32_t n = cs.lens[i];
      if (n == 0) return true;
      offsets[seq++] = off;
      off += n;
      for (uint32_t item : items) {
        const uint32_t len = enc_off[item + 1] - enc_off[item];
        std::memcpy(out, blocks.data() + enc_off[item],
                    len * sizeof(uint32_t));
        out += len;
      }
      if (has_ut) {
        const int32_t v = ut_enc[user_type];
        if (v >= 0) *out++ = static_cast<uint32_t>(v);
      }
      return true;
    });
    cs.block = SessionBlock();
  };
  if (pool) {
    pool->ParallelFor(chunks.size(), encode_chunk);
  } else {
    for (size_t i = 0; i < chunks.size(); ++i) encode_chunk(i);
  }
  return Status::OK();
}

Status Corpus::Save(const std::string& prefix) const {
  SISG_RETURN_IF_ERROR(vocab_.Save(prefix + ".vocab"));
  SISG_ASSIGN_OR_RETURN(ArtifactWriter w, ArtifactWriter::Open(prefix + ".corpus",
                                                               kCacheKind,
                                                               kCacheVersion));
  const uint8_t si = options_.enrich.include_item_si ? 1 : 0;
  const uint8_t ut = options_.enrich.include_user_type ? 1 : 0;
  SISG_RETURN_IF_ERROR(w.WriteScalar(si));
  SISG_RETURN_IF_ERROR(w.WriteScalar(ut));
  SISG_RETURN_IF_ERROR(w.WriteScalar(options_.min_count));
  SISG_RETURN_IF_ERROR(w.WriteScalar(vocab_.size()));
  SISG_RETURN_IF_ERROR(packed_.AppendTo(&w));
  return w.Commit();
}

StatusOr<Corpus> Corpus::Load(const std::string& prefix,
                              const CorpusOptions& expected,
                              const TokenSpace& token_space) {
  Corpus c;
  c.options_ = expected;
  SISG_ASSIGN_OR_RETURN(c.vocab_, Vocabulary::Load(prefix + ".vocab"));

  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(prefix + ".corpus", kCacheKind));
  if (r.version() != kCacheVersion) {
    return Status::InvalidArgument("corpus cache: unsupported version " +
                                   std::to_string(r.version()));
  }
  uint8_t si = 0, ut = 0;
  uint32_t min_count = 0, vocab_size = 0;
  SISG_RETURN_IF_ERROR(r.ReadScalar(&si));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&ut));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&min_count));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&vocab_size));
  if (si != (expected.enrich.include_item_si ? 1 : 0) ||
      ut != (expected.enrich.include_user_type ? 1 : 0) ||
      min_count != expected.min_count) {
    return Status::FailedPrecondition(
        "corpus cache: built with different options (si=" + std::to_string(si) +
        " ut=" + std::to_string(ut) + " min_count=" + std::to_string(min_count) +
        "); rebuild required");
  }
  if (vocab_size != c.vocab_.size()) {
    return Status::DataLoss("corpus cache: vocabulary size " +
                            std::to_string(c.vocab_.size()) +
                            " does not match cached corpus (" +
                            std::to_string(vocab_size) + ")");
  }
  // Every cached token must decode against the loaded vocabulary, and the
  // vocabulary itself must come from the same token space.
  for (uint32_t v = 0; v < c.vocab_.size(); ++v) {
    if (c.vocab_.ToToken(v) >= token_space.num_tokens()) {
      return Status::FailedPrecondition(
          "corpus cache: vocabulary tokens outside the current token space");
    }
  }
  SISG_ASSIGN_OR_RETURN(c.packed_,
                        PackedCorpus::ReadFrom(&r, c.vocab_.size()));
  return c;
}

}  // namespace sisg
