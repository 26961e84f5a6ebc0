#ifndef SISG_DATAGEN_SESSION_STREAM_H_
#define SISG_DATAGEN_SESSION_STREAM_H_

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "datagen/session_generator.h"
#include "datagen/user_universe.h"

namespace sisg {

/// Sessions per NextChunk call and per VectorSessionSource block by default.
inline constexpr size_t kDefaultChunkSessions = 1024;

struct SessionStreamOptions {
  /// Sessions handed out per NextChunk call.
  size_t chunk_sessions = kDefaultChunkSessions;
  /// Malformed lines tolerated before the stream fails: each bad line is
  /// skipped and counted (first few logged) instead of aborting the whole
  /// load. 0 = strict, the first bad line is an error.
  uint64_t max_errors = 0;
  /// When > 0, item ids must be < max_item_id (the catalog size); a line
  /// referencing an unknown item is malformed. 0 disables the check.
  uint32_t max_item_id = 0;
};

/// Counters of one streamed ingest, surfaced through PipelineReport so
/// silently-skipped lines are always visible to the caller.
struct IngestStats {
  uint64_t lines_read = 0;
  uint64_t sessions = 0;
  uint64_t lines_skipped = 0;
  std::string first_error;  // parse error of the first skipped line
};

/// Sessions stored flat: session i has user type user_types[i] and the
/// items items[ends[i-1] .. ends[i]) (ends[-1] = 0). One parsed block fills
/// three growing arrays instead of one heap vector per session.
struct SessionBatch {
  std::vector<uint32_t> user_types;
  std::vector<uint64_t> ends;
  std::vector<uint32_t> items;

  size_t size() const { return user_types.size(); }
  std::span<const uint32_t> items_of(size_t i) const {
    const uint64_t begin = i == 0 ? 0 : ends[i - 1];
    return {items.data() + begin, static_cast<size_t>(ends[i] - begin)};
  }
  void Append(uint32_t user_type, std::span<const uint32_t> session_items) {
    items.insert(items.end(), session_items.begin(), session_items.end());
    user_types.push_back(user_type);
    ends.push_back(items.size());
  }
};

/// A line the parser rejected, kept until the error budget is applied.
struct BadLine {
  uint64_t line = 0;            // 1-based line number in the input
  size_t sessions_before = 0;   // good sessions of the block before it
  Status status;
};

/// One unit of streamed ingest: raw input cut at a line boundary, then the
/// sessions and bad lines parsed from it.
struct SessionBlock {
  std::string bytes;        // whole lines; released once parsed
  uint64_t first_line = 1;  // 1-based number of the first line in `bytes`
  uint64_t num_lines = 0;
  SessionBatch sessions;
  std::vector<BadLine> bad_lines;

  bool empty() const { return bytes.empty() && sessions.size() == 0; }
};

/// Chunked session source, split into a reader half and a parser half so
/// the corpus builder can read on one thread and parse on its ingest
/// workers. NextChunk runs the same halves inline.
class SessionSource {
 public:
  virtual ~SessionSource() = default;

  /// Reader half: replaces `block` with the next raw block, in input order.
  /// An empty block signals end-of-stream. Single-threaded.
  virtual Status ReadBlock(SessionBlock* block) = 0;
  /// Parser half: fills block->sessions and block->bad_lines from the raw
  /// bytes and releases them. Thread-safe: blocks parse concurrently.
  virtual void ParseBlock(SessionBlock* block) const = 0;
  /// Applies the error budget to a parsed block's bad lines and folds its
  /// counters into the ingest stats. Call once per block, in read order.
  /// Returns the error of the bad line that exceeds the budget, with
  /// `*num_ok` = the block's sessions before it (all of them on success).
  virtual Status FoldBlock(const SessionBlock& block, size_t* num_ok) {
    *num_ok = block.sessions.size();
    return Status::OK();
  }
  /// Ingest counters when the source tracks them (file streams), else null.
  virtual const IngestStats* ingest_stats() const { return nullptr; }

  /// Fills `out` (cleared first) with the next chunk of at most
  /// `chunk_sessions` sessions, in input order. An empty chunk signals
  /// end-of-stream; a bad line past the error budget fails the call that
  /// would hand out the sessions after it.
  Status NextChunk(std::vector<Session>* out);
  /// Drains the rest of the source through NextChunk into one vector.
  StatusOr<std::vector<Session>> ReadAll();

 protected:
  explicit SessionSource(size_t chunk_sessions)
      : chunk_sessions_(chunk_sessions) {}
  SessionSource(SessionSource&&) = default;
  SessionSource& operator=(SessionSource&&) = default;
  size_t chunk_sessions() const { return chunk_sessions_; }

 private:
  size_t chunk_sessions_;
  SessionBlock block_;  // the block NextChunk is handing out
  size_t next_ = 0;     // its next session to hand out
  size_t num_ok_ = 0;   // its sessions before a budget-exceeding bad line
  Status pending_;      // that bad line's error, returned once reached
};

/// Streaming reader over a sessions text file (the WriteSessionsText
/// format: "<usertype_token>\t<item> <item> ...", one session per line).
/// Memory is a few raw blocks, not the file.
class SessionStream final : public SessionSource {
 public:
  /// Raw bytes per block before the cut back to the last newline.
  static constexpr size_t kBlockBytes = size_t{1} << 20;

  static StatusOr<SessionStream> Open(const UserUniverse& users,
                                      const std::string& path,
                                      const SessionStreamOptions& options = {});

  SessionStream(SessionStream&&) = default;
  SessionStream& operator=(SessionStream&&) = default;

  Status ReadBlock(SessionBlock* block) override;
  void ParseBlock(SessionBlock* block) const override;
  Status FoldBlock(const SessionBlock& block, size_t* num_ok) override;

  const IngestStats* ingest_stats() const override { return &stats_; }
  const IngestStats& stats() const { return stats_; }
  const SessionStreamOptions& options() const { return options_; }

 private:
  SessionStream(std::string path, std::ifstream in,
                const SessionStreamOptions& options)
      : SessionSource(options.chunk_sessions),
        path_(std::move(path)),
        in_(std::move(in)),
        options_(options) {}

  /// Parses one non-empty line (no '\n') into `out`; Corruption naming
  /// `lineno` on malformed input, with `out` unchanged.
  Status ParseLine(std::string_view line, uint64_t lineno,
                   SessionBatch* out) const;

  std::string path_;
  std::ifstream in_;
  /// User type tokens and their index. The keys view into type_tokens_,
  /// whose strings stay put when the stream is moved (a moved vector keeps
  /// its buffer).
  std::vector<std::string> type_tokens_;
  FlatHashMap<std::string_view, uint32_t> type_index_;
  SessionStreamOptions options_;
  IngestStats stats_;
  std::string carry_;      // partial last line of the previous read
  uint64_t next_line_ = 1;  // number of the next block's first line
  bool eof_ = false;
};

/// In-memory adapter, and the way sessions already in memory enter the
/// corpus builder: serves an existing session vector block-wise, copying
/// each block into a SessionBatch that the builder holds until it is
/// encoded. `stats`, when given, are reported as this source's ingest
/// counters (the pipeline passes those of the stream it drained).
class VectorSessionSource final : public SessionSource {
 public:
  VectorSessionSource(const std::vector<Session>* sessions,
                      size_t chunk_sessions = kDefaultChunkSessions,
                      const IngestStats* stats = nullptr)
      : SessionSource(chunk_sessions), sessions_(sessions), stats_(stats) {}

  Status ReadBlock(SessionBlock* block) override {
    *block = SessionBlock();
    const size_t end = std::min(sessions_->size(), pos_ + chunk_sessions());
    for (; pos_ < end; ++pos_) {
      block->sessions.Append((*sessions_)[pos_].user_type,
                             (*sessions_)[pos_].items);
    }
    return Status::OK();
  }
  void ParseBlock(SessionBlock*) const override {}
  const IngestStats* ingest_stats() const override { return stats_; }

 private:
  const std::vector<Session>* sessions_;
  const IngestStats* stats_;
  size_t pos_ = 0;
};

}  // namespace sisg

#endif  // SISG_DATAGEN_SESSION_STREAM_H_
