#include "datagen/session_stream.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>

#include "common/logging.h"

namespace sisg {
namespace {

inline bool IsDigit(unsigned char c) {
  return static_cast<unsigned>(c - '0') < 10u;
}

/// std::isspace, with the separators and digits of a well-formed line
/// decided inline.
inline bool IsSpace(unsigned char c) {
  if (c == ' ') return true;
  if (IsDigit(c)) return false;
  return std::isspace(c) != 0;
}

}  // namespace

Status SessionSource::NextChunk(std::vector<Session>* out) {
  out->clear();
  while (out->size() < chunk_sessions_) {
    if (next_ == num_ok_) {
      SISG_RETURN_IF_ERROR(pending_);
      SISG_RETURN_IF_ERROR(ReadBlock(&block_));
      if (block_.empty()) break;
      ParseBlock(&block_);
      next_ = 0;
      pending_ = FoldBlock(block_, &num_ok_);
      continue;
    }
    const size_t end =
        std::min(num_ok_, next_ + (chunk_sessions_ - out->size()));
    for (; next_ < end; ++next_) {
      const std::span<const uint32_t> items = block_.sessions.items_of(next_);
      out->push_back(Session{block_.sessions.user_types[next_],
                             {items.begin(), items.end()}});
    }
  }
  return Status::OK();
}

StatusOr<std::vector<Session>> SessionSource::ReadAll() {
  std::vector<Session> sessions;
  std::vector<Session> chunk;
  for (;;) {
    SISG_RETURN_IF_ERROR(NextChunk(&chunk));
    if (chunk.empty()) return sessions;
    sessions.insert(sessions.end(), std::make_move_iterator(chunk.begin()),
                    std::make_move_iterator(chunk.end()));
  }
}

StatusOr<SessionStream> SessionStream::Open(const UserUniverse& users,
                                            const std::string& path,
                                            const SessionStreamOptions& options) {
  if (options.chunk_sessions == 0) {
    return Status::InvalidArgument("session stream: chunk_sessions must be > 0");
  }
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  SessionStream stream(path, std::move(in), options);
  for (uint32_t ut = 0; ut < users.num_types(); ++ut) {
    stream.type_tokens_.push_back(users.TypeToken(ut));
  }
  // Indexed only once the token vector is final: the keys view into it.
  for (uint32_t ut = 0; ut < users.num_types(); ++ut) {
    stream.type_index_[stream.type_tokens_[ut]] = ut;
  }
  return stream;
}

Status SessionStream::ReadBlock(SessionBlock* block) {
  *block = SessionBlock();
  if (eof_) return Status::OK();
  std::string& bytes = block->bytes;
  bytes = std::move(carry_);
  carry_.clear();
  for (;;) {
    const size_t old = bytes.size();
    bytes.resize(old + kBlockBytes);
    in_.read(bytes.data() + old, kBlockBytes);
    if (in_.bad()) {
      return Status::IOError("read failed after line " +
                             std::to_string(next_line_ - 1) + ": " + path_);
    }
    const size_t got = static_cast<size_t>(in_.gcount());
    bytes.resize(old + got);
    if (got < kBlockBytes) {  // end of file: the block ends with it
      eof_ = true;
      break;
    }
    // Only the new bytes can hold a newline: everything before them is one
    // unfinished line.
    const size_t cut = std::string_view(bytes.data() + old, got).rfind('\n');
    if (cut != std::string_view::npos) {
      carry_.assign(bytes, old + cut + 1);
      bytes.resize(old + cut + 1);
      break;
    }
    // One line longer than the block: read on until it ends.
  }
  block->first_line = next_line_;
  block->num_lines = static_cast<uint64_t>(
      std::count(bytes.begin(), bytes.end(), '\n'));
  if (!bytes.empty() && bytes.back() != '\n') ++block->num_lines;
  next_line_ += block->num_lines;
  return Status::OK();
}

void SessionStream::ParseBlock(SessionBlock* block) const {
  const std::string_view text = block->bytes;
  SessionBatch& out = block->sessions;
  // Every item takes at least two bytes ("7 ", or "7\n"), so this never
  // regrows; the untouched tail costs address space, not memory.
  out.items.reserve(text.size() / 2 + 1);
  out.user_types.reserve(block->num_lines);
  out.ends.reserve(block->num_lines);
  uint64_t lineno = block->first_line;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    if (eol > pos) {
      Status st = ParseLine(text.substr(pos, eol - pos), lineno, &out);
      if (!st.ok()) {
        block->bad_lines.push_back({lineno, out.size(), std::move(st)});
      }
    }
    ++lineno;
    pos = eol + 1;
  }
  std::string().swap(block->bytes);
}

Status SessionStream::ParseLine(std::string_view line, uint64_t lineno,
                                SessionBatch* out) const {
  const size_t tab = line.find('\t');
  if (tab == std::string_view::npos) {
    return Status::Corruption("sessions file: missing tab at line " +
                              std::to_string(lineno));
  }
  const std::string_view type = line.substr(0, tab);
  const uint32_t* ut = type_index_.Find(type);
  if (ut == nullptr) {
    return Status::Corruption("sessions file: unknown user type '" +
                              std::string(type) + "' at line " +
                              std::to_string(lineno));
  }
  const size_t first_item = out->items.size();
  auto fail = [&](std::string message) {
    out->items.resize(first_item);
    return Status::Corruption(std::move(message) + " at line " +
                              std::to_string(lineno));
  };
  const char* p = line.data() + tab + 1;
  const char* const end = line.data() + line.size();
  for (;;) {
    while (p < end && IsSpace(*p)) ++p;
    if (p == end) break;
    const char* const tok = p;
    uint32_t v = 0;
    for (; p < end && IsDigit(*p); ++p) v = v * 10 + (*p - '0');
    if (p - tok > 9 || (p < end && !IsSpace(*p))) {
      // Not 1-9 plain digits ("+7", "-3", 20-digit ids, stray bytes):
      // decided by strtoul exactly as a whole-token parse.
      while (p < end && !IsSpace(*p)) ++p;
      const std::string s(tok, p);
      char* s_end = nullptr;
      const unsigned long lv = std::strtoul(s.c_str(), &s_end, 10);
      if (s_end == s.c_str() || *s_end != '\0') {
        return fail("sessions file: bad item id '" + s + "'");
      }
      if (options_.max_item_id > 0 && lv >= options_.max_item_id) {
        return fail("sessions file: item id " + s + " outside the catalog (" +
                    std::to_string(options_.max_item_id) + " items)");
      }
      v = static_cast<uint32_t>(lv);
    } else if (options_.max_item_id > 0 && v >= options_.max_item_id) {
      return fail("sessions file: item id " + std::string(tok, p) +
                  " outside the catalog (" +
                  std::to_string(options_.max_item_id) + " items)");
    }
    out->items.push_back(v);
  }
  if (out->items.size() == first_item) {
    return fail("sessions file: empty session");
  }
  out->user_types.push_back(*ut);
  out->ends.push_back(out->items.size());
  return Status::OK();
}

Status SessionStream::FoldBlock(const SessionBlock& block, size_t* num_ok) {
  for (const BadLine& bad : block.bad_lines) {
    if (stats_.lines_skipped < options_.max_errors) {
      ++stats_.lines_skipped;
      if (stats_.first_error.empty()) stats_.first_error = bad.status.message();
      if (stats_.lines_skipped <= 3) {
        LOG_WARN << "session stream: skipping bad line ("
                 << stats_.lines_skipped << "/" << options_.max_errors
                 << " tolerated): " << bad.status.message();
      }
      continue;
    }
    // Over budget: the stream fails at this line. Only whole chunks before
    // it count as read, as NextChunk hands them out.
    const uint64_t ok = stats_.sessions + bad.sessions_before;
    stats_.sessions = ok - ok % options_.chunk_sessions;
    stats_.lines_read = bad.line;
    *num_ok = bad.sessions_before;
    return bad.status;
  }
  stats_.lines_read += block.num_lines;
  stats_.sessions += block.sessions.size();
  *num_ok = block.sessions.size();
  return Status::OK();
}

}  // namespace sisg
