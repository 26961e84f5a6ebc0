// Ingestion property suite: on generated worlds (catalog + user universe)
// and generated sessions, the corpus build must equal a naive reference
// (enrich every session, count every token, encode, drop short sequences)
// at every thread count and for chunked-streaming input — byte-identical
// artifacts, not just equal summaries. Plus the SessionStream parser checked against the
// line parser it replaced (kept here as an oracle) on generated files, and
// the error-tolerance contract on generated malformed-line scripts, checked
// against a line-by-line model through NextChunk and through the parallel
// BuildFromSource on multi-MiB files whose bad lines straddle block cuts.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "datagen/session_stream.h"
#include "gtest/gtest.h"
#include "prop.h"
#include "../suite_dir.h"

namespace sisg::prop {
namespace {

/// Builds `corpus` from sessions held in memory, served `chunk_sessions`
/// at a time.
Status BuildInMemory(const std::vector<Session>& sessions,
                     const TokenSpace& token_space, const ItemCatalog& catalog,
                     const CorpusOptions& options, Corpus* corpus,
                     size_t chunk_sessions = kDefaultChunkSessions) {
  VectorSessionSource source(&sessions, chunk_sessions);
  return corpus->BuildFromSource(&source, token_space, catalog, options);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Holds skipped-line WARN reports back for the scope; generated files skip
/// lines by the hundred.
class QuietWarnings {
 public:
  QuietWarnings() : saved_(MinLogLevel()) { SetMinLogLevel(LogLevel::kError); }
  ~QuietWarnings() { SetMinLogLevel(saved_); }

 private:
  LogLevel saved_;
};

/// A generated small world. Heap-held and shared so shrink candidates can
/// copy the case cheaply.
struct World {
  ItemCatalog catalog;
  UserUniverse users;
  TokenSpace token_space;
};

std::shared_ptr<const World> MakeWorld(Rng& rng) {
  auto w = std::make_shared<World>();
  CatalogConfig cat;
  cat.num_items = static_cast<uint32_t>(rng.UniformInt(20, 120));
  cat.num_leaf_categories = static_cast<uint32_t>(rng.UniformInt(2, 6));
  cat.leaves_per_top = static_cast<uint32_t>(rng.UniformInt(1, 3));
  cat.num_shops = static_cast<uint32_t>(rng.UniformInt(6, 20));
  cat.num_brands = static_cast<uint32_t>(rng.UniformInt(8, 20));
  cat.num_cities = static_cast<uint32_t>(rng.UniformInt(2, 8));
  cat.num_styles = static_cast<uint32_t>(rng.UniformInt(2, 6));
  cat.num_materials = static_cast<uint32_t>(rng.UniformInt(2, 6));
  cat.brands_per_leaf = static_cast<uint32_t>(rng.UniformInt(2, 4));
  cat.shops_per_leaf = static_cast<uint32_t>(rng.UniformInt(2, 5));
  cat.seed = rng.Next();
  if (!w->catalog.Build(cat).ok()) return nullptr;
  UserUniverseConfig uc;
  uc.num_user_types = static_cast<uint32_t>(rng.UniformInt(3, 30));
  uc.num_preferred_tops = 1;
  uc.seed = rng.Next();
  if (!w->users.Build(uc, w->catalog.num_tops()).ok()) return nullptr;
  w->token_space = TokenSpace::Create(&w->catalog, &w->users);
  return w;
}

struct IngestCase {
  std::shared_ptr<const World> world;
  std::vector<Session> sessions;
  CorpusOptions options;  // enrich + min_count; threads/path set per build
};

Gen<IngestCase> IngestGen(bool allow_empty_sessions) {
  return Gen<IngestCase>([allow_empty_sessions](Rng& rng) {
    IngestCase c;
    c.world = MakeWorld(rng);
    if (!c.world) return c;  // property reports the build failure
    const uint32_t num_sessions =
        static_cast<uint32_t>(rng.UniformInt(30, 150));
    for (uint32_t i = 0; i < num_sessions; ++i) {
      Session s;
      s.user_type =
          static_cast<uint32_t>(rng.UniformU64(c.world->users.num_types()));
      // 0-length sessions (enricher edge case) only where the text format is
      // not involved, since "ut\t" does not round-trip.
      const int min_len = allow_empty_sessions ? 0 : 1;
      const int len = static_cast<int>(rng.UniformInt(min_len, 10));
      for (int j = 0; j < len; ++j) {
        s.items.push_back(static_cast<uint32_t>(
            rng.UniformU64(c.world->catalog.num_items())));
      }
      c.sessions.push_back(std::move(s));
    }
    c.options.enrich.include_item_si = rng.Bernoulli(0.5);
    c.options.enrich.include_user_type = rng.Bernoulli(0.5);
    c.options.min_count = static_cast<uint32_t>(rng.UniformInt(1, 3));
    return c;
  });
}

std::string ShowIngest(const IngestCase& c) {
  std::ostringstream os;
  if (!c.world) return "{world build failed}";
  os << "{items=" << c.world->catalog.num_items()
     << ", user_types=" << c.world->users.num_types()
     << ", sessions=" << c.sessions.size()
     << ", si=" << c.options.enrich.include_item_si
     << ", ut=" << c.options.enrich.include_user_type
     << ", min_count=" << c.options.min_count << "}";
  return os.str();
}

/// Shrink by dropping sessions (the world and options stay fixed); the
/// shared world makes candidate copies cheap.
Shrinker<IngestCase> ShrinkIngest() {
  return [](const IngestCase& c) {
    std::vector<IngestCase> out;
    const auto vec_shrink = ShrinkVector<Session>(NoShrink<Session>(), 1);
    for (auto& smaller : vec_shrink(c.sessions)) {
      IngestCase cand = c;
      cand.sessions = std::move(smaller);
      out.push_back(std::move(cand));
    }
    return out;
  };
}

std::string CompareCorpora(const PackedCorpus& ref_packed,
                           const Vocabulary& ref_vocab, const Corpus& got,
                           const std::string& what) {
  if (!(got.packed() == ref_packed)) {
    return what + ": packed corpus differs from the reference";
  }
  if (got.vocab().size() != ref_vocab.size()) {
    return what + ": vocab size " + std::to_string(got.vocab().size()) +
           " != " + std::to_string(ref_vocab.size());
  }
  for (uint32_t v = 0; v < ref_vocab.size(); ++v) {
    if (got.vocab().ToToken(v) != ref_vocab.ToToken(v) ||
        got.vocab().Frequency(v) != ref_vocab.Frequency(v)) {
      return what + ": vocab entry " + std::to_string(v) + " differs";
    }
  }
  return "";
}

std::string CompareCorpora(const Corpus& ref, const Corpus& got,
                           const std::string& what) {
  return CompareCorpora(ref.packed(), ref.vocab(), got, what);
}

/// The naive reference for Corpus::BuildFromSource: every session enriched
/// through SequenceEnricher::Enrich, every token counted into a flat array,
/// the dictionary built from those counts, each sequence encoded in vocab
/// ids and kept only with at least 2 surviving tokens.
struct NaiveCorpus {
  StatusCode code = StatusCode::kOk;
  Vocabulary vocab;
  PackedCorpus packed;
};

NaiveCorpus NaiveBuild(const IngestCase& c) {
  NaiveCorpus ref;
  const TokenSpace& ts = c.world->token_space;
  const SequenceEnricher enricher(&ts, &c.world->catalog, c.options.enrich);
  std::vector<std::vector<uint32_t>> enriched;
  std::vector<uint64_t> counts(ts.num_tokens(), 0);
  for (const Session& s : c.sessions) {
    enriched.push_back(enricher.Enrich(s));
    for (uint32_t tok : enriched.back()) ++counts[tok];
  }
  ref.code = ref.vocab.BuildFromCounts(counts, c.options.min_count, ts).code();
  if (ref.code != StatusCode::kOk) return ref;
  std::vector<uint32_t> encoded;
  for (const std::vector<uint32_t>& seq : enriched) {
    encoded.clear();
    for (uint32_t tok : seq) {
      const int32_t v = ref.vocab.ToVocab(tok);
      if (v >= 0) encoded.push_back(static_cast<uint32_t>(v));
    }
    if (encoded.size() >= 2) ref.packed.AppendSequence(encoded);
  }
  // Corpus::BuildFromSource refuses to produce an empty corpus.
  if (ref.packed.empty()) ref.code = StatusCode::kInvalidArgument;
  return ref;
}

TEST(PropIngest, BuildMatchesNaiveReferenceAtAnyThreadCountAndChunkSize) {
  const Result r = ForAllSeeded<IngestCase>(
      "build_vs_reference", 100, IngestGen(/*allow_empty_sessions=*/true),
      [](const IngestCase& c) -> std::string {
        if (!c.world) return "generated catalog/universe failed to build";
        const NaiveCorpus want = NaiveBuild(c);
        const TokenSpace& ts = c.world->token_space;
        const ItemCatalog& catalog = c.world->catalog;

        // The default chunk at 1 thread is the baseline; a chunk size that
        // straddles session counts, and 4 workers, each alone and together,
        // must match the reference and save the baseline's bytes.
        struct Variant {
          size_t chunk;
          uint32_t threads;
        };
        const std::string p_ref = SuitePath("prop_ingest_ref");
        const std::string p_got = SuitePath("prop_ingest_got");
        for (const Variant v : {Variant{kDefaultChunkSessions, 1},
                                Variant{kDefaultChunkSessions, 4},
                                Variant{7, 1}, Variant{7, 4}}) {
          const std::string what = "chunk=" + std::to_string(v.chunk) +
                                   " threads=" + std::to_string(v.threads);
          CorpusOptions opts = c.options;
          opts.num_threads = v.threads;
          Corpus got;
          const Status st =
              BuildInMemory(c.sessions, ts, catalog, opts, &got, v.chunk);
          if (st.code() != want.code) {
            return what + ": status " + st.ToString() + " != reference code " +
                   std::to_string(static_cast<int>(want.code));
          }
          if (!st.ok()) continue;
          const std::string diff =
              CompareCorpora(want.packed, want.vocab, got, what);
          if (!diff.empty()) return diff;
          // Full byte-identity of the published artifacts, not just
          // equality of the in-memory views.
          const bool baseline = v.chunk == kDefaultChunkSessions &&
                                v.threads == 1;
          if (!got.Save(baseline ? p_ref : p_got).ok()) {
            return what + ": corpus save failed";
          }
          if (baseline) continue;
          for (const char* ext : {".vocab", ".corpus"}) {
            if (ReadFileBytes(p_ref + ext) != ReadFileBytes(p_got + ext)) {
              return what + ": artifact " + ext +
                     " bytes differ from chunk=" +
                     std::to_string(kDefaultChunkSessions) + " threads=1";
            }
          }
        }
        return "";
      },
      ShrinkIngest(), ShowIngest);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropIngest, FileStreamMatchesInMemorySessionsAcrossChunkSizes) {
  const Result r = ForAllSeeded<IngestCase>(
      "stream_vs_vector", 100, IngestGen(/*allow_empty_sessions=*/false),
      [](const IngestCase& c) -> std::string {
        if (!c.world) return "generated catalog/universe failed to build";
        const std::string path = SuitePath("prop_ingest_stream.txt");
        if (!WriteSessionsText(c.sessions, c.world->users, path).ok()) {
          return "WriteSessionsText failed";
        }
        std::string verdict;
        for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
          SessionStreamOptions opts;
          opts.chunk_sessions = chunk;
          auto stream = SessionStream::Open(c.world->users, path, opts);
          if (!stream.ok()) {
            verdict = "stream open failed: " + stream.status().ToString();
            break;
          }
          std::vector<Session> all, chunk_buf;
          for (;;) {
            const Status st = stream->NextChunk(&chunk_buf);
            if (!st.ok()) {
              verdict = "NextChunk failed: " + st.ToString();
              break;
            }
            if (chunk_buf.empty()) break;
            if (chunk_buf.size() > chunk) {
              verdict = "chunk larger than requested";
              break;
            }
            all.insert(all.end(), chunk_buf.begin(), chunk_buf.end());
          }
          if (!verdict.empty()) break;
          if (all.size() != c.sessions.size()) {
            verdict = "session count " + std::to_string(all.size()) + " != " +
                      std::to_string(c.sessions.size()) + " at chunk " +
                      std::to_string(chunk);
            break;
          }
          for (size_t i = 0; i < all.size(); ++i) {
            if (all[i].user_type != c.sessions[i].user_type ||
                all[i].items != c.sessions[i].items) {
              verdict = "session " + std::to_string(i) + " differs at chunk " +
                        std::to_string(chunk);
              break;
            }
          }
          if (!verdict.empty()) break;
          if (stream->stats().lines_skipped != 0) {
            verdict = "clean file reported skipped lines";
            break;
          }
        }
        std::remove(path.c_str());
        return verdict;
      },
      ShrinkIngest(), ShowIngest);
  EXPECT_TRUE(r.ok) << r.message;
}

// ------------- differential: block parser vs the line parser it replaced -------------

/// The getline / SplitWhitespace / strtoul session parser that
/// SessionStream's block parser replaced, kept verbatim as the oracle (only
/// the WARN log of skipped lines is left out).
class OracleStream {
 public:
  OracleStream(const UserUniverse& users, const std::string& path,
               const SessionStreamOptions& options)
      : path_(path), in_(path), options_(options) {
    for (uint32_t ut = 0; ut < users.num_types(); ++ut) {
      type_index_[users.TypeToken(ut)] = ut;
    }
  }

  const IngestStats& stats() const { return stats_; }

  Status NextChunk(std::vector<Session>* out) {
    out->clear();
    if (eof_) return Status::OK();
    std::string line;
    Session s;
    while (out->size() < options_.chunk_sessions) {
      if (!std::getline(in_, line)) {
        if (in_.bad()) {
          return Status::IOError("read failed after line " +
                                 std::to_string(stats_.lines_read) + ": " +
                                 path_);
        }
        eof_ = true;
        break;
      }
      ++stats_.lines_read;
      if (line.empty()) continue;
      const Status st = ParseLine(line, &s);
      if (!st.ok()) {
        if (stats_.lines_skipped < options_.max_errors) {
          ++stats_.lines_skipped;
          if (stats_.first_error.empty()) stats_.first_error = st.message();
          continue;
        }
        return st;
      }
      out->push_back(std::move(s));
    }
    stats_.sessions += out->size();
    return Status::OK();
  }

 private:
  Status ParseLine(const std::string& line, Session* s) const {
    const std::string lineno = std::to_string(stats_.lines_read);
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::Corruption("sessions file: missing tab at line " +
                                lineno);
    }
    const uint32_t* ut = type_index_.Find(line.substr(0, tab));
    if (ut == nullptr) {
      return Status::Corruption("sessions file: unknown user type '" +
                                line.substr(0, tab) + "' at line " + lineno);
    }
    s->user_type = *ut;
    s->items.clear();
    for (const std::string& tok : SplitWhitespace(line.substr(tab + 1))) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
      if (end == tok.c_str() || *end != '\0') {
        return Status::Corruption("sessions file: bad item id '" + tok +
                                  "' at line " + lineno);
      }
      if (options_.max_item_id > 0 && v >= options_.max_item_id) {
        return Status::Corruption("sessions file: item id " + tok +
                                  " outside the catalog (" +
                                  std::to_string(options_.max_item_id) +
                                  " items) at line " + lineno);
      }
      s->items.push_back(static_cast<uint32_t>(v));
    }
    if (s->items.empty()) {
      return Status::Corruption("sessions file: empty session at line " +
                                lineno);
    }
    return Status::OK();
  }

  std::string path_;
  std::ifstream in_;
  FlatHashMap<std::string, uint32_t> type_index_;
  SessionStreamOptions options_;
  IngestStats stats_;
  bool eof_ = false;
};

struct DiffCase {
  std::vector<std::string> lines;
  bool final_newline = true;
  SessionStreamOptions options;
};

/// An item token: mostly valid ids, sometimes every shape strtoul treats
/// specially.
std::string GenItemToken(Rng& rng, uint32_t num_items) {
  switch (rng.UniformU64(40)) {
    case 0: return "+7";
    case 1: return "-3";                    // wraps to 2^64 - 3
    case 2: return "99999999999999999999";  // 20 digits: saturates
    case 3: return "4294967301";            // 10 digits: 5 after the cast
    case 4: return "007";
    case 5: return "x9";
    case 6: return "12abc";
    case 7: return std::string("5\0", 2);   // stray NUL: strtoul stops at it
    case 8: return "\xa0";
    case 9: return std::to_string(num_items + rng.UniformU64(3));
    case 10: return "1234567890";           // 10 plain digits
    case 11: return "123456789";            // 9 plain digits
    default: return std::to_string(rng.UniformU64(num_items));
  }
}

std::string GenSeparator(Rng& rng) {
  static const char* const kSeps[] = {" ", " ", " ", "  ", "\t", "\v", " \f"};
  return kSeps[rng.UniformU64(std::size(kSeps))];
}

std::string GenItems(Rng& rng, uint32_t num_items) {
  std::string out;
  if (rng.Bernoulli(0.1)) out += GenSeparator(rng);
  const int n = static_cast<int>(rng.UniformInt(1, 6));
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += GenSeparator(rng);
    out += GenItemToken(rng, num_items);
  }
  if (rng.Bernoulli(0.1)) out += GenSeparator(rng);
  return out;
}

std::string GenLine(Rng& rng, const World& w) {
  const uint32_t num_items = w.catalog.num_items();
  const std::string ut =
      w.users.TypeToken(static_cast<uint32_t>(rng.UniformU64(w.users.num_types())));
  switch (rng.UniformU64(20)) {
    case 0: return "";
    case 1: return "\r";                                  // CRLF blank line
    case 2: return ut + " " + GenItems(rng, num_items);   // missing tab
    case 3: return "not_a_usertype\t" + GenItems(rng, num_items);
    case 4: return ut + "\t";                             // empty session
    case 5: return ut + "\t \r";                          // empty, CRLF
    case 6: return " " + ut + "\t" + GenItems(rng, num_items);
    case 7: return ut + "\t" + GenItems(rng, num_items) + "\t" +
                   GenItems(rng, num_items);
    case 8:
    case 9: return ut + "\t" + GenItems(rng, num_items) + "\r";  // CRLF
    default: return ut + "\t" + GenItems(rng, num_items);
  }
}

std::string ShowDiffCase(const DiffCase& c) {
  std::ostringstream os;
  os << "{chunk=" << c.options.chunk_sessions
     << ", max_errors=" << c.options.max_errors
     << ", max_item_id=" << c.options.max_item_id
     << ", final_newline=" << c.final_newline << ", lines=[";
  for (size_t i = 0; i < c.lines.size(); ++i) {
    os << (i > 0 ? ", " : "") << ShowValue(c.lines[i]);
  }
  os << "]}";
  return os.str();
}

std::string SameStatus(const Status& got, const Status& want,
                       const std::string& what) {
  if (got.code() == want.code() && got.message() == want.message()) return "";
  return what + ": status " + got.ToString() + " != oracle " + want.ToString();
}

std::string SameStats(const IngestStats& got, const IngestStats& want,
                      const std::string& what) {
  if (got.lines_read == want.lines_read && got.sessions == want.sessions &&
      got.lines_skipped == want.lines_skipped &&
      got.first_error == want.first_error) {
    return "";
  }
  std::ostringstream os;
  os << what << ": stats {read " << got.lines_read << ", sessions "
     << got.sessions << ", skipped " << got.lines_skipped << ", first '"
     << got.first_error << "'} != oracle {read " << want.lines_read
     << ", sessions " << want.sessions << ", skipped " << want.lines_skipped
     << ", first '" << want.first_error << "'}";
  return os.str();
}

TEST(PropIngest, BlockParserMatchesLineParserOracle) {
  Rng setup(0x4f52u);
  const auto world = MakeWorld(setup);
  ASSERT_NE(world, nullptr);
  const QuietWarnings quiet;

  const Gen<DiffCase> gen([&world](Rng& rng) {
    DiffCase c;
    const int n = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < n; ++i) c.lines.push_back(GenLine(rng, *world));
    c.final_newline = rng.Bernoulli(0.7);
    c.options.chunk_sessions = static_cast<size_t>(rng.UniformInt(1, 8));
    c.options.max_errors =
        rng.Bernoulli(0.2) ? 1000 : rng.UniformU64(8);
    c.options.max_item_id =
        rng.Bernoulli(0.5) ? world->catalog.num_items() : 0;
    return c;
  });
  const Shrinker<DiffCase> shrink = [](const DiffCase& c) {
    std::vector<DiffCase> out;
    const auto vec_shrink = ShrinkVector<std::string>(NoShrink<std::string>(), 1);
    for (auto& smaller : vec_shrink(c.lines)) {
      DiffCase cand = c;
      cand.lines = std::move(smaller);
      out.push_back(std::move(cand));
    }
    return out;
  };

  const Result r = ForAllSeeded<DiffCase>(
      "parser_vs_oracle", 200, gen,
      [&world](const DiffCase& c) -> std::string {
        const std::string path = SuitePath("prop_ingest_diff.txt");
        {
          std::ofstream out(path, std::ios::binary);
          for (size_t i = 0; i < c.lines.size(); ++i) {
            out << c.lines[i];
            if (i + 1 < c.lines.size() || c.final_newline) out << "\n";
          }
        }
        auto run = [&]() -> std::string {
          // 1. NextChunk, call by call: same chunks, same status, same stats.
          OracleStream oracle(world->users, path, c.options);
          auto stream = SessionStream::Open(world->users, path, c.options);
          if (!stream.ok()) return "open failed: " + stream.status().ToString();
          std::vector<Session> sessions, want, got;
          Status oracle_status;
          for (int call = 0;; ++call) {
            const Status ws = oracle.NextChunk(&want);
            const Status gs = stream->NextChunk(&got);
            const std::string what = "NextChunk call " + std::to_string(call);
            std::string d = SameStatus(gs, ws, what);
            if (!d.empty()) return d;
            if (!ws.ok()) {
              oracle_status = ws;
              break;
            }
            if (got.size() != want.size()) {
              return what + ": " + std::to_string(got.size()) +
                     " sessions != oracle " + std::to_string(want.size());
            }
            for (size_t i = 0; i < want.size(); ++i) {
              if (got[i].user_type != want[i].user_type ||
                  got[i].items != want[i].items) {
                return what + ": session " + std::to_string(i) + " differs";
              }
            }
            if (want.empty()) break;
            sessions.insert(sessions.end(), want.begin(), want.end());
          }
          std::string d = SameStats(stream->stats(), oracle.stats(), "NextChunk");
          if (!d.empty()) return d;

          // 2. The parallel build: the oracle's error, else what a build
          // from the oracle's sessions in memory makes; and the oracle's
          // stats either way.
          Corpus ref;
          const Status ref_status =
              oracle_status.ok()
                  ? BuildInMemory(sessions, world->token_space,
                                  world->catalog, {}, &ref)
                  : oracle_status;
          for (const uint32_t threads : {1u, 4u}) {
            const std::string what =
                "BuildFromSource threads=" + std::to_string(threads);
            auto s = SessionStream::Open(world->users, path, c.options);
            if (!s.ok()) return "open failed: " + s.status().ToString();
            CorpusOptions opts;
            opts.num_threads = threads;
            Corpus built;
            const Status st = built.BuildFromSource(&*s, world->token_space,
                                                    world->catalog, opts);
            d = SameStatus(st, ref_status, what);
            if (!d.empty()) return d;
            d = SameStats(s->stats(), oracle.stats(), what);
            if (!d.empty()) return d;
            if (st.ok()) {
              d = CompareCorpora(ref, built, what);
              if (!d.empty()) return d;
            }
          }
          return "";
        };
        const std::string verdict = run();
        std::remove(path.c_str());
        return verdict;
      },
      shrink, ShowDiffCase);
  EXPECT_TRUE(r.ok) << r.message;
}

// ------------- max_errors tolerance on generated malformed scripts -------------

enum class LineKind : int { kGood = 0, kBad = 1, kEmpty = 2 };

struct ErrorScript {
  std::vector<LineKind> lines;
  uint64_t max_errors = 0;
  size_t chunk_sessions = 4;
  /// When set, the script is cut into three runs, at `split1` and `split2`,
  /// placed at the first block cut, the second block cut and the end of a
  /// multi-MiB file of good filler lines; each run starts `slack` bytes
  /// before its cut.
  bool big = false;
  size_t split1 = 0;
  size_t split2 = 0;
  uint32_t slack = 0;
};

/// A rendered script: the file's lines, the kind of each, and the sessions
/// its good lines hold, in order.
struct RenderedScript {
  std::vector<std::string> lines;
  std::vector<LineKind> kinds;
  std::vector<Session> sessions;
};

/// Renders a script to concrete file lines. Bad lines rotate through every
/// malformed shape ParseLine can reject; the bad item token is "x9"
/// (unambiguous: strtoul accepts "+5"-style strings).
RenderedScript RenderScript(const ErrorScript& s, const UserUniverse& users) {
  RenderedScript out;
  const std::string ut = users.TypeToken(0);
  int bad = 0;
  size_t bytes = 0;
  auto add = [&](LineKind k) {
    std::string line;
    switch (k) {
      case LineKind::kGood: {
        const uint32_t good = static_cast<uint32_t>(out.sessions.size());
        Session session;
        session.items = {1 + good % 5, 2 + good % 7};
        line = ut + "\t" + std::to_string(session.items[0]) + " " +
               std::to_string(session.items[1]);
        out.sessions.push_back(std::move(session));
        break;
      }
      case LineKind::kBad:
        switch (bad++ % 4) {
          case 0: line = "no-tab-here"; break;
          case 1: line = ut + "\tx9 3"; break;
          case 2: line = "zzz_not_a_usertype\t1 2"; break;
          default: line = ut + "\t"; break;  // empty session
        }
        break;
      case LineKind::kEmpty:
        break;
    }
    bytes += line.size() + 1;
    out.lines.push_back(std::move(line));
    out.kinds.push_back(k);
  };
  auto run = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) add(s.lines[i]);
  };
  auto fill_to = [&](size_t target) {
    while (bytes < target) add(LineKind::kGood);
  };
  if (!s.big) {
    run(0, s.lines.size());
    return out;
  }
  const size_t n = s.lines.size();
  const size_t a = std::min(s.split1, n);
  const size_t b = std::clamp(s.split2, a, n);
  constexpr size_t kBlock = SessionStream::kBlockBytes;
  fill_to(kBlock - s.slack);
  run(0, a);
  fill_to(2 * kBlock - s.slack);
  run(a, b);
  fill_to(2 * kBlock + kBlock / 8);
  run(b, n);
  return out;
}

std::string ShowScript(const ErrorScript& s) {
  std::ostringstream os;
  os << "{max_errors=" << s.max_errors << ", chunk=" << s.chunk_sessions;
  if (s.big) {
    os << ", big: splits=" << s.split1 << "/" << s.split2
       << ", slack=" << s.slack;
  }
  os << ", lines=";
  for (const LineKind k : s.lines) os << "GBE"[static_cast<int>(k)];
  os << "}";
  return os.str();
}

Gen<ErrorScript> ScriptGen() {
  return Gen<ErrorScript>([](Rng& rng) {
    ErrorScript s;
    const int n = static_cast<int>(rng.UniformInt(1, 24));
    for (int i = 0; i < n; ++i) {
      const uint64_t pick = rng.UniformU64(9);
      s.lines.push_back(pick < 5   ? LineKind::kGood
                        : pick < 8 ? LineKind::kBad
                                   : LineKind::kEmpty);
    }
    s.chunk_sessions = static_cast<size_t>(rng.UniformInt(1, 6));
    // Force the named edge shapes often enough to matter.
    switch (rng.UniformU64(4)) {
      case 0:  // all lines bad
        for (auto& k : s.lines) k = LineKind::kBad;
        break;
      case 1:  // bad on the final line
        s.lines.back() = LineKind::kBad;
        break;
      case 2: {  // bad exactly where a chunk fills: after chunk_sessions goods
        size_t goods = 0;
        for (auto& k : s.lines) {
          if (k == LineKind::kBad) k = LineKind::kGood;
          if (k == LineKind::kGood && ++goods == s.chunk_sessions) {
            k = LineKind::kBad;
            break;
          }
        }
        break;
      }
      default:
        break;
    }
    uint64_t bad_count = 0;
    for (const LineKind k : s.lines) bad_count += (k == LineKind::kBad);
    s.max_errors = rng.UniformU64(bad_count + 3);
    s.big = rng.Bernoulli(0.5);
    s.split1 = static_cast<size_t>(rng.UniformU64(s.lines.size() + 1));
    s.split2 = static_cast<size_t>(rng.UniformU64(s.lines.size() + 1));
    s.slack = static_cast<uint32_t>(rng.UniformU64(400));
    return s;
  });
}

/// Shrink a script by dropping lines (keeping the other fields fixed).
Shrinker<ErrorScript> ShrinkScript() {
  return [](const ErrorScript& s) {
    std::vector<ErrorScript> out;
    const auto vec_shrink = ShrinkVector<LineKind>(NoShrink<LineKind>(), 1);
    for (auto& smaller : vec_shrink(s.lines)) {
      ErrorScript cand = s;
      cand.lines = std::move(smaller);
      out.push_back(std::move(cand));
    }
    return out;
  };
}


TEST(PropIngest, MaxErrorsToleranceMatchesLineModel) {
  // One tiny world for every case: the script is the generated input.
  Rng setup(0x5052u);
  const auto world = MakeWorld(setup);
  ASSERT_NE(world, nullptr);
  const QuietWarnings quiet;

  const Result r = ForAllSeeded<ErrorScript>(
      "max_errors_model", 150, ScriptGen(),
      [&world](const ErrorScript& s) -> std::string {
        const RenderedScript file = RenderScript(s, world->users);

        // Model: replay ParseLine semantics line by line. A bad line is
        // skipped while the budget lasts; the (max_errors+1)-th fails with
        // its 1-based line number. Blank lines are silently ignored.
        uint64_t model_skipped = 0;
        size_t model_sessions = 0;
        bool model_fails = false;
        size_t fail_line = 0;
        for (size_t i = 0; i < file.kinds.size() && !model_fails; ++i) {
          switch (file.kinds[i]) {
            case LineKind::kEmpty:
              break;
            case LineKind::kGood:
              ++model_sessions;
              break;
            case LineKind::kBad:
              if (model_skipped < s.max_errors) {
                ++model_skipped;
              } else {
                model_fails = true;
                fail_line = i + 1;
              }
              break;
          }
        }
        // A failed read counts only the whole chunks handed out before it.
        const uint64_t model_read_sessions =
            model_fails ? model_sessions - model_sessions % s.chunk_sessions
                        : model_sessions;
        const uint64_t model_lines = model_fails ? fail_line : file.lines.size();

        const std::string path = SuitePath("prop_ingest_err.txt");
        {
          std::ofstream out(path);
          for (const auto& l : file.lines) out << l << "\n";
        }
        SessionStreamOptions opts;
        opts.chunk_sessions = s.chunk_sessions;
        opts.max_errors = s.max_errors;

        auto check_stats = [&](const IngestStats& st,
                               const std::string& what) -> std::string {
          if (st.lines_skipped != model_skipped) {
            return what + ": skipped " + std::to_string(st.lines_skipped) +
                   " != model " + std::to_string(model_skipped);
          }
          if (st.lines_read != model_lines) {
            return what + ": lines_read " + std::to_string(st.lines_read) +
                   " != model " + std::to_string(model_lines);
          }
          if (st.sessions != model_read_sessions) {
            return what + ": sessions " + std::to_string(st.sessions) +
                   " != model " + std::to_string(model_read_sessions);
          }
          if ((model_skipped > 0) == st.first_error.empty()) {
            return what + ": first_error '" + st.first_error +
                   "' after " + std::to_string(model_skipped) + " skips";
          }
          return "";
        };
        auto check_failure = [&](const Status& st,
                                 const std::string& what) -> std::string {
          if (!model_fails) return what + ": unexpected failure: " + st.ToString();
          if (st.code() != StatusCode::kCorruption) {
            return what + ": failure is not Corruption: " + st.ToString();
          }
          const std::string suffix = " at line " + std::to_string(fail_line);
          if (st.message().size() < suffix.size() ||
              st.message().compare(st.message().size() - suffix.size(),
                                   suffix.size(), suffix) != 0) {
            return what + ": error does not name line " +
                   std::to_string(fail_line) + ": " + st.ToString();
          }
          return "";
        };

        auto run = [&]() -> std::string {
          // 1. Chunk-wise through NextChunk.
          auto stream = SessionStream::Open(world->users, path, opts);
          if (!stream.ok()) return "open failed: " + stream.status().ToString();
          std::vector<Session> chunk;
          size_t got_sessions = 0;
          for (;;) {
            const Status st = stream->NextChunk(&chunk);
            if (!st.ok()) {
              const std::string d = check_failure(st, "NextChunk");
              if (!d.empty()) return d;
              break;
            }
            if (chunk.empty()) {
              if (model_fails) {
                return "NextChunk: model expected a failure, stream ended clean";
              }
              break;
            }
            got_sessions += chunk.size();
          }
          if (!model_fails && got_sessions != model_sessions) {
            return "NextChunk: sessions " + std::to_string(got_sessions) +
                   " != model " + std::to_string(model_sessions);
          }
          std::string d = check_stats(stream->stats(), "NextChunk");
          if (!d.empty()) return d;

          // 2. Block-parallel through BuildFromSource, against a build from
          // the good lines' sessions in memory.
          Corpus ref;
          const bool expect_corpus = !model_fails && model_sessions > 0;
          if (expect_corpus &&
              !BuildInMemory(file.sessions, world->token_space,
                             world->catalog, {}, &ref)
                   .ok()) {
            return "reference build failed";
          }
          for (const uint32_t threads : {1u, 4u}) {
            const std::string what =
                "BuildFromSource threads=" + std::to_string(threads);
            auto src = SessionStream::Open(world->users, path, opts);
            if (!src.ok()) return "open failed: " + src.status().ToString();
            CorpusOptions copts;
            copts.num_threads = threads;
            Corpus built;
            const Status st = built.BuildFromSource(&*src, world->token_space,
                                                    world->catalog, copts);
            if (model_fails) {
              d = check_failure(st, what);
            } else if (!expect_corpus) {
              if (st.code() != StatusCode::kInvalidArgument) {
                d = what + ": no sessions, yet " + st.ToString();
              }
            } else if (!st.ok()) {
              d = what + ": unexpected failure: " + st.ToString();
            } else {
              d = CompareCorpora(ref, built, what);
            }
            if (!d.empty()) return d;
            d = check_stats(src->stats(), what);
            if (!d.empty()) return d;
          }
          return "";
        };
        const std::string verdict = run();
        std::remove(path.c_str());
        return verdict;
      },
      ShrinkScript(), ShowScript);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
