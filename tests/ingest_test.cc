// Ingestion pipeline suite: streaming session reader (chunking, error
// tolerance, line numbers), count-based vocabulary construction, the packed
// corpus arena (round trip + corruption harness), and — the core guarantee
// — thread-count-invariant corpus bytes.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "core/pipeline.h"
#include "corpus/corpus.h"
#include "corpus/packed_corpus.h"
#include "corpus/vocabulary.h"
#include "datagen/dataset.h"
#include "datagen/session_stream.h"
#include "obs/metrics.h"
#include "suite_dir.h"

namespace sisg {
namespace {

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

class IngestFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 300;
    spec.catalog.num_leaf_categories = 8;
    spec.catalog.num_shops = 30;
    spec.catalog.num_brands = 20;
    spec.users.num_user_types = 40;
    spec.num_train_sessions = 700;  // > 2 ingest chunks of 256
    spec.num_test_sessions = 10;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    token_space_ =
        TokenSpace::Create(&dataset_->catalog(), &dataset_->users());
  }

  /// Builds `corpus` from sessions held in memory, served `chunk_sessions`
  /// at a time.
  Status BuildFrom(const std::vector<Session>& sessions,
                   const CorpusOptions& opts, Corpus* corpus,
                   size_t chunk_sessions = kDefaultChunkSessions) const {
    VectorSessionSource source(&sessions, chunk_sessions);
    return corpus->BuildFromSource(&source, token_space_, dataset_->catalog(),
                                   opts);
  }

  /// Writes raw session lines (already formatted) to a fresh file.
  std::string WriteLines(const std::string& name,
                         const std::vector<std::string>& lines) {
    const std::string path = SuitePath(name);
    std::ofstream out(path);
    for (const auto& l : lines) out << l << "\n";
    return path;
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  TokenSpace token_space_;
};

// --------------------------- session stream ---------------------------

TEST_F(IngestFixture, StreamChunksPreserveOrderAndCount) {
  const std::string path = SuitePath("stream_rt.txt");
  ASSERT_TRUE(WriteSessionsText(dataset_->train_sessions(), dataset_->users(),
                                path)
                  .ok());
  SessionStreamOptions opts;
  opts.chunk_sessions = 64;
  auto stream = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> all;
  std::vector<Session> chunk;
  size_t chunks = 0;
  for (;;) {
    ASSERT_TRUE(stream->NextChunk(&chunk).ok());
    if (chunk.empty()) break;
    EXPECT_LE(chunk.size(), 64u);
    ++chunks;
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_GT(chunks, 10u);
  ASSERT_EQ(all.size(), dataset_->train_sessions().size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].user_type, dataset_->train_sessions()[i].user_type);
    EXPECT_EQ(all[i].items, dataset_->train_sessions()[i].items);
  }
  EXPECT_EQ(stream->stats().sessions, all.size());
  EXPECT_EQ(stream->stats().lines_skipped, 0u);
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamErrorsCarryLineNumbers) {
  const std::string ut = dataset_->users().TypeToken(0);
  const std::string path = WriteLines(
      "stream_lineno.txt", {ut + "\t1 2 3", ut + "\t4 bogus 6"});
  auto stream = SessionStream::Open(dataset_->users(), path);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> chunk;
  const Status st = stream->NextChunk(&chunk);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamMaxErrorsSkipsAndCounts) {
  const std::string ut = dataset_->users().TypeToken(3);
  const std::string path = WriteLines(
      "stream_skip.txt",
      {ut + "\t1 2 3",
       "no-tab-here",               // malformed: no tab
       "not_a_usertype\t5 6",      // malformed: unknown user type
       ut + "\t7 8",
       ut + "\t"});                 // malformed: empty session
  SessionStreamOptions opts;
  opts.max_errors = 10;
  auto stream = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> chunk;
  ASSERT_TRUE(stream->NextChunk(&chunk).ok());
  EXPECT_EQ(chunk.size(), 2u);
  EXPECT_EQ(chunk[1].items, (std::vector<uint32_t>{7, 8}));
  EXPECT_EQ(stream->stats().lines_skipped, 3u);
  EXPECT_NE(stream->stats().first_error.find("line 2"), std::string::npos);

  // The same file under a tighter budget fails on the third bad line.
  opts.max_errors = 2;
  auto strict = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->NextChunk(&chunk).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamMaxErrorsAtChunkBoundary) {
  // The budget-exhausting bad line lands exactly where a chunk closes:
  // the first chunk must still be handed out intact, and the error must
  // surface on the call that reads past the boundary.
  const std::string ut = dataset_->users().TypeToken(1);
  const std::string path = WriteLines(
      "stream_chunk_boundary.txt",
      {ut + "\t1 2", ut + "\t3",  // chunk 1 (chunk_sessions = 2)
       "bogus-line-a",            // consumes the whole error budget
       ut + "\t4 5",              // chunk 2
       "bogus-line-b",            // budget exhausted -> hard error
       ut + "\t6"});
  SessionStreamOptions opts;
  opts.chunk_sessions = 2;
  opts.max_errors = 1;
  auto stream = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> chunk;
  ASSERT_TRUE(stream->NextChunk(&chunk).ok());
  ASSERT_EQ(chunk.size(), 2u);
  EXPECT_EQ(chunk[1].items, (std::vector<uint32_t>{3}));
  const Status st = stream->NextChunk(&chunk);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("line 5"), std::string::npos) << st.ToString();
  EXPECT_EQ(stream->stats().lines_skipped, 1u);
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamMaxErrorsOnFinalLine) {
  // A bad final line past the budget fails the stream even though every
  // session before it was already parsed; within budget it is skipped and
  // the stream drains cleanly to EOF.
  const std::string ut = dataset_->users().TypeToken(2);
  const std::string path = WriteLines(
      "stream_final_line.txt", {ut + "\t1 2", ut + "\t3 4", "trailing-junk"});
  SessionStreamOptions opts;
  opts.max_errors = 0;  // strict
  auto strict = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(strict.ok());
  std::vector<Session> chunk;
  const Status st = strict->NextChunk(&chunk);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st.ToString();

  opts.max_errors = 1;
  auto lax = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(lax.ok());
  ASSERT_TRUE(lax->NextChunk(&chunk).ok());
  EXPECT_EQ(chunk.size(), 2u);
  EXPECT_TRUE(lax->NextChunk(&chunk).ok());
  EXPECT_TRUE(chunk.empty());  // EOF
  EXPECT_EQ(lax->stats().lines_skipped, 1u);
  EXPECT_EQ(lax->stats().lines_read, 3u);
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamAllLinesBad) {
  // Every line malformed: under a covering budget the stream yields zero
  // sessions but a clean EOF with full skip accounting; one short of
  // covering, the last bad line is a hard error.
  const std::string path = WriteLines(
      "stream_all_bad.txt", {"junk-1", "junk-2\tx", "zzz_not_a_usertype\t1"});
  SessionStreamOptions opts;
  opts.max_errors = 3;
  auto stream = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> chunk;
  EXPECT_TRUE(stream->NextChunk(&chunk).ok());
  EXPECT_TRUE(chunk.empty());
  EXPECT_EQ(stream->stats().lines_skipped, 3u);
  EXPECT_EQ(stream->stats().sessions, 0u);
  EXPECT_FALSE(stream->stats().first_error.empty());

  opts.max_errors = 2;
  auto strict = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(strict.ok());
  const Status st = strict->NextChunk(&chunk);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("line 3"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamValidatesItemIdsAgainstCatalog) {
  const std::string ut = dataset_->users().TypeToken(0);
  const std::string path =
      WriteLines("stream_itemrange.txt", {ut + "\t1 999999"});
  SessionStreamOptions opts;
  opts.max_item_id = dataset_->catalog().num_items();
  auto stream = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> chunk;
  const Status st = stream->NextChunk(&chunk);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("outside the catalog"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamLineLongerThanABlock) {
  // A session line longer than a raw block: the reader keeps reading until
  // the line ends, and the lines after it keep their numbers.
  const std::string ut = dataset_->users().TypeToken(4);
  std::vector<Session> good(3);
  for (Session& s : good) s.user_type = 4;
  good[0].items = {1, 2};
  good[2].items = {3, 4};
  std::string giant = ut + "\t";
  for (uint32_t i = 0; giant.size() <= 2 * SessionStream::kBlockBytes; ++i) {
    good[1].items.push_back(i % 300);
    giant += std::to_string(i % 300) + " ";
  }
  const std::string path = WriteLines(
      "stream_giant.txt", {ut + "\t1 2", giant, "no-tab-here", ut + "\t3 4"});

  CorpusOptions opts;
  Corpus want;
  ASSERT_TRUE(BuildFrom(good, opts, &want).ok());
  for (const uint64_t max_errors : {0u, 1u}) {
    SessionStreamOptions sopts;
    sopts.max_errors = max_errors;
    auto stream = SessionStream::Open(dataset_->users(), path, sopts);
    ASSERT_TRUE(stream.ok());
    std::vector<Session> all, chunk;
    Status st;
    while ((st = stream->NextChunk(&chunk)).ok() && !chunk.empty()) {
      all.insert(all.end(), chunk.begin(), chunk.end());
    }
    for (const uint32_t threads : {1u, 4u}) {
      auto s = SessionStream::Open(dataset_->users(), path, sopts);
      ASSERT_TRUE(s.ok());
      opts.num_threads = threads;
      Corpus got;
      const Status bs =
          got.BuildFromSource(&*s, token_space_, dataset_->catalog(), opts);
      if (max_errors == 0) {
        EXPECT_EQ(st.message(), "sessions file: missing tab at line 3");
        EXPECT_EQ(bs.message(), st.message()) << threads << " threads";
        continue;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_EQ(all.size(), 3u);
      EXPECT_EQ(all[1].items, good[1].items);
      ASSERT_TRUE(bs.ok()) << threads << " threads: " << bs.ToString();
      EXPECT_TRUE(got.packed() == want.packed()) << threads << " threads";
      EXPECT_EQ(s->stats().lines_read, 4u);
      EXPECT_EQ(s->stats().sessions, 3u);
    }
  }
  std::remove(path.c_str());
}

TEST_F(IngestFixture, StreamReadFailureIsIOError) {
  // A directory opens like a file but fails the first read: a typed
  // IOError naming the lines read so far, on both the chunked and the
  // block-parallel path.
  const std::string dir = SuitePath("stream_dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const std::string want = "read failed after line 0: " + dir;
  auto stream = SessionStream::Open(dataset_->users(), dir);
  ASSERT_TRUE(stream.ok());
  std::vector<Session> chunk;
  const Status st = stream->NextChunk(&chunk);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), want);
  for (const uint32_t threads : {1u, 4u}) {
    auto s = SessionStream::Open(dataset_->users(), dir);
    ASSERT_TRUE(s.ok());
    CorpusOptions opts;
    opts.num_threads = threads;
    Corpus corpus;
    const Status bs = corpus.BuildFromSource(&*s, token_space_,
                                             dataset_->catalog(), opts);
    EXPECT_EQ(bs.code(), StatusCode::kIOError) << threads << " threads";
    EXPECT_EQ(bs.message(), want);
  }
  ::rmdir(dir.c_str());
}

TEST_F(IngestFixture, ReadSessionsTextSurfacesSkips) {
  const std::string ut = dataset_->users().TypeToken(1);
  const std::string path = WriteLines("read_tolerant.txt",
                                      {ut + "\t1 2", "garbage", ut + "\t3 4"});
  // Strict default: fails with the line number.
  auto strict = ReadSessionsText(dataset_->users(), path);
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
  EXPECT_NE(strict.status().message().find("line 2"), std::string::npos);
  // Tolerant (a SessionStream with an error budget): skips and reports.
  SessionStreamOptions opts;
  opts.max_errors = 1;
  auto stream = SessionStream::Open(dataset_->users(), path, opts);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::vector<Session> chunk;
  size_t sessions = 0;
  do {
    ASSERT_TRUE(stream->NextChunk(&chunk).ok());
    sessions += chunk.size();
  } while (!chunk.empty());
  EXPECT_EQ(sessions, 2u);
  EXPECT_EQ(stream->stats().lines_skipped, 1u);
  EXPECT_EQ(stream->stats().lines_read, 3u);
  std::remove(path.c_str());
}

// --------------------------- vocabulary from counts ---------------------------

// Pins the id-assignment total order: count descending, token id ascending
// on ties. Any change here silently reshuffles every trained embedding row,
// so this must never drift.
TEST_F(IngestFixture, VocabIdAssignmentIsPinned) {
  std::vector<uint64_t> counts(token_space_.num_tokens(), 0);
  counts[50] = 3;  // tied with 9 — lower token id wins
  counts[9] = 3;
  counts[4] = 10;
  counts[200] = 1;
  Vocabulary v;
  ASSERT_TRUE(v.BuildFromCounts(counts, 1, token_space_).ok());
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.ToToken(0), 4u);    // count 10
  EXPECT_EQ(v.ToToken(1), 9u);    // count 3, tie -> smaller token first
  EXPECT_EQ(v.ToToken(2), 50u);   // count 3
  EXPECT_EQ(v.ToToken(3), 200u);  // count 1
  EXPECT_EQ(v.ToVocab(9), 1);
  EXPECT_EQ(v.ToVocab(50), 2);
}

// --------------------------- enricher edge cases ---------------------------

TEST_F(IngestFixture, EnricherEmptySession) {
  Session s;
  s.user_type = 2;  // no items
  SequenceEnricher both(&token_space_, &dataset_->catalog(), {});
  const auto seq = both.Enrich(s);
  // No items -> no item/SI tokens, just the user-type token.
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq[0], token_space_.UserTypeToken(2));

  SequenceEnricher none(
      &token_space_, &dataset_->catalog(),
      {.include_item_si = false, .include_user_type = false});
  EXPECT_TRUE(none.Enrich(s).empty());
}

TEST_F(IngestFixture, CorpusDropsSingleTokenSequences) {
  // One item, no SI, no UT: the enriched sequence has a single token and
  // must be dropped (a skip-gram window needs >= 2).
  std::vector<Session> sessions(3);
  for (auto& s : sessions) {
    s.user_type = 0;
    s.items = {7};
  }
  sessions.push_back({});
  sessions.back().user_type = 0;
  sessions.back().items = {1, 2};
  CorpusOptions opts;
  opts.enrich.include_item_si = false;
  opts.enrich.include_user_type = false;
  Corpus corpus;
  ASSERT_TRUE(BuildFrom(sessions, opts, &corpus).ok());
  EXPECT_EQ(corpus.num_sequences(), 1u);
  EXPECT_EQ(corpus.num_tokens(), 2u);

  // All-dropped is an error, as before.
  sessions.pop_back();
  Corpus empty;
  EXPECT_EQ(BuildFrom(sessions, opts, &empty).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IngestFixture, CorpusRejectsOutOfRangeSessions) {
  std::vector<Session> sessions(1);
  sessions[0].user_type = token_space_.num_user_types() + 1;
  sessions[0].items = {1, 2};
  Corpus corpus;
  EXPECT_EQ(BuildFrom(sessions, CorpusOptions{}, &corpus).code(),
            StatusCode::kOutOfRange);
  sessions[0].user_type = 0;
  sessions[0].items = {1, token_space_.num_items() + 50};
  EXPECT_EQ(BuildFrom(sessions, CorpusOptions{}, &corpus).code(),
            StatusCode::kOutOfRange);
}

// --------------------------- packed corpus ---------------------------

TEST(PackedCorpusTest, AppendAndView) {
  PackedCorpus pc;
  EXPECT_TRUE(pc.empty());
  pc.AppendSequence(std::vector<uint32_t>{1, 2, 3});
  pc.AppendSequence(std::vector<uint32_t>{4, 5});
  ASSERT_EQ(pc.size(), 2u);
  EXPECT_EQ(pc.num_tokens(), 5u);
  EXPECT_EQ(pc.seq_size(0), 3u);
  const auto s1 = pc.seq(1);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0], 4u);
  EXPECT_EQ(s1[1], 5u);
  // The arena is 64-byte aligned for the SIMD kernels.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(pc.tokens().data()) % 64, 0u);
}

// The packed section is persisted only inside the corpus cache; these pin
// its AppendTo/ReadFrom contract through a bare artifact holding just it.
constexpr char kPackedTestKind[] = "PACKTEST";

Status SavePacked(const PackedCorpus& pc, const std::string& path) {
  SISG_ASSIGN_OR_RETURN(ArtifactWriter w,
                        ArtifactWriter::Open(path, kPackedTestKind, 1));
  SISG_RETURN_IF_ERROR(pc.AppendTo(&w));
  return w.Commit();
}

StatusOr<PackedCorpus> LoadPacked(const std::string& path,
                                  uint32_t token_bound = 0) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(path, kPackedTestKind));
  return PackedCorpus::ReadFrom(&r, token_bound);
}

TEST(PackedCorpusTest, SectionRoundTrip) {
  PackedCorpus pc;
  for (uint32_t i = 0; i < 100; ++i) {
    std::vector<uint32_t> seq(1 + i % 7, i);
    pc.AppendSequence(seq);
  }
  const std::string path = SuitePath("packed_rt.bin");
  ASSERT_TRUE(SavePacked(pc, path).ok());
  auto loaded = LoadPacked(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == pc);
  // A token bound below the max token is DataLoss.
  EXPECT_EQ(LoadPacked(path, 50).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(PackedCorpusTest, CorruptionIsDataLossNeverPartialData) {
  PackedCorpus pc;
  for (uint32_t i = 0; i < 64; ++i) {
    pc.AppendSequence(std::vector<uint32_t>{i, i + 1, i + 2});
  }
  const std::string path = SuitePath("packed_corrupt.bin");
  ASSERT_TRUE(SavePacked(pc, path).ok());
  const long size = FileSize(path);
  ASSERT_GT(size, static_cast<long>(kArtifactHeaderBytes));

  // Byte flips anywhere in the payload: checksum rejects before parsing.
  for (const long off : {static_cast<long>(kArtifactHeaderBytes),
                         static_cast<long>(kArtifactHeaderBytes) + 40,
                         size - 1}) {
    FlipByteAt(path, off);
    EXPECT_EQ(LoadPacked(path).status().code(), StatusCode::kDataLoss)
        << "offset " << off;
    FlipByteAt(path, off);  // restore
    ASSERT_TRUE(LoadPacked(path).ok());
  }

  // Truncation at any boundary is DataLoss too.
  ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  EXPECT_EQ(LoadPacked(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// --------------------------- parallel build determinism ---------------------------

TEST_F(IngestFixture, CorpusBytesAreThreadCountInvariant) {
  CorpusOptions base;
  base.min_count = 2;
  Corpus serial;
  ASSERT_TRUE(BuildFrom(dataset_->train_sessions(), base, &serial).ok());
  ASSERT_GT(serial.num_sequences(), 0u);

  for (uint32_t threads : {2u, 4u, 7u}) {
    CorpusOptions opts = base;
    opts.num_threads = threads;
    Corpus parallel;
    ASSERT_TRUE(BuildFrom(dataset_->train_sessions(), opts, &parallel).ok());
    // Byte-identical arena...
    ASSERT_TRUE(parallel.packed() == serial.packed()) << threads << " threads";
    // ...and identical vocabulary (ids, counts, classes).
    ASSERT_EQ(parallel.vocab().size(), serial.vocab().size());
    for (uint32_t v = 0; v < serial.vocab().size(); ++v) {
      ASSERT_EQ(parallel.vocab().ToToken(v), serial.vocab().ToToken(v));
      ASSERT_EQ(parallel.vocab().Frequency(v), serial.vocab().Frequency(v));
    }
  }
}

// Blocks concatenate in input order and counting is commutative, so neither
// the block size of the source nor the worker count may reach the bytes:
// odd chunk sizes that do not divide the session count, at 1 and 4 threads,
// save the same .corpus/.vocab as the default chunk at 1 thread.
TEST_F(IngestFixture, ChunkSizeAndThreadCountLeaveCorpusBytesUnchanged) {
  CorpusOptions opts;
  opts.min_count = 2;
  Corpus baseline;
  ASSERT_TRUE(BuildFrom(dataset_->train_sessions(), opts, &baseline).ok());
  const std::string want = SuitePath("chunk_want");
  ASSERT_TRUE(baseline.Save(want).ok());

  for (const size_t chunk : {size_t{97}, size_t{7}}) {
    for (const uint32_t threads : {1u, 4u}) {
      opts.num_threads = threads;
      Corpus corpus;
      ASSERT_TRUE(
          BuildFrom(dataset_->train_sessions(), opts, &corpus, chunk).ok());
      const std::string got = SuitePath("chunk_got");
      ASSERT_TRUE(corpus.Save(got).ok());
      for (const char* ext : {".corpus", ".vocab"}) {
        EXPECT_TRUE(ReadFileBytes(got + ext) == ReadFileBytes(want + ext))
            << ext << " differs at chunk " << chunk << ", " << threads
            << " threads";
      }
    }
  }
}

// The file path end to end: a sessions file of several raw blocks, parsed on
// the ingest workers, must save the same .corpus/.vocab bytes at every
// thread count as a build from the same sessions held in memory.
TEST_F(IngestFixture, StreamedFileBuildSavesSameBytesAsMaterializedBuild) {
  // Tile the fixture's sessions (rotating user types) past three blocks.
  std::vector<Session> sessions;
  uint64_t text_bytes = 0;
  for (uint32_t round = 0; text_bytes <= 3 * SessionStream::kBlockBytes;
       ++round) {
    for (const Session& s : dataset_->train_sessions()) {
      Session t = s;
      t.user_type = (s.user_type + round) % dataset_->users().num_types();
      text_bytes += dataset_->users().TypeToken(t.user_type).size() + 1;
      for (uint32_t item : t.items) {
        text_bytes += std::to_string(item).size() + 1;
      }
      sessions.push_back(std::move(t));
    }
  }
  const std::string path = SuitePath("stream_blocks.txt");
  ASSERT_TRUE(WriteSessionsText(sessions, dataset_->users(), path).ok());
  ASSERT_GT(FileSize(path), static_cast<long>(3 * SessionStream::kBlockBytes));

  CorpusOptions opts;
  opts.min_count = 2;
  Corpus materialized;
  ASSERT_TRUE(BuildFrom(sessions, opts, &materialized).ok());
  const std::string want = SuitePath("stream_blocks_want");
  ASSERT_TRUE(materialized.Save(want).ok());

  for (const uint32_t threads : {1u, 2u, 4u}) {
    auto stream = SessionStream::Open(dataset_->users(), path);
    ASSERT_TRUE(stream.ok());
    opts.num_threads = threads;
    Corpus streamed;
    ASSERT_TRUE(streamed
                    .BuildFromSource(&*stream, token_space_,
                                     dataset_->catalog(), opts)
                    .ok())
        << threads << " threads";
    EXPECT_EQ(stream->stats().sessions, sessions.size());
    EXPECT_EQ(stream->stats().lines_read, sessions.size());
    const std::string got = SuitePath("stream_blocks_got");
    ASSERT_TRUE(streamed.Save(got).ok());
    for (const char* ext : {".corpus", ".vocab"}) {
      EXPECT_TRUE(ReadFileBytes(got + ext) == ReadFileBytes(want + ext))
          << ext << " differs at " << threads << " threads";
      std::remove((got + ext).c_str());
    }
  }
  std::remove((want + ".corpus").c_str());
  std::remove((want + ".vocab").c_str());
  std::remove(path.c_str());
}

// --------------------------- corpus cache ---------------------------

TEST_F(IngestFixture, CorpusCacheRoundTripAndGuards) {
  CorpusOptions opts;
  opts.min_count = 2;
  Corpus corpus;
  ASSERT_TRUE(BuildFrom(dataset_->train_sessions(), opts, &corpus).ok());
  const std::string prefix = SuitePath("corpus_cache");
  ASSERT_TRUE(corpus.Save(prefix).ok());

  auto loaded = Corpus::Load(prefix, opts, token_space_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->packed() == corpus.packed());
  EXPECT_EQ(loaded->vocab().size(), corpus.vocab().size());
  EXPECT_EQ(loaded->vocab().total_count(), corpus.vocab().total_count());

  // Built with different options -> FailedPrecondition (callers rebuild).
  CorpusOptions other = opts;
  other.min_count = 5;
  EXPECT_EQ(Corpus::Load(prefix, other, token_space_).status().code(),
            StatusCode::kFailedPrecondition);
  other = opts;
  other.enrich.include_item_si = false;
  EXPECT_EQ(Corpus::Load(prefix, other, token_space_).status().code(),
            StatusCode::kFailedPrecondition);

  // A flipped byte in the cached corpus is DataLoss, never partial data.
  FlipByteAt(prefix + ".corpus",
             static_cast<long>(kArtifactHeaderBytes) + 20);
  EXPECT_EQ(Corpus::Load(prefix, opts, token_space_).status().code(),
            StatusCode::kDataLoss);

  std::remove((prefix + ".vocab").c_str());
  std::remove((prefix + ".corpus").c_str());
}

// --------------------------- pipeline wiring ---------------------------

TEST(PipelineOptionsTest, WindowDoublesOnlyWithItemSi) {
  SisgConfig config;
  config.sgns.window.window = 4;

  config.variant = SisgVariant::kSgns;
  EXPECT_EQ(SisgPipeline(config).EffectiveSgnsOptions().window.window, 4u);
  EXPECT_FALSE(SisgPipeline(config).EffectiveSgnsOptions().window.directional);

  config.variant = SisgVariant::kSisgU;  // user types, no SI: no doubling
  EXPECT_EQ(SisgPipeline(config).EffectiveSgnsOptions().window.window, 4u);

  config.variant = SisgVariant::kSisgF;  // SI interleaves: token window x2
  EXPECT_EQ(SisgPipeline(config).EffectiveSgnsOptions().window.window, 8u);

  config.variant = SisgVariant::kSisgFUD;
  EXPECT_EQ(SisgPipeline(config).EffectiveSgnsOptions().window.window, 8u);
  EXPECT_TRUE(SisgPipeline(config).EffectiveSgnsOptions().window.directional);
}

TEST_F(IngestFixture, StreamedPipelineMatchesMaterializedPipeline) {
  const std::string path = SuitePath("pipeline_stream.txt");
  ASSERT_TRUE(WriteSessionsText(dataset_->train_sessions(), dataset_->users(),
                                path)
                  .ok());
  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;
  config.sgns.dim = 16;
  config.sgns.epochs = 1;
  config.sgns.negatives = 3;
  config.min_count = 2;
  config.ingest_threads = 4;
  const SisgPipeline pipeline(config);

  PipelineReport mat_report;
  auto materialized = pipeline.Train(dataset_->train_sessions(),
                                     dataset_->catalog(), dataset_->users(),
                                     &mat_report);
  ASSERT_TRUE(materialized.ok());

  auto stream = SessionStream::Open(dataset_->users(), path);
  ASSERT_TRUE(stream.ok());
  PipelineReport stream_report;
  auto streamed = pipeline.TrainStream(&*stream, dataset_->catalog(),
                                       dataset_->users(), &stream_report);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  // Same corpus, same vocab, same deterministic single-thread training.
  EXPECT_EQ(stream_report.vocab_size, mat_report.vocab_size);
  EXPECT_EQ(stream_report.corpus_sequences, mat_report.corpus_sequences);
  EXPECT_EQ(stream_report.corpus_tokens, mat_report.corpus_tokens);
  EXPECT_EQ(stream_report.train.pairs_trained, mat_report.train.pairs_trained);
  EXPECT_EQ(stream_report.ingest.sessions,
            dataset_->train_sessions().size());
  std::remove(path.c_str());
}

// The distributed engine drains the stream before it builds (HBGP partitions
// the raw sessions' item graph); the build from the drained sessions must
// still fold the stream's counters into the report and the registry, so
// tolerated bad lines are never silent.
TEST_F(IngestFixture, DistributedStreamExportsIngestMetrics) {
  const std::string path = SuitePath("dist_stream.txt");
  ASSERT_TRUE(WriteSessionsText(dataset_->train_sessions(), dataset_->users(),
                                path)
                  .ok());
  {
    std::ofstream out(path, std::ios::app);
    out << "no-tab-here\n"
        << dataset_->users().TypeToken(0) << "\t1 x\n";
  }
  SisgConfig config;
  config.sgns.dim = 8;
  config.sgns.epochs = 1;
  config.sgns.negatives = 3;
  config.distributed = true;
  config.dist.num_workers = 2;
  SessionStreamOptions sopts;
  sopts.max_errors = 5;
  auto stream = SessionStream::Open(dataset_->users(), path, sopts);
  ASSERT_TRUE(stream.ok());

  auto& reg = obs::MetricsRegistry::Global();
  const bool was_enabled = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  const uint64_t errors_before = reg.counter("ingest.parse_errors")->Value();
  const uint64_t sessions_before = reg.counter("ingest.sessions")->Value();
  PipelineReport report;
  auto model = SisgPipeline(config).TrainStream(
      &*stream, dataset_->catalog(), dataset_->users(), &report);
  obs::EnableMetrics(was_enabled);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  EXPECT_EQ(report.ingest.lines_skipped, 2u);
  EXPECT_EQ(report.ingest.sessions, dataset_->train_sessions().size());
  EXPECT_EQ(reg.counter("ingest.parse_errors")->Value() - errors_before,
            report.ingest.lines_skipped);
  EXPECT_EQ(reg.counter("ingest.sessions")->Value() - sessions_before,
            report.ingest.sessions);
}

}  // namespace
}  // namespace sisg
