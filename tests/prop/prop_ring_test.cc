// Scan-ring property suite: queries that join a shared chunked scan at any
// chunk (MatchingEngine::BeginQuery / ScanChunks / FinishQuery, the step the
// serving batcher's ring is built from) get Query()'s answer bit for bit.
// Generated engines have row counts off the 16-row group, dims off the
// 4-code dword, fp32 and int8 scans, both similarity modes, and rows drawn
// from a small pool of vectors, so score ties sit on both sides of every
// wrap point and at the k-th place.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/top_k.h"
#include "core/matching_engine.h"
#include "gtest/gtest.h"
#include "prop.h"

namespace sisg::prop {
namespace {

struct RingCase {
  uint32_t n = 1;
  uint32_t dim = 1;
  bool int8 = false;
  bool directional = false;
  uint32_t distinct = 0;  // rows drawn from this many vectors; 0 = all fresh
  uint64_t data_seed = 0;
  uint64_t ring_seed = 0;
  uint32_t queries = 1;
};

Gen<RingCase> RingGen() {
  return Gen<RingCase>([](Rng& rng) {
    RingCase c;
    c.dim = static_cast<uint32_t>(Frequency<int64_t>(
        {{2, ElementOf<int64_t>({1, 3, 5, 63, 65, 130, 257, 299})},
         {3, InRange<int64_t>(1, 300)}})(rng));
    c.n = static_cast<uint32_t>(Frequency<int64_t>(
        {{1, InRange<int64_t>(1, 40)}, {3, InRange<int64_t>(100, 1300)}})(rng));
    c.int8 = rng.Bernoulli(0.5);
    c.directional = rng.Bernoulli(0.3);
    c.distinct =
        rng.Bernoulli(0.6) ? static_cast<uint32_t>(rng.UniformInt(1, 12)) : 0;
    c.data_seed = rng.Next();
    c.ring_seed = rng.Next();
    c.queries = static_cast<uint32_t>(rng.UniformInt(1, 12));
    return c;
  });
}

std::string ShowRing(const RingCase& c) {
  std::ostringstream os;
  os << "{n=" << c.n << ", dim=" << c.dim << ", int8=" << c.int8
     << ", directional=" << c.directional << ", distinct=" << c.distinct
     << ", queries=" << c.queries << "}";
  return os.str();
}

/// Rows of `n` x `dim` Gaussians; with distinct > 0 every row is a copy of
/// one of `distinct` vectors, so many rows tie exactly.
std::vector<float> Rows(Rng& rng, uint32_t n, uint32_t dim, uint32_t distinct) {
  const uint32_t fresh = distinct == 0 ? n : std::min(n, distinct);
  std::vector<float> pool(static_cast<size_t>(fresh) * dim);
  for (float& x : pool) x = static_cast<float>(rng.Gaussian());
  std::vector<float> rows(static_cast<size_t>(n) * dim);
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t src =
        distinct == 0 ? r : static_cast<uint32_t>(rng.UniformU64(fresh));
    std::memcpy(rows.data() + static_cast<size_t>(r) * dim,
                pool.data() + static_cast<size_t>(src) * dim,
                dim * sizeof(float));
  }
  return rows;
}

struct Rider {
  uint32_t item = 0;
  uint32_t k = 0;
  uint32_t join_step = 0;  // ring step at which it joins
  MatchingEngine::ChunkQuery query;
  bool riding = false;
  bool done = false;
  std::vector<ScoredId> answer;
};

/// "" when `got` equals `want` in ids and score bits.
std::string Compare(const std::vector<ScoredId>& got,
                    const std::vector<ScoredId>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " results vs Query's " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].id != want[i].id ||
        std::memcmp(&got[i].score, &want[i].score, sizeof(float)) != 0) {
      std::ostringstream os;
      os << "rank " << i << ": (" << got[i].score << ", " << got[i].id
         << ") vs Query's (" << want[i].score << ", " << want[i].id << ")";
      return os.str();
    }
  }
  return "";
}

TEST(PropRing, JoiningAtAnyChunkAnswersLikeQuery) {
  const Result r = ForAllSeeded<RingCase>(
      "ring_answers_equal_query", 150, RingGen(),
      [&](const RingCase& c) -> std::string {
        Rng data(c.data_seed);
        std::vector<float> in = Rows(data, c.n, c.dim, c.distinct);
        std::vector<float> out;
        if (c.directional) out = Rows(data, c.n, c.dim, c.distinct);
        MatchingEngine engine;
        const Status built = engine.Build(
            std::move(in), std::move(out), c.n, c.dim,
            c.directional ? SimilarityMode::kDirectionalInOut
                          : SimilarityMode::kCosineInput);
        if (!built.ok()) return "build failed: " + built.ToString();
        if (c.int8 && !engine.EnableInt8().ok()) return "int8 enable failed";
        const uint32_t chunks = engine.num_chunks();
        if (chunks == 0) return "no chunks";

        // Riders join at random steps, so at random chunks; k runs from 1
        // to past the row count.
        Rng ring(c.ring_seed);
        std::vector<Rider> riders(c.queries);
        for (Rider& rd : riders) {
          rd.item = static_cast<uint32_t>(ring.UniformU64(c.n));
          rd.k = static_cast<uint32_t>(ring.UniformInt(1, c.n + 3));
          rd.join_step =
              static_cast<uint32_t>(ring.UniformU64(2 * uint64_t{chunks}));
        }
        // The ring: at each step, join the riders due, scan a run of one to
        // three chunks that passes no rider's lap end, answer lap ends.
        uint32_t pos = 0;
        size_t left = riders.size();
        for (uint32_t step = 0; left > 0; ++step) {
          std::vector<MatchingEngine::ChunkQuery*> active;
          uint32_t run = static_cast<uint32_t>(ring.UniformInt(1, 3));
          for (Rider& rd : riders) {
            if (!rd.riding && !rd.done && rd.join_step <= step) {
              rd.riding = true;
              if (!engine.BeginQuery(rd.item, rd.k, pos, &rd.query)) {
                return "BeginQuery refused item " + std::to_string(rd.item);
              }
            }
            if (!rd.riding) continue;
            active.push_back(&rd.query);
            const uint32_t to_end =
                (rd.query.start_chunk() + chunks - pos) % chunks;
            run = std::min(run, to_end == 0 ? chunks : to_end);
          }
          if (active.empty()) continue;
          engine.ScanChunks(pos, run, active.data(), active.size());
          pos = (pos + run) % chunks;
          for (Rider& rd : riders) {
            if (rd.riding && rd.query.start_chunk() == pos) {
              rd.answer = engine.FinishQuery(&rd.query);
              rd.riding = false;
              rd.done = true;
              --left;
            }
          }
        }
        for (const Rider& rd : riders) {
          const std::string diff = Compare(rd.answer, engine.Query(rd.item, rd.k));
          if (!diff.empty()) {
            return "item " + std::to_string(rd.item) + " k " +
                   std::to_string(rd.k) + " joined at chunk " +
                   std::to_string(rd.query.start_chunk()) + " of " +
                   std::to_string(chunks) + ": " + diff;
          }
        }
        return "";
      },
      nullptr, ShowRing);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace sisg::prop
