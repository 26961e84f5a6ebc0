// Hot-swap suite: the RCU model registry must retire old snapshots only
// after the last in-flight reader drops them, the reloader must publish
// ONLY validated artifacts (corrupt / truncated / missing deploys roll back
// with the old model serving bit-identically), and the full server must
// survive a reload storm under concurrent load — versions monotone per
// connection, every answer bit-identical to the offline engine for the
// version that answered it. Plus the typed DEADLINE shed, idle eviction
// (slow-loris), the HEALTH frame, and a seeded chaos-worker pass.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/matching_engine.h"
#include "obs/metrics.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/reloader.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "sgns/checkpoint.h"
#include "sgns/embedding_model.h"

namespace sisg {
namespace {

bool BitIdentical(const std::vector<ScoredId>& a,
                  const std::vector<ScoredId>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    uint32_t abits, bbits;
    std::memcpy(&abits, &a[i].score, 4);
    std::memcpy(&bbits, &b[i].score, 4);
    if (abits != bbits) return false;
  }
  return true;
}

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

uint64_t CounterVal(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double GaugeVal(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

// --- Registry: RCU semantics. ---

TEST(ModelRegistryTest, VersionsAreMonotoneAndOldSnapshotsStayAlive) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.version(), 0u);

  EXPECT_EQ(registry.PublishOwned(std::make_unique<MatchingEngine>(
                                      serve::BuildSynthEngine(50, 8, 1).value()),
                                  "startup"),
            1u);
  const serve::SnapshotPtr v1 = registry.Acquire();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->source(), "startup");
  const auto v1_answer = v1->engine().Query(3, 5);

  auto owned = std::make_unique<MatchingEngine>(
      serve::BuildSynthEngine(60, 8, 2).value());
  EXPECT_EQ(registry.PublishOwned(std::move(owned), "reload"), 2u);
  EXPECT_EQ(registry.version(), 2u);
  const serve::SnapshotPtr v2 = registry.Acquire();
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->engine().num_items(), 60u);

  // The replaced snapshot is still fully serviceable for whoever holds it:
  // an in-flight batch that pinned v1 finishes on v1, bit for bit.
  EXPECT_EQ(v1->engine().num_items(), 50u);
  EXPECT_TRUE(BitIdentical(v1->engine().Query(3, 5), v1_answer));
}

// --- Validation gate. ---

TEST(ValidateServingEngineTest, AcceptsHealthyRejectsEmpty) {
  const MatchingEngine good = serve::BuildSynthEngine(100, 8, 3).value();
  EXPECT_TRUE(serve::ValidateServingEngine(good).ok());

  const MatchingEngine empty;
  const Status st = serve::ValidateServingEngine(empty);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// --- Reloader: pickup, rollback, idempotent failure handling. ---

class ReloaderFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("reload_" +
                       std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()));
    ropts_.watch_dir = dir_;
    ropts_.poll_interval_ms = 10;
  }

  /// LATEST -> token, bypassing PublishSynthArena (for corrupt deploys).
  void WriteLatest(const std::string& token) {
    const std::string path = dir_ + "/LATEST";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n", token.c_str());
    std::fclose(f);
  }

  std::string dir_;
  serve::ReloaderOptions ropts_;
  serve::ModelRegistry registry_;
};

TEST_F(ReloaderFixture, AbsentLatestIsANoop) {
  serve::ModelReloader reloader(&registry_, ropts_);
  EXPECT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(registry_.version(), 0u);
  EXPECT_EQ(reloader.failed_reloads(), 0u);
}

TEST_F(ReloaderFixture, StartRequiresAWatchDir) {
  serve::ReloaderOptions empty;
  serve::ModelReloader reloader(&registry_, empty);
  EXPECT_EQ(reloader.Start().code(), StatusCode::kInvalidArgument);
}

TEST_F(ReloaderFixture, PicksUpArenaVersionsInOrder) {
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "a", 80, 8, 11, false).ok());
  serve::ModelReloader reloader(&registry_, ropts_);
  ASSERT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(registry_.version(), 1u);
  EXPECT_EQ(reloader.ok_reloads(), 1u);

  // Served answers are bit-identical to the offline engine built from the
  // same seed — the arena roundtrip loses nothing.
  const MatchingEngine offline_a = serve::BuildSynthEngine(80, 8, 11).value();
  const serve::SnapshotPtr v1 = registry_.Acquire();
  EXPECT_TRUE(
      BitIdentical(v1->engine().Query(7, 10), offline_a.Query(7, 10)));

  // Same token again: nothing to do, no spurious re-publish.
  ASSERT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(registry_.version(), 1u);

  ASSERT_TRUE(serve::PublishSynthArena(dir_, "b", 90, 8, 12, false).ok());
  ASSERT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(registry_.version(), 2u);
  const MatchingEngine offline_b = serve::BuildSynthEngine(90, 8, 12).value();
  const serve::SnapshotPtr v2 = registry_.Acquire();
  EXPECT_EQ(v2->engine().num_items(), 90u);
  EXPECT_TRUE(
      BitIdentical(v2->engine().Query(7, 10), offline_b.Query(7, 10)));
}

TEST_F(ReloaderFixture, CorruptArenaRollsBackAndIsNotRetried) {
  obs::EnableMetrics(true);
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "good", 80, 8, 21, false).ok());
  serve::ModelReloader reloader(&registry_, ropts_);
  ASSERT_TRUE(reloader.PollOnce().ok());
  ASSERT_EQ(registry_.version(), 1u);
  const auto before_answer = registry_.Acquire()->engine().Query(5, 10);
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  // Garbage bytes behind an honest pointer: the load fails, the registry
  // is untouched, the old model keeps answering bit-identically.
  {
    std::FILE* f = std::fopen((dir_ + "/bad.arena").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "definitely not an arena artifact";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  WriteLatest("bad");
  EXPECT_FALSE(reloader.PollOnce().ok());
  EXPECT_EQ(reloader.failed_reloads(), 1u);
  EXPECT_EQ(registry_.version(), 1u);
  EXPECT_TRUE(BitIdentical(registry_.Acquire()->engine().Query(5, 10),
                           before_answer));
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterVal(after, "serve.reload_failed") -
                CounterVal(before, "serve.reload_failed"),
            1u);

  // The same bad token is attempted once, not every poll tick.
  EXPECT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(reloader.failed_reloads(), 1u);

  // A truncated copy of a GOOD artifact must also be rejected (the loader's
  // integrity checks catch the short read), same rollback contract.
  {
    std::FILE* in = std::fopen((dir_ + "/good.arena").c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::fseek(in, 0, SEEK_END);
    const long size = std::ftell(in);
    std::fseek(in, 0, SEEK_SET);
    std::vector<char> bytes(static_cast<size_t>(size));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
    std::fclose(in);
    std::FILE* out = std::fopen((dir_ + "/trunc.arena").c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, out);
    std::fclose(out);
  }
  WriteLatest("trunc");
  EXPECT_FALSE(reloader.PollOnce().ok());
  EXPECT_EQ(reloader.failed_reloads(), 2u);
  EXPECT_EQ(registry_.version(), 1u);
  EXPECT_TRUE(BitIdentical(registry_.Acquire()->engine().Query(5, 10),
                           before_answer));
}

TEST_F(ReloaderFixture, MissingArtifactRollsBack) {
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "v1", 60, 8, 31, false).ok());
  serve::ModelReloader reloader(&registry_, ropts_);
  ASSERT_TRUE(reloader.PollOnce().ok());
  WriteLatest("ghost");
  const Status st = reloader.PollOnce();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(reloader.failed_reloads(), 1u);
  EXPECT_EQ(registry_.version(), 1u);
}

TEST_F(ReloaderFixture, MissingInt8ArtifactRollsBackWhenInt8Required) {
  // An int8 server makes the quant arena part of the deploy: a version
  // shipped without it must NOT silently swap the int8 model for an fp32
  // one.
  obs::EnableMetrics(true);
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "q1", 60, 8, 41, true).ok());
  ropts_.quant = "int8";
  serve::ModelReloader reloader(&registry_, ropts_);
  ASSERT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(registry_.version(), 1u);
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  ASSERT_TRUE(
      serve::PublishSynthArena(dir_, "q2", 60, 8, 42, /*with_int8=*/false)
          .ok());
  EXPECT_FALSE(reloader.PollOnce().ok());
  EXPECT_EQ(reloader.failed_reloads(), 1u);
  EXPECT_EQ(registry_.version(), 1u);
  EXPECT_EQ(registry_.Acquire()->engine().quant_mode(), QuantMode::kInt8);
  // The rejection is the failure counter and nothing else: the live
  // version stays exported and no degraded signal is left behind by the
  // candidate engine that was thrown away.
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterVal(after, "serve.reload_failed") -
                CounterVal(before, "serve.reload_failed"),
            1u);
  EXPECT_EQ(GaugeVal(after, "serve.model_version"), 1.0);
  EXPECT_EQ(after.gauges.count("serve.degraded"), 0u);
}

TEST_F(ReloaderFixture, CorruptInt8ArtifactRollsBackAndIsNotRetried) {
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "q1", 60, 8, 43, true).ok());
  ropts_.quant = "int8";
  serve::ModelReloader reloader(&registry_, ropts_);
  ASSERT_TRUE(reloader.PollOnce().ok());
  ASSERT_EQ(registry_.version(), 1u);

  // A good arena behind a garbage code arena: the whole version is
  // rejected, once.
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "q2", 60, 8, 44, true).ok());
  {
    std::FILE* f = std::fopen((dir_ + "/q2.qarena").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a code arena";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_FALSE(reloader.PollOnce().ok());
  EXPECT_TRUE(reloader.PollOnce().ok());
  EXPECT_EQ(reloader.failed_reloads(), 1u);
  EXPECT_EQ(registry_.version(), 1u);
  EXPECT_EQ(registry_.Acquire()->engine().quant_mode(), QuantMode::kInt8);
}

TEST_F(ReloaderFixture, PqReloadsServeIvfPqNotBruteForce) {
  // A pq server reloads into IVF-PQ built in place, exactly as it started:
  // every swapped-in version answers like an offline LoadArena +
  // EnableIvfPq engine, and its queries walk posting lists.
  obs::EnableMetrics(true);
  constexpr uint32_t kItems = 400;
  constexpr uint32_t kDim = 32;
  ropts_.quant = "pq";
  serve::ModelReloader reloader(&registry_, ropts_);
  for (uint64_t v = 1; v <= 2; ++v) {
    const std::string token = "p" + std::to_string(v);
    ASSERT_TRUE(
        serve::PublishSynthArena(dir_, token, kItems, kDim, 60 + v, false)
            .ok());
    ASSERT_TRUE(reloader.PollOnce().ok());
    ASSERT_EQ(registry_.version(), v);

    MatchingEngine offline;
    ASSERT_TRUE(offline.LoadArena(dir_ + "/" + token + ".arena").ok());
    ASSERT_TRUE(offline.EnableIvfPq(IvfOptions{}, PqOptions{}).ok());
    std::vector<std::vector<ScoredId>> want;
    for (uint32_t item = 0; item < kItems; item += 37) {
      want.push_back(offline.Query(item, 10));
    }
    const serve::SnapshotPtr snap = registry_.Acquire();
    const auto before = obs::MetricsRegistry::Global().Snapshot();
    for (uint32_t item = 0, i = 0; item < kItems; item += 37, ++i) {
      EXPECT_TRUE(BitIdentical(snap->engine().Query(item, 10), want[i]))
          << "version " << v << " item " << item;
    }
    const auto after = obs::MetricsRegistry::Global().Snapshot();
    EXPECT_GT(CounterVal(after, "serve.ivf_rows_scanned"),
              CounterVal(before, "serve.ivf_rows_scanned"))
        << "version " << v << " answered by brute force";
  }
}

// --- The serving loader: strict quant, no engine on any failure. ---

TEST_F(ReloaderFixture, LoaderRejectsUnknownQuantAndMissingInt8Codes) {
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "fp", 60, 8, 45, false).ok());
  ASSERT_TRUE(serve::LoadServingVersion(dir_ + "/fp", "fp32", false).ok());

  const auto unknown = serve::LoadServingVersion(dir_ + "/fp", "int4", false);
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument)
      << unknown.status().ToString();

  // No fp32 fallback: a missing .qarena is an error, not an fp32 engine.
  const auto no_codes = serve::LoadServingVersion(dir_ + "/fp", "int8", false);
  EXPECT_FALSE(no_codes.ok());

  const auto no_arena =
      serve::LoadServingVersion(dir_ + "/ghost", "fp32", false);
  EXPECT_EQ(no_arena.status().code(), StatusCode::kNotFound);

  MatchingEngine synth = serve::BuildSynthEngine(60, 8, 46).value();
  EXPECT_EQ(serve::PrepareServingEngine(&synth, "fp16", "", false).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(serve::PrepareServingEngine(&synth, "int8", "", false).ok());
  EXPECT_EQ(synth.quant_mode(), QuantMode::kInt8);
}

TEST_F(ReloaderFixture, CheckpointOnlyTokenIsNotServed) {
  // A trainer checkpoint is not a serving artifact: its rows are vocab ids
  // (frequency-sorted, SI and user-type tokens included), not item ids. A
  // LATEST written by the Checkpointer, with only ckpt-<seq>.emb behind it,
  // is a missing deploy and the live model keeps serving.
  ASSERT_TRUE(serve::PublishSynthArena(dir_, "a", 60, 8, 51, false).ok());
  serve::ModelReloader reloader(&registry_, ropts_);
  ASSERT_TRUE(reloader.PollOnce().ok());
  ASSERT_EQ(registry_.version(), 1u);

  // The Checkpointer refuses a LATEST it cannot parse (the serving token
  // "a"), so it takes over the pointer from scratch, as a trainer
  // pointed at a fresh directory would.
  ASSERT_EQ(std::remove((dir_ + "/LATEST").c_str()), 0);
  auto ckpt = Checkpointer::Create({dir_, /*keep=*/2});
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EmbeddingModel model;
  ASSERT_TRUE(model.Init(70, 16, /*seed=*/55).ok());
  ASSERT_TRUE(ckpt->Save(model, TrainProgress{}).ok());

  EXPECT_EQ(reloader.PollOnce().code(), StatusCode::kNotFound);
  EXPECT_EQ(reloader.failed_reloads(), 1u);
  EXPECT_EQ(registry_.version(), 1u);
}

// --- The acceptance bar: reload storm under concurrent load. ---

TEST(HotSwapUnderLoadTest, TenSwapsEightConnectionsZeroErrorsBitIdentical) {
  obs::EnableMetrics(true);
  const std::string dir = MakeTempDir("hotswap");
  constexpr uint32_t kItems = 200;
  constexpr uint32_t kDim = 8;
  constexpr uint32_t kK = 5;
  constexpr uint64_t kSeedBase = 5000;
  constexpr uint64_t kVersions = 11;  // initial + 10 hot swaps
  constexpr uint32_t kConns = 8;

  // Offline references, one per version the storm will publish. Version v
  // is token "v" with seed kSeedBase + v (the publisher waits for each
  // swap to land, so registry versions track tokens exactly).
  std::vector<MatchingEngine> offline;
  offline.reserve(kVersions + 1);
  offline.emplace_back();  // index 0 unused
  for (uint64_t v = 1; v <= kVersions; ++v) {
    offline.push_back(
        serve::BuildSynthEngine(kItems, kDim, kSeedBase + v).value());
  }

  serve::ModelRegistry registry;
  serve::ReloaderOptions ropts;
  ropts.watch_dir = dir;
  ropts.poll_interval_ms = 5;
  serve::ModelReloader reloader(&registry, ropts);
  ASSERT_TRUE(
      serve::PublishSynthArena(dir, "1", kItems, kDim, kSeedBase + 1, false)
          .ok());
  ASSERT_TRUE(reloader.PollOnce().ok());
  ASSERT_EQ(registry.version(), 1u);

  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.batch.max_wait_us = 100;
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(reloader.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> status_errors{0};
  std::atomic<uint64_t> version_regressions{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (uint32_t c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        transport_errors++;
        return;
      }
      Rng rng(900 + c);
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto item = static_cast<uint32_t>(rng.UniformU64(kItems));
        serve::QueryResponse resp;
        if (!client->Query(item, kK, &resp).ok()) {
          transport_errors++;
          return;
        }
        if (resp.status == serve::WireStatus::kBusy) continue;
        if (resp.status != serve::WireStatus::kOk) {
          status_errors++;  // anything but OK/BUSY is a failure here
          continue;
        }
        completed++;
        const uint64_t v = resp.model_version;
        // Versions a single connection observes never go backwards.
        if (v < last_version || v == 0 || v > kVersions) {
          version_regressions++;
          continue;
        }
        last_version = v;
        if (!BitIdentical(resp.results, offline[v].Query(item, kK))) {
          mismatches++;
        }
      }
      client->Close();
    });
  }

  // The storm: publish versions 2..kVersions, each one waiting for the
  // swap to land before shipping the next (so version <-> seed stays a
  // bijection for the bit-identity check).
  for (uint64_t v = 2; v <= kVersions; ++v) {
    ASSERT_TRUE(serve::PublishSynthArena(dir, std::to_string(v), kItems, kDim,
                                         kSeedBase + v, false)
                    .ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (registry.version() < v &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(registry.version(), v) << "swap " << v << " never landed";
  }
  // Let traffic run a beat on the final version before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : clients) t.join();
  reloader.Stop();
  server.Shutdown();

  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(status_errors.load(), 0u);
  EXPECT_EQ(version_regressions.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GE(reloader.ok_reloads(), kVersions);
  EXPECT_EQ(reloader.failed_reloads(), 0u);
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(GaugeVal(snap, "serve.model_version"),
            static_cast<double>(kVersions));
}

// --- Scan-ring riders during hot swaps. ---

TEST(HotSwapUnderLoadTest, RingRidersJoinWhileLatestFlipsAnswerFromOneVersion) {
  // An int8 block of many chunks, closed-loop callers that keep joining
  // the running ring mid-lap, and six swaps under them: every answer must
  // be bit-identical to the offline engine of the version it reports, and
  // no connection may see its versions go backwards.
  obs::EnableMetrics(true);
  const std::string dir = MakeTempDir("ring_swap");
  constexpr uint32_t kItems = 6000;
  constexpr uint32_t kDim = 48;
  constexpr uint32_t kK = 10;
  constexpr uint64_t kSeedBase = 7000;
  constexpr uint64_t kVersions = 7;  // initial + 6 hot swaps
  constexpr uint32_t kConns = 4;

  std::vector<MatchingEngine> offline;
  offline.reserve(kVersions + 1);
  offline.emplace_back();  // index 0 unused
  for (uint64_t v = 1; v <= kVersions; ++v) {
    offline.push_back(
        serve::BuildSynthEngine(kItems, kDim, kSeedBase + v).value());
    ASSERT_TRUE(offline.back().EnableInt8().ok());
  }
  ASSERT_GT(offline[1].num_chunks(), 4u);

  serve::ModelRegistry registry;
  serve::ReloaderOptions ropts;
  ropts.watch_dir = dir;
  ropts.poll_interval_ms = 5;
  ropts.quant = "int8";
  serve::ModelReloader reloader(&registry, ropts);
  ASSERT_TRUE(
      serve::PublishSynthArena(dir, "1", kItems, kDim, kSeedBase + 1, true)
          .ok());
  ASSERT_TRUE(reloader.PollOnce().ok());
  ASSERT_EQ(registry.version(), 1u);

  serve::ServerOptions opts;
  opts.io_threads = 1;
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(reloader.Start().ok());
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> version_regressions{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures++;
        return;
      }
      Rng rng(300 + c);
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto item = static_cast<uint32_t>(rng.UniformU64(kItems));
        serve::QueryResponse resp;
        if (!client->Query(item, kK, &resp).ok() ||
            resp.status != serve::WireStatus::kOk) {
          failures++;
          return;
        }
        completed++;
        const uint64_t v = resp.model_version;
        if (v < last_version || v == 0 || v > kVersions) {
          version_regressions++;
          continue;
        }
        last_version = v;
        if (!BitIdentical(resp.results, offline[v].Query(item, kK))) {
          mismatches++;
        }
      }
      client->Close();
    });
  }

  for (uint64_t v = 2; v <= kVersions; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ASSERT_TRUE(serve::PublishSynthArena(dir, std::to_string(v), kItems, kDim,
                                         kSeedBase + v, true)
                    .ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (registry.version() < v &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(registry.version(), v) << "swap " << v << " never landed";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stop.store(true);
  for (auto& t : clients) t.join();
  reloader.Stop();
  server.Shutdown();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(version_regressions.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  // Requests joined running laps: fewer laps were started from an idle
  // ring than requests were answered.
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_LT(CounterVal(after, "serve.batches") -
                CounterVal(before, "serve.batches"),
            completed.load());
}

// --- Typed DEADLINE shed. ---

TEST(ServeDeadlineTest, ExpiredQueuedRequestsAreShedTyped) {
  obs::EnableMetrics(true);
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(100, 8, 61).value()),
                        "startup");
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.batch.max_batch = 64;
  opts.batch.max_wait_us = 150000;  // hold the first batch open 150ms...
  opts.batch.deadline_us = 1000;    // ...far past the 1ms request deadline
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kSent = 4;
  for (uint64_t id = 1; id <= kSent; ++id) {
    ASSERT_TRUE(client->SendQuery(id, static_cast<uint32_t>(id), 5).ok());
  }
  uint32_t shed = 0;
  for (uint64_t i = 0; i < kSent; ++i) {
    serve::QueryResponse resp;
    ASSERT_TRUE(client->ReadResponse(&resp).ok());
    if (resp.status == serve::WireStatus::kDeadlineExceeded) {
      ++shed;
      EXPECT_TRUE(resp.results.empty());
      EXPECT_GE(resp.model_version, 1u);  // the shed still names the model
    }
  }
  EXPECT_GE(shed, 1u);

  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(CounterVal(after, "serve.deadline_exceeded") -
                CounterVal(before, "serve.deadline_exceeded"),
            uint64_t{shed});
  client->Close();
  server.Shutdown();
}

// --- Idle eviction (slow-loris). ---

TEST(ServeIdleTest, SilentAndStalledConnectionsAreEvicted) {
  obs::EnableMetrics(true);
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(50, 8, 71).value()),
                        "startup");
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.idle_timeout_ms = 100;
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  auto wait_for_eof = [](int fd) {
    ASSERT_TRUE(SetSocketTimeouts(fd, 5000, 5000).ok());
    char buf[16];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_EQ(n, 0) << "expected server-side eviction (clean EOF)";
    ::close(fd);
  };

  // A connection that never says anything...
  int silent_fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.port(), &silent_fd, 2000).ok());
  // ...and a slow-loris: a valid frame started but never finished. The
  // trickle keeps the socket non-silent, yet the unfinished frame is held
  // to the same clock and must still be evicted.
  int stalled_fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.port(), &stalled_fd, 2000).ok());
  serve::QueryRequest req;
  req.request_id = 1;
  req.item = 2;
  req.k = 3;
  std::string frame;
  serve::EncodeQuery(req, &frame);
  ASSERT_EQ(::send(stalled_fd, frame.data(), 4, 0), 4);

  wait_for_eof(silent_fd);
  wait_for_eof(stalled_fd);
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(CounterVal(after, "serve.idle_evicted") -
                CounterVal(before, "serve.idle_evicted"),
            2u);

  // Eviction hygiene never touches a healthy, active connection.
  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  serve::QueryResponse resp;
  ASSERT_TRUE(client->Query(1, 5, &resp).ok());
  EXPECT_EQ(resp.status, serve::WireStatus::kOk);
  client->Close();
  server.Shutdown();
}

// --- HEALTH frame. ---

TEST(ServeHealthTest, ReportsReadyVersionAndShape) {
  serve::ModelRegistry registry;
  serve::ServerOptions opts;
  opts.io_threads = 1;
  serve::ServeServer server(&registry, opts);
  // Nothing published yet: the server refuses to start rather than advertise
  // readiness it cannot back with a model.
  const Status empty = server.Start();
  EXPECT_EQ(empty.code(), StatusCode::kFailedPrecondition) << empty.ToString();
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(123, 16, 81).value()),
                        "startup");
  ASSERT_TRUE(server.Start().ok());

  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  serve::HealthInfo info;
  ASSERT_TRUE(client->Health(&info).ok());
  EXPECT_TRUE(info.ready);
  EXPECT_EQ(info.num_items, 123u);
  EXPECT_EQ(info.dim, 16u);
  EXPECT_EQ(info.model_version, server.registry()->version());
  client->Close();
  server.Shutdown();
}

// --- Client-side timeout: typed, and the slow server is survivable. ---

TEST(ServeClientTimeoutTest, IoTimeoutIsTypedDeadlineExceeded) {
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(80, 8, 91).value()),
                        "startup");
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.batch.max_batch = 64;
  opts.batch.max_wait_us = 2000000;  // hold replies 2s: longer than the
                                     // client is willing to wait
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  serve::ClientOptions copt;
  copt.connect_timeout_ms = 1000;
  copt.io_timeout_ms = 200;
  auto client = serve::ServeClient::Connect("127.0.0.1", server.port(), copt);
  ASSERT_TRUE(client.ok());
  serve::QueryResponse resp;
  const Status st = client->Query(1, 5, &resp);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  client->Close();
  server.Shutdown();
}

// --- Chaos worker: attacks never take the server down. ---

TEST(ServeChaosTest, SeededAttackSweepLeavesServerHealthy) {
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(150, 8, 101).value()),
                        "startup");
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.idle_timeout_ms = 100;  // slow-loris attacks get evicted, not parked
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  auto plan = serve::ChaosPlan::Parse("all,seed=424242");
  ASSERT_TRUE(plan.ok());
  serve::ChaosStats stats;
  const uint64_t deadline = MonotonicNanos() + 1'500'000'000ull;
  serve::RunChaosWorker("127.0.0.1", server.port(), *plan, 150, deadline,
                        /*worker_id=*/1, &stats);
  EXPECT_GT(stats.attacks.load(), 0u);
  EXPECT_EQ(stats.probes_failed.load(), 0u)
      << "honest probes failed while under attack";

  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  serve::HealthInfo info;
  ASSERT_TRUE(client->Health(&info).ok());
  EXPECT_TRUE(info.ready);
  client->Close();
  server.Shutdown();
}

}  // namespace
}  // namespace sisg
