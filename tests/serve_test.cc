// Serving-path suite: the coalesced micro-batch scan must be bit-identical
// to the per-query path (fp32 and int8), the batcher's admission control
// must bound memory and reply BUSY rather than drop silently, and the full
// loopback server must answer byte-for-byte what an offline engine loaded
// from the same artifacts answers — across fp32, int8, and mmap-arena
// serving modes. Plus the drain and signal-flush contracts.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/matching_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "suite_dir.h"

namespace sisg {
namespace {

void ExpectBitIdentical(const std::vector<ScoredId>& a,
                        const std::vector<ScoredId>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " rank " << i;
    // Bitwise float comparison: "indistinguishable from the offline path"
    // means the same bits, not approximately the same value.
    uint32_t abits, bbits;
    std::memcpy(&abits, &a[i].score, 4);
    std::memcpy(&bbits, &b[i].score, 4);
    EXPECT_EQ(abits, bbits) << what << " rank " << i;
  }
}

uint64_t CounterVal(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double GaugeVal(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

// --- Tentpole: coalesced batch scan == per-query scan, bit for bit. ---

TEST(CoalescedScanTest, Fp32BitIdenticalToPerQuery) {
  MatchingEngine engine = serve::BuildSynthEngine(500, 24, 99).value();
  std::vector<uint32_t> items, ks;
  for (uint32_t i = 0; i < 500; i += 3) {
    items.push_back(i);
    ks.push_back(5 + i % 13);
  }
  const auto batched =
      engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  ASSERT_EQ(batched.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectBitIdentical(batched[i], engine.Query(items[i], ks[i]),
                       "item " + std::to_string(items[i]));
  }
}

TEST(CoalescedScanTest, BitIdenticalAcrossShardSizesAndPools) {
  // Batch sizes around the 256-query shard bound, serial and over pools of
  // 1-4 workers: shards of min(256, ceil(n / workers)) queries, and the
  // whole-tile/remainder split of the int8 scan moves with every cut, so
  // each answer must still be the per-query one.
  for (bool int8 : {false, true}) {
    MatchingEngine engine = serve::BuildSynthEngine(300, 16, 99).value();
    if (int8) {
      ASSERT_TRUE(engine.EnableInt8().ok());
    }
    std::vector<std::vector<ScoredId>> want;
    for (uint32_t i = 0; i < 300; ++i) want.push_back(engine.Query(i, 10));
    for (size_t n : {7u, 150u, 255u, 256u, 257u, 1000u}) {
      std::vector<uint32_t> items(n), ks(n, 10);
      for (size_t i = 0; i < n; ++i) items[i] = (i * 7) % 300;
      for (size_t workers : {0u, 1u, 2u, 3u, 4u}) {
        std::unique_ptr<ThreadPool> pool;
        if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
        const auto batched = engine.QueryBatchCoalesced(
            items.data(), ks.data(), n, pool.get());
        ASSERT_EQ(batched.size(), n);
        for (size_t i = 0; i < n; ++i) {
          ExpectBitIdentical(batched[i], want[items[i]],
                             std::string(int8 ? "int8" : "fp32") + " n " +
                                 std::to_string(n) + " workers " +
                                 std::to_string(workers) + " item " +
                                 std::to_string(items[i]));
        }
      }
    }
  }
}

TEST(CoalescedScanTest, Int8BitIdenticalToPerQuery) {
  MatchingEngine engine = serve::BuildSynthEngine(400, 32, 99).value();
  ASSERT_TRUE(engine.EnableInt8().ok());
  ASSERT_EQ(engine.quant_mode(), QuantMode::kInt8);
  std::vector<uint32_t> items, ks;
  for (uint32_t i = 0; i < 400; i += 5) {
    items.push_back(i);
    ks.push_back(8);
  }
  const auto batched =
      engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ExpectBitIdentical(batched[i], engine.Query(items[i], ks[i]),
                       "int8 item " + std::to_string(items[i]));
  }
}

TEST(CoalescedScanTest, HandlesUnknownItemsAndZeroK) {
  MatchingEngine engine = serve::BuildSynthEngine(100, 8, 99).value();
  const std::vector<uint32_t> items = {5, 100000, 7, 9};
  const std::vector<uint32_t> ks = {10, 10, 0, 3};
  const auto batched =
      engine.QueryBatchCoalesced(items.data(), ks.data(), items.size());
  ASSERT_EQ(batched.size(), 4u);
  EXPECT_FALSE(batched[0].empty());
  EXPECT_TRUE(batched[1].empty());  // unknown item
  EXPECT_TRUE(batched[2].empty());  // k == 0
  EXPECT_EQ(batched[3].size(), 3u);
}

// --- Batcher: coalescing, admission control, drain. ---

struct CallbackSink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<ScoredId>> results;
  size_t expected = 0;

  serve::QueryBatcher::Callback Make(size_t slot) {
    return [this, slot](serve::WireStatus, uint64_t,
                        std::vector<ScoredId> r) {
      std::lock_guard<std::mutex> lock(mu);
      results[slot] = std::move(r);
      --expected;
      if (expected == 0) cv.notify_all();
    };
  }
  bool WaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return expected == 0; });
  }
};

TEST(QueryBatcherTest, CoalescesQueuedRequestsIntoOneBatch) {
  obs::EnableMetrics(true);
  serve::BatchOptions opts;
  opts.max_batch = 16;
  opts.max_wait_us = 0;  // flush whatever is queued, immediately
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(200, 16, 99).value()),
                        "test");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();
  serve::QueryBatcher batcher(&registry, opts);

  const auto before = obs::MetricsRegistry::Global().Snapshot();
  CallbackSink sink;
  sink.results.resize(8);
  sink.expected = 8;
  // Submit before Start: the queue fills deterministically, then the first
  // dispatch pops all eight as one coalesced batch.
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_EQ(batcher.Submit(i * 10, 6, sink.Make(i)),
              serve::AdmitResult::kAccepted);
  }
  EXPECT_EQ(batcher.queue_depth(), 8u);
  batcher.Start();
  ASSERT_TRUE(sink.WaitAll());
  batcher.Drain();

  for (uint32_t i = 0; i < 8; ++i) {
    ExpectBitIdentical(sink.results[i], engine.Query(i * 10, 6),
                       "batched item " + std::to_string(i * 10));
  }
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterVal(after, "serve.batches") -
                CounterVal(before, "serve.batches"),
            1u);
  EXPECT_EQ(GaugeVal(after, "serve.queue_depth"), 0.0);
}

TEST(QueryBatcherTest, ConcurrentRingsAnswerOnce) {
  // Four rings admit from one queue. Waves of 1-32 requests leave some
  // rings idle and give others many riders.
  serve::BatchOptions opts;
  opts.max_batch = 32;
  opts.max_wait_us = 1000;
  opts.ring_threads = 4;
  serve::ModelRegistry registry;
  MatchingEngine built = serve::BuildSynthEngine(400, 32, 99).value();
  ASSERT_TRUE(built.EnableInt8().ok());
  registry.PublishOwned(std::make_unique<MatchingEngine>(std::move(built)),
                        "test");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();

  // Declared before the batcher, so the callbacks' state outlives its
  // drain on every exit path.
  constexpr size_t kWaves = 32;
  const size_t total = kWaves * (kWaves + 1) / 2;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> fired(total, 0);
  std::vector<std::vector<ScoredId>> results(total);
  size_t done = 0;
  serve::QueryBatcher batcher(&registry, opts);
  batcher.Start();
  const auto item_of = [](size_t slot) {
    return static_cast<uint32_t>(slot * 13 % 400);
  };
  size_t slot = 0;
  for (size_t wave = 1; wave <= kWaves; ++wave) {
    for (size_t i = 0; i < wave; ++i, ++slot) {
      ASSERT_EQ(batcher.Submit(item_of(slot), 8,
                               [&, slot](serve::WireStatus st, uint64_t,
                                         std::vector<ScoredId> r) {
                                 EXPECT_EQ(st, serve::WireStatus::kOk);
                                 std::lock_guard<std::mutex> lock(mu);
                                 ++fired[slot];
                                 results[slot] = std::move(r);
                                 ++done;
                                 cv.notify_all();
                               }),
                serve::AdmitResult::kAccepted);
    }
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done == slot; }))
        << "wave " << wave;
  }
  batcher.Drain();

  std::lock_guard<std::mutex> lock(mu);
  for (size_t s = 0; s < total; ++s) {
    EXPECT_EQ(fired[s], 1) << "slot " << s;
    ExpectBitIdentical(results[s], engine.Query(item_of(s), 8),
                       "slot " + std::to_string(s));
  }
}

TEST(QueryBatcherTest, FullQueueRepliesBusyNeverBuffersUnboundedly) {
  obs::EnableMetrics(true);
  serve::BatchOptions opts;
  opts.queue_capacity = 4;
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(100, 8, 99).value()),
                        "test");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();
  serve::QueryBatcher batcher(&registry, opts);  // never started: queue holds

  const auto before = obs::MetricsRegistry::Global().Snapshot();
  CallbackSink sink;
  sink.results.resize(4);
  sink.expected = 4;
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(batcher.Submit(i, 5, sink.Make(i)),
              serve::AdmitResult::kAccepted);
  }
  int rejected = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    if (batcher.Submit(50 + i, 5,
                       [](serve::WireStatus, uint64_t, std::vector<ScoredId>) {
                         FAIL()
                             << "rejected submit must never invoke its "
                                "callback";
                       }) == serve::AdmitResult::kBusy) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(batcher.queue_depth(), 4u);

  // Drain without Start still flushes the accepted four through the scan.
  batcher.Drain();
  ASSERT_TRUE(sink.WaitAll());
  for (uint32_t i = 0; i < 4; ++i) {
    ExpectBitIdentical(sink.results[i], engine.Query(i, 5),
                       "drained item " + std::to_string(i));
  }
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterVal(after, "serve.dropped") -
                CounterVal(before, "serve.dropped"),
            3u);
  EXPECT_EQ(batcher.Submit(
                1, 5, [](serve::WireStatus, uint64_t, std::vector<ScoredId>) {}),
            serve::AdmitResult::kShuttingDown);
}

TEST(QueryBatcherTest, MaxBatchZeroIsClampedAndStillDispatches) {
  // max_batch = 0 reaches the batcher through the unvalidated --max_batch
  // flag; it must behave as batch-of-1, not busy-spin taking zero items
  // (which also made Drain join a thread that never exits).
  serve::BatchOptions opts;
  opts.max_batch = 0;
  opts.max_wait_us = 0;
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(100, 8, 99).value()),
                        "test");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();
  serve::QueryBatcher batcher(&registry, opts);
  EXPECT_EQ(batcher.options().max_batch, 1u);
  batcher.Start();
  CallbackSink sink;
  sink.results.resize(3);
  sink.expected = 3;
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_EQ(batcher.Submit(i * 7, 4, sink.Make(i)),
              serve::AdmitResult::kAccepted);
  }
  ASSERT_TRUE(sink.WaitAll());
  batcher.Drain();
  for (uint32_t i = 0; i < 3; ++i) {
    ExpectBitIdentical(sink.results[i], engine.Query(i * 7, 4),
                       "clamped-batch item " + std::to_string(i * 7));
  }
}

// --- Loopback end-to-end: server == offline engine, per serving mode. ---

class LoopbackFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prefix_ = new std::string(SuiteDir() + "/serve_e2e");
    MatchingEngine engine =
        serve::BuildSynthEngine(300, 24, /*seed=*/7).value();
    ASSERT_TRUE(engine.SaveArena(*prefix_ + ".arena").ok());
    ASSERT_TRUE(engine.EnableInt8().ok());
    ASSERT_TRUE(engine.SaveInt8(*prefix_ + ".qarena").ok());
  }
  static void TearDownTestSuite() {
    std::remove((*prefix_ + ".arena").c_str());
    std::remove((*prefix_ + ".qarena").c_str());
    delete prefix_;
    prefix_ = nullptr;
  }

  /// Loads an engine from the frozen artifacts in the requested mode.
  static MatchingEngine LoadEngine(bool int8, bool mmap) {
    MatchingEngine engine;
    EXPECT_TRUE(engine.LoadArena(*prefix_ + ".arena", mmap).ok());
    if (int8) {
      EXPECT_TRUE(engine.EnableInt8FromFile(*prefix_ + ".qarena", mmap).ok());
      EXPECT_EQ(engine.quant_mode(), QuantMode::kInt8);
    }
    return engine;
  }

  /// The satellite contract: every item's served answer is bit-identical to
  /// the offline engine's answer on the same artifacts.
  static void RunMode(bool int8, bool mmap, const std::string& what) {
    MatchingEngine offline = LoadEngine(int8, mmap);
    serve::ModelRegistry registry;
    registry.PublishOwned(
        std::make_unique<MatchingEngine>(LoadEngine(int8, mmap)), "startup");
    serve::ServerOptions opts;
    opts.io_threads = 1;
    opts.batch.max_wait_us = 100;
    serve::ServeServer server(&registry, opts);
    ASSERT_TRUE(server.Start().ok());

    auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    serve::HealthInfo health;
    ASSERT_TRUE(client->Health(&health).ok());
    EXPECT_TRUE(health.ready);
    for (uint32_t item = 0; item < offline.num_items(); item += 7) {
      serve::QueryResponse resp;
      ASSERT_TRUE(client->Query(item, 10, &resp).ok());
      ASSERT_EQ(resp.status, serve::WireStatus::kOk);
      ExpectBitIdentical(resp.results, offline.Query(item, 10),
                         what + " item " + std::to_string(item));
    }
    client->Close();
    server.Shutdown();
  }

  static std::string* prefix_;
};

std::string* LoopbackFixture::prefix_ = nullptr;

TEST_F(LoopbackFixture, Fp32ServedEqualsOffline) {
  RunMode(/*int8=*/false, /*mmap=*/false, "fp32");
}

TEST_F(LoopbackFixture, Int8ServedEqualsOffline) {
  RunMode(/*int8=*/true, /*mmap=*/false, "int8");
}

TEST_F(LoopbackFixture, MmapArenaServedEqualsOffline) {
  RunMode(/*int8=*/false, /*mmap=*/true, "mmap");
}

TEST(ServeServerTest, HugeKIsClampedToWirePayloadBound) {
  // A response frame maxes out at kMaxResultsPerResponse results; a larger
  // k must be served clamped, never answered with a frame the wire spec
  // itself rejects as oversized (which would poison the client's reader).
  static_assert(24 + uint64_t{serve::kMaxResultsPerResponse} * 8 <=
                    serve::kMaxPayloadBytes,
                "response at the clamp bound must fit the payload limit");
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(150, 8, 99).value()),
                        "startup");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();
  serve::ServerOptions opts;
  opts.io_threads = 1;
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  serve::QueryResponse resp;
  ASSERT_TRUE(client->Query(3, UINT32_MAX, &resp).ok());
  EXPECT_EQ(resp.status, serve::WireStatus::kOk);
  ExpectBitIdentical(resp.results, engine.Query(3, serve::kMaxResultsPerResponse),
                     "huge-k clamp");
  client->Close();
  server.Shutdown();
}

// --- Connection cap: the connection over max_connections is closed on
// arrival; the live ones keep answering. ---

TEST(ServeServerTest, ConnectionOverCapIsClosedOnArrival) {
  obs::EnableMetrics(true);
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(120, 8, 97).value()),
                        "startup");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.max_connections = 2;
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());
  const auto before = obs::MetricsRegistry::Global().Snapshot();

  // Two connections, each registered by the server before the third
  // arrives (a round trip proves it).
  serve::ClientOptions copt;
  copt.io_timeout_ms = 5000;
  std::vector<serve::ServeClient> live;
  for (int i = 0; i < 2; ++i) {
    auto client = serve::ServeClient::Connect("127.0.0.1", server.port(), copt);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    serve::QueryResponse resp;
    ASSERT_TRUE(client->Query(1, 5, &resp).ok());
    live.push_back(std::move(client).value());
  }

  // The kernel completes the third handshake; the server closes it at
  // accept, so its first round trip fails instead of being answered.
  auto third = serve::ServeClient::Connect("127.0.0.1", server.port(), copt);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  serve::QueryResponse rejected;
  EXPECT_FALSE(third->Query(2, 5, &rejected).ok());
  third->Close();
  // The server counts the rejection just after the close the client saw.
  auto rejections = [&] {
    return CounterVal(obs::MetricsRegistry::Global().Snapshot(),
                      "serve.conn_rejected") -
           CounterVal(before, "serve.conn_rejected");
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rejections() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rejections(), 1u);

  for (size_t c = 0; c < live.size(); ++c) {
    for (uint32_t item = 0; item < engine.num_items(); item += 11) {
      serve::QueryResponse resp;
      ASSERT_TRUE(live[c].Query(item, 5, &resp).ok());
      ASSERT_EQ(resp.status, serve::WireStatus::kOk);
      ExpectBitIdentical(resp.results, engine.Query(item, 5),
                         "live connection " + std::to_string(c) + " item " +
                             std::to_string(item));
    }
    live[c].Close();
  }
  server.Shutdown();
}

// --- Overload: bounded queue, typed BUSY, recovery. ---

TEST(ServeServerTest, OverloadRepliesBusyStaysUpAndRecovers) {
  obs::EnableMetrics(true);
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(200, 16, 99).value()),
                        "startup");
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.batch.max_batch = 64;
  opts.batch.max_wait_us = 150000;  // hold the first batch open 150ms
  opts.batch.queue_capacity = 8;
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const auto before = obs::MetricsRegistry::Global().Snapshot();
  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // 2x-and-then-some the queue capacity, pipelined: admission control must
  // cap the queue and answer the overflow with typed BUSY immediately.
  constexpr uint32_t kBurst = 20;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(
        client->SendQuery(id, static_cast<uint32_t>(id % 200), 10).ok());
  }
  EXPECT_LE(server.batcher()->queue_depth(), 8u);  // bounded under overload

  uint32_t ok = 0, busy = 0, other = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < kBurst; ++i) {
    serve::QueryResponse resp;
    ASSERT_TRUE(client->ReadResponse(&resp).ok()) << "reply " << i;
    if (resp.status == serve::WireStatus::kOk) {
      ++ok;
      EXPECT_FALSE(resp.results.empty());
    } else if (resp.status == serve::WireStatus::kBusy) {
      ++busy;
      EXPECT_TRUE(resp.results.empty());
    } else {
      ++other;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Every request got a typed reply — no silent drops — and the accepted
  // ones completed within a sane budget (one batch window plus the scan).
  EXPECT_EQ(ok + busy + other, kBurst);
  EXPECT_EQ(other, 0u);
  EXPECT_GE(ok, 8u);
  EXPECT_GE(busy, 1u);
  EXPECT_LT(elapsed_s, 5.0);

  const auto mid = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterVal(mid, "serve.dropped") -
                CounterVal(before, "serve.dropped"),
            busy);

  // Recovery: the connection and server are still healthy after overload.
  serve::HealthInfo health;
  ASSERT_TRUE(client->Health(&health).ok());
  EXPECT_TRUE(health.ready);
  serve::QueryResponse resp;
  ASSERT_TRUE(client->Query(3, 5, &resp).ok());
  EXPECT_EQ(resp.status, serve::WireStatus::kOk);

  client->Close();
  server.Shutdown();
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(GaugeVal(after, "serve.queue_depth"), 0.0);  // cleared by drain
}

// --- Graceful drain: accepted requests are answered, then EOF. ---

TEST(ServeServerTest, ShutdownDrainsQueuedRequestsBeforeClosing) {
  serve::ModelRegistry registry;
  registry.PublishOwned(std::make_unique<MatchingEngine>(
                            serve::BuildSynthEngine(100, 8, 99).value()),
                        "startup");
  const serve::SnapshotPtr snap = registry.Acquire();
  const MatchingEngine& engine = snap->engine();
  serve::ServerOptions opts;
  opts.io_threads = 1;
  opts.batch.max_batch = 64;
  opts.batch.max_wait_us = 500000;  // queued work sits until the drain
  serve::ServeServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(
        client->SendQuery(id, static_cast<uint32_t>(id * 3), 4).ok());
  }
  // Wait until all five are admitted, so the drain (not the flush timer)
  // is what answers them.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.batcher()->queue_depth() < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.batcher()->queue_depth(), 5u);

  server.Shutdown();

  for (uint64_t id = 1; id <= 5; ++id) {
    serve::QueryResponse resp;
    ASSERT_TRUE(client->ReadResponse(&resp).ok()) << "id " << id;
    EXPECT_EQ(resp.request_id, id);
    EXPECT_EQ(resp.status, serve::WireStatus::kOk);
    ExpectBitIdentical(resp.results,
                       engine.Query(static_cast<uint32_t>(id * 3), 4),
                       "drained id " + std::to_string(id));
  }
  serve::QueryResponse resp;
  EXPECT_FALSE(client->ReadResponse(&resp).ok());  // clean EOF after drain
}

// --- Metrics export: .prom dispatch and the signal-flush path. ---

TEST(MetricsExportTest, WriteMetricsFileDispatchesOnExtension) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Global().counter("serve.test_counter")->Increment();
  const auto snap = obs::MetricsRegistry::Global().Snapshot();

  const std::string jpath = SuiteDir() + "/metrics_disp.json";
  ASSERT_TRUE(obs::WriteMetricsFile(snap, jpath).ok());
  const std::string ppath = SuiteDir() + "/metrics_disp.prom";
  ASSERT_TRUE(obs::WriteMetricsFile(snap, ppath).ok());

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    size_t n;
    while (f && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    if (f) std::fclose(f);
    return out;
  };
  EXPECT_NE(slurp(jpath).find("\"counters\""), std::string::npos);
  EXPECT_NE(slurp(ppath).find("# TYPE sisg_serve_test_counter counter"),
            std::string::npos);
  std::remove(jpath.c_str());
  std::remove(ppath.c_str());
}

TEST(MetricsExportTest, SignalFlushWritesTheArtifact) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Global().counter("serve.sigflush_probe")->Increment();
  const std::string path = SuiteDir() + "/sigflush.json";
  obs::FlushMetricsOnSignal(path);
  // Exercise the watcher's flush body directly — same code the real signal
  // triggers, minus killing the test process.
  ASSERT_TRUE(obs::internal::SignalFlushNowForTest().ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  EXPECT_NE(out.find("serve.sigflush_probe"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sisg
