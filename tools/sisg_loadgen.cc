// sisg_loadgen — load client for sisg_serve. Drives the wire protocol in
// closed-loop (N connections, back-to-back round trips: throughput ceiling
// at a given concurrency) or open-loop (target arrival rate with
// exponential or heavy-tailed Pareto inter-arrivals: latency under a load
// the server does not control) mode, and reports latency percentiles plus
// admission-control outcomes.
//
//   sisg_loadgen --port 7411 --mode closed --connections 8 --duration 5
//   sisg_loadgen --port 7411 --mode open --qps 20000 --arrival pareto
//                --duration 5 --json_out bench_row.json
//
// Exit code: 0 on a clean run, 1 when any transport/protocol error occurred
// or nothing completed — so CI can use the binary directly as a smoke
// check. BUSY replies are not errors: they are the server's backpressure
// working as designed, and are reported in their own column. The same goes
// for client-side timeouts (--timeout_ms), retries after BUSY (jittered
// backoff) and server-side DEADLINE sheds — each gets its own column and
// none of them fail the run.
//
// --chaos MODES additionally runs fault-injecting workers (serve/chaos.h)
// alongside the load — mid-frame disconnects, garbage frames, slow-loris,
// connection churn — and fails the run only if the server stops answering
// honest probes. --reload_dir DIR adds a reload storm: every 400 ms a new
// synthetic version (`.arena` + `.qarena`, shaped like the first HEALTH
// reply) is published into DIR, the directory the server watches, and
// every third publish is a corrupt arena the server must roll back; the run
// fails unless the served version advanced.
//
//   sisg_loadgen --port 7411 --duration 8 --timeout_ms 5000 --chaos all
//                --reload_dir /tmp/watch

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/flat_hash.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "serve/chaos.h"
#include "serve/client.h"

using namespace sisg;

namespace {

/// Reload-storm cadence and the share of deliberately corrupt publishes.
constexpr uint32_t kPublishIntervalMs = 400;
constexpr uint64_t kCorruptEvery = 3;

struct WorkerStats {
  std::vector<double> latencies_ms;
  uint64_t completed = 0;  // kOk responses
  uint64_t busy = 0;       // kBusy / kShuttingDown rejections
  uint64_t bad = 0;        // kBadRequest
  uint64_t deadline = 0;   // server-side DEADLINE_EXCEEDED sheds
  uint64_t timeouts = 0;   // client-side --timeout_ms expiries
  uint64_t retries = 0;    // re-issues after BUSY (jittered backoff)
  uint64_t errors = 0;     // transport/protocol failures
};

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

void Tally(WorkerStats* s, serve::WireStatus status, double ms) {
  switch (status) {
    case serve::WireStatus::kOk:
      s->completed++;
      s->latencies_ms.push_back(ms);
      break;
    case serve::WireStatus::kBadRequest:
      s->bad++;
      break;
    case serve::WireStatus::kDeadlineExceeded:
      s->deadline++;
      break;
    default:
      s->busy++;
  }
}

/// Closed loop: one synchronous round trip after another until the deadline.
/// A BUSY reply backs off (jittered, so retry storms decorrelate across
/// connections) and re-issues the same item; a client-side timeout drops
/// the desynchronized connection and reconnects. Both are their own
/// columns, not errors.
void ClosedLoopWorker(const std::string& host, uint16_t port, uint32_t items,
                      uint32_t k, uint64_t seed, uint64_t deadline_ns,
                      uint32_t timeout_ms, WorkerStats* s) {
  serve::ClientOptions copt;
  copt.connect_timeout_ms = timeout_ms;
  copt.io_timeout_ms = timeout_ms;
  auto client = serve::ServeClient::Connect(host, port, copt);
  if (!client.ok()) {
    s->errors++;
    return;
  }
  Rng rng(seed);
  bool retry_pending = false;
  uint32_t item = 0;
  while (MonotonicNanos() < deadline_ns) {
    if (!retry_pending) {
      item = static_cast<uint32_t>(rng.UniformU64(items));
    }
    retry_pending = false;
    serve::QueryResponse resp;
    const uint64_t t0 = MonotonicNanos();
    if (auto st = client->Query(item, k, &resp); !st.ok()) {
      if (st.code() == StatusCode::kDeadlineExceeded) {
        // The stream may hold a half-frame now; only a fresh connection is
        // safe. The timeout is its own column — the server may be fine.
        s->timeouts++;
        client->Close();
        client = serve::ServeClient::Connect(host, port, copt);
        if (!client.ok()) {
          s->errors++;
          return;
        }
        continue;
      }
      s->errors++;
      return;  // transport gone; this connection is done
    }
    Tally(s, resp.status, static_cast<double>(MonotonicNanos() - t0) * 1e-6);
    if (resp.status == serve::WireStatus::kBusy) {
      // Jittered exponential-ish backoff before re-issuing: 200..1000us,
      // enough to let a drained queue slot open without idling the worker.
      std::this_thread::sleep_for(
          std::chrono::microseconds(200 + rng.UniformU64(800)));
      s->retries++;
      retry_pending = true;
    }
  }
}

/// Open loop: a sender thread fires at scheduled arrival instants without
/// waiting for replies; a reader thread drains responses and matches them to
/// send timestamps by request id. The two threads touch opposite directions
/// of the same socket, which is safe.
void OpenLoopWorker(const std::string& host, uint16_t port, uint32_t items,
                    uint32_t k, uint64_t seed, uint64_t deadline_ns,
                    double rate_per_conn, const std::string& arrival,
                    uint32_t timeout_ms, WorkerStats* s) {
  serve::ClientOptions copt;
  copt.connect_timeout_ms = timeout_ms;
  copt.io_timeout_ms = timeout_ms;
  auto client = serve::ServeClient::Connect(host, port, copt);
  if (!client.ok()) {
    s->errors++;
    return;
  }
  std::mutex mu;
  FlatHashMap<uint64_t, uint64_t> inflight;  // id -> send ns
  std::atomic<bool> send_failed{false};
  std::atomic<bool> timed_out{false};

  std::thread reader([&] {
    for (;;) {
      serve::QueryResponse resp;
      if (auto st = client->ReadResponse(&resp); !st.ok()) {
        // A timeout mid-frame desynchronizes the pipelined stream — the
        // whole connection is done, and its unanswered sends are counted
        // as timeouts (not transport errors) below. The sender's Shutdown
        // after the grace period is the clean end; any other mid-run
        // failure is an error, which the outer loop detects via counts.
        if (st.code() == StatusCode::kDeadlineExceeded) {
          s->timeouts++;
          timed_out.store(true);
        }
        return;
      }
      uint64_t t0 = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (const uint64_t* sent = inflight.Find(resp.request_id)) {
          t0 = *sent;
          inflight.Erase(resp.request_id);
        }
      }
      if (t0 == 0) {
        s->errors++;  // response to a request we never sent
        continue;
      }
      Tally(s, resp.status,
            static_cast<double>(MonotonicNanos() - t0) * 1e-6);
    }
  });

  Rng rng(seed);
  uint64_t next_id = 1;
  double next_ns = static_cast<double>(MonotonicNanos());
  const double mean_gap_ns = 1e9 / rate_per_conn;
  // Pareto with alpha=1.5 scaled to the same mean as the exponential:
  // bursty heavy-tailed arrivals that stress the adaptive flush deadline.
  const double pareto_alpha = 1.5;
  const double pareto_xm = mean_gap_ns * (pareto_alpha - 1.0) / pareto_alpha;
  while (MonotonicNanos() < deadline_ns &&
         !timed_out.load(std::memory_order_relaxed)) {
    const double u = std::max(1e-12, rng.UniformDouble());
    const double gap = arrival == "pareto"
                           ? pareto_xm * std::pow(u, -1.0 / pareto_alpha)
                           : -mean_gap_ns * std::log(u);
    next_ns += gap;
    while (static_cast<double>(MonotonicNanos()) < next_ns) {
      const double ahead_us =
          (next_ns - static_cast<double>(MonotonicNanos())) * 1e-3;
      if (ahead_us > 100.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(ahead_us / 2)));
      }
    }
    // The pacing wait can overshoot the deadline: nothing is sent after it.
    if (MonotonicNanos() >= deadline_ns) break;
    const auto item = static_cast<uint32_t>(rng.UniformU64(items));
    const uint64_t id = next_id++;
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight[id] = MonotonicNanos();
    }
    if (auto st = client->SendQuery(id, item, k); !st.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      inflight.Erase(id);
      if (st.code() == StatusCode::kDeadlineExceeded) {
        s->timeouts++;
        timed_out.store(true);
      } else {
        send_failed.store(true);
      }
      break;
    }
  }
  // Give in-flight replies a bounded grace period, then shut the socket down
  // to unblock the reader. Generous because an overloaded single-core host
  // runs the server and every loadgen thread on the same core.
  const uint64_t grace_end = MonotonicNanos() + 6'000'000'000ull;
  while (MonotonicNanos() < grace_end &&
         !timed_out.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mu);
    if (inflight.empty()) break;
    std::this_thread::yield();
  }
  client->Shutdown();
  reader.join();
  client->Close();
  if (send_failed.load()) s->errors++;
  std::lock_guard<std::mutex> lock(mu);
  // Unanswered sends: a timed-out connection abandons its tail as timeouts
  // (the server may well be fine); otherwise be strict and count them as
  // errors even if tail replies merely raced the close.
  if (timed_out.load()) {
    s->timeouts += inflight.size();
  } else {
    s->errors += inflight.size();
  }
}

/// A publish that must be REJECTED: a garbage arena artifact behind an
/// honest LATEST pointer. The watching server has to fail validation, keep
/// the old snapshot, and bump serve.reload_failed.
Status PublishCorruptArena(const std::string& dir, const std::string& token,
                           uint64_t seed) {
  Rng rng(seed);
  std::string junk(512, '\0');
  for (char& b : junk) b = static_cast<char>(rng.Next());
  SISG_RETURN_IF_ERROR(WriteFileAtomic(dir + "/" + token + ".arena", junk));
  return WriteFileAtomic(dir + "/LATEST", token + "\n");
}

/// One HEALTH round trip on a fresh connection; false unless the server
/// answers and reports ready.
bool ReadyHealth(const std::string& host, uint16_t port,
                 serve::HealthInfo* health) {
  serve::ClientOptions copt;
  copt.connect_timeout_ms = 5000;
  copt.io_timeout_ms = 5000;
  auto probe = serve::ServeClient::Connect(host, port, copt);
  return probe.ok() && probe->Health(health).ok() && health->ready;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (auto st = flags.Parse(
          argc, argv,
          {"host", "port", "mode", "connections", "qps", "arrival", "duration",
           "items", "k", "seed", "timeout_ms", "chaos", "chaos_connections",
           "reload_dir", "json_out", "name", "help"});
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("port")) {
    std::cout << "usage: sisg_loadgen --port P [options]\n"
                 "  --host ADDR        server address (default 127.0.0.1)\n"
                 "  --mode closed|open closed: back-to-back round trips;\n"
                 "                     open: scheduled arrivals (default "
                 "closed)\n"
                 "  --connections N    concurrent connections (default 4)\n"
                 "  --qps Q            open-loop total arrival rate\n"
                 "  --arrival exp|pareto  open-loop inter-arrival law\n"
                 "  --duration S       seconds to run (default 5)\n"
                 "  --items N          item-id space to sample (default "
                 "8000)\n"
                 "  --k K              top-k per query (default 10)\n"
                 "  --timeout_ms MS    client connect/io timeout (0 = none);\n"
                 "                     expiries land in their own column\n"
                 "  --chaos MODES      also run fault injectors: comma list\n"
                 "                     of disconnect|garbage|truncate|\n"
                 "                     slowloris|churn|all, plus seed=N\n"
                 "  --chaos_connections N  chaos workers (default 2)\n"
                 "  --reload_dir DIR   also storm-publish versions into the\n"
                 "                     server's --watch_dir (every 3rd one\n"
                 "                     corrupt); fail unless it advances\n"
                 "  --json_out FILE    write one bench row as JSON\n"
                 "  --name LABEL       row label (default the mode)\n";
    return flags.Has("port") ? 0 : 2;
  }

  const std::string host = flags.GetString("host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(flags.GetInt64("port", 0));
  const std::string mode = flags.GetString("mode", "closed");
  if (mode != "closed" && mode != "open") {
    std::cerr << "unknown --mode '" << mode << "' (want closed|open)\n";
    return 2;
  }
  const std::string arrival = flags.GetString("arrival", "exp");
  if (arrival != "exp" && arrival != "pareto") {
    std::cerr << "unknown --arrival '" << arrival << "' (want exp|pareto)\n";
    return 2;
  }
  const auto conns =
      std::max<uint32_t>(1, static_cast<uint32_t>(
                                flags.GetInt64("connections", 4)));
  const double qps = static_cast<double>(flags.GetInt64("qps", 1000));
  const double duration = static_cast<double>(flags.GetInt64("duration", 5));
  const auto items =
      static_cast<uint32_t>(flags.GetInt64("items", 8000));
  const auto k = static_cast<uint32_t>(flags.GetInt64("k", 10));
  const auto seed = static_cast<uint64_t>(flags.GetInt64("seed", 1));
  const auto timeout_ms =
      static_cast<uint32_t>(flags.GetInt64("timeout_ms", 0));

  serve::ChaosPlan chaos_plan;
  if (flags.Has("chaos")) {
    auto plan = serve::ChaosPlan::Parse(flags.GetString("chaos", ""));
    if (!plan.ok()) {
      std::cerr << plan.status().ToString() << "\n";
      return 2;
    }
    chaos_plan = *plan;
  }
  const auto chaos_conns = std::max<uint32_t>(
      1, static_cast<uint32_t>(flags.GetInt64("chaos_connections", 2)));
  const std::string reload_dir = flags.GetString("reload_dir", "");
  const bool storm = !reload_dir.empty();

  // The storm publishes versions shaped like the one serving now, and must
  // see the served version move past this one.
  serve::HealthInfo initial;
  if (storm && !ReadyHealth(host, port, &initial)) {
    std::cerr << "reload storm: server unreachable or not ready\n";
    return 1;
  }

  const uint64_t t_start = MonotonicNanos();
  const uint64_t deadline =
      t_start + static_cast<uint64_t>(duration * 1e9);
  std::vector<WorkerStats> stats(conns);
  std::vector<std::thread> workers;
  workers.reserve(conns);
  for (uint32_t c = 0; c < conns; ++c) {
    if (mode == "closed") {
      workers.emplace_back(ClosedLoopWorker, host, port, items, k,
                           seed + c * 7919, deadline, timeout_ms, &stats[c]);
    } else {
      workers.emplace_back(OpenLoopWorker, host, port, items, k,
                           seed + c * 7919, deadline, qps / conns, arrival,
                           timeout_ms, &stats[c]);
    }
  }
  serve::ChaosStats chaos_stats;
  std::vector<std::thread> chaos_workers;
  if (chaos_plan.Active()) {
    std::cerr << "chaos: running " << chaos_conns << " workers ("
              << chaos_plan.ToString() << ")\n";
    chaos_workers.reserve(chaos_conns);
    for (uint32_t c = 0; c < chaos_conns; ++c) {
      chaos_workers.emplace_back(serve::RunChaosWorker, host, port, chaos_plan,
                                 items, deadline, static_cast<uint64_t>(c + 1),
                                 &chaos_stats);
    }
  }
  uint64_t published_ok = 0;
  uint64_t published_corrupt = 0;
  std::thread publisher;
  if (storm) {
    publisher = std::thread([&] {
      for (uint64_t n = 1; MonotonicNanos() < deadline; ++n) {
        const bool corrupt = n % kCorruptEvery == 0;
        const std::string token =
            (corrupt ? "bad-" : "storm-") + std::to_string(n);
        const Status st =
            corrupt ? PublishCorruptArena(reload_dir, token, seed + n)
                    : serve::PublishSynthArena(reload_dir, token,
                                               initial.num_items, initial.dim,
                                               seed + n, /*with_int8=*/true);
        if (st.ok()) {
          corrupt ? ++published_corrupt : ++published_ok;
        } else {
          std::cerr << "publish " << token << " failed: " << st.ToString()
                    << "\n";
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kPublishIntervalMs));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (auto& w : chaos_workers) w.join();
  if (publisher.joinable()) publisher.join();
  const double elapsed =
      static_cast<double>(MonotonicNanos() - t_start) * 1e-9;

  WorkerStats total;
  for (auto& s : stats) {
    total.completed += s.completed;
    total.busy += s.busy;
    total.bad += s.bad;
    total.deadline += s.deadline;
    total.timeouts += s.timeouts;
    total.retries += s.retries;
    total.errors += s.errors;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              s.latencies_ms.begin(), s.latencies_ms.end());
  }
  const double actual_qps =
      elapsed > 0 ? static_cast<double>(total.completed) / elapsed : 0.0;
  const double p50 = Quantile(total.latencies_ms, 0.50);
  const double p90 = Quantile(total.latencies_ms, 0.90);
  const double p99 = Quantile(total.latencies_ms, 0.99);
  const double pmax =
      total.latencies_ms.empty()
          ? 0.0
          : *std::max_element(total.latencies_ms.begin(),
                              total.latencies_ms.end());

  const std::string name = flags.GetString("name", mode);
  std::printf(
      "%s: %llu ok, %llu busy, %llu bad, %llu deadline, %llu timeouts, "
      "%llu retries, %llu errors in %.2fs "
      "(%.0f qps) latency ms p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
      name.c_str(), static_cast<unsigned long long>(total.completed),
      static_cast<unsigned long long>(total.busy),
      static_cast<unsigned long long>(total.bad),
      static_cast<unsigned long long>(total.deadline),
      static_cast<unsigned long long>(total.timeouts),
      static_cast<unsigned long long>(total.retries),
      static_cast<unsigned long long>(total.errors), elapsed, actual_qps, p50,
      p90, p99, pmax);

  // After a chaos run or a reload storm the server must still be alive and
  // answering: one final HEALTH probe on a fresh connection decides
  // pass/fail together with the per-attack probe tallies and, for a storm,
  // whether the served version advanced.
  bool chaos_failed = false;
  serve::HealthInfo final_health;
  if (chaos_plan.Active()) {
    std::printf(
        "chaos: %llu attacks (%llu disconnect, %llu garbage, %llu truncate, "
        "%llu slowloris, %llu churn) probes ok=%llu failed=%llu\n",
        static_cast<unsigned long long>(chaos_stats.attacks.load()),
        static_cast<unsigned long long>(chaos_stats.disconnects.load()),
        static_cast<unsigned long long>(chaos_stats.garbage.load()),
        static_cast<unsigned long long>(chaos_stats.truncated.load()),
        static_cast<unsigned long long>(chaos_stats.slowloris.load()),
        static_cast<unsigned long long>(chaos_stats.churns.load()),
        static_cast<unsigned long long>(chaos_stats.probes_ok.load()),
        static_cast<unsigned long long>(chaos_stats.probes_failed.load()));
    chaos_failed = chaos_stats.probes_failed.load() > 0;
  }
  if (chaos_plan.Active() || storm) {
    if (!ReadyHealth(host, port, &final_health)) {
      std::fprintf(stderr, "final health probe FAILED\n");
      chaos_failed = true;
    } else {
      std::printf("final health ok (model v%llu, %u items)\n",
                  static_cast<unsigned long long>(final_health.model_version),
                  final_health.num_items);
    }
  }
  if (storm) {
    std::printf("reload storm: published %llu good + %llu corrupt versions, "
                "served v%llu -> v%llu\n",
                static_cast<unsigned long long>(published_ok),
                static_cast<unsigned long long>(published_corrupt),
                static_cast<unsigned long long>(initial.model_version),
                static_cast<unsigned long long>(final_health.model_version));
    if (published_ok > 0 &&
        final_health.model_version <= initial.model_version) {
      std::fprintf(stderr, "reload storm: the served version never advanced\n");
      chaos_failed = true;
    }
  }

  if (flags.Has("json_out")) {
    const std::string path = flags.GetString("json_out", "");
    auto out = AtomicFile::Create(path);
    Status st = out.status();
    if (st.ok()) {
      const int wrote = std::fprintf(
          out->stream(),
          "{\"name\": \"%s\", \"mode\": \"%s\", \"connections\": %u, "
          "\"duration_s\": %.3f, \"completed\": %llu, \"busy\": %llu, "
          "\"bad\": %llu, \"deadline\": %llu, \"timeouts\": %llu, "
          "\"retries\": %llu, \"errors\": %llu, \"qps\": %.1f, "
          "\"p50_ms\": %.4f, \"p90_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"max_ms\": %.4f, \"chaos_attacks\": %llu, "
          "\"chaos_probes_ok\": %llu, \"chaos_probes_failed\": %llu, "
          "\"published_ok\": %llu, \"published_corrupt\": %llu, "
          "\"model_version_start\": %llu, \"model_version_end\": %llu}\n",
          name.c_str(), mode.c_str(), conns, elapsed,
          static_cast<unsigned long long>(total.completed),
          static_cast<unsigned long long>(total.busy),
          static_cast<unsigned long long>(total.bad),
          static_cast<unsigned long long>(total.deadline),
          static_cast<unsigned long long>(total.timeouts),
          static_cast<unsigned long long>(total.retries),
          static_cast<unsigned long long>(total.errors), actual_qps, p50, p90,
          p99, pmax,
          static_cast<unsigned long long>(chaos_stats.attacks.load()),
          static_cast<unsigned long long>(chaos_stats.probes_ok.load()),
          static_cast<unsigned long long>(chaos_stats.probes_failed.load()),
          static_cast<unsigned long long>(published_ok),
          static_cast<unsigned long long>(published_corrupt),
          static_cast<unsigned long long>(initial.model_version),
          static_cast<unsigned long long>(final_health.model_version));
      st = wrote < 0 ? Status::IOError("cannot write " + path)
                     : out->Commit();
    }
    if (!st.ok()) {
      std::cerr << "cannot write --json_out: " << st.ToString() << "\n";
      return 1;
    }
  }
  return (total.errors > 0 || total.completed == 0 || chaos_failed) ? 1 : 0;
}
