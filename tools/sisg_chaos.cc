// sisg_chaos — fault-injecting client for sisg_serve. Points the seeded
// chaos harness (serve/chaos.h) at a live server: mid-frame disconnects,
// garbage frames, truncated headers, slow-loris dribbles and connection
// churn, each attack followed by an honest probe query that must keep
// succeeding. Optionally drives a reload storm at the same time: publishes
// fresh synthetic model versions into --reload_dir (the directory the
// server watches via --watch_dir), interleaving deliberately corrupt
// artifacts so validated rollback is exercised under fire.
//
//   sisg_chaos --port 7411 --modes all --connections 4 --duration 10
//   sisg_chaos --port 7411 --modes disconnect,truncate
//              --reload_dir /tmp/watch --reload_interval_ms 300
//              --corrupt_every 3 --duration 15 --json_out chaos_row.json
//
// Exit code 0 means the server survived: every probe answered, the final
// HEALTH frame reports ready, and — when a reload storm ran — the served
// model version advanced past where it started (hot swaps really landed)
// while corrupt publishes did NOT take the server down. Anything else is 1.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "serve/chaos.h"
#include "serve/client.h"

using namespace sisg;

namespace {

/// A publish that must be REJECTED: a syntactically present but garbage
/// arena artifact behind an honest LATEST pointer. The watching server has
/// to fail validation, keep the old snapshot, and bump reload_failed.
Status PublishCorruptArena(const std::string& dir, const std::string& token,
                           uint64_t seed) {
  Rng rng(seed);
  std::string junk(512, '\0');
  for (char& b : junk) b = static_cast<char>(rng.Next());
  SISG_RETURN_IF_ERROR(WriteFileAtomic(dir + "/" + token + ".arena", junk));
  return WriteFileAtomic(dir + "/LATEST", token + "\n");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (auto st = flags.Parse(
          argc, argv,
          {"host", "port", "modes", "connections", "duration", "items", "dim",
           "int8", "reload_dir", "reload_interval_ms", "corrupt_every", "seed",
           "json_out", "help"});
      !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("port")) {
    std::cout
        << "usage: sisg_chaos --port P [options]\n"
           "  --host ADDR          server address (default 127.0.0.1)\n"
           "  --modes SPEC         disconnect|garbage|truncate|slowloris|\n"
           "                       churn|all plus seed=N (default all)\n"
           "  --connections N      chaos workers (default 4)\n"
           "  --duration S         seconds to run (default 10)\n"
           "  --items N            probe item space (default: ask HEALTH)\n"
           "  --reload_dir DIR     also storm-publish model versions here\n"
           "  --reload_interval_ms MS  publish cadence (default 500)\n"
           "  --corrupt_every K    every Kth publish is garbage (default 3;\n"
           "                       0 = never corrupt)\n"
           "  --dim D              published synth dim (default 64)\n"
           "  --int8               also publish int8 code arenas\n"
           "  --seed S             chaos + publish seed (default 1234)\n"
           "  --json_out FILE      write one result row as JSON\n";
    return flags.Has("port") ? 0 : 2;
  }

  const std::string host = flags.GetString("host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(flags.GetInt64("port", 0));
  const auto conns = std::max<uint32_t>(
      1, static_cast<uint32_t>(flags.GetInt64("connections", 4)));
  const double duration = static_cast<double>(flags.GetInt64("duration", 10));
  const auto seed = static_cast<uint64_t>(flags.GetInt64("seed", 1234));
  const std::string reload_dir = flags.GetString("reload_dir", "");
  const auto reload_interval_ms = std::max<uint32_t>(
      10, static_cast<uint32_t>(flags.GetInt64("reload_interval_ms", 500)));
  const auto corrupt_every =
      static_cast<uint32_t>(flags.GetInt64("corrupt_every", 3));
  const auto dim =
      std::max<uint32_t>(1, static_cast<uint32_t>(flags.GetInt64("dim", 64)));
  const bool with_int8 = flags.GetBool("int8", false);

  auto plan_or = serve::ChaosPlan::Parse(flags.GetString("modes", "all"));
  if (!plan_or.ok()) {
    std::cerr << plan_or.status().ToString() << "\n";
    return 2;
  }
  serve::ChaosPlan plan = *plan_or;
  if (!flags.Has("modes")) {
    plan.mid_frame_disconnect = plan.garbage_frames = plan.truncated_frames =
        plan.slowloris = plan.connection_churn = true;
  }
  plan.seed = seed;

  // Baseline: the server must be up before chaos starts, and HEALTH tells
  // us the item space plus the version the storm has to move past.
  serve::ClientOptions copt;
  copt.connect_timeout_ms = 5000;
  copt.io_timeout_ms = 5000;
  serve::HealthInfo initial;
  {
    auto probe = serve::ServeClient::Connect(host, port, copt);
    if (!probe.ok()) {
      std::cerr << "cannot reach server: " << probe.status().ToString()
                << "\n";
      return 1;
    }
    if (auto st = probe->Health(&initial); !st.ok()) {
      std::cerr << "initial HEALTH failed: " << st.ToString() << "\n";
      return 1;
    }
    if (!initial.ready) {
      std::cerr << "server reports not ready before chaos even started\n";
      return 1;
    }
  }
  const auto items = flags.Has("items")
                         ? static_cast<uint32_t>(flags.GetInt64("items", 0))
                         : initial.num_items;

  const uint64_t deadline =
      MonotonicNanos() + static_cast<uint64_t>(duration * 1e9);
  std::printf("chaos: %u workers (%s) against %s:%u, %u items, model v%llu\n",
              conns, plan.ToString().c_str(), host.c_str(), port, items,
              static_cast<unsigned long long>(initial.model_version));

  serve::ChaosStats stats;
  std::vector<std::thread> workers;
  workers.reserve(conns);
  for (uint32_t c = 0; c < conns; ++c) {
    workers.emplace_back(serve::RunChaosWorker, host, port, plan, items,
                         deadline, static_cast<uint64_t>(c + 1), &stats);
  }

  uint64_t published_ok = 0;
  uint64_t published_corrupt = 0;
  std::thread publisher;
  if (!reload_dir.empty()) {
    publisher = std::thread([&] {
      uint64_t n = 0;
      while (MonotonicNanos() < deadline) {
        ++n;
        const bool corrupt = corrupt_every > 0 && n % corrupt_every == 0;
        const std::string token =
            (corrupt ? "bad-" : "chaos-") + std::to_string(n);
        const Status st =
            corrupt ? PublishCorruptArena(reload_dir, token, seed + n)
                    : serve::PublishSynthArena(reload_dir, token, items, dim,
                                               seed + n, with_int8);
        if (st.ok()) {
          corrupt ? ++published_corrupt : ++published_ok;
        } else {
          std::cerr << "publish " << token << " failed: " << st.ToString()
                    << "\n";
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(reload_interval_ms));
      }
    });
  }

  for (auto& w : workers) w.join();
  if (publisher.joinable()) publisher.join();

  // Verdict: every interleaved probe answered, the server still reports
  // ready, and — when a storm ran — the version gauge really moved.
  bool failed = stats.probes_failed.load() > 0;
  serve::HealthInfo final_health;
  {
    auto probe = serve::ServeClient::Connect(host, port, copt);
    if (!probe.ok() || !probe->Health(&final_health).ok() ||
        !final_health.ready) {
      std::cerr << "final HEALTH probe failed\n";
      failed = true;
    }
  }
  if (!reload_dir.empty() && published_ok > 0 &&
      final_health.model_version <= initial.model_version) {
    std::cerr << "reload storm published " << published_ok
              << " good versions but the served version never advanced (v"
              << initial.model_version << " -> v"
              << final_health.model_version << ")\n";
    failed = true;
  }

  std::printf(
      "chaos: %llu attacks (%llu disconnect, %llu garbage, %llu truncate, "
      "%llu slowloris, %llu churn) probes ok=%llu failed=%llu\n",
      static_cast<unsigned long long>(stats.attacks.load()),
      static_cast<unsigned long long>(stats.disconnects.load()),
      static_cast<unsigned long long>(stats.garbage.load()),
      static_cast<unsigned long long>(stats.truncated.load()),
      static_cast<unsigned long long>(stats.slowloris.load()),
      static_cast<unsigned long long>(stats.churns.load()),
      static_cast<unsigned long long>(stats.probes_ok.load()),
      static_cast<unsigned long long>(stats.probes_failed.load()));
  if (!reload_dir.empty()) {
    std::printf("chaos: published %llu good + %llu corrupt versions, served "
                "v%llu -> v%llu\n",
                static_cast<unsigned long long>(published_ok),
                static_cast<unsigned long long>(published_corrupt),
                static_cast<unsigned long long>(initial.model_version),
                static_cast<unsigned long long>(final_health.model_version));
  }
  std::printf("chaos: %s\n", failed ? "FAILED" : "survived");

  if (flags.Has("json_out")) {
    const std::string path = flags.GetString("json_out", "");
    auto out = AtomicFile::Create(path);
    Status st = out.status();
    if (st.ok()) {
      const int wrote = std::fprintf(
          out->stream(),
          "{\"attacks\": %llu, \"probes_ok\": %llu, \"probes_failed\": %llu, "
          "\"published_ok\": %llu, \"published_corrupt\": %llu, "
          "\"model_version_start\": %llu, \"model_version_end\": %llu, "
          "\"survived\": %s}\n",
          static_cast<unsigned long long>(stats.attacks.load()),
          static_cast<unsigned long long>(stats.probes_ok.load()),
          static_cast<unsigned long long>(stats.probes_failed.load()),
          static_cast<unsigned long long>(published_ok),
          static_cast<unsigned long long>(published_corrupt),
          static_cast<unsigned long long>(initial.model_version),
          static_cast<unsigned long long>(final_health.model_version),
          failed ? "false" : "true");
      st = wrote < 0 ? Status::IOError("cannot write " + path)
                     : out->Commit();
    }
    if (!st.ok()) {
      std::cerr << "cannot write --json_out: " << st.ToString() << "\n";
      return 1;
    }
  }
  return failed ? 1 : 0;
}
