// sisg_serve — long-lived TCP serving process. Loads a frozen arena (what
// `sisg_query --save_arena` writes and the reloader hot-swaps), or a
// deterministic synthetic corpus for benches, then shares the SIMD scan
// among concurrent single-item requests: each joins the running scan ring at
// its next chunk and is answered when its lap ends.
//
//   sisg_serve --arena /tmp/serve --quant int8 --port 7411
//   sisg_serve --synth_items 20000 --synth_dim 128 --max_batch 32
//              --metrics_out /tmp/serve_metrics.json
//   sisg_serve --arena /tmp/serve --watch_dir /tmp/serve
//              --reload_interval_ms 500 --port_file /tmp/port
//
// With --watch_dir the process hot-swaps models without restarting: a
// background reloader polls <dir>/LATEST and, when the token changes, loads
// + validates the new artifacts off the serving path and atomically
// publishes them; a bad deploy rolls back to the serving snapshot and the
// process keeps answering. --port_file is written only after the listener
// is accepting AND the initial snapshot passed the same validation gate, so
// "port file exists" means "ready for traffic".
//
// Runs until SIGTERM/SIGINT, then drains gracefully: stops accepting,
// flushes every queued request through the scan path, pushes pending
// responses out, writes --metrics_out through the shared export path, and
// exits 0.

#include <signal.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/matching_engine.h"
#include "serve/chaos.h"
#include "serve/model_registry.h"
#include "serve/reloader.h"
#include "serve/server.h"
#include "tools/tool_common.h"

using namespace sisg;

namespace {

/// The --arena artifacts through the serving loader, or the --synth_items
/// corpus through its quant-and-validate step.
StatusOr<MatchingEngine> LoadStartupVersion(const FlagParser& flags,
                                            const std::string& quant,
                                            bool use_mmap) {
  if (flags.Has("arena")) {
    return serve::LoadServingVersion(flags.GetString("arena", ""), quant,
                                     use_mmap);
  }
  SISG_ASSIGN_OR_RETURN(
      MatchingEngine engine,
      serve::BuildSynthEngine(
          static_cast<uint32_t>(flags.GetInt64("synth_items", 0)),
          static_cast<uint32_t>(flags.GetInt64("synth_dim", 128)),
          static_cast<uint64_t>(flags.GetInt64("synth_seed", 42))));
  SISG_RETURN_IF_ERROR(
      serve::PrepareServingEngine(&engine, quant, "", use_mmap));
  return engine;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  const std::vector<std::string> known = {
      "host", "port", "port_file", "arena", "quant", "mmap", "synth_items",
      "synth_dim", "synth_seed", "io_threads", "max_connections", "max_batch",
      "max_wait_us", "queue_capacity", "dispatch_threads", "scan_threads",
      "deadline_ms", "idle_timeout_ms", "watch_dir", "reload_interval_ms",
      "metrics_out", "metrics_interval", "help"};
  if (auto st = flags.Parse(argc, argv, known); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  const bool has_source = flags.Has("arena") || flags.Has("synth_items");
  if (flags.GetBool("help", false) || !has_source) {
    std::cout
        << "usage: sisg_serve (--arena PREFIX | --synth_items N) [options]\n"
           "  --host ADDR         bind address (default 127.0.0.1)\n"
           "  --port P            TCP port; 0 picks an ephemeral port\n"
           "  --port_file FILE    write the bound port (scripts/tests)\n"
           "  --quant fp32|int8|pq  candidate-scan precision\n"
           "  --mmap              map arena artifacts instead of loading\n"
           "  --synth_items N --synth_dim D --synth_seed S\n"
           "                      serve a deterministic random corpus\n"
           "  --io_threads N      epoll front-end threads (default 2)\n"
           "  --max_connections N concurrent connection cap (default 1024)\n"
           "  --max_batch N       requests riding the scan ring at once\n"
           "                      (default 32)\n"
           "  --max_wait_us U     an idle ring waits up to U us after the\n"
           "                      first request for max_batch more before\n"
           "                      it starts (default 0: start at once)\n"
           "  --queue_capacity N  admission bound; full -> BUSY (default "
           "1024)\n"
           "  --dispatch_threads N  dispatchers (default 1)\n"
           "  --scan_threads N    rings per dispatcher: dispatch_threads x\n"
           "                      scan_threads rings, one thread each\n"
           "                      (default 1)\n"
           "  --deadline_ms MS    shed queued requests older than this with\n"
           "                      a typed DEADLINE reply (0 = off)\n"
           "  --idle_timeout_ms MS  evict silent / stalled-frame\n"
           "                      connections (slow-loris; 0 = off)\n"
           "  --watch_dir DIR     hot-swap: poll DIR/LATEST and atomically\n"
           "                      publish validated new model versions\n"
           "  --reload_interval_ms MS  LATEST poll cadence (default 1000)\n"
           "  --metrics_out FILE  export on drain (.prom -> Prometheus)\n"
           "  --metrics_interval SECONDS  periodic sampler\n";
    return has_source ? 0 : 2;
  }

  const std::string quant = flags.GetString("quant", "fp32");
  const bool use_mmap = flags.GetBool("mmap", false);

  // Block the shutdown signals in every thread the server will spawn; the
  // main thread collects them with sigwait below, so "kill -TERM" turns into
  // a graceful drain instead of sudden death.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  tools::ToolMetrics metrics = tools::ToolMetrics::FromFlags(flags);

  // The startup version goes through the same loader, quant step and
  // validation gate as every hot reload: a process that cannot serve the
  // --quant it was asked for, or fails its own canaries, exits 1 and never
  // advertises readiness via --port_file.
  StatusOr<MatchingEngine> engine = LoadStartupVersion(flags, quant, use_mmap);
  if (!engine.ok()) {
    std::cerr << "startup version rejected: " << engine.status().ToString()
              << "\n";
    return 1;
  }

  serve::ServerOptions opts;
  opts.host = flags.GetString("host", "127.0.0.1");
  opts.port = static_cast<uint16_t>(flags.GetInt64("port", 0));
  opts.io_threads = static_cast<uint32_t>(flags.GetInt64("io_threads", 2));
  opts.max_connections =
      static_cast<uint32_t>(flags.GetInt64("max_connections", 1024));
  opts.batch.max_batch =
      static_cast<uint32_t>(flags.GetInt64("max_batch", 32));
  opts.batch.max_wait_us =
      static_cast<uint32_t>(flags.GetInt64("max_wait_us", 0));
  opts.batch.queue_capacity =
      static_cast<uint32_t>(flags.GetInt64("queue_capacity", 1024));
  // A ring thread per dispatcher per scan thread: the two flags multiply.
  opts.batch.ring_threads = static_cast<uint32_t>(
      std::max<int64_t>(1, flags.GetInt64("dispatch_threads", 1)) *
      std::max<int64_t>(1, flags.GetInt64("scan_threads", 1)));
  opts.batch.deadline_us =
      static_cast<uint32_t>(flags.GetInt64("deadline_ms", 0)) * 1000;
  opts.idle_timeout_ms =
      static_cast<uint32_t>(flags.GetInt64("idle_timeout_ms", 0));

  serve::ReloaderOptions ropts;
  ropts.watch_dir = flags.GetString("watch_dir", "");
  ropts.poll_interval_ms =
      static_cast<uint32_t>(flags.GetInt64("reload_interval_ms", 1000));
  ropts.use_mmap = use_mmap;
  ropts.quant = quant;

  serve::ModelRegistry registry;
  registry.PublishOwned(
      std::make_unique<MatchingEngine>(std::move(engine).value()), "startup");
  serve::ServeServer server(&registry, opts);
  if (auto st = server.Start(); !st.ok()) {
    std::cerr << "server start failed: " << st.ToString() << "\n";
    return 1;
  }
  serve::ModelReloader reloader(&registry, ropts);
  if (!ropts.watch_dir.empty()) {
    if (auto st = reloader.Start(); !st.ok()) {
      std::cerr << "reloader start failed: " << st.ToString() << "\n";
      server.Shutdown();
      return 1;
    }
  }
  {
    // Scoped: a held snapshot would keep the startup model alive after the
    // first reload retires it.
    const serve::SnapshotPtr startup = registry.Acquire();
    std::cout << "serving " << startup->engine().num_items() << " items (dim "
              << startup->engine().dim() << ", quant " << quant << ") on "
              << opts.host << ":" << server.port() << "\n";
  }
  std::cout.flush();
  // Written only now: listener accepting, initial snapshot validated.
  if (flags.Has("port_file")) {
    const std::string pf = flags.GetString("port_file", "");
    if (FILE* f = std::fopen(pf.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
    } else {
      std::cerr << "cannot write --port_file " << pf << "\n";
      reloader.Stop();
      server.Shutdown();
      return 1;
    }
  }

  int signo = 0;
  sigwait(&sigs, &signo);
  std::cout << "caught signal " << signo << ", draining...\n";
  reloader.Stop();
  server.Shutdown();
  // Same export path the offline tools use: drain -> WriteMetricsFile.
  return metrics.Finish();
}
