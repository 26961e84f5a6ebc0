// pipebench_driver — the measuring half of the pipeline benchmark.
//
//   pipebench_driver gen --workload W --seed S --dir D
//   pipebench_driver run --workload W --seed S --seconds T --trace 0|1
//                        --dir D [--serve_bin PATH]
//
// `gen` writes the workload's inputs (session files, serving arenas) into D
// from the seed alone; it runs as its own process so input generation
// counts toward no metric, peak memory included. `run` measures them and
// prints the result as the last stdout line. pipebench/run.py drives both.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, pipebench::Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--serve_bin") {
      args->serve_bin = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return false;
    }
  }
  return (args->mode == "gen" || args->mode == "run") &&
         !args->workload.empty() && !args->dir.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: pipebench_driver gen|run --workload W --seed S "
                 "--dir D [--seconds T --trace 0|1 --serve_bin PATH]\n";
    return 2;
  }
  if (pipebench::HostCores() < pipebench::kThreadBudget) {
    std::cerr << "thread budget " << pipebench::kThreadBudget
              << " exceeds this host's " << pipebench::HostCores()
              << " cores; refusing to measure an oversubscribed run\n";
    return 2;
  }
  const bool offline =
      args.workload == "ingest" || args.workload == "train_publish";
  const bool serving = args.workload == "serve_reload";
  if (!offline && !serving) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (args.mode == "gen") {
    return offline ? pipebench::GenOffline(args) : pipebench::GenServing(args);
  }
  return offline ? pipebench::RunOffline(args) : pipebench::RunServing(args);
}
