#ifndef SISG_CORE_SISG_CONFIG_H_
#define SISG_CORE_SISG_CONFIG_H_

#include <cstdint>
#include <string>

#include "dist/distributed_trainer.h"
#include "sgns/trainer.h"

namespace sisg {

/// One of the model variants evaluated in Table III.
enum class SisgVariant {
  kSgns,     // items only, symmetric — the classic baseline
  kSisgF,    // + item SI
  kSisgU,    // + user types (no item SI)
  kSisgFU,   // + item SI + user types
  kSisgFUD,  // + item SI + user types + directional (asymmetric) sampling
};

const char* SisgVariantName(SisgVariant v);

/// Full configuration of one SISG training run.
struct SisgConfig {
  SisgVariant variant = SisgVariant::kSisgFUD;
  SgnsOptions sgns;
  uint32_t min_count = 1;

  /// Threads for corpus construction (enrich + count + encode). 0 = hardware
  /// concurrency. The corpus is byte-identical for every value.
  uint32_t ingest_threads = 1;

  /// When non-empty, the built corpus + vocabulary are cached as
  /// `<prefix>.corpus` / `<prefix>.vocab`; a later run with the same enrich
  /// options and min_count loads them (checksummed) instead of rebuilding.
  std::string corpus_cache;

  /// When true the pipeline trains on the simulated distributed engine
  /// (HBGP item partitioning + ATNS) instead of the local hogwild trainer.
  bool distributed = false;
  DistOptions dist;

  /// Fault tolerance: when `checkpoint_dir` is set the pipeline snapshots
  /// model + trainer progress there every `checkpoint_interval` work slots
  /// (one slot = one sequence of one epoch, for both trainers; 0 = about 8
  /// snapshots per run) and, with `resume`, continues training from the
  /// newest checkpoint instead of starting over (a directory with no
  /// checkpoint yet starts fresh). Fault injection for the distributed
  /// engine is configured via `dist.fault`.
  std::string checkpoint_dir;
  uint64_t checkpoint_interval = 0;
  bool resume = false;

  /// Whether the variant injects item SI tokens.
  bool UseItemSi() const {
    return variant == SisgVariant::kSisgF || variant == SisgVariant::kSisgFU ||
           variant == SisgVariant::kSisgFUD;
  }
  /// Whether the variant injects user-type tokens.
  bool UseUserTypes() const {
    return variant == SisgVariant::kSisgU || variant == SisgVariant::kSisgFU ||
           variant == SisgVariant::kSisgFUD;
  }
  /// Whether pairs are sampled from the right context window only.
  bool Directional() const { return variant == SisgVariant::kSisgFUD; }
};

}  // namespace sisg

#endif  // SISG_CORE_SISG_CONFIG_H_
