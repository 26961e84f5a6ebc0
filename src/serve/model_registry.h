#ifndef SISG_SERVE_MODEL_REGISTRY_H_
#define SISG_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/matching_engine.h"

namespace sisg::serve {

/// One immutable published model version: the fully built MatchingEngine
/// (embedding block + id map + any int8/IVF/HNSW state it carries) plus the
/// version/source bookkeeping the serving layer reports. A snapshot is
/// frozen at publish time — nothing mutates it afterwards, which is what
/// makes handing `const` references to concurrent batch scans safe. The
/// snapshot owns its engine, so the engine lives exactly as long as the
/// last holder of the snapshot.
class ServingSnapshot {
 public:
  const MatchingEngine& engine() const { return *engine_; }
  /// Monotonic version assigned by the registry at publish time (1-based).
  uint64_t version() const { return version_; }
  /// Where the model came from (artifact path / "startup"), for logs.
  const std::string& source() const { return source_; }

 private:
  friend class ModelRegistry;
  ServingSnapshot(std::unique_ptr<const MatchingEngine> engine,
                  std::string source)
      : engine_(std::move(engine)), source_(std::move(source)) {}

  std::unique_ptr<const MatchingEngine> engine_;
  uint64_t version_ = 0;
  std::string source_;
};

using SnapshotPtr = std::shared_ptr<const ServingSnapshot>;

/// RCU-style holder of the live model. Readers (I/O threads answering
/// HEALTH, ring threads scanning a lap) call Acquire() — a
/// shared_ptr copy under an uncontended mutex, one CAS, never blocks on
/// model-build work (writers construct and validate the snapshot entirely
/// outside the lock and only swap a pointer inside it). An old snapshot
/// stays alive for exactly as long as some in-flight batch still holds its
/// SnapshotPtr; the last release frees it — a swap mid-QueryBatchCoalesced
/// is safe by construction.
///
/// Deliberately a mutex, not std::atomic<shared_ptr>: libstdc++'s
/// _Sp_atomic is itself a pointer-bit spinlock, and its load() releases
/// that spinlock with a relaxed RMW — formally unordered against the next
/// store()'s critical section (TSan reports it; GCC 12). Same cost, none
/// of the subtlety.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The current snapshot, or nullptr before the first publish. The caller
  /// keeps the returned pointer for the duration of one batch / one reply —
  /// holding it longer only delays retirement of replaced versions.
  SnapshotPtr Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Publishes an engine the registry owns from now on. Returns the
  /// assigned version. The caller must have fully validated the engine —
  /// the registry trusts what it is given.
  uint64_t PublishOwned(std::unique_ptr<const MatchingEngine> engine,
                        std::string source);

  /// Version of the live snapshot (0 = nothing published yet).
  uint64_t version() const {
    const SnapshotPtr snap = Acquire();
    return snap ? snap->version() : 0;
  }

 private:
  mutable std::mutex mu_;
  SnapshotPtr current_;
  std::atomic<uint64_t> next_version_{1};
};

}  // namespace sisg::serve

#endif  // SISG_SERVE_MODEL_REGISTRY_H_
