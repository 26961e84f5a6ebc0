#ifndef SISG_CORE_CANDIDATE_TABLE_H_
#define SISG_CORE_CANDIDATE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/top_k.h"
#include "core/matching_engine.h"

namespace sisg {

/// The precomputed item -> top-K candidates table that the production
/// matching stage actually serves from (Section I: "a candidate set of
/// similar items is obtained for each item"). Built once per training run,
/// then lookups are O(1).
class CandidateTable {
 public:
  CandidateTable() = default;

  /// Scans every item against the engine; `num_threads` parallelizes the
  /// brute-force scans.
  Status Build(const MatchingEngine& engine, uint32_t k,
               uint32_t num_threads = 1);

  uint32_t num_items() const { return static_cast<uint32_t>(table_.size()); }
  uint32_t k() const { return k_; }

  /// Candidates for an item, best first; empty for untrained items.
  const std::vector<ScoredId>& Get(uint32_t item) const;

  /// Tab-separated export: "item\tcand:score cand:score ...", published
  /// atomically (AtomicFile), so a failed export leaves `path` untouched.
  Status SaveText(const std::string& path) const;

 private:
  uint32_t k_ = 0;
  std::vector<std::vector<ScoredId>> table_;
};

}  // namespace sisg

#endif  // SISG_CORE_CANDIDATE_TABLE_H_
