#include "core/candidate_table.h"

#include <cstdio>
#include <numeric>

#include "common/io_util.h"

namespace sisg {

Status CandidateTable::Build(const MatchingEngine& engine, uint32_t k,
                             uint32_t num_threads) {
  if (k == 0) return Status::InvalidArgument("candidate table: k must be > 0");
  if (engine.num_items() == 0) {
    return Status::FailedPrecondition("candidate table: engine not built");
  }
  k_ = k;
  // One batched multi-query call: fixed blocks of items, each one coalesced
  // pass over the candidate block, fanned out over a thread pool; every row
  // equals engine.Query(item, k).
  std::vector<uint32_t> items(engine.num_items());
  std::iota(items.begin(), items.end(), 0u);
  table_ = engine.QueryBatch(items, k, num_threads);
  return Status::OK();
}

const std::vector<ScoredId>& CandidateTable::Get(uint32_t item) const {
  static const auto& kEmpty = *new std::vector<ScoredId>();
  if (item >= table_.size()) return kEmpty;
  return table_[item];
}

Status CandidateTable::SaveText(const std::string& path) const {
  SISG_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));
  std::FILE* f = file.stream();
  bool ok = true;
  for (uint32_t item = 0; item < table_.size(); ++item) {
    if (table_[item].empty()) continue;
    ok = ok && std::fprintf(f, "%u\t", item) > 0;
    for (size_t i = 0; i < table_[item].size(); ++i) {
      ok = ok && std::fprintf(f, "%s%u:%.6f", i > 0 ? " " : "",
                              table_[item][i].id, table_[item][i].score) > 0;
    }
    ok = ok && std::fputc('\n', f) != EOF;
  }
  if (!ok) return Status::IOError("write failed: " + path);
  return file.Commit();
}

}  // namespace sisg
