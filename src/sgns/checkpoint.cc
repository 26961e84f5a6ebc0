#include "sgns/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/io_util.h"
#include "common/logging.h"

namespace sisg {
namespace {

constexpr char kProgressKind[] = "TRNPROG";
// Version 1 files carried a second position field; ReadProgress rejects
// them rather than resume at a misread position.
constexpr uint32_t kProgressVersion = 2;

// Sanity bounds on header counts so a corrupt-but-checksummed state file
// (wrong version of the writer, hand-edited) cannot trigger huge allocations.
constexpr uint32_t kMaxRngStreams = 1u << 16;
constexpr uint32_t kMaxDeadWorkers = 1u << 16;

std::string EmbPath(const std::string& dir, uint64_t seq) {
  return dir + "/ckpt-" + std::to_string(seq) + ".emb";
}
std::string StatePath(const std::string& dir, uint64_t seq) {
  return dir + "/ckpt-" + std::to_string(seq) + ".state";
}
std::string LatestPath(const std::string& dir) { return dir + "/LATEST"; }

Status MakeDirs(const std::string& dir) {
  // mkdir -p: create each prefix; EEXIST is fine.
  std::string prefix;
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create directory " + prefix + ": " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

Status WriteProgress(const std::string& path, const TrainProgress& p) {
  SISG_ASSIGN_OR_RETURN(
      ArtifactWriter w, ArtifactWriter::Open(path, kProgressKind, kProgressVersion));
  SISG_RETURN_IF_ERROR(w.WriteScalar(p.next_work));
  SISG_RETURN_IF_ERROR(w.WriteScalar(p.processed_tokens));
  SISG_RETURN_IF_ERROR(w.WriteScalar(p.pairs_trained));
  SISG_RETURN_IF_ERROR(w.WriteScalar(p.tokens_kept));
  const uint32_t num_rng = static_cast<uint32_t>(p.rng_states.size());
  SISG_RETURN_IF_ERROR(w.WriteScalar(num_rng));
  for (const auto& s : p.rng_states) {
    SISG_RETURN_IF_ERROR(w.Write(s.data(), sizeof(uint64_t) * 4));
  }
  const uint32_t num_dead = static_cast<uint32_t>(p.dead_workers.size());
  SISG_RETURN_IF_ERROR(w.WriteScalar(num_dead));
  SISG_RETURN_IF_ERROR(
      w.Write(p.dead_workers.data(), num_dead * sizeof(uint32_t)));
  return w.Commit();
}

Status ReadProgress(const std::string& path, TrainProgress* p) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(path, kProgressKind));
  if (r.version() != kProgressVersion) {
    return Status::InvalidArgument("checkpoint: unsupported progress version " +
                                   std::to_string(r.version()) + " in " + path);
  }
  SISG_RETURN_IF_ERROR(r.ReadScalar(&p->next_work));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&p->processed_tokens));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&p->pairs_trained));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&p->tokens_kept));
  uint32_t num_rng = 0;
  SISG_RETURN_IF_ERROR(r.ReadScalar(&num_rng));
  if (num_rng > kMaxRngStreams) {
    return Status::InvalidArgument("checkpoint: implausible rng stream count " +
                                   std::to_string(num_rng) + " in " + path);
  }
  p->rng_states.resize(num_rng);
  for (auto& s : p->rng_states) {
    SISG_RETURN_IF_ERROR(r.Read(s.data(), sizeof(uint64_t) * 4));
  }
  uint32_t num_dead = 0;
  SISG_RETURN_IF_ERROR(r.ReadScalar(&num_dead));
  if (num_dead > kMaxDeadWorkers) {
    return Status::InvalidArgument("checkpoint: implausible dead worker count " +
                                   std::to_string(num_dead) + " in " + path);
  }
  p->dead_workers.resize(num_dead);
  SISG_RETURN_IF_ERROR(
      r.Read(p->dead_workers.data(), num_dead * sizeof(uint32_t)));
  return Status::OK();
}

/// Reads the LATEST pointer; 0 when absent. A pointer that exists but
/// names no checkpoint sequence is DataLoss: reading it as "none" would
/// restart the job and overwrite ckpt-1.
StatusOr<uint64_t> ReadLatestSeq(const std::string& dir) {
  std::FILE* f = std::fopen(LatestPath(dir).c_str(), "r");
  if (f == nullptr) return uint64_t{0};
  unsigned long long seq = 0;
  const int got = std::fscanf(f, "%llu", &seq);
  std::fclose(f);
  if (got != 1 || seq == 0) {
    return Status::DataLoss("checkpointer: unparsable " + LatestPath(dir));
  }
  return static_cast<uint64_t>(seq);
}

}  // namespace

StatusOr<Checkpointer> Checkpointer::Create(const Options& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("checkpointer: empty directory");
  }
  if (options.keep == 0) {
    return Status::InvalidArgument("checkpointer: keep must be >= 1");
  }
  SISG_RETURN_IF_ERROR(MakeDirs(options.dir));
  SISG_ASSIGN_OR_RETURN(const uint64_t latest, ReadLatestSeq(options.dir));
  return Checkpointer(options, latest + 1);
}

Status Checkpointer::Save(const EmbeddingModel& model,
                          const TrainProgress& progress) {
  const uint64_t seq = next_seq_;
  SISG_RETURN_IF_ERROR(model.Save(EmbPath(options_.dir, seq)));
  SISG_RETURN_IF_ERROR(WriteProgress(StatePath(options_.dir, seq), progress));
  // Only now is the checkpoint complete: advance the LATEST pointer.
  SISG_RETURN_IF_ERROR(
      WriteFileAtomic(LatestPath(options_.dir), std::to_string(seq) + "\n"));
  ++next_seq_;
  ++saves_;
  // Prune checkpoints that fell out of the retention window.
  if (seq > options_.keep) {
    const uint64_t stale = seq - options_.keep;
    std::remove(EmbPath(options_.dir, stale).c_str());
    std::remove(StatePath(options_.dir, stale).c_str());
  }
  LOG_INFO << "checkpoint " << seq << " saved to " << options_.dir
           << " (tokens=" << progress.processed_tokens
           << ", pairs=" << progress.pairs_trained << ")";
  return Status::OK();
}

Status Checkpointer::LoadLatest(EmbeddingModel* model,
                                TrainProgress* progress) const {
  if (model == nullptr || progress == nullptr) {
    return Status::InvalidArgument("checkpointer: null output");
  }
  SISG_ASSIGN_OR_RETURN(const uint64_t seq, ReadLatestSeq(options_.dir));
  if (seq == 0) {
    return Status::NotFound("checkpointer: no checkpoint in " + options_.dir);
  }
  SISG_RETURN_IF_ERROR(ReadProgress(StatePath(options_.dir, seq), progress));
  SISG_ASSIGN_OR_RETURN(EmbeddingModel m,
                        EmbeddingModel::Load(EmbPath(options_.dir, seq)));
  *model = std::move(m);
  return Status::OK();
}

CheckpointBarrier::Role CheckpointBarrier::Arrive() {
  std::unique_lock<std::mutex> l(mu_);
  const uint64_t gen = generation_;
  ++arrived_;
  if (arrived_ == live_ && !leader_claimed_) {
    leader_claimed_ = true;
    return Role::kLeader;
  }
  cv_.wait(l, [&] {
    return generation_ != gen ||
           (!leader_claimed_ && arrived_ == live_);
  });
  if (generation_ != gen) return Role::kFollower;
  leader_claimed_ = true;
  return Role::kLeader;
}

void CheckpointBarrier::Release() {
  std::lock_guard<std::mutex> l(mu_);
  arrived_ = 0;
  leader_claimed_ = false;
  pending_.store(false, std::memory_order_release);
  ++generation_;
  cv_.notify_all();
}

void CheckpointBarrier::Leave() {
  std::lock_guard<std::mutex> l(mu_);
  SISG_CHECK_GT(live_, 0u);
  --live_;
  // If everyone still in the pool has already arrived, wake them so one
  // claims leadership for the pending round.
  if (pending() && live_ > 0 && arrived_ == live_) cv_.notify_all();
}

}  // namespace sisg
