#include "corpus/packed_corpus.h"

#include "common/io_util.h"

namespace sisg {
namespace {
/// Bytes of the serialized payload section for a given shape, or 0 on
/// overflow (an implausible header must be rejected before allocation).
uint64_t PayloadBytes(uint64_t num_seqs, uint64_t num_tokens) {
  const uint64_t kMax = ~0ull;
  if (num_seqs >= kMax / sizeof(uint64_t) - 2) return 0;
  const uint64_t off_bytes = (num_seqs + 1) * sizeof(uint64_t);
  if (num_tokens >= (kMax - off_bytes - 16) / sizeof(uint32_t)) return 0;
  return 16 + off_bytes + num_tokens * sizeof(uint32_t);
}
}  // namespace

Status PackedCorpus::AppendTo(ArtifactWriter* w) const {
  const uint64_t n = size();
  const uint64_t m = num_tokens();
  SISG_RETURN_IF_ERROR(w->WriteScalar(n));
  SISG_RETURN_IF_ERROR(w->WriteScalar(m));
  SISG_RETURN_IF_ERROR(
      w->Write(offsets_.data(), (n + 1) * sizeof(uint64_t)));
  return w->Write(tokens_.data(), m * sizeof(uint32_t));
}

StatusOr<PackedCorpus> PackedCorpus::ReadFrom(ArtifactReader* r,
                                              uint32_t token_bound) {
  uint64_t n = 0, m = 0;
  SISG_RETURN_IF_ERROR(r->ReadScalar(&n));
  SISG_RETURN_IF_ERROR(r->ReadScalar(&m));
  const uint64_t expected = PayloadBytes(n, m);
  if (expected == 0) {
    return Status::InvalidArgument("packed corpus: implausible shape (" +
                                   std::to_string(n) + " seqs, " +
                                   std::to_string(m) + " tokens)");
  }
  if (r->remaining() != expected - 16) {
    return Status::DataLoss("packed corpus: payload size mismatch");
  }
  PackedCorpus pc;
  pc.offsets_.resize(n + 1);
  pc.tokens_.resize(m);
  SISG_RETURN_IF_ERROR(r->Read(pc.offsets_.data(), (n + 1) * sizeof(uint64_t)));
  SISG_RETURN_IF_ERROR(r->Read(pc.tokens_.data(), m * sizeof(uint32_t)));
  if (pc.offsets_[0] != 0 || pc.offsets_[n] != m) {
    return Status::DataLoss("packed corpus: offset table endpoints corrupt");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (pc.offsets_[i] > pc.offsets_[i + 1]) {
      return Status::DataLoss("packed corpus: offsets not monotone at " +
                              std::to_string(i));
    }
  }
  if (token_bound > 0) {
    for (uint32_t t : pc.tokens_) {
      if (t >= token_bound) {
        return Status::DataLoss("packed corpus: token " + std::to_string(t) +
                                " outside vocabulary of " +
                                std::to_string(token_bound));
      }
    }
  }
  return pc;
}

}  // namespace sisg
