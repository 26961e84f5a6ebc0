#include "corpus/vocabulary.h"

#include <algorithm>
#include <numeric>

#include "common/io_util.h"
#include "common/logging.h"

namespace sisg {

Status Vocabulary::BuildFromCounts(std::span<const uint64_t> counts,
                                   uint32_t min_count,
                                   const TokenSpace& token_space) {
  if (min_count == 0) {
    return Status::InvalidArgument("vocabulary: min_count must be >= 1");
  }
  if (counts.size() != token_space.num_tokens()) {
    return Status::OutOfRange("vocabulary: counts for " +
                              std::to_string(counts.size()) +
                              " tokens, token space has " +
                              std::to_string(token_space.num_tokens()));
  }
  const uint32_t num_global_tokens = static_cast<uint32_t>(counts.size());
  std::vector<std::pair<uint32_t, uint64_t>> kept;
  kept.reserve(num_global_tokens);
  for (uint32_t t = 0; t < num_global_tokens; ++t) {
    if (counts[t] >= min_count) kept.emplace_back(t, counts[t]);
  }
  return AssignIds(std::move(kept), num_global_tokens, token_space);
}

Status Vocabulary::AssignIds(std::vector<std::pair<uint32_t, uint64_t>> kept,
                             uint32_t num_global_tokens,
                             const TokenSpace& token_space) {
  if (kept.empty()) {
    return Status::InvalidArgument("vocabulary: no token reaches min_count");
  }
  // Descending frequency; ties by token id. A total order over the entries,
  // so id assignment is insertion-order- and thread-count-independent.
  //
  // BuildFromCounts produces `kept` in ascending token order, so a *stable* ascending sort on (max_count - count) realizes exactly
  // that order: counts descend, and ties keep their token-ascending input
  // position. Stable LSD radix is ~5x cheaper here than comparison sorting
  // (the dictionary sort sits on the serial critical path of every ingest).
  uint64_t max_count = 0;
  for (const auto& [tok, c] : kept) max_count = std::max(max_count, c);
  {
    constexpr int kRadixBits = 11;
    constexpr size_t kBuckets = size_t{1} << kRadixBits;
    std::vector<std::pair<uint32_t, uint64_t>> tmp(kept.size());
    std::vector<size_t> hist(kBuckets);
    for (int shift = 0; shift == 0 || (max_count >> shift) != 0;
         shift += kRadixBits) {
      std::fill(hist.begin(), hist.end(), 0);
      for (const auto& e : kept) {
        ++hist[((max_count - e.second) >> shift) & (kBuckets - 1)];
      }
      size_t pos = 0;
      for (size_t b = 0; b < kBuckets; ++b) {
        const size_t n = hist[b];
        hist[b] = pos;
        pos += n;
      }
      for (const auto& e : kept) {
        tmp[hist[((max_count - e.second) >> shift) & (kBuckets - 1)]++] = e;
      }
      kept.swap(tmp);
    }
  }

  vocab_of_.assign(num_global_tokens, -1);
  token_of_.resize(kept.size());
  freq_.resize(kept.size());
  class_.resize(kept.size());
  class_counts_[0] = class_counts_[1] = class_counts_[2] = 0;
  total_count_ = 0;
  for (uint32_t v = 0; v < kept.size(); ++v) {
    const auto [tok, count] = kept[v];
    vocab_of_[tok] = static_cast<int32_t>(v);
    token_of_[v] = tok;
    freq_[v] = count;
    class_[v] = token_space.ClassOf(tok);
    ++class_counts_[static_cast<int>(class_[v])];
    total_count_ += count;
  }
  return Status::OK();
}

StatusOr<AliasTable> Vocabulary::BuildNoise() const {
  std::vector<double> w(size());
  for (uint32_t v = 0; v < size(); ++v) w[v] = NoiseWeight(freq_[v]);
  AliasTable table;
  SISG_RETURN_IF_ERROR(table.Build(w));
  return table;
}

namespace {
// Artifact kind/version of the serialized dictionary. Version 2 is the
// atomic + checksummed layout; version 1 was the seed's bare-magic format.
constexpr char kVocabKind[] = "VOCABDIC";
constexpr uint32_t kVocabVersion = 2;
}  // namespace

Status Vocabulary::Save(const std::string& path) const {
  SISG_ASSIGN_OR_RETURN(ArtifactWriter w,
                        ArtifactWriter::Open(path, kVocabKind, kVocabVersion));
  const uint32_t num_global = static_cast<uint32_t>(vocab_of_.size());
  const uint32_t n = size();
  SISG_RETURN_IF_ERROR(w.WriteScalar(num_global));
  SISG_RETURN_IF_ERROR(w.WriteScalar(n));
  SISG_RETURN_IF_ERROR(w.Write(token_of_.data(), n * sizeof(uint32_t)));
  SISG_RETURN_IF_ERROR(w.Write(freq_.data(), n * sizeof(uint64_t)));
  SISG_RETURN_IF_ERROR(w.Write(class_.data(), n * sizeof(TokenClass)));
  return w.Commit();
}

StatusOr<Vocabulary> Vocabulary::Load(const std::string& path) {
  SISG_ASSIGN_OR_RETURN(ArtifactReader r,
                        ArtifactReader::Open(path, kVocabKind));
  if (r.version() != kVocabVersion) {
    return Status::InvalidArgument("vocabulary: unsupported format version " +
                                   std::to_string(r.version()) + " in " + path);
  }
  uint32_t num_global = 0, n = 0;
  SISG_RETURN_IF_ERROR(r.ReadScalar(&num_global));
  SISG_RETURN_IF_ERROR(r.ReadScalar(&n));
  if (n == 0 || n > num_global) {
    return Status::InvalidArgument("vocabulary: bad header (entries=" +
                                   std::to_string(n) + ", tokens=" +
                                   std::to_string(num_global) + ") in " + path);
  }
  const uint64_t expected =
      static_cast<uint64_t>(n) *
      (sizeof(uint32_t) + sizeof(uint64_t) + sizeof(TokenClass));
  if (r.remaining() != expected) {
    return Status::DataLoss("vocabulary: payload size mismatch in " + path);
  }
  Vocabulary v;
  v.token_of_.resize(n);
  v.freq_.resize(n);
  v.class_.resize(n);
  SISG_RETURN_IF_ERROR(r.Read(v.token_of_.data(), n * sizeof(uint32_t)));
  SISG_RETURN_IF_ERROR(r.Read(v.freq_.data(), n * sizeof(uint64_t)));
  SISG_RETURN_IF_ERROR(r.Read(v.class_.data(), n * sizeof(TokenClass)));
  v.vocab_of_.assign(num_global, -1);
  v.total_count_ = 0;
  v.class_counts_[0] = v.class_counts_[1] = v.class_counts_[2] = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (v.token_of_[i] >= num_global ||
        static_cast<uint32_t>(v.class_[i]) > 2) {
      return Status::DataLoss("vocabulary: field out of range in " + path);
    }
    v.vocab_of_[v.token_of_[i]] = static_cast<int32_t>(i);
    v.total_count_ += v.freq_[i];
    ++v.class_counts_[static_cast<int>(v.class_[i])];
  }
  return v;
}

StatusOr<AliasTable> Vocabulary::BuildNoiseOver(
    const std::vector<uint32_t>& vocab_ids) const {
  if (vocab_ids.empty()) {
    return Status::InvalidArgument("noise: empty vocab subset");
  }
  std::vector<double> w(vocab_ids.size());
  for (size_t i = 0; i < vocab_ids.size(); ++i) {
    w[i] = NoiseWeight(freq_[vocab_ids[i]]);
  }
  AliasTable table;
  SISG_RETURN_IF_ERROR(table.Build(w));
  return table;
}

}  // namespace sisg
