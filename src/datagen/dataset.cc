#include "datagen/dataset.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/flat_hash.h"
#include "common/io_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/session_stream.h"

namespace sisg {

StatusOr<SyntheticDataset> SyntheticDataset::Generate(const DatasetSpec& spec) {
  SyntheticDataset ds;
  ds.spec_ = spec;

  auto catalog = std::make_shared<ItemCatalog>();
  SISG_RETURN_IF_ERROR(catalog->Build(spec.catalog));
  auto users = std::make_shared<UserUniverse>();
  SISG_RETURN_IF_ERROR(users->Build(spec.users, catalog->num_tops()));

  auto generator = std::make_shared<SessionGenerator>(catalog.get(), users.get(),
                                                      spec.model);
  // Hold shared ownership so the generator's raw pointers stay valid.
  ds.catalog_ = catalog;
  ds.users_ = users;
  ds.generator_ = std::shared_ptr<const SessionGenerator>(
      generator, generator.get());

  ds.train_ = generator->GenerateSessions(spec.num_train_sessions);
  // Test sessions come from an offset seed so they are disjoint draws.
  SessionModelConfig test_model = spec.model;
  test_model.seed = spec.model.seed + 0x9e3779b9ULL;
  SessionGenerator test_gen(catalog.get(), users.get(), test_model);
  ds.test_ = test_gen.GenerateSessions(spec.num_test_sessions);
  return ds;
}

DatasetStats ComputeDatasetStats(const SyntheticDataset& dataset, int window,
                                 int negatives) {
  DatasetStats stats;
  stats.name = dataset.spec().name;
  stats.num_si_kinds = kNumItemFeatures;

  FlatHashSet<uint32_t> items;
  FlatHashSet<uint32_t> user_types;
  uint64_t item_clicks = 0;
  uint64_t positives = 0;
  for (const Session& s : dataset.train_sessions()) {
    user_types.Insert(s.user_type);
    item_clicks += s.items.size();
    for (uint32_t it : s.items) items.Insert(it);
    // Positive pairs under a symmetric window of `window` items, counted
    // once per (target, context) ordered pair as word2vec does.
    const int64_t p = static_cast<int64_t>(s.items.size());
    for (int64_t i = 0; i < p; ++i) {
      const int64_t lo = std::max<int64_t>(0, i - window);
      const int64_t hi = std::min<int64_t>(p - 1, i + window);
      positives += static_cast<uint64_t>(hi - lo);
    }
  }
  stats.num_items = items.size();
  stats.num_user_types = user_types.size();
  // Enriched tokens (Eq. 4): each item click contributes itself plus its SI
  // instances, and each session appends one user-type token.
  stats.num_tokens = item_clicks * (1 + kNumItemFeatures) +
                     dataset.train_sessions().size();
  // In the enriched sequence every item token is surrounded by its SI tokens,
  // which multiplies the positive-pair count by ~(1+#SI)^2 under a window
  // covering the same number of *items*; the paper counts positives over the
  // enriched corpus, so we do the same.
  const uint64_t enriched_factor =
      static_cast<uint64_t>(1 + kNumItemFeatures) *
      static_cast<uint64_t>(1 + kNumItemFeatures);
  stats.num_positive_pairs = positives * enriched_factor;
  stats.num_training_pairs =
      stats.num_positive_pairs * static_cast<uint64_t>(1 + negatives);
  stats.asymmetry_rate =
      SessionGenerator::MeasureAsymmetryRate(dataset.train_sessions());
  return stats;
}

Status WriteSessionsText(const std::vector<Session>& sessions,
                         const UserUniverse& users, const std::string& path) {
  // Atomic publication: the file appears under its final name only after
  // every line is written, flushed and fsynced, so a crash mid-write can
  // never leave a truncated sessions file behind.
  SISG_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));
  std::FILE* f = file.stream();
  bool ok = true;
  for (const Session& s : sessions) {
    ok = ok && std::fputs(users.TypeToken(s.user_type).c_str(), f) != EOF &&
         std::fputc('\t', f) != EOF;
    for (size_t i = 0; i < s.items.size() && ok; ++i) {
      if (i > 0) ok = std::fputc(' ', f) != EOF;
      ok = ok && std::fprintf(f, "%u", s.items[i]) > 0;
    }
    ok = ok && std::fputc('\n', f) != EOF;
    if (!ok) return Status::IOError("write failed: " + path);
  }
  return file.Commit();
}

StatusOr<std::vector<Session>> ReadSessionsText(const UserUniverse& users,
                                                const std::string& path) {
  SISG_ASSIGN_OR_RETURN(SessionStream stream, SessionStream::Open(users, path));
  return stream.ReadAll();
}

}  // namespace sisg
