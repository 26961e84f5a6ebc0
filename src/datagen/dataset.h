#ifndef SISG_DATAGEN_DATASET_H_
#define SISG_DATAGEN_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/catalog.h"
#include "datagen/session_generator.h"
#include "datagen/user_universe.h"

namespace sisg {

/// Everything needed to build one synthetic corpus: catalog, user universe,
/// behavior model, and session counts.
struct DatasetSpec {
  std::string name = "SynSmall";
  CatalogConfig catalog;
  UserUniverseConfig users;
  SessionModelConfig model;
  uint32_t num_train_sessions = 30000;
  uint32_t num_test_sessions = 4000;
};

/// A generated dataset. The catalog/universe are heap-held so the struct is
/// cheaply movable; the embedded generator exposes the ground-truth model.
class SyntheticDataset {
 public:
  static StatusOr<SyntheticDataset> Generate(const DatasetSpec& spec);

  const DatasetSpec& spec() const { return spec_; }
  const ItemCatalog& catalog() const { return *catalog_; }
  const UserUniverse& users() const { return *users_; }
  const SessionGenerator& generator() const { return *generator_; }
  const std::vector<Session>& train_sessions() const { return train_; }
  const std::vector<Session>& test_sessions() const { return test_; }

 private:
  DatasetSpec spec_;
  std::shared_ptr<const ItemCatalog> catalog_;
  std::shared_ptr<const UserUniverse> users_;
  std::shared_ptr<const SessionGenerator> generator_;
  std::vector<Session> train_;
  std::vector<Session> test_;
};

/// Corpus statistics in the shape of the paper's Table II.
struct DatasetStats {
  std::string name;
  uint64_t num_items = 0;        // distinct items that occur in training
  uint64_t num_si_kinds = 0;     // 8 (Table I)
  uint64_t num_user_types = 0;   // distinct user types in training
  uint64_t num_tokens = 0;       // items + SI instances in enriched sequences
  uint64_t num_positive_pairs = 0;  // skip-gram positives (symmetric window)
  uint64_t num_training_pairs = 0;  // positives * (1 + negatives)
  double asymmetry_rate = 0.0;      // Section II-C's ~20% statistic
};

/// Computes Table II statistics for a dataset; `window` is the skip-gram
/// item-window and `negatives` the negative-sampling ratio (paper: 20).
DatasetStats ComputeDatasetStats(const SyntheticDataset& dataset, int window,
                                 int negatives);

/// Writes sessions as text, one session per line:
/// "<usertype_token>\t<item> <item> ...". Round-trips with ReadSessionsText.
Status WriteSessionsText(const std::vector<Session>& sessions,
                         const UserUniverse& users, const std::string& path);

/// Reads sessions written by WriteSessionsText. User-type tokens are mapped
/// back via a token->id index built from `users`. Strict: any malformed line
/// fails the load with its line number. Tolerating bad lines
/// (SessionStreamOptions::max_errors) and chunked streaming without
/// materializing the whole file are SessionStream (session_stream.h), which
/// this wraps.
StatusOr<std::vector<Session>> ReadSessionsText(const UserUniverse& users,
                                                const std::string& path);

}  // namespace sisg

#endif  // SISG_DATAGEN_DATASET_H_
