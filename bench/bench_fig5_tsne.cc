// Reproduces Figure 5: t-SNE of the learned user-type embeddings. The
// paper's visual claim — "male" and "female" types concentrate in different
// regions, with age clusters inside — is checked quantitatively with
// silhouette scores by gender and age, and the 2-D coordinates are written
// to tsne_user_types.tsv for plotting.

#include <fstream>
#include <map>
#include <iostream>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "eval/tsne.h"
#include "obs/table_printer.h"

namespace sisg {
namespace {

void Main() {
  const auto spec = bench::DefaultSpec("Fig5");
  auto dataset = SyntheticDataset::Generate(spec);
  SISG_CHECK_OK(dataset.status());

  SisgConfig config;
  config.variant = SisgVariant::kSisgFU;
  config.sgns.dim = static_cast<uint32_t>(GetEnvInt64("SISG_DIM", 64));
  config.sgns.negatives =
      static_cast<uint32_t>(GetEnvInt64("SISG_NEGATIVES", 10));
  config.sgns.epochs = static_cast<uint32_t>(GetEnvInt64("SISG_EPOCHS", 25));
  SisgPipeline pipeline(config);
  std::cerr << "[fig5] training SISG-F-U..." << std::endl;
  auto model = pipeline.Train(*dataset);
  SISG_CHECK_OK(model.status());

  // Collect trained user-type vectors (cap for the O(n^2) t-SNE).
  const uint32_t kMaxPoints =
      static_cast<uint32_t>(GetEnvInt64("SISG_TSNE_POINTS", 900));
  std::vector<double> data;
  std::vector<int> gender_labels, age_labels;
  const uint32_t d = model->dim();
  for (uint32_t ut = 0; ut < dataset->users().num_types(); ++ut) {
    const float* v =
        model->InputOfToken(model->token_space().UserTypeToken(ut));
    if (v == nullptr) continue;
    if (gender_labels.size() >= kMaxPoints) break;
    for (uint32_t i = 0; i < d; ++i) data.push_back(v[i]);
    gender_labels.push_back(dataset->users().type(ut).gender);
    age_labels.push_back(dataset->users().type(ut).age_bucket);
  }
  const uint32_t n = static_cast<uint32_t>(gender_labels.size());
  SISG_CHECK_GT(n, 50u) << "too few trained user types";
  std::cerr << "[fig5] t-SNE over " << n << " user-type vectors..." << std::endl;

  TsneOptions topts;
  topts.iterations =
      static_cast<uint32_t>(GetEnvInt64("SISG_TSNE_ITERS", 300));
  auto coords = TsneEmbed(data, n, d, topts);
  SISG_CHECK_OK(coords.status());

  const std::string out_path = "tsne_user_types.tsv";
  std::ofstream out(out_path);
  out << "x\ty\tgender\tage_bucket\n";
  for (uint32_t i = 0; i < n; ++i) {
    out << (*coords)[i * 2] << '\t' << (*coords)[i * 2 + 1] << '\t'
        << GenderName(gender_labels[i]) << '\t'
        << AgeBucketName(age_labels[i]) << '\n';
  }
  out.close();

  // Silhouettes in the embedding (2-D, what the figure shows) and in the
  // original space.
  const double sil_gender_2d = SilhouetteScore(*coords, n, 2, gender_labels);
  const double sil_age_2d = SilhouetteScore(*coords, n, 2, age_labels);
  const double sil_gender_hd = SilhouetteScore(data, n, d, gender_labels);

  // Nearest-centroid gender classification in the original space — a direct
  // check that gender structures the embedding (chance would be the
  // majority-class share).
  auto centroid_accuracy = [&](const std::vector<int>& labels) {
    std::map<int, std::vector<double>> centroid;
    std::map<int, int> count;
    for (uint32_t i = 0; i < n; ++i) {
      auto& c = centroid[labels[i]];
      c.resize(d, 0.0);
      for (uint32_t j = 0; j < d; ++j) c[j] += data[i * d + j];
      ++count[labels[i]];
    }
    for (auto& [l, c] : centroid) {
      for (auto& x : c) x /= count[l];
    }
    int correct = 0, majority = 0;
    for (const auto& [l, cnt] : count) majority = std::max(majority, cnt);
    for (uint32_t i = 0; i < n; ++i) {
      int best = -1;
      double best_d = 1e300;
      for (const auto& [l, c] : centroid) {
        double dist = 0.0;
        for (uint32_t j = 0; j < d; ++j) {
          const double diff = data[i * d + j] - c[j];
          dist += diff * diff;
        }
        if (dist < best_d) {
          best_d = dist;
          best = l;
        }
      }
      correct += best == labels[i];
    }
    return std::make_pair(static_cast<double>(correct) / n,
                          static_cast<double>(majority) / n);
  };
  const auto [gender_acc, gender_majority] = centroid_accuracy(gender_labels);
  const auto [age_acc, age_majority] = centroid_accuracy(age_labels);

  std::cout << "\n=== Figure 5: t-SNE of user-type embeddings ===\n";
  TablePrinter t({"Measure", "Value"});
  t.AddRow({"#user types embedded", std::to_string(n)});
  t.AddRow({"silhouette by gender (2-D t-SNE)",
            TablePrinter::Fixed(sil_gender_2d, 3)});
  t.AddRow({"silhouette by age bucket (2-D t-SNE)",
            TablePrinter::Fixed(sil_age_2d, 3)});
  t.AddRow({"silhouette by gender (original 64-D)",
            TablePrinter::Fixed(sil_gender_hd, 3)});
  t.AddRow({"nearest-centroid gender accuracy (vs majority)",
            TablePrinter::Fixed(gender_acc, 3) + " vs " +
                TablePrinter::Fixed(gender_majority, 3)});
  t.AddRow({"nearest-centroid age accuracy (vs majority)",
            TablePrinter::Fixed(age_acc, 3) + " vs " +
                TablePrinter::Fixed(age_majority, 3)});
  t.Print(std::cout);
  std::cout << "Coordinates written to " << out_path
            << " (plot x,y colored by gender to see Figure 5's clusters).\n"
            << "Paper claim: gender regions separate clearly; positive "
               "silhouette by gender reproduces it.\n";
}

}  // namespace
}  // namespace sisg

int main() {
  sisg::Main();
  return 0;
}
