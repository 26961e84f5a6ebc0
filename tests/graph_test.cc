#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "datagen/dataset.h"
#include "graph/category_graph.h"
#include "graph/item_graph.h"
#include "graph/partitioner.h"
#include "graph/random_walker.h"

namespace sisg {
namespace {

class GraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 800;
    spec.catalog.num_leaf_categories = 16;
    spec.catalog.num_shops = 60;
    spec.catalog.num_brands = 50;
    spec.users.num_user_types = 80;
    spec.num_train_sessions = 2500;
    spec.num_test_sessions = 100;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    ASSERT_TRUE(graph_
                    .Build(dataset_->train_sessions(),
                           dataset_->catalog().num_items())
                    .ok());
    category_graph_ = CategoryGraph::FromItemGraph(graph_, dataset_->catalog());
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  ItemGraph graph_;
  CategoryGraph category_graph_;
};

// --------------------------- item graph ---------------------------

TEST_F(GraphFixture, NodeFrequenciesMatchSessions) {
  std::vector<uint64_t> freq(dataset_->catalog().num_items(), 0);
  for (const Session& s : dataset_->train_sessions()) {
    for (uint32_t it : s.items) ++freq[it];
  }
  for (uint32_t i = 0; i < freq.size(); ++i) {
    EXPECT_EQ(graph_.NodeFrequency(i), freq[i]);
  }
}

TEST_F(GraphFixture, EdgeWeightsMatchTransitionCounts) {
  std::unordered_map<uint64_t, double> expected;
  for (const Session& s : dataset_->train_sessions()) {
    for (size_t i = 0; i + 1 < s.items.size(); ++i) {
      if (s.items[i] != s.items[i + 1]) {
        expected[(static_cast<uint64_t>(s.items[i]) << 32) | s.items[i + 1]] += 1;
      }
    }
  }
  double total = 0.0;
  for (const auto& [k, w] : expected) total += w;
  EXPECT_DOUBLE_EQ(graph_.total_weight(), total);
  // Spot-check lookups both ways.
  int checked = 0;
  for (const auto& [k, w] : expected) {
    const uint32_t a = static_cast<uint32_t>(k >> 32);
    const uint32_t b = static_cast<uint32_t>(k & 0xffffffffu);
    ASSERT_DOUBLE_EQ(graph_.EdgeWeight(a, b), w);
    if (++checked > 200) break;
  }
  EXPECT_DOUBLE_EQ(graph_.EdgeWeight(0, 0), 0.0);
}

TEST_F(GraphFixture, CsrAdjacencyConsistent) {
  uint64_t edges = 0;
  for (uint32_t n = 0; n < graph_.num_nodes(); ++n) {
    const auto nbrs = graph_.OutNeighbors(n);
    const auto ws = graph_.OutWeights(n);
    ASSERT_EQ(nbrs.size(), ws.size());
    edges += nbrs.size();
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]);  // sorted, no duplicates
    }
    for (double w : ws) EXPECT_GT(w, 0.0);
  }
  EXPECT_EQ(edges, graph_.num_edges());
}

TEST(ItemGraphTest, RejectsBadInput) {
  ItemGraph g;
  EXPECT_FALSE(g.Build({}, 0).ok());
  Session s;
  s.items = {5};
  EXPECT_EQ(g.Build({s}, 3).code(), StatusCode::kOutOfRange);
}

// --------------------------- category graph ---------------------------

TEST_F(GraphFixture, CategoryReductionConservesFrequency) {
  uint64_t total = 0;
  for (uint32_t c = 0; c < category_graph_.num_categories(); ++c) {
    total += category_graph_.CategoryFrequency(c);
  }
  EXPECT_EQ(total, category_graph_.total_frequency());
  uint64_t item_total = 0;
  for (uint32_t i = 0; i < graph_.num_nodes(); ++i) {
    item_total += graph_.NodeFrequency(i);
  }
  EXPECT_EQ(total, item_total);
}

TEST_F(GraphFixture, CategoryEdgesExcludeIntraCategory) {
  const ItemCatalog& catalog = dataset_->catalog();
  for (const WeightedEdge& e : category_graph_.edges()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_GT(e.weight, 0.0);
  }
  // Aggregate check: total category edge weight equals total cross-leaf item
  // transition weight.
  double cross = 0.0;
  for (uint32_t item = 0; item < graph_.num_nodes(); ++item) {
    const auto nbrs = graph_.OutNeighbors(item);
    const auto ws = graph_.OutWeights(item);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (catalog.meta(item).leaf_category != catalog.meta(nbrs[i]).leaf_category) {
        cross += ws[i];
      }
    }
  }
  double cat_total = 0.0;
  for (const WeightedEdge& e : category_graph_.edges()) cat_total += e.weight;
  EXPECT_NEAR(cat_total, cross, 1e-6);
  // Bidirectional weight symmetric accessor.
  if (!category_graph_.edges().empty()) {
    const auto& e = category_graph_.edges()[0];
    EXPECT_DOUBLE_EQ(category_graph_.BidirectionalWeight(e.src, e.dst),
                     category_graph_.BidirectionalWeight(e.dst, e.src));
  }
}

// --------------------------- partitioners ---------------------------

struct PartitionCase {
  const char* which;
  uint32_t workers;
};

class PartitionerProperty
    : public ::testing::TestWithParam<std::tuple<const char*, uint32_t>> {};

std::unique_ptr<Partitioner> MakePartitioner(const std::string& which) {
  if (which == "hash") return std::make_unique<HashPartitioner>();
  if (which == "random") return std::make_unique<RandomPartitioner>();
  if (which == "greedy") return std::make_unique<GreedyFrequencyPartitioner>();
  return std::make_unique<HbgpPartitioner>();
}

TEST_P(PartitionerProperty, ValidAssignment) {
  const auto& [which, workers] = GetParam();

  DatasetSpec spec;
  spec.catalog.num_items = 800;
  spec.catalog.num_leaf_categories = 16;
  spec.users.num_user_types = 80;
  spec.num_train_sessions = 2000;
  spec.num_test_sessions = 50;
  auto ds = SyntheticDataset::Generate(spec);
  ASSERT_TRUE(ds.ok());
  ItemGraph graph;
  ASSERT_TRUE(graph.Build(ds->train_sessions(), ds->catalog().num_items()).ok());
  const CategoryGraph cg = CategoryGraph::FromItemGraph(graph, ds->catalog());

  auto partitioner = MakePartitioner(which);
  auto assignment = partitioner->PartitionCategories(cg, workers);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  ASSERT_EQ(assignment->size(), cg.num_categories());
  std::set<uint32_t> used;
  for (uint32_t w : *assignment) {
    ASSERT_LT(w, workers);
    used.insert(w);
  }
  // HBGP and greedy must produce exactly `workers` non-empty partitions.
  if (std::string(which) == "hbgp" || std::string(which) == "greedy") {
    EXPECT_EQ(used.size(), workers);
  }
  const PartitionQuality q = EvaluatePartition(cg, *assignment, workers);
  EXPECT_GE(q.imbalance, 1.0 - 1e-9);
  EXPECT_GE(q.cross_rate, 0.0);
  EXPECT_LE(q.cross_rate, 1.0);
  uint64_t load_total = std::accumulate(q.loads.begin(), q.loads.end(), 0ull);
  EXPECT_EQ(load_total, cg.total_frequency());

  const auto items = ItemAssignmentFromCategories(*assignment, ds->catalog());
  ASSERT_EQ(items.size(), ds->catalog().num_items());
  for (uint32_t item = 0; item < items.size(); ++item) {
    EXPECT_EQ(items[item],
              (*assignment)[ds->catalog().meta(item).leaf_category]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, PartitionerProperty,
    ::testing::Combine(::testing::Values("hash", "random", "greedy", "hbgp"),
                       ::testing::Values(2u, 4u, 8u)));

TEST_F(GraphFixture, HbgpBeatsRandomOnCrossRateAndGreedyOnNothingWorse) {
  const uint32_t w = 4;
  HbgpPartitioner hbgp;
  RandomPartitioner random;
  auto a_hbgp = hbgp.PartitionCategories(category_graph_, w);
  auto a_rand = random.PartitionCategories(category_graph_, w);
  ASSERT_TRUE(a_hbgp.ok());
  ASSERT_TRUE(a_rand.ok());
  const auto q_hbgp = EvaluatePartition(category_graph_, *a_hbgp, w);
  const auto q_rand = EvaluatePartition(category_graph_, *a_rand, w);
  // HBGP minimizes cross-partition transitions (the whole point, III-B).
  EXPECT_LT(q_hbgp.cross_rate, q_rand.cross_rate);
  // And keeps load within the beta bound (relaxations allowed, so be loose).
  EXPECT_LT(q_hbgp.imbalance, 2.0);
}

TEST_F(GraphFixture, HbgpRespectsBetaWhenFeasible) {
  for (uint32_t w : {2u, 4u}) {
    HbgpPartitioner hbgp(1.2);
    auto assignment = hbgp.PartitionCategories(category_graph_, w);
    ASSERT_TRUE(assignment.ok());
    const auto q = EvaluatePartition(category_graph_, *assignment, w);
    // beta = 1.2 with relaxation fallback: stays near the bound.
    EXPECT_LE(q.imbalance, 1.5) << "w=" << w;
  }
}

TEST_F(GraphFixture, PartitionerRejectsBadArgs) {
  HbgpPartitioner hbgp;
  EXPECT_FALSE(hbgp.PartitionCategories(category_graph_, 0).ok());
  EXPECT_FALSE(
      hbgp.PartitionCategories(category_graph_,
                               category_graph_.num_categories() + 1)
          .ok());
  HbgpPartitioner bad_beta(0.5);
  EXPECT_FALSE(bad_beta.PartitionCategories(category_graph_, 2).ok());
}

TEST_F(GraphFixture, HbgpHandlesWorkersEqualCategories) {
  HbgpPartitioner hbgp;
  auto assignment =
      hbgp.PartitionCategories(category_graph_, category_graph_.num_categories());
  ASSERT_TRUE(assignment.ok());
  std::set<uint32_t> used(assignment->begin(), assignment->end());
  EXPECT_EQ(used.size(), category_graph_.num_categories());
}

// --------------------------- random walker ---------------------------

TEST_F(GraphFixture, WalksFollowEdges) {
  RandomWalker walker;
  ASSERT_TRUE(walker.Build(&graph_).ok());
  Rng rng(31);
  const auto walk = walker.Walk(0, 12, rng);
  ASSERT_GE(walk.size(), 1u);
  EXPECT_EQ(walk[0], 0u);
  EXPECT_LE(walk.size(), 12u);
  for (size_t i = 0; i + 1 < walk.size(); ++i) {
    EXPECT_GT(graph_.EdgeWeight(walk[i], walk[i + 1]), 0.0)
        << walk[i] << "->" << walk[i + 1];
  }
}

TEST_F(GraphFixture, GenerateWalksCoverage) {
  RandomWalker walker;
  ASSERT_TRUE(walker.Build(&graph_).ok());
  const auto walks = walker.GenerateWalks(2, 8, 7);
  EXPECT_GT(walks.size(), graph_.num_nodes() / 2);
  for (const auto& w : walks) {
    EXPECT_GE(w.size(), 2u);
    EXPECT_LE(w.size(), 8u);
  }
  // Deterministic for a fixed seed.
  const auto walks2 = walker.GenerateWalks(2, 8, 7);
  ASSERT_EQ(walks.size(), walks2.size());
  EXPECT_EQ(walks[0], walks2[0]);
}

TEST(RandomWalkerTest, NullGraphRejected) {
  RandomWalker walker;
  EXPECT_FALSE(walker.Build(nullptr).ok());
}

}  // namespace
}  // namespace sisg
