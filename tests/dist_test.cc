#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <numeric>

#include "sgns/checkpoint.h"

#include "corpus/corpus.h"
#include "datagen/dataset.h"
#include "dist/cost_model.h"
#include "dist/distributed_trainer.h"
#include "eval/hitrate.h"
#include "graph/category_graph.h"
#include "graph/item_graph.h"
#include "graph/partitioner.h"
#include "core/matching_engine.h"
#include "core/sisg_model.h"
#include "sgns/trainer.h"

namespace sisg {
namespace {

class DistFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.catalog.num_items = 600;
    spec.catalog.num_leaf_categories = 12;
    spec.catalog.num_shops = 50;
    spec.catalog.num_brands = 40;
    spec.users.num_user_types = 60;
    spec.num_train_sessions = 3000;
    spec.num_test_sessions = 400;
    auto ds = SyntheticDataset::Generate(spec);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<SyntheticDataset>(std::move(ds).value());
    token_space_ = TokenSpace::Create(&dataset_->catalog(), &dataset_->users());
    VectorSessionSource sessions(&dataset_->train_sessions());
    ASSERT_TRUE(corpus_
                    .BuildFromSource(&sessions, token_space_,
                                     dataset_->catalog(), CorpusOptions{})
                    .ok());
    ItemGraph graph;
    ASSERT_TRUE(graph
                    .Build(dataset_->train_sessions(),
                           dataset_->catalog().num_items())
                    .ok());
    const CategoryGraph cg = CategoryGraph::FromItemGraph(graph, dataset_->catalog());
    HbgpPartitioner hbgp;
    auto cat_assign = hbgp.PartitionCategories(cg, 4);
    ASSERT_TRUE(cat_assign.ok());
    item_worker_ = ItemAssignmentFromCategories(*cat_assign, dataset_->catalog());
  }

  DistOptions BaseOptions() const {
    DistOptions o;
    o.num_workers = 4;
    o.sgns.dim = 16;
    o.sgns.epochs = 1;
    o.sgns.negatives = 5;
    return o;
  }

  std::unique_ptr<SyntheticDataset> dataset_;
  TokenSpace token_space_;
  Corpus corpus_;
  std::vector<uint32_t> item_worker_;
};

TEST_F(DistFixture, RejectsBadArguments) {
  DistOptions o = BaseOptions();
  o.num_workers = 0;
  EmbeddingModel m;
  DistTrainResult r;
  EXPECT_FALSE(DistributedTrainer(o).Train(corpus_, token_space_, item_worker_,
                                           &m, &r)
                   .ok());
  o = BaseOptions();
  EXPECT_FALSE(
      DistributedTrainer(o).Train(corpus_, token_space_, item_worker_, nullptr, &r)
          .ok());
  // Out-of-range worker ids.
  auto bad = item_worker_;
  bad[0] = 99;
  EXPECT_EQ(DistributedTrainer(o)
                .Train(corpus_, token_space_, bad, &m, &r)
                .code(),
            StatusCode::kOutOfRange);
  // Assignment vector too small.
  std::vector<uint32_t> tiny(3, 0);
  EXPECT_FALSE(
      DistributedTrainer(o).Train(corpus_, token_space_, tiny, &m, &r).ok());
}

TEST_F(DistFixture, CountersAreConsistent) {
  DistOptions o = BaseOptions();
  EmbeddingModel m;
  DistTrainResult r;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &m, &r)
                  .ok());
  const CommStats& c = r.comm;
  EXPECT_EQ(c.local_pairs + c.remote_pairs + c.hot_pairs, r.train.pairs_trained);
  const uint64_t pairs_sum =
      std::accumulate(c.pairs_per_worker.begin(), c.pairs_per_worker.end(), 0ull);
  EXPECT_EQ(pairs_sum, r.train.pairs_trained);
  const uint64_t bytes_sum =
      std::accumulate(c.bytes_per_worker.begin(), c.bytes_per_worker.end(), 0ull);
  EXPECT_EQ(bytes_sum, c.bytes_sent);
  const uint64_t calls_sum = std::accumulate(c.remote_calls_per_worker.begin(),
                                             c.remote_calls_per_worker.end(), 0ull);
  EXPECT_EQ(calls_sum, c.remote_pairs);
  EXPECT_GT(c.sync_rounds, 0u);  // final sync always runs
  EXPECT_GE(c.RemoteFraction(), 0.0);
  EXPECT_LE(c.RemoteFraction(), 1.0);
  EXPECT_GE(c.LoadImbalance(), 1.0);
}

TEST_F(DistFixture, DryRunMatchesRealRunCounters) {
  DistOptions o = BaseOptions();
  EmbeddingModel m;
  DistTrainResult real, dry;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &m, &real)
                  .ok());
  o.dry_run = true;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, nullptr, &dry)
                  .ok());
  // Routing is independent of the float math only if the pair stream is
  // identical; subsampling and window draws share the same rng sequence in
  // both modes except negative draws. Compare aggregate routing loosely.
  EXPECT_EQ(real.comm.pairs_per_worker.size(), dry.comm.pairs_per_worker.size());
  const double a = static_cast<double>(real.train.pairs_trained);
  const double b = static_cast<double>(dry.train.pairs_trained);
  EXPECT_NEAR(a, b, 0.05 * a);
}

TEST_F(DistFixture, AtnsReducesRemoteTrafficAndImbalance) {
  DistOptions with_atns = BaseOptions();
  DistOptions no_atns = BaseOptions();
  no_atns.use_atns = false;

  EmbeddingModel m1, m2;
  DistTrainResult r_atns, r_tns;
  ASSERT_TRUE(DistributedTrainer(with_atns)
                  .Train(corpus_, token_space_, item_worker_, &m1, &r_atns)
                  .ok());
  ASSERT_TRUE(DistributedTrainer(no_atns)
                  .Train(corpus_, token_space_, item_worker_, &m2, &r_tns)
                  .ok());
  // The hot set absorbs the hottest contexts: fewer remote pairs...
  EXPECT_LT(r_atns.comm.remote_pairs, r_tns.comm.remote_pairs);
  // ...and the load spreads (hot SI contexts no longer pile on one worker).
  EXPECT_LE(r_atns.comm.LoadImbalance(), r_tns.comm.LoadImbalance() + 0.05);
  // Plain TNS has no replicas to sync.
  EXPECT_EQ(r_tns.comm.sync_bytes, 0u);
  EXPECT_EQ(r_tns.comm.hot_pairs, 0u);
}

TEST_F(DistFixture, HbgpReducesRemotePairsVsRandomAssignment) {
  DistOptions o = BaseOptions();
  o.dry_run = true;
  // Plain TNS: on this small corpus nearly every token clears the ATNS hot
  // threshold, which would hide the partitioning effect entirely.
  o.use_atns = false;
  DistTrainResult r_hbgp, r_rand;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, nullptr, &r_hbgp)
                  .ok());
  // Random item assignment ignoring categories.
  Rng rng(5);
  std::vector<uint32_t> random_assign(dataset_->catalog().num_items());
  for (auto& w : random_assign) w = static_cast<uint32_t>(rng.UniformU64(4));
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, random_assign, nullptr, &r_rand)
                  .ok());
  EXPECT_LT(r_hbgp.comm.remote_pairs, r_rand.comm.remote_pairs);
  EXPECT_LT(r_hbgp.comm.bytes_sent, r_rand.comm.bytes_sent);
}

// Algorithm 1's distributed execution must reach the same quality band as
// the local hogwild trainer — TNS changes *where* updates happen, not what
// is computed.
TEST_F(DistFixture, QualityParityWithLocalTrainer) {
  SgnsOptions so;
  so.dim = 32;
  so.epochs = 4;
  so.negatives = 5;

  EmbeddingModel local;
  ASSERT_TRUE(SgnsTrainer(so).Train(corpus_, &local).ok());

  DistOptions o;
  o.sgns = so;
  o.num_workers = 4;
  EmbeddingModel dist;
  DistTrainResult r;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &dist, &r)
                  .ok());

  SisgConfig cfg;
  cfg.variant = SisgVariant::kSisgFU;
  auto hr_of = [&](EmbeddingModel&& m) {
    SisgModel model(cfg, token_space_, corpus_.vocab(), std::move(m));
    auto engine = model.BuildMatchingEngine();
    EXPECT_TRUE(engine.ok());
    auto res = EvaluateHitRate(
        dataset_->test_sessions(),
        [&](uint32_t item, uint32_t k) { return engine->Query(item, k); },
        {20});
    return res.hit_rate[0];
  };
  const double hr_local = hr_of(std::move(local));
  const double hr_dist = hr_of(std::move(dist));
  EXPECT_GT(hr_local, 0.05);
  EXPECT_GT(hr_dist, 0.6 * hr_local)
      << "distributed quality collapsed: " << hr_dist << " vs " << hr_local;
}

TEST_F(DistFixture, MoreWorkersSpreadLoad) {
  DistOptions o = BaseOptions();
  o.dry_run = true;
  // Re-partition for 8 workers.
  ItemGraph graph;
  ASSERT_TRUE(
      graph.Build(dataset_->train_sessions(), dataset_->catalog().num_items())
          .ok());
  const CategoryGraph cg = CategoryGraph::FromItemGraph(graph, dataset_->catalog());
  HbgpPartitioner hbgp;
  auto assign8 = hbgp.PartitionCategories(cg, 8);
  ASSERT_TRUE(assign8.ok());
  const auto items8 = ItemAssignmentFromCategories(*assign8, dataset_->catalog());

  DistTrainResult r4, r8;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, nullptr, &r4)
                  .ok());
  o.num_workers = 8;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, items8, nullptr, &r8)
                  .ok());
  const uint64_t max4 = *std::max_element(r4.comm.pairs_per_worker.begin(),
                                          r4.comm.pairs_per_worker.end());
  const uint64_t max8 = *std::max_element(r8.comm.pairs_per_worker.begin(),
                                          r8.comm.pairs_per_worker.end());
  EXPECT_LT(max8, max4);  // slowest worker strictly lighter with more workers
}

// Property sweep: counter invariants must hold for every (workers, atns)
// combination.
class DistInvariants
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(DistInvariants, CountersConsistentAcrossConfigs) {
  const auto [workers, atns] = GetParam();

  DatasetSpec spec;
  spec.catalog.num_items = 400;
  spec.catalog.num_leaf_categories = 8;
  spec.users.num_user_types = 40;
  spec.num_train_sessions = 1200;
  spec.num_test_sessions = 50;
  auto ds = SyntheticDataset::Generate(spec);
  ASSERT_TRUE(ds.ok());
  TokenSpace ts = TokenSpace::Create(&ds->catalog(), &ds->users());
  Corpus corpus;
  VectorSessionSource sessions(&ds->train_sessions());
  ASSERT_TRUE(
      corpus.BuildFromSource(&sessions, ts, ds->catalog(), CorpusOptions{})
          .ok());
  Rng rng(workers);
  std::vector<uint32_t> item_worker(ds->catalog().num_items());
  for (auto& w : item_worker) {
    w = static_cast<uint32_t>(rng.UniformU64(workers));
  }

  DistOptions o;
  o.num_workers = workers;
  o.use_atns = atns;
  o.dry_run = true;
  o.sgns.epochs = 1;
  o.sgns.negatives = 3;
  DistTrainResult r;
  ASSERT_TRUE(
      DistributedTrainer(o).Train(corpus, ts, item_worker, nullptr, &r).ok());

  const CommStats& c = r.comm;
  EXPECT_EQ(c.local_pairs + c.remote_pairs + c.hot_pairs, r.train.pairs_trained);
  EXPECT_EQ(std::accumulate(c.pairs_per_worker.begin(), c.pairs_per_worker.end(),
                            0ull),
            r.train.pairs_trained);
  EXPECT_EQ(std::accumulate(c.remote_calls_per_worker.begin(),
                            c.remote_calls_per_worker.end(), 0ull),
            c.remote_pairs);
  EXPECT_EQ(std::accumulate(c.bytes_per_worker.begin(), c.bytes_per_worker.end(),
                            0ull),
            c.bytes_sent);
  if (workers == 1) {
    EXPECT_EQ(c.remote_pairs, 0u);  // everything is local on one worker
  }
  if (!atns) {
    EXPECT_EQ(c.hot_pairs, 0u);
    EXPECT_EQ(c.sync_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistInvariants,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool()));

// --------------------------- fault injection ---------------------------

TEST(FaultPlanTest, ParsesValidSpec) {
  auto plan = FaultPlan::Parse(
      "kill_worker=2,kill_at_pair=50000,drop=0.01,dup=0.005,"
      "sync_delay_every=3,sync_delay_s=0.25,crash_at_pair=90000,seed=7");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kill_worker, 2);
  EXPECT_EQ(plan->kill_at_pair, 50000u);
  EXPECT_DOUBLE_EQ(plan->remote_drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan->remote_dup_rate, 0.005);
  EXPECT_EQ(plan->sync_delay_every, 3u);
  EXPECT_DOUBLE_EQ(plan->sync_delay_s, 0.25);
  EXPECT_EQ(plan->crash_at_pair, 90000u);
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_TRUE(plan->Active());

  auto empty = FaultPlan::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->Active());
}

TEST(FaultPlanTest, RejectsBadSpecs) {
  EXPECT_EQ(FaultPlan::Parse("bogus_key=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("drop=1.5").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("drop=-0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("drop=abc").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("kill_worker").status().code(),
            StatusCode::kInvalidArgument);
  // A kill without a firing point can never trigger.
  EXPECT_EQ(FaultPlan::Parse("kill_worker=1").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DistFixture, DropsAndDuplicatesKeepCountersConsistent) {
  DistOptions o = BaseOptions();
  o.fault.remote_drop_rate = 0.05;
  o.fault.remote_dup_rate = 0.05;
  o.fault.sync_delay_every = 2;
  o.fault.sync_delay_s = 0.1;
  EmbeddingModel m;
  DistTrainResult r;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &m, &r)
                  .ok());
  const CommStats& c = r.comm;
  EXPECT_GT(c.remote_drops, 0u);
  EXPECT_GT(c.remote_duplicates, 0u);
  // Every drop either triggers a retransmission or exhausts the budget.
  EXPECT_GE(c.remote_drops, c.remote_retries + c.pairs_lost);
  EXPECT_GT(c.backoff_seconds, 0.0);
  EXPECT_GT(c.sync_delays, 0u);
  EXPECT_GT(c.delay_seconds, 0.0);
  EXPECT_EQ(c.worker_failures, 0u);
  // The seed invariants must survive fault injection: lost pairs are still
  // routed pairs, retransmissions are still bytes on the wire.
  EXPECT_EQ(c.local_pairs + c.remote_pairs + c.hot_pairs,
            r.train.pairs_trained);
  EXPECT_EQ(std::accumulate(c.pairs_per_worker.begin(),
                            c.pairs_per_worker.end(), 0ull),
            r.train.pairs_trained);
  EXPECT_EQ(std::accumulate(c.remote_calls_per_worker.begin(),
                            c.remote_calls_per_worker.end(), 0ull),
            c.remote_pairs);
  EXPECT_EQ(std::accumulate(c.bytes_per_worker.begin(),
                            c.bytes_per_worker.end(), 0ull),
            c.bytes_sent);
}

TEST_F(DistFixture, InactivePlanMatchesFaultFreeRun) {
  DistOptions o = BaseOptions();
  EmbeddingModel base;
  DistTrainResult r_base;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &base, &r_base)
                  .ok());
  // A default-constructed plan must be bit-identical to the seed engine.
  DistOptions o2 = BaseOptions();
  o2.fault = FaultPlan{};
  EmbeddingModel same;
  DistTrainResult r_same;
  ASSERT_TRUE(DistributedTrainer(o2)
                  .Train(corpus_, token_space_, item_worker_, &same, &r_same)
                  .ok());
  ASSERT_EQ(base.rows(), same.rows());
  for (uint32_t row = 0; row < base.rows(); ++row) {
    for (uint32_t d = 0; d < base.dim(); ++d) {
      ASSERT_EQ(base.Input(row)[d], same.Input(row)[d]) << "row " << row;
    }
  }
  EXPECT_EQ(r_base.comm.bytes_sent, r_same.comm.bytes_sent);
  EXPECT_EQ(r_base.comm.remote_retries, 0u);
  EXPECT_EQ(r_base.comm.pairs_lost, 0u);
}

// The ISSUE acceptance bar: a run that loses 1 of 4 workers mid-epoch while
// 1% of remote TNS calls drop must complete via checkpoint recovery with
// HR@10 within 2% relative of the fault-free run.
TEST_F(DistFixture, WorkerKillWithDropsRecoversToParity) {
  DistOptions o = BaseOptions();
  o.sgns.dim = 32;
  o.sgns.epochs = 4;

  const auto hr10_of = [&](EmbeddingModel&& m) {
    SisgConfig cfg;
    cfg.variant = SisgVariant::kSisgFU;
    SisgModel model(cfg, token_space_, corpus_.vocab(), std::move(m));
    auto engine = model.BuildMatchingEngine();
    EXPECT_TRUE(engine.ok());
    auto res = EvaluateHitRate(
        dataset_->test_sessions(),
        [&](uint32_t item, uint32_t k) { return engine->Query(item, k); },
        {10});
    return res.hit_rate[0];
  };

  // Fault-free baseline.
  EmbeddingModel free_model;
  DistTrainResult r_free;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &free_model,
                         &r_free)
                  .ok());

  // Kill worker 1 halfway through the first epoch, with 1% remote drops.
  DistOptions faulty = o;
  faulty.fault.kill_worker = 1;
  faulty.fault.kill_at_pair = r_free.train.pairs_trained / o.sgns.epochs / 2;
  faulty.fault.remote_drop_rate = 0.01;

  const std::string dir = ::testing::TempDir() + "/dist_kill_ckpt." +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  Checkpointer::Options copts;
  copts.dir = dir;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());
  CheckpointConfig ckpt;
  ckpt.checkpointer = &*ck;
  ckpt.interval_slots = corpus_.num_sequences() / 8;

  EmbeddingModel fault_model;
  DistTrainResult r_fault;
  ASSERT_TRUE(DistributedTrainer(faulty)
                  .Train(corpus_, token_space_, item_worker_, &fault_model,
                         &r_fault, &ckpt)
                  .ok());
  EXPECT_EQ(r_fault.comm.worker_failures, 1u);
  EXPECT_EQ(r_fault.comm.worker_recoveries, 1u);
  EXPECT_GT(r_fault.comm.remote_drops, 0u);
  EXPECT_GT(r_fault.train.checkpoints_saved, 0u);

  const double hr_free = hr10_of(std::move(free_model));
  const double hr_fault = hr10_of(std::move(fault_model));
  ASSERT_GT(hr_free, 0.05);
  // Within 2% relative of the fault-free run: losing a quarter of one
  // worker's updates must not degrade retrieval (scoring better is fine).
  EXPECT_GE(hr_fault, 0.98 * hr_free)
      << "recovered run degraded: " << hr_fault << " vs fault-free " << hr_free;
  std::filesystem::remove_all(dir);
}

TEST_F(DistFixture, InjectedCrashThenResumeCompletes) {
  DistOptions o = BaseOptions();
  o.sgns.epochs = 2;

  // Reference run for the completion target.
  EmbeddingModel ref;
  DistTrainResult r_ref;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &ref, &r_ref)
                  .ok());

  const std::string dir = ::testing::TempDir() + "/dist_crash_ckpt." +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  Checkpointer::Options copts;
  copts.dir = dir;
  auto ck = Checkpointer::Create(copts);
  ASSERT_TRUE(ck.ok());
  CheckpointConfig ckpt;
  ckpt.checkpointer = &*ck;
  ckpt.interval_slots = corpus_.num_sequences() / 4;

  DistOptions crashing = o;
  crashing.fault.crash_at_pair = r_ref.train.pairs_trained / 2;
  EmbeddingModel crash_model;
  DistTrainResult r_crash;
  EXPECT_EQ(DistributedTrainer(crashing)
                .Train(corpus_, token_space_, item_worker_, &crash_model,
                       &r_crash, &ckpt)
                .code(),
            StatusCode::kAborted);
  EXPECT_GT(r_crash.train.checkpoints_saved, 0u);

  // Restart: reload the durable snapshot and finish without the crash flag
  // (the simulated process death is not re-injected on the new incarnation).
  auto resume_ck = Checkpointer::Create(copts);
  ASSERT_TRUE(resume_ck.ok());
  EmbeddingModel resumed;
  TrainProgress progress;
  ASSERT_TRUE(resume_ck->LoadLatest(&resumed, &progress).ok());
  ASSERT_EQ(progress.rng_states.size(), 2u);
  EXPECT_LT(progress.pairs_trained, crashing.fault.crash_at_pair);
  CheckpointConfig resume_cfg;
  resume_cfg.checkpointer = &*resume_ck;
  resume_cfg.interval_slots = ckpt.interval_slots;
  resume_cfg.resume = &progress;
  DistTrainResult r_resume;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &resumed,
                         &r_resume, &resume_cfg)
                  .ok());
  // The resumed run finishes the remaining work: its cumulative pair count
  // (counters continue from the snapshot) matches the uninterrupted run.
  EXPECT_EQ(r_resume.train.pairs_trained, r_ref.train.pairs_trained);
  // And the schedule continued rather than restarting.
  EXPECT_LT(r_resume.train.lr_start, r_ref.train.lr_start);
  std::filesystem::remove_all(dir);
}

TEST_F(DistFixture, ResumeValidatesPosition) {
  const DistOptions o = BaseOptions();
  EmbeddingModel model;
  ASSERT_TRUE(model.Init(corpus_.vocab().size(), o.sgns.dim, 1).ok());
  TrainProgress progress;
  progress.rng_states = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  // One slot past the plan (epochs x sequences) is rejected...
  progress.next_work = uint64_t{o.sgns.epochs} * corpus_.num_sequences() + 1;
  CheckpointConfig cfg;
  cfg.resume = &progress;
  DistTrainResult result;
  EXPECT_EQ(DistributedTrainer(o)
                .Train(corpus_, token_space_, item_worker_, &model, &result,
                       &cfg)
                .code(),
            StatusCode::kInvalidArgument);
  // ...while a resume at the end of the plan has nothing left to train.
  --progress.next_work;
  ASSERT_TRUE(DistributedTrainer(o)
                  .Train(corpus_, token_space_, item_worker_, &model, &result,
                         &cfg)
                  .ok());
  EXPECT_EQ(result.train.pairs_trained, 0u);
}

// --------------------------- cost model ---------------------------

TEST(CostModelTest, FlopsPerPairScales) {
  EXPECT_GT(FlopsPerPair(128, 20), FlopsPerPair(64, 20));
  EXPECT_GT(FlopsPerPair(64, 20), FlopsPerPair(64, 5));
  EXPECT_DOUBLE_EQ(FlopsPerPair(64, 20), 6.0 * 64 * 21 + 128);
}

TEST(CostModelTest, MakespanIsSlowestWorkerPlusSync) {
  CommStats stats;
  stats.pairs_per_worker = {1000, 4000, 1000, 1000};
  stats.remote_calls_per_worker = {0, 0, 0, 0};
  stats.bytes_per_worker = {0, 0, 0, 0};
  stats.sync_rounds = 2;
  stats.sync_bytes = 1000000;
  ClusterCostConfig cfg;
  const SimulatedTime t = EstimateTime(stats, 64, 20, cfg);
  const double pair_s = FlopsPerPair(64, 20) / cfg.worker_flops;
  EXPECT_NEAR(t.compute_s, 4000 * pair_s, 1e-12);
  // Sync is an all-reduce: wire time is the per-worker share of the bytes.
  EXPECT_NEAR(t.sync_s,
              2 * cfg.sync_latency_s + 1000000 / 4.0 / cfg.network_bytes_per_s,
              1e-12);
  EXPECT_NEAR(t.makespan_s, t.compute_s + t.comm_s + t.sync_s, 1e-12);
  ASSERT_EQ(t.per_worker_s.size(), 4u);
  EXPECT_GT(t.per_worker_s[1], t.per_worker_s[0]);
}

TEST(CostModelTest, CommunicationAddsTime) {
  CommStats a, b;
  a.pairs_per_worker = {1000};
  a.remote_calls_per_worker = {0};
  a.bytes_per_worker = {0};
  b = a;
  b.remote_calls_per_worker = {500};
  b.bytes_per_worker = {500 * 272ull};
  ClusterCostConfig cfg;
  EXPECT_GT(EstimateTime(b, 64, 20, cfg).makespan_s,
            EstimateTime(a, 64, 20, cfg).makespan_s);
}

TEST(CostModelTest, MessageBatchingAmortizesLatency) {
  CommStats stats;
  stats.pairs_per_worker = {1000};
  stats.remote_calls_per_worker = {100000};
  stats.bytes_per_worker = {0};
  ClusterCostConfig batched;
  ClusterCostConfig unbatched = batched;
  unbatched.remote_call_batch = 1.0;
  const double t_batched = EstimateTime(stats, 64, 20, batched).makespan_s;
  const double t_unbatched = EstimateTime(stats, 64, 20, unbatched).makespan_s;
  EXPECT_LT(t_batched, t_unbatched);
  // Latency share shrinks by exactly the batch factor.
  const double latency_unbatched = 100000 * unbatched.remote_call_latency_s;
  EXPECT_NEAR(t_unbatched - t_batched,
              latency_unbatched * (1.0 - 1.0 / batched.remote_call_batch),
              1e-9);
}

TEST(CostModelTest, EmptyStats) {
  CommStats stats;
  const SimulatedTime t = EstimateTime(stats, 64, 20, ClusterCostConfig{});
  EXPECT_DOUBLE_EQ(t.makespan_s, 0.0);
}

}  // namespace
}  // namespace sisg
