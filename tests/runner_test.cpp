// End-to-end integration tests of the experiment runner — miniature versions
// of the paper's evaluation protocol across all learner types.
#include "deco/eval/runner.h"

#include <gtest/gtest.h>

#include "deco/tensor/check.h"

namespace deco::eval {
namespace {

RunConfig mini_config(const std::string& method) {
  RunConfig cfg;
  cfg.method = method;
  cfg.spec = data::icub1_spec();
  cfg.stream.stc = 12;
  cfg.stream.segment_size = 12;
  cfg.stream.total_segments = 4;
  cfg.deco.ipc = 2;
  cfg.deco.beta = 2;
  cfg.deco.model_update_epochs = 3;
  cfg.deco.condenser.iterations = 2;
  cfg.pretrain_per_class = 4;
  cfg.pretrain_epochs = 10;
  cfg.test_per_class = 8;
  cfg.model_width = 8;
  cfg.model_depth = 2;
  cfg.seed = 1;
  return cfg;
}

class RunnerMethodSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(RunnerMethodSweep, RunsEndToEnd) {
  RunConfig cfg = mini_config(GetParam());
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.pretrain_accuracy, 0.0f);
  EXPECT_GT(res.final_accuracy, 0.0f);
  EXPECT_LE(res.final_accuracy, 100.0f);
  EXPECT_GT(res.pseudo_label_accuracy, 0.05);  // far above never-correct
  EXPECT_GE(res.retention_rate, 0.0);
  EXPECT_LE(res.retention_rate, 1.0);
  EXPECT_GT(res.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RunnerMethodSweep,
                         ::testing::Values("deco", "random", "fifo",
                                           "selective_bp", "kcenter", "gss",
                                           "dm", "upper_bound"));

TEST(RunnerTest, CondensationMethodsReportCondenseTime) {
  RunConfig cfg = mini_config("deco");
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.condense_seconds, 0.0);
}

TEST(RunnerTest, CurveIsRecordedAtRequestedInterval) {
  RunConfig cfg = mini_config("fifo");
  cfg.eval_every_segments = 2;
  RunResult res = run_experiment(cfg);
  ASSERT_EQ(res.curve.size(), 2u);
  EXPECT_EQ(res.curve[0].samples_seen, 24);
  EXPECT_EQ(res.curve[1].samples_seen, 48);
}

TEST(RunnerTest, SameSeedReproduces) {
  RunConfig cfg = mini_config("deco");
  RunResult a = run_experiment(cfg);
  RunResult b = run_experiment(cfg);
  EXPECT_FLOAT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.pseudo_label_accuracy, b.pseudo_label_accuracy);
}

TEST(RunnerTest, RunSeedsProducesOnePerSeed) {
  RunConfig cfg = mini_config("random");
  auto results = run_seeds(cfg, 2);
  ASSERT_EQ(results.size(), 2u);
}

TEST(RunnerTest, UnknownMethodThrows) {
  RunConfig cfg = mini_config("definitely_not_a_method");
  try {
    run_experiment(cfg);
    FAIL() << "unknown method accepted";
  } catch (const Error& e) {
    // The message lists every valid name, including the non-replay ones.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("definitely_not_a_method"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("upper_bound"), std::string::npos) << msg;
  }
}

TEST(RunnerTest, RecipeValidatesTheLearnerConfig) {
  // A bad learner value fails at validate(), before a world is built, for a
  // replay baseline as for deco.
  for (const char* method : {"deco", "fifo", "upper_bound"}) {
    runtime::SessionRecipe recipe;
    recipe.method = method;
    recipe.deco.beta = 0;
    EXPECT_THROW(recipe.validate(), Error) << method;
  }
}

TEST(RunnerTest, MttIsNotASessionMethod) {
  // Trajectory matching is not among the paper's methods, so no learner
  // builds it.
  runtime::SessionRecipe recipe;
  recipe.method = "mtt";
  EXPECT_THROW(recipe.validate(), Error);
  EXPECT_EQ(runtime::session_methods().size(), 10u);
}

TEST(RunnerTest, DcRunsEndToEndSmall) {
  // DC is the slowest method; keep it tiny but exercised.
  RunConfig cfg = mini_config("dc");
  cfg.stream.total_segments = 2;
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.condense_seconds, 0.0);
}

TEST(RunnerTest, DsaRunsEndToEndSmall) {
  RunConfig cfg = mini_config("dsa");
  cfg.stream.total_segments = 2;
  RunResult res = run_experiment(cfg);
  EXPECT_GT(res.condense_seconds, 0.0);
}

}  // namespace
}  // namespace deco::eval
