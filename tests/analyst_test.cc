// Tests for the analyst runtime: query identity stamping, budget
// submission, result consumption, and the closed feedback loop with live
// parameter redistribution (system::UpdateParams).

#include <gtest/gtest.h>

#include "analyst/analyst.h"
#include "core/privacy.h"

namespace privapprox::analyst {
namespace {

core::Query BuildSpeedQuery(Analyst& analyst) {
  return analyst.NewQuery()
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(5000)
      .WithWindowMs(5000)
      .WithSlideMs(5000)
      .Build();
}

void LoadClients(system::PrivApproxSystem& sys, double fresh_until_ms) {
  for (size_t i = 0; i < sys.num_clients(); ++i) {
    auto& db = sys.client(i).database();
    if (!db.HasTable("vehicle")) {
      db.CreateTable("vehicle", {"speed"});
    }
    for (int64_t ts = 0; ts < static_cast<int64_t>(fresh_until_ms);
         ts += 5000) {
      db.GetTable("vehicle").Insert(ts + 100, {localdb::Value(25.0)});
    }
  }
}

TEST(AnalystTest, QueryIdsEncodeAnalystAndSerial) {
  Analyst analyst(AnalystConfig{42, 0.05});
  const core::Query q1 = BuildSpeedQuery(analyst);
  const core::Query q2 = BuildSpeedQuery(analyst);
  EXPECT_EQ(q1.analyst_id, 42u);
  EXPECT_EQ(q1.query_id >> 32, 42u);
  EXPECT_EQ(q2.query_id, q1.query_id + 1);
  EXPECT_TRUE(q1.VerifySignature());
}

TEST(AnalystTest, RequiresSubmissionBeforeEpochs) {
  Analyst analyst(AnalystConfig{});
  system::SystemConfig config;
  config.num_clients = 2;
  system::PrivApproxSystem sys(config);
  EXPECT_THROW(analyst.RunEpoch(sys, 1000), std::logic_error);
  EXPECT_THROW(analyst.current_params(), std::logic_error);
}

TEST(AnalystTest, SubmitAndCollectResults) {
  Analyst analyst(AnalystConfig{7, 0.1});
  system::SystemConfig config;
  config.num_clients = 100;
  system::PrivApproxSystem sys(config);
  LoadClients(sys, 20000);
  const core::Query query = BuildSpeedQuery(analyst);
  core::QueryBudget budget;
  const core::ExecutionParams params =
      analyst.Submit(sys, query, budget, 0.5);
  EXPECT_DOUBLE_EQ(params.sampling_fraction, 1.0);
  // Answers at t=5000 land in window [5000, 10000); it fires once the
  // watermark passes 10000 on the next epoch.
  EXPECT_TRUE(analyst.RunEpoch(sys, 5000).empty());
  const auto results = analyst.RunEpoch(sys, 10000);
  ASSERT_GE(results.size(), 1u);
  EXPECT_EQ(results[0].result.participants, 100u);
}

TEST(AnalystTest, FeedbackLoopRaisesSamplingUnderError) {
  Analyst analyst(AnalystConfig{7, 0.001});  // very tight target
  system::SystemConfig config;
  config.num_clients = 200;
  system::PrivApproxSystem sys(config);
  LoadClients(sys, 60000);
  const core::Query query = BuildSpeedQuery(analyst);
  core::ExecutionParams initial;
  initial.sampling_fraction = 0.2;
  initial.randomization = {0.5, 0.5};
  // Submit with explicit params via the budget-free path: use Submit with a
  // budget that reproduces them. Simpler: submit, then force low s through
  // the feedback by giving a reference the noisy run cannot match.
  core::QueryBudget budget;
  budget.max_accuracy_loss = 0.001;  // unreachable at small populations
  analyst.Submit(sys, query, budget, 0.5);
  // Reference: everyone is in bucket 2 with count = population.
  analyst.set_reference([&](const engine::Window&) {
    Histogram reference(11);
    reference.SetCount(2, static_cast<double>(sys.num_clients()));
    return reference;
  });
  const double s_before = analyst.current_params().sampling_fraction;
  for (int64_t now = 5000; now <= 30000; now += 5000) {
    analyst.RunEpoch(sys, now);
  }
  EXPECT_FALSE(analyst.loss_history().empty());
  // The loop can only push s upward (or keep it at the cap).
  EXPECT_GE(analyst.current_params().sampling_fraction, s_before);
}

TEST(AnalystTest, UpdateParamsReachesClients) {
  // Direct check of the redistribution path used by the feedback loop.
  system::SystemConfig config;
  config.num_clients = 50;
  config.seed = 77;
  system::PrivApproxSystem sys(config);
  LoadClients(sys, 10000);
  Analyst analyst(AnalystConfig{3, 0.05});
  const core::Query query = BuildSpeedQuery(analyst);
  core::QueryBudget budget;
  analyst.Submit(sys, query, budget, 0.5);

  core::ExecutionParams retuned;
  retuned.sampling_fraction = 0.3;
  retuned.randomization = {0.9, 0.6};
  sys.UpdateParams(query.query_id, retuned);
  // Clients now sample at 0.3: participation drops accordingly.
  const system::EpochStats stats = sys.RunEpoch(5000);
  EXPECT_LT(stats.participants, 30u);
  EXPECT_GT(stats.participants, 4u);
}

TEST(AnalystTest, UpdateParamsWithoutQueryThrows) {
  system::SystemConfig config;
  config.num_clients = 2;
  system::PrivApproxSystem sys(config);
  core::ExecutionParams params;
  EXPECT_THROW(sys.UpdateParams(1, params), std::logic_error);
}

}  // namespace
}  // namespace privapprox::analyst
