// End-to-end open-loop serving: arrivals -> AdaptiveBatcher ->
// submit(queued_ns) -> ready()-polled completions, with every rank
// still equal to the std::upper_bound reference — the serving layer
// changes WHEN work happens, never the answers.
#include "src/workload/serving.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/parallel_engine.hpp"
#include "src/util/rng.hpp"
#include "src/workload/scenario.hpp"
#include "src/workload/workload.hpp"

namespace dici::workload {
namespace {

struct Fixture {
  std::vector<key_t> keys;
  std::vector<key_t> queries;
  std::vector<rank_t> expected;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    Rng rng(314159);
    fx.keys = workload::make_sorted_unique_keys(10000, rng);
    fx.queries = workload::make_uniform_queries(20000, rng);
    fx.expected = workload::reference_ranks(fx.keys, fx.queries);
    return fx;
  }();
  return f;
}

ServingConfig fast_config(ArrivalProcess process) {
  ServingConfig config;
  config.arrivals.process = process;
  // High offered load so the test finishes in tens of milliseconds;
  // the engine won't keep up, which exercises the queueing path too.
  config.arrivals.offered_qps = 2e6;
  config.arrivals.seed = 77;
  config.batch_max_keys = 512;
  config.batch_max_delay_ns = 100e3;
  config.collect_ranks = true;
  return config;
}

TEST(Serving, OpenLoopServesEveryQueryWithCorrectRanks) {
  const auto& fx = fixture();
  core::ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.track_latency = true;
  cfg.pin_threads = false;
  const core::ParallelNativeEngine engine(cfg);
  const auto index = engine.build(fx.keys);

  for (const auto process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kBursty}) {
    const auto client = index->connect();
    const auto result =
        run_open_loop(*client, fx.queries, fast_config(process));

    EXPECT_EQ(result.num_queries, fx.queries.size());
    EXPECT_EQ(result.batches,
              result.size_flushes + result.deadline_flushes);
    EXPECT_GT(result.batches, 1u);
    EXPECT_GT(result.wall_seconds, 0.0);
    EXPECT_GT(result.achieved_qps, 0.0);

    // Caller-observed latency: one sample per query, all positive
    // (arrival precedes completion by construction).
    EXPECT_EQ(result.observed_latency_ns.count(), fx.queries.size());
    EXPECT_GT(result.observed_latency_ns.min(), 0.0);
    EXPECT_LE(result.observed_latency_ns.percentile(50),
              result.observed_latency_ns.percentile(99));

    // Engine-side latency (arrival->resolve via queued_ns): same count,
    // and never exceeds what the caller observed at the median (the
    // caller's stamp includes ticket-poll slack on top).
    EXPECT_EQ(result.engine_total.latency_ns.count(), fx.queries.size());
    EXPECT_GT(result.engine_total.latency_ns.min(), 0.0);
    EXPECT_EQ(result.engine_total.num_queries, fx.queries.size());

    // The serving layer never changes answers.
    ASSERT_EQ(result.ranks.size(), fx.expected.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < result.ranks.size(); ++i)
      if (result.ranks[i] != fx.expected[i]) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << arrival_process_name(process);
  }
}

TEST(Serving, BackPressureBoundsInFlightRounds) {
  const auto& fx = fixture();
  core::ParallelConfig cfg;
  cfg.num_threads = 2;
  cfg.pin_threads = false;
  const core::ParallelNativeEngine engine(cfg);
  const auto index = engine.build(fx.keys);
  const auto client = index->connect();
  auto config = fast_config(ArrivalProcess::kPoisson);
  config.max_in_flight = 1;  // strictest: every round waits its elder
  config.collect_ranks = false;
  const auto result = run_open_loop(*client, fx.queries, config);
  EXPECT_EQ(result.observed_latency_ns.count(), fx.queries.size());
  EXPECT_EQ(client->in_flight(), 0u);  // everything retired
}

// --- Served rate vs the drain tail ----------------------------------------

/// A scripted server: rounds queue for one worker that spends
/// `per_query` on each query, and each answer lands `latency` after its
/// round leaves the worker. Ranks stay 0; only the timing matters.
class ScriptedIndex : public core::Index {
 public:
  using Clock = std::chrono::steady_clock;

  ScriptedIndex(std::span<const key_t> keys, Clock::duration per_query,
                Clock::duration latency)
      : Index(keys), per_query_(per_query), latency_(latency) {}

  const char* backend() const override { return "scripted"; }

 private:
  class Done : public core::Client::Completion {
   public:
    Done(Clock::time_point at, std::uint64_t queries)
        : at_(at), queries_(queries) {}
    bool ready() const override { return Clock::now() >= at_; }
    core::RunReport await() override {
      std::this_thread::sleep_until(at_);
      core::RunReport report;
      report.method = core::Method::kC3;
      report.num_queries = queries_;
      return report;
    }

   private:
    Clock::time_point at_;
    std::uint64_t queries_;
  };

  class ScriptedClient : public core::Client {
   public:
    ScriptedClient(std::shared_ptr<const Index> self,
                   const ScriptedIndex* index)
        : Client(std::move(self)), index_(index) {}
    const char* backend() const override { return "scripted"; }

   private:
    std::unique_ptr<Completion> do_submit(
        std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
        const core::SubmitOptions&) override {
      if (out_ranks != nullptr) out_ranks->assign(queries.size(), 0);
      free_at_ = std::max(free_at_, Clock::now()) +
                 index_->per_query_ * static_cast<long>(queries.size());
      return std::make_unique<Done>(free_at_ + index_->latency_,
                                    queries.size());
    }

    const ScriptedIndex* index_;
    Clock::time_point free_at_{};
  };

  std::unique_ptr<core::Client> do_connect(
      std::shared_ptr<const Index> self) const override {
    return std::make_unique<ScriptedClient>(std::move(self), this);
  }

  Clock::duration per_query_;
  Clock::duration latency_;
};

ServingConfig scripted_config() {
  ServingConfig config;
  config.arrivals.process = ArrivalProcess::kPoisson;
  config.arrivals.offered_qps = 20e3;  // 2000 queries span ~100 ms
  config.arrivals.seed = 78;
  config.batch_max_keys = 50;
  config.batch_max_delay_ns = 1e6;
  // Deep enough that the 20 ms answers never back-pressure the loop:
  // 64 rounds x 50 keys / 20 ms is 160 k queries/s.
  config.max_in_flight = 64;
  return config;
}

TEST(Serving, ServedRateLeavesOutTheDrainOfAPointThatKeptUp) {
  // No queueing at all, but every answer takes 20 ms: the last rounds
  // drain for 20 ms after the final arrival of a ~100 ms schedule.
  // achieved_qps counts that drain and reads ~83 % of the rate the
  // schedule offered; served_qps does not.
  const auto& fx = fixture();
  const std::span<const key_t> queries(fx.queries.data(), 2000);
  const auto index = std::make_shared<const ScriptedIndex>(
      fx.keys, std::chrono::nanoseconds(0), std::chrono::milliseconds(20));
  const auto client = index->connect();
  const ServingConfig config = scripted_config();
  const auto result = run_open_loop(*client, queries, config);
  // Judged against the rate this seed's schedule really offers, so the
  // Poisson draw's own spread does not enter the bound.
  OpenLoopSpec spec = config.arrivals;
  spec.num_queries = queries.size();
  const std::vector<double> schedule = make_arrival_schedule_ns(spec);
  const double scheduled_qps = static_cast<double>(schedule.size() - 1) /
                               ((schedule.back() - schedule.front()) / 1e9);
  EXPECT_LT(result.achieved_qps, 0.9 * scheduled_qps);
  EXPECT_GE(result.served_qps, kServedFraction * scheduled_qps);
  EXPECT_LE(result.served_qps, 1.1 * scheduled_qps);
}

TEST(Serving, ServedRateStillShowsABacklog) {
  // A worker that answers 10 k queries/s under 20 k offered falls
  // behind for the whole run: the served rate is its service rate.
  const auto& fx = fixture();
  const std::span<const key_t> queries(fx.queries.data(), 1000);
  const auto index = std::make_shared<const ScriptedIndex>(
      fx.keys, std::chrono::microseconds(100), std::chrono::nanoseconds(0));
  const auto client = index->connect();
  const auto result = run_open_loop(*client, queries, scripted_config());
  EXPECT_LT(result.served_qps, 0.6 * result.offered_qps);
  EXPECT_GT(result.served_qps, 0.4 * result.offered_qps);
}

TEST(Serving, ConfigFromScenarioSpecCarriesTheKnobs) {
  ScenarioSpec spec;
  spec.name = "serving-cell";
  spec.num_queries = 4096;
  spec.batch_bytes = 8192;
  spec.seed = 5;
  spec.arrival = ArrivalProcess::kBursty;
  spec.offered_qps = 3e5;
  const auto config = serving_config_from(spec);
  EXPECT_EQ(config.arrivals.process, ArrivalProcess::kBursty);
  EXPECT_DOUBLE_EQ(config.arrivals.offered_qps, 3e5);
  EXPECT_EQ(config.arrivals.num_queries, 4096u);
  EXPECT_EQ(config.batch_max_keys, 8192 / sizeof(key_t));
  EXPECT_NE(config.arrivals.seed, spec.seed);  // decorrelated from draws
}

// --- Knee / SLO selection on hand-built curves ----------------------------

TEST(ServingCapacity, PointThatFellBehindIsNotCredited) {
  // Offered 3.68 Mqps but served 2.57 (70 %): its p99 is within the
  // knee factor and the SLO, yet it was never served at that rate.
  const std::vector<LoadPointSummary> curve{
      {1.0e6, 1.0e6, 400}, {2.0e6, 1.99e6, 600}, {3.68e6, 2.57e6, 900}};
  const auto capacity = find_serving_capacity(curve, 3.0, 5000);
  EXPECT_DOUBLE_EQ(capacity.knee_offered_qps, 2.0e6);
  EXPECT_DOUBLE_EQ(capacity.knee_p99_us, 600);
  EXPECT_DOUBLE_EQ(capacity.max_load_under_slo_qps, 2.0e6);
}

TEST(ServingCapacity, ServedPointsSetKneeAndSloSeparately) {
  // Best p99 is 100 us; with factor 3 the knee stops at 300 us, while
  // the 2 ms SLO admits the 1500 us point. Exactly 95 % counts.
  const std::vector<LoadPointSummary> curve{{1e5, 1e5, 100},
                                            {2e5, 2e5, 250},
                                            {3e5, 0.95 * 3e5, 1500},
                                            {4e5, 4e5, 9000}};
  const auto capacity = find_serving_capacity(curve, 3.0, 2000);
  EXPECT_DOUBLE_EQ(capacity.knee_offered_qps, 2e5);
  EXPECT_DOUBLE_EQ(capacity.knee_p99_us, 250);
  EXPECT_DOUBLE_EQ(capacity.max_load_under_slo_qps, 3e5);
}

TEST(ServingCapacity, BestP99ComesFromServedPointsOnly) {
  // The unserved point's low p99 must not tighten the knee baseline.
  const std::vector<LoadPointSummary> curve{{1e6, 0.5e6, 10},
                                            {2e5, 2e5, 200},
                                            {4e5, 4e5, 500}};
  const auto capacity = find_serving_capacity(curve, 3.0, 5000);
  EXPECT_DOUBLE_EQ(capacity.knee_offered_qps, 4e5);
  EXPECT_DOUBLE_EQ(capacity.max_load_under_slo_qps, 4e5);
}

TEST(ServingCapacity, NoPointQualifies) {
  const std::vector<LoadPointSummary> curve{
      {1e6, 0.5e6, 100},
      {2e6, 1.0e6, 200},
      {3e6, 3e6, std::numeric_limits<double>::infinity()}};
  const auto capacity = find_serving_capacity(curve, 3.0, 5000);
  EXPECT_EQ(capacity.knee_offered_qps, 0);
  EXPECT_EQ(capacity.knee_p99_us, 0);
  EXPECT_EQ(capacity.max_load_under_slo_qps, 0);
  EXPECT_EQ(find_serving_capacity({}, 3.0, 5000).knee_offered_qps, 0);
}

TEST(ServingDeath, ClosedLoopSpecHasNoServingConfig) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScenarioSpec spec;
  spec.name = "closed-cell";
  EXPECT_DEATH(serving_config_from(spec), "closed");
}

}  // namespace
}  // namespace dici::workload
