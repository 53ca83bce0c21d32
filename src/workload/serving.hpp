// The open-loop serving loop: replay an arrival schedule against a
// Client and measure what a front end would actually observe.
//
// This is where the three serving pieces meet:
//   - open_loop.hpp draws the arrival instants (Poisson or bursty) at a
//     fixed offered load, independent of how fast the engine answers;
//   - core::AdaptiveBatcher accumulates arrivals into size-or-deadline
//     rounds, reporting each query's accrued wait;
//   - Client::submit(queries, ranks, {.queued_ns = ...}) dispatches each round
//     asynchronously, and Client::ready() lets the loop stamp
//     completions without stalling the arrival clock.
//
// Latency is recorded from the ARRIVAL instant, not the submit instant:
// a query that sat in the batcher (or behind max_in_flight
// back-pressure) is charged that wait. This is the open-loop
// discipline — the schedule never slows down because the engine fell
// behind, so queueing delay shows up in the percentiles instead of
// silently stretching the experiment (no coordinated omission).
//
// Two latency views come back and should agree for wall-clock backends:
//   - observed_latency_ns: caller-side, wait()-return minus scheduled
//     arrival — works on any backend, includes ticket-poll slack;
//   - engine RunReport::latency_ns (when track_latency is on): the
//     engine's own per-query stamps plus the declared queued_ns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/run_report.hpp"
#include "src/util/stats.hpp"
#include "src/util/types.hpp"
#include "src/workload/open_loop.hpp"

namespace dici::workload {

struct ScenarioSpec;  // scenario.hpp

struct ServingConfig {
  /// Arrival schedule recipe. process must be kPoisson or kBursty;
  /// num_queries is overridden with the query stream's length.
  OpenLoopSpec arrivals;
  /// AdaptiveBatcher size trigger (queries per dispatch round).
  std::size_t batch_max_keys = 1024;
  /// AdaptiveBatcher deadline trigger: max ns a query waits for its
  /// round to fill.
  double batch_max_delay_ns = 200e3;
  /// Submit-ahead depth: rounds in flight before the loop back-pressures
  /// on the oldest ticket (matches the engine-side ring slack).
  std::size_t max_in_flight = 8;
  /// Collect every query's rank (arrival order) into ServingResult::ranks
  /// so tests can verify answers against workload::reference_ranks.
  bool collect_ranks = false;
};

struct ServingResult {
  double offered_qps = 0;   ///< the schedule's long-run target rate
  double achieved_qps = 0;  ///< queries / wall_seconds actually sustained
  /// The rate the engine answered at: queries completed after the first
  /// round, over the first-to-last completion span. Unlike achieved_qps
  /// it leaves out the drain of the last in-flight rounds after the
  /// final arrival (a point that kept up reads its offered rate however
  /// short the run), while a backlog still stretches the span. Equals
  /// achieved_qps when fewer than two rounds completed apart.
  double served_qps = 0;
  double wall_seconds = 0;  ///< first arrival to last completion
  std::uint64_t num_queries = 0;
  std::uint64_t batches = 0;          ///< dispatch rounds submitted
  std::uint64_t size_flushes = 0;     ///< rounds flushed full
  std::uint64_t deadline_flushes = 0; ///< rounds flushed by the deadline
  /// Caller-observed response time per query: wait()-return minus
  /// scheduled arrival (ns). Bounded memory (Summary histogram).
  Summary observed_latency_ns;
  /// Merged engine reports over every round (RunReport::merge), with
  /// RunReport::latency_ns filled when the backend tracks latency.
  core::RunReport engine_total;
  /// Per-query ranks in arrival order (empty unless collect_ranks).
  std::vector<rank_t> ranks;
};

/// Replay `queries` against `client` on the config's arrival schedule.
/// Arrival i is queries[i] at schedule[i] ns past the replay epoch; the
/// loop sleeps out quiet gaps, batches arrivals adaptively, keeps up to
/// max_in_flight rounds submitted, and stamps each round's completion.
/// Runs open loop: if the engine can't keep up, latency grows without
/// bound — that divergence is the signal bench_response_time sweeps for.
ServingResult run_open_loop(core::Client& client,
                            std::span<const key_t> queries,
                            const ServingConfig& config);

/// One measured point of a latency-vs-offered-load curve.
struct LoadPointSummary {
  double offered_qps = 0;
  double served_qps = 0;  ///< ServingResult::served_qps
  double p99_us = 0;
};

/// Serving capacity read off a load curve; 0 where no point qualifies.
struct ServingCapacity {
  /// Highest offered load whose p99 stays within knee_factor x the best
  /// p99 on the curve (past it, queueing delay takes over).
  double knee_offered_qps = 0;
  double knee_p99_us = 0;
  /// Highest offered load whose p99 meets the SLO budget.
  double max_load_under_slo_qps = 0;
};

/// Share of its offered rate a point must achieve to count toward the
/// knee or the SLO load: a point that fell further behind was not
/// served at that rate, whatever its p99 says.
inline constexpr double kServedFraction = 0.95;

/// Knee and max load under SLO of one curve. Only points with a finite
/// p99 and served_qps >= kServedFraction x offered_qps count, for the
/// best-p99 baseline too. Pure: no clock, no engine.
ServingCapacity find_serving_capacity(
    std::span<const LoadPointSummary> points, double knee_factor,
    double slo_us);

/// Derive a ServingConfig from a registry spec (scenario.hpp): the
/// spec's arrival process and offered_qps become the OpenLoopSpec (seed
/// salted away from the index/query draws), batch_max_keys mirrors the
/// spec's batch_bytes in keys. Aborts if the spec is closed-loop.
ServingConfig serving_config_from(const ScenarioSpec& spec);

}  // namespace dici::workload
