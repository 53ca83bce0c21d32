#include "src/workload/serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "src/core/batcher.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"
#include "src/workload/scenario.hpp"

namespace dici::workload {
namespace {

/// Sleep until `target_ns` on the replay clock. Coarse sleep for the
/// bulk of the gap, then spin the last stretch: sleep_for routinely
/// overshoots by tens of microseconds, which would smear every arrival
/// late and understate the offered load.
void wait_until(const WallTimer& epoch, double target_ns) {
  constexpr double kSpinWindowNs = 100e3;  // 100 us
  const double gap = target_ns - epoch.elapsed_ns();
  if (gap > kSpinWindowNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::int64_t>(gap - kSpinWindowNs)));
  }
  while (epoch.elapsed_ns() < target_ns) {
    // spin — the window is short and the arrival clock matters
  }
}

/// One submitted round still awaiting its completion stamp.
struct InFlightRound {
  core::Ticket ticket;
  /// Index of the round's first query in arrival order.
  std::size_t first_query = 0;
  /// Scheduled arrival of each query in the round (ns past the epoch).
  std::vector<double> arrivals_ns;
  /// Rank buffer the backend writes asynchronously; heap-allocated so
  /// it stays put while the deque shifts (submit's buffer contract).
  std::unique_ptr<std::vector<rank_t>> ranks;
};

}  // namespace

ServingResult run_open_loop(core::Client& client,
                            std::span<const key_t> queries,
                            const ServingConfig& config) {
  DICI_CHECK_FMT(config.max_in_flight > 0, "max_in_flight = %zu must be > 0",
                 config.max_in_flight);
  OpenLoopSpec spec = config.arrivals;
  spec.num_queries = queries.size();
  const std::vector<double> schedule = make_arrival_schedule_ns(spec);

  ServingResult result;
  result.offered_qps = spec.offered_qps;
  result.num_queries = queries.size();
  if (config.collect_ranks) result.ranks.resize(queries.size());

  core::AdaptiveBatcher batcher(config.batch_max_keys,
                                config.batch_max_delay_ns);
  std::deque<InFlightRound> in_flight;
  std::size_t next_flush_first = 0;  // arrival index of the next round's head

  const WallTimer epoch;  // replay time zero

  // Stamp one completed round: fold its engine report, record each
  // query's caller-observed latency from its scheduled arrival, and
  // copy ranks home. The first report seeds engine_total (a default
  // RunReport carries the default method; merge would reject it).
  std::uint64_t retired = 0;
  double first_done_ns = 0, last_done_ns = 0;
  std::size_t first_round_queries = 0;
  const auto retire = [&](InFlightRound& round) {
    core::RunReport report = client.wait(round.ticket);
    const double done_ns = epoch.elapsed_ns();
    if (retired++ == 0) {
      result.engine_total = std::move(report);
      first_done_ns = done_ns;
      first_round_queries = round.arrivals_ns.size();
    } else {
      result.engine_total.merge(report);
    }
    last_done_ns = done_ns;
    for (const double arrival : round.arrivals_ns)
      result.observed_latency_ns.add(done_ns - arrival);
    if (round.ranks) {
      std::copy(round.ranks->begin(), round.ranks->end(),
                result.ranks.begin() +
                    static_cast<std::ptrdiff_t>(round.first_query));
    }
  };

  const auto flush = [&](double now_ns) {
    if (batcher.size() >= batcher.max_keys())
      ++result.size_flushes;
    else
      ++result.deadline_flushes;
    core::AdaptiveBatcher::Batch batch = batcher.take(now_ns);
    InFlightRound round;
    round.first_query = next_flush_first;
    next_flush_first += batch.keys.size();
    round.arrivals_ns.reserve(batch.keys.size());
    for (std::size_t i = 0; i < batch.keys.size(); ++i)
      round.arrivals_ns.push_back(now_ns - batch.queued_ns[i]);
    if (config.collect_ranks)
      round.ranks = std::make_unique<std::vector<rank_t>>();
    // Back-pressure BEFORE submitting: the oldest round must finish to
    // free a slot. This wait is wall time the arriving queries keep
    // accruing — open loop, so it lands in the percentiles.
    while (in_flight.size() >= config.max_in_flight) {
      retire(in_flight.front());
      in_flight.pop_front();
    }
    round.ticket = client.submit(batch.keys, round.ranks.get(),
                                 {.queued_ns = batch.queued_ns});
    in_flight.push_back(std::move(round));
  };

  std::size_t next_arrival = 0;
  while (next_arrival < schedule.size() || !batcher.empty()) {
    const double now_ns = epoch.elapsed_ns();

    // Ingest every arrival that is due.
    while (next_arrival < schedule.size() &&
           schedule[next_arrival] <= now_ns) {
      batcher.push(queries[next_arrival], schedule[next_arrival]);
      ++next_arrival;
      if (batcher.size() >= batcher.max_keys()) flush(now_ns);
    }
    if (batcher.should_flush(now_ns)) flush(now_ns);

    // Opportunistically stamp rounds that finished — completion times
    // should not wait for the next arrival gap to elapse.
    while (!in_flight.empty() && client.ready(in_flight.front().ticket)) {
      retire(in_flight.front());
      in_flight.pop_front();
    }

    if (next_arrival >= schedule.size()) {
      // Stream exhausted: force out the tail round.
      if (!batcher.empty()) flush(epoch.elapsed_ns());
      break;
    }

    // Sleep until something can happen: the next arrival, or the
    // pending round's deadline.
    double target_ns = schedule[next_arrival];
    if (!batcher.empty())
      target_ns = std::min(target_ns, batcher.next_deadline_ns());
    wait_until(epoch, target_ns);
  }

  while (!in_flight.empty()) {
    retire(in_flight.front());
    in_flight.pop_front();
  }

  result.batches = result.size_flushes + result.deadline_flushes;
  result.wall_seconds = epoch.elapsed_sec();
  result.achieved_qps =
      result.wall_seconds > 0
          ? static_cast<double>(result.num_queries) / result.wall_seconds
          : 0;
  result.served_qps =
      last_done_ns > first_done_ns
          ? static_cast<double>(result.num_queries - first_round_queries) /
                ((last_done_ns - first_done_ns) / 1e9)
          : result.achieved_qps;
  return result;
}

ServingCapacity find_serving_capacity(
    std::span<const LoadPointSummary> points, double knee_factor,
    double slo_us) {
  const auto served = [](const LoadPointSummary& p) {
    return std::isfinite(p.p99_us) &&
           p.served_qps >= kServedFraction * p.offered_qps;
  };
  double best_p99 = std::numeric_limits<double>::infinity();
  for (const auto& p : points)
    if (served(p)) best_p99 = std::min(best_p99, p.p99_us);
  ServingCapacity capacity;
  for (const auto& p : points) {
    if (!served(p)) continue;
    if (p.p99_us <= knee_factor * best_p99 &&
        p.offered_qps > capacity.knee_offered_qps) {
      capacity.knee_offered_qps = p.offered_qps;
      capacity.knee_p99_us = p.p99_us;
    }
    if (p.p99_us <= slo_us)
      capacity.max_load_under_slo_qps =
          std::max(capacity.max_load_under_slo_qps, p.offered_qps);
  }
  return capacity;
}

ServingConfig serving_config_from(const ScenarioSpec& spec) {
  DICI_CHECK_FMT(spec.arrival != ArrivalProcess::kClosed,
                 "scenario '%s' is closed-loop (arrival = closed): no "
                 "serving config to derive",
                 spec.name.c_str());
  ServingConfig config;
  config.arrivals.process = spec.arrival;
  config.arrivals.offered_qps = spec.offered_qps;
  config.arrivals.num_queries = spec.num_queries;
  // Salted so the arrival draws are decorrelated from the spec's index
  // and query streams (which use seed and a query salt of their own).
  config.arrivals.seed = spec.seed ^ 0x9e3779b97f4a7c15ull;
  config.batch_max_keys =
      std::max<std::size_t>(1, spec.batch_bytes / sizeof(key_t));
  return config;
}

}  // namespace dici::workload
