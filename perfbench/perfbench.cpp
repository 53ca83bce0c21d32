// perfbench — the repo benchmark: two workloads through dici's public
// API, every answer checked, end-to-end metrics from an untraced run
// and per-layer metrics from a traced one.
//
//   dici_perfbench --workload cluster-ring-closed --seed 1 --seconds 10
//                  --trace 0|1 --out-dir DIR [--tiny]
//   dici_perfbench --selftest
//
// Prints one JSON object on stdout (every metric with its unit and
// sample count, plus attempted/failed counts). perfbench/run.py builds
// this binary, runs it, and picks the metrics BENCHMARK.json names. The
// workloads, and why each exists, are described in perfbench/README.md.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.hpp"
#include "src/cluster/cluster_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/core/store.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/workload/serving.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples});
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  return (hi + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

namespace {

using dici::Rng;
using dici::Summary;
namespace core = dici::core;
namespace cluster = dici::cluster;

// ---------------------------------------------------------------------------
// Inputs. Everything is drawn from the seed; the program under test only
// ever sees the generated keys and queries.

/// `n` distinct keys, sorted, uniform over the 32-bit space: exponential
/// spacings give uniform order statistics over [0, 2^32 - n], and adding
/// the position makes them distinct. Two passes over one RNG stream, so
/// no n-sized scratch array (32 Mi keys take well under a second).
std::vector<key_t> uniform_sorted_keys(std::size_t n, std::uint64_t seed) {
  const auto spacing = [](Rng& rng) {
    return -std::log((static_cast<double>(rng.next() >> 11) + 0.5) * 0x1p-53);
  };
  Rng rng(seed);
  double total = 0;
  for (std::size_t i = 0; i <= n; ++i) total += spacing(rng);
  const double scale = (4294967296.0 - static_cast<double>(n)) / total;
  std::vector<key_t> keys(n);
  rng.reseed(seed);
  double cum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += spacing(rng);
    const double slot = std::min(std::floor(cum * scale),
                                 4294967296.0 - static_cast<double>(n));
    keys[i] = static_cast<key_t>(static_cast<std::uint64_t>(slot) + i);
  }
  return keys;
}

std::vector<key_t> uniform_queries(std::size_t n, Rng& rng) {
  std::vector<key_t> q(n);
  for (key_t& k : q) k = static_cast<key_t>(rng.next() >> 32);
  return q;
}

/// std::upper_bound rank of every query, computed by sorting the queries
/// and merging them against the keys (same answers, O(q log q + n)).
std::vector<rank_t> merge_ranks(std::span<const key_t> keys,
                                std::span<const key_t> queries) {
  std::vector<std::uint64_t> order(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    order[i] = (std::uint64_t{queries[i]} << 32) | i;
  std::sort(order.begin(), order.end());
  std::vector<rank_t> ranks(queries.size());
  std::size_t k = 0;
  for (const std::uint64_t packed : order) {
    const key_t q = static_cast<key_t>(packed >> 32);
    while (k < keys.size() && keys[k] <= q) ++k;
    ranks[packed & 0xffffffffu] = static_cast<rank_t>(k);
  }
  return ranks;
}

// ---------------------------------------------------------------------------
// Host steal: CPU time the hypervisor gave to other guests while a vCPU of
// this one wanted to run. It is interference, not a property of the code
// under test; every sub-run records the steal it saw, as a noise field
// beside the numbers (it does not change which sub-runs are used).

struct Jiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

Jiffies read_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  Jiffies j;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double steal_since(const Jiffies& before) {
  const Jiffies now = read_jiffies();
  const std::uint64_t total = now.total - before.total;
  return total > 0 ? static_cast<double>(now.steal - before.steal) / static_cast<double>(total)
                   : 0;
}

/// Linear-interpolated percentile (p in [0,100]) of every sample, exact.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Process memory, from /proc/self/status.

long status_kib(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) return std::atol(line.c_str() + len);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Background sampler: peak memory and, when a store is
// attached, its rebuild activity and delta size. Rebuild windows become
// "store.rebuild" spans when the current tracer is enabled.

class Sampler {
 public:
  Sampler() : thread_([this] { loop(); }) {}
  ~Sampler() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void attach(const core::Store* store, Tracer* tracer) {
    {
      std::lock_guard lock(mu_);
      store_ = store;
      tracer_ = tracer;
      window_ = {};
    }
    cv_.notify_all();
  }
  void detach() { attach(nullptr, nullptr); }

  struct Window {
    std::uint64_t samples = 0;
    std::uint64_t active = 0;
    std::uint64_t delta_samples = 0;
    double delta_sum = 0;
    Window& operator+=(const Window& o) {
      samples += o.samples;
      active += o.active;
      delta_samples += o.delta_samples;
      delta_sum += o.delta_sum;
      return *this;
    }
  };
  /// Stats since the last attach() (then starts a new window).
  Window take_window() {
    std::lock_guard lock(mu_);
    return std::exchange(window_, Window{});
  }
  /// Rebuild windows seen so far, as [start, end) ns pairs.
  std::vector<std::pair<std::int64_t, std::int64_t>> rebuild_windows() const {
    std::lock_guard lock(mu_);
    return rebuilds_;
  }
  /// Start the peak over: hand set-up's freed memory back to the OS and
  /// reset the kernel's high-water mark, so the peak is the serving
  /// phase's (index, clients and inputs), not the allocator
  /// state left by the repeated set-ups.
  void reset_peak() {
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    std::lock_guard lock(mu_);
    peak_kib_ = 0;
    ++peak_epoch_;
  }
  double peak_rss_mib() const {
    std::lock_guard lock(mu_);
    const long self_hwm = status_kib("/proc/self/status", "VmHWM:");
    return static_cast<double>(std::max(self_hwm, peak_kib_)) / 1024.0;
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    std::int64_t active_since = -1;
    std::int64_t next_delta = 0, next_rss = 0;
    while (!stop_) {
      const std::int64_t now = now_ns();
      if (store_ != nullptr) {
        const bool active = store_->rebuild_active();
        ++window_.samples;
        window_.active += active;
        if (active && active_since < 0) active_since = now;
        if (!active && active_since >= 0) {
          rebuilds_.push_back({active_since, now});
          if (tracer_ != nullptr && tracer_->enabled()) {
            Span span;
            span.id = tracer_->next_id();
            span.name = "store.rebuild";
            span.tid = thread_index();
            span.start_ns = active_since;
            span.end_ns = now;
            tracer_->record(span);
          }
          active_since = -1;
        }
        if (now >= next_delta) {
          // Under mu_, so detach() cannot return while the store is read.
          ++window_.delta_samples;
          window_.delta_sum += static_cast<double>(store_->delta_keys());
          next_delta = now + 10'000'000;
        }
      } else {
        active_since = -1;
      }
      if (now >= next_rss) {
        const std::uint64_t epoch = peak_epoch_;
        lock.unlock();
        const long rss = status_kib("/proc/self/status", "VmRSS:");
        lock.lock();
        if (epoch == peak_epoch_) peak_kib_ = std::max(peak_kib_, rss);
        next_rss = now + 50'000'000;
      }
      // 1 kHz only while a store's rebuild windows are being timed; the
      // closed loops get a 50 ms memory sample and nothing else.
      cv_.wait_for(lock, std::chrono::milliseconds(store_ != nullptr ? 1 : 50));
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                   // guarded by mu_
  const core::Store* store_ = nullptr;  // guarded by mu_
  Tracer* tracer_ = nullptr;            // guarded by mu_
  Window window_;                       // guarded by mu_
  std::vector<std::pair<std::int64_t, std::int64_t>> rebuilds_;  // mu_
  long peak_kib_ = 0;                   // guarded by mu_
  std::uint64_t peak_epoch_ = 0;        // guarded by mu_; bumped by reset_peak
  std::thread thread_;  // last: starts after every member it reads
};

// ---------------------------------------------------------------------------
// A Client decorator: forwards every call to the real client and times
// it. It keeps one record per submitted round (always: the open-loop
// correctness check needs each round's submit window) until
// forget_rounds(), and, when its tracer is enabled, spans for the round
// and its submit/ready/wait.

class TracedClient final : public core::Client {
 public:
  struct Round {
    std::int64_t submit_begin = 0;
    std::int64_t submit_end = 0;
    std::int64_t done = 0;  ///< wait() returned
    std::int64_t wait_ns = 0;
    std::uint64_t first = 0;  ///< index of the round's first query
    std::uint64_t count = 0;
    double oldest_queued_ns = 0;  ///< batcher wait of the round's oldest query
    std::uint64_t span_id = 0;    ///< 0 when submitted untraced
    /// Traced rounds: the index the round was submitted against. Expired
    /// right after the round's wait = that wait dropped the last pin of
    /// a retired generation.
    std::weak_ptr<const core::Index> pinned;
    bool released_pin = false;
  };

  explicit TracedClient(std::unique_ptr<core::Client> inner)
      : Client(inner->index().shared_from_this()), inner_(std::move(inner)) {}

  ~TracedClient() override {
    // The base destructor would drain too, but only after inner_ is gone.
    try {
      drain();
    } catch (...) {
    }
  }

  const char* backend() const override { return inner_->backend(); }
  const core::Index& index() const override { return inner_->index(); }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  /// Rounds submitted since the last forget_rounds().
  const std::vector<Round>& rounds() const { return rounds_; }
  /// Drop the records of rounds already checked, so the harness's own
  /// memory does not grow with the run. Every round must have completed.
  void forget_rounds() {
    forgotten_ += rounds_.size();
    rounds_.clear();
  }
  std::uint64_t submitted() const { return submitted_; }
  const Summary& batcher_wait_ns() const { return batcher_wait_ns_; }
  void reset_batcher_wait() { batcher_wait_ns_ = Summary{}; }

 private:
  class TracedCompletion final : public Completion {
   public:
    TracedCompletion(TracedClient* owner, core::Ticket ticket, std::size_t round)
        : owner_(owner), ticket_(ticket), round_(round) {}
    bool ready() const override { return owner_->round_ready(ticket_, round_); }
    core::RunReport await() override { return owner_->round_wait(ticket_, round_); }

   private:
    TracedClient* owner_;
    core::Ticket ticket_;
    std::size_t round_;
  };

  std::unique_ptr<Completion> do_submit(std::span<const key_t> queries,
                                        std::vector<rank_t>* out_ranks,
                                        const core::SubmitOptions& options) override {
    const std::size_t r = forgotten_ + rounds_.size();
    Round round;
    round.first = submitted_;
    round.count = queries.size();
    submitted_ += queries.size();
    for (const double q : options.queued_ns) {
      batcher_wait_ns_.add(q);
      round.oldest_queued_ns = std::max(round.oldest_queued_ns, q);
    }
    const bool tracing = tracer_ != nullptr && tracer_->enabled();
    if (tracing) round.span_id = tracer_->next_id();
    core::Ticket ticket;
    {
      ScopedSpan span(tracer_, "client.submit", round.span_id, r);
      round.submit_begin = now_ns();
      ticket = inner_->submit(queries, out_ranks, options);
      round.submit_end = now_ns();
    }
    // A store client moves to a new index when a rebuild publishes; keep
    // the base class pointing at the same one (no extra pin).
    const core::Index& current = inner_->index();
    if (&current != &Client::index()) rebind_index(current.shared_from_this());
    if (tracing) round.pinned = current.weak_from_this();
    rounds_.push_back(std::move(round));
    return std::make_unique<TracedCompletion>(this, ticket, r);
  }

  bool round_ready(core::Ticket ticket, std::size_t r) const {
    const bool ready = inner_->ready(ticket);
    if (ready && tracer_ != nullptr && tracer_->enabled()) {
      Span span;
      span.id = tracer_->next_id();
      span.parent = rounds_[r - forgotten_].span_id;
      span.name = "client.ready";
      span.req = r;
      span.tid = thread_index();
      span.start_ns = span.end_ns = now_ns();
      tracer_->record(span);
    }
    return ready;
  }

  core::RunReport round_wait(core::Ticket ticket, std::size_t r) {
    Round& round = rounds_[r - forgotten_];
    const bool tracing = round.span_id != 0 && tracer_ != nullptr;
    const bool pinned_before = !round.pinned.expired();
    const std::int64_t t0 = now_ns();
    core::RunReport report = inner_->wait(ticket);
    const std::int64_t t1 = now_ns();
    round.done = t1;
    round.wait_ns = t1 - t0;
    round.released_pin = pinned_before && round.pinned.expired();
    if (tracing) {
      Span wait;
      wait.id = tracer_->next_id();
      wait.parent = round.span_id;
      wait.name = "client.wait";
      wait.req = r;
      wait.tid = thread_index();
      wait.start_ns = t0;
      wait.end_ns = t1;
      tracer_->record(wait);
      Span whole = wait;
      whole.id = round.span_id;
      whole.parent = 0;
      whole.name = "round";
      whole.start_ns = round.submit_begin;
      tracer_->record(whole);
    }
    return report;
  }

  std::unique_ptr<core::Client> inner_;
  Tracer* tracer_ = nullptr;
  std::vector<Round> rounds_;
  std::size_t forgotten_ = 0;  ///< rounds dropped by forget_rounds()
  std::uint64_t submitted_ = 0;
  Summary batcher_wait_ns_;
};

// ---------------------------------------------------------------------------
// Results shared by the workloads.

struct Outcome {
  std::uint64_t attempted = 0;  ///< reads + key writes
  std::uint64_t mismatches = 0;
  std::uint64_t node_failures = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t failed() const { return mismatches + node_failures + failed_writes; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

/// Set-ups timed per run; setup_s is their median. A set-up takes
/// milliseconds, so one slow one must not move the result.
constexpr std::size_t kSetupRepeats = 31;
/// Pause before each timed set-up, so the previous one's teardown
/// (thread exits, unmapped memory) has settled. Without it, the median
/// store set-up of one set of ten runs was 29 % above the next set's;
/// with it, the two agreed within 1 %.
constexpr auto kSetupSettle = std::chrono::milliseconds(20);
constexpr std::size_t kInFlight = 4;
/// Measured windows are cut into sub-runs of about this length.
/// Throughput and memory are the median over sub-runs. A 2 s closed-loop
/// sub-run holds only ~1000 batches, so batch percentiles are taken over
/// the batches of all sub-runs pooled (the p99 then rests on ~150
/// batches, not on ~10).
constexpr double kSliceSeconds = 2.0;

/// The open loop needs no fresh build per sub-run, so its sub-runs are
/// shorter. Each still holds ~1 M reads, so each has a steady p99 of its
/// own, and the read percentiles are the median over sub-runs: a host
/// stall that spoils one sub-run's tail does not move the result.
constexpr double kOpenSliceSeconds = 1.0;

std::size_t slices_for(double seconds, double slice = kSliceSeconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / slice)));
}

/// What one closed-loop window saw.
struct PhaseStats {
  double seconds = 0;
  std::uint64_t queries = 0;
  std::vector<double> batch_ns;  ///< per batch, submit to wait returning
  double submit_ns = 0;
  double wait_ns = 0;
  core::RunReport report;
  bool have_report = false;
  double steal = 0;  ///< host steal share over the window

  double qps() const { return seconds > 0 ? static_cast<double>(queries) / seconds : 0; }
};

/// Pipelined closed loop: keep kInFlight batches from the pool in flight,
/// wait the oldest, verify every rank, submit the next. Runs until
/// `seconds` elapse; batches completing after that are drained and
/// verified but not counted.
PhaseStats closed_loop(TracedClient& client, std::span<const key_t> pool,
                       std::span<const rank_t> expected, std::size_t batch,
                       double seconds, std::size_t* next_batch, Outcome* out) {
  const std::size_t nbatches = pool.size() / batch;
  PhaseStats st;
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);

  struct Slot {
    core::Ticket ticket;
    std::size_t batch = 0;
    std::size_t round = 0;
    std::vector<rank_t> ranks;
  };
  std::deque<Slot> slots(kInFlight);
  std::deque<Slot*> in_flight;
  std::vector<Slot*> free_slots;
  for (Slot& s : slots) free_slots.push_back(&s);

  const auto retire = [&](bool counted) {
    Slot* s = in_flight.front();
    in_flight.pop_front();
    core::RunReport report = client.wait(s->ticket);
    const TracedClient::Round& round = client.rounds()[s->round];
    const rank_t* want = expected.data() + s->batch * batch;
    for (std::size_t i = 0; i < batch; ++i) out->mismatches += s->ranks[i] != want[i];
    out->attempted += batch;
    if (counted) {
      st.queries += batch;
      st.batch_ns.push_back(static_cast<double>(round.done - round.submit_begin));
      st.submit_ns += static_cast<double>(round.submit_end - round.submit_begin);
      st.wait_ns += static_cast<double>(round.wait_ns);
      if (!st.have_report) {
        st.report = std::move(report);
        st.have_report = true;
      } else {
        st.report.merge(report);
      }
    }
    free_slots.push_back(s);
  };

  while (now_ns() < t_end) {
    while (!free_slots.empty()) {
      Slot* s = free_slots.back();
      free_slots.pop_back();
      s->batch = (*next_batch)++ % nbatches;
      s->round = client.rounds().size();
      s->ticket = client.submit(pool.subspan(s->batch * batch, batch), &s->ranks);
      in_flight.push_back(s);
    }
    retire(true);
  }
  st.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  while (!in_flight.empty()) retire(false);
  return st;
}

/// Busy share of the serving nodes/workers (RunReport::nodes[1..]) over
/// a phase of `seconds` wall time.
double node_busy_frac(const core::RunReport& report, double seconds) {
  if (report.nodes.size() < 2 || seconds <= 0) return 0;
  double busy = 0;
  for (std::size_t i = 1; i < report.nodes.size(); ++i)
    busy += dici::ps_to_sec(report.nodes[i].busy);
  return busy / (seconds * static_cast<double>(report.nodes.size() - 1));
}

void set_wire_metrics(const core::RunReport& report, Metrics* m) {
  const double q = std::max<double>(1, static_cast<double>(report.num_queries));
  m->set("net.msgs_per_query", static_cast<double>(report.messages) / q, "msg/query",
         report.num_queries);
  m->set("net.wire_bytes_per_query", static_cast<double>(report.wire_bytes) / q,
         "B/query", report.num_queries);
  m->set("cluster.retries", static_cast<double>(report.retries), "count");
  m->set("cluster.failovers", static_cast<double>(report.failovers), "count");
}

/// Per-layer metrics of the layers the other workload uses are reported
/// as 0, so both workloads emit the same names (see README.md).
void set_absent_layers(bool cluster_workload, Metrics* m) {
  if (!cluster_workload) {
    m->set("cluster.node_busy_frac", 0, "fraction");
    m->set("net.msgs_per_query", 0, "msg/query");
    m->set("net.wire_bytes_per_query", 0, "B/query");
    m->set("cluster.retries", 0, "count");
    m->set("cluster.failovers", 0, "count");
  } else {
    m->set("parallel.worker_busy_frac", 0, "fraction");
    m->set("parallel.stolen_frac", 0, "fraction");
    m->set("store.rebuilds_per_s", 0, "1/s");
    m->set("store.rebuild_active_frac", 0, "fraction");
    m->set("store.delta_keys_mean", 0, "count");
    m->set("store.flush_p50_us", 0, "us");
    m->set("store.flush_p99_us", 0, "us");
    m->set("batcher.wait_p50_us", 0, "us");
    m->set("batcher.keys_per_round", 0, "count");
    m->set("batcher.deadline_flush_frac", 0, "fraction");
    m->set("core.pin_release_waits", 0, "count");
    m->set("trace.tail_rebuild_frac", 0, "fraction");
    m->set("trace.tail_pin_release_frac", 0, "fraction");
  }
}

void set_span_metrics(const Tracer& tracer, Metrics* m) {
  m->set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  m->set("trace.spans_dropped", static_cast<double>(tracer.dropped()), "count");
}

/// Write the trace file and the per-name self-time table (stderr).
void export_trace(const Tracer& tracer, const Options& opt) {
  const std::vector<Span> spans = tracer.spans();
  const std::string label = opt.workload + "-seed" + std::to_string(opt.seed);
  const std::string path = opt.out_dir + "/trace-" + label + ".json";
  if (!write_chrome_trace(path, spans, label))
    throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(), path.c_str());
  std::fprintf(stderr, "  %-24s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const SpanTotals& t : totals_by_name(spans)) {
    std::fprintf(stderr, "  %-24s %10" PRIu64 " %14.3f %14.3f\n", t.name.c_str(),
                 t.count, static_cast<double>(t.total_ns) / 1e6,
                 static_cast<double>(t.self_ns) / 1e6);
  }
}

// ---------------------------------------------------------------------------
// cluster-ring-closed: a 3-node ring cluster, pipelined closed loop.

struct ClosedSpec {
  std::size_t keys = 0;
  std::size_t pool = 0;
  std::size_t batch = 16384;
  std::uint32_t nodes = 3;
};

void run_closed(const Options& opt, const ClosedSpec& spec, Sampler& sampler,
                Metrics* m, Outcome* out) {
  const std::vector<key_t> keys = uniform_sorted_keys(spec.keys, opt.seed);
  Rng qrng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
  const std::vector<key_t> pool = uniform_queries(spec.pool, qrng);
  const std::vector<rank_t> expected = merge_ranks(keys, pool);

  cluster::ClusterConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.transport = dici::net::TransportKind::kRing;
  const cluster::ClusterEngine engine(cfg);

  // Each measured sub-run serves a freshly built index, so thread
  // placement and allocator state are re-drawn per sub-run as well.
  Tracer on(opt.trace);
  std::vector<double> setup_s, build_s;
  std::size_t next_batch = 0;
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t subruns = slices_for(window);
  const double warmup = std::min(0.25, window / static_cast<double>(subruns) / 4);
  const auto sub_run = [&](Tracer* tracer, std::size_t i, bool measure) {
    std::shared_ptr<const core::Index> index;
    std::unique_ptr<TracedClient> client;
    std::this_thread::sleep_for(kSetupSettle);
    {
      ScopedSpan setup(tracer, "setup", 0, i);
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(tracer, "engine.build", setup.id(), i);
        index = engine.build(keys);
      }
      const std::int64_t t1 = now_ns();
      {
        ScopedSpan span(tracer, "index.connect", setup.id(), i);
        client = std::make_unique<TracedClient>(index->connect());
      }
      const std::int64_t t2 = now_ns();
      build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    }
    PhaseStats st;
    if (!measure) return st;
    sampler.reset_peak();
    closed_loop(*client, pool, expected, spec.batch, warmup, &next_batch, out);
    client->set_tracer(tracer);
    const Jiffies j = read_jiffies();
    st = closed_loop(*client, pool, expected, spec.batch,
                     window / static_cast<double>(subruns), &next_batch, out);
    st.steal = steal_since(j);
    client->set_tracer(nullptr);
    return st;
  };

  // Set-ups without a measured sub-run first, so at least kSetupRepeats
  // set-ups are timed.
  std::size_t builds = 0;
  for (; builds + subruns < kSetupRepeats; ++builds) sub_run(nullptr, builds, false);
  std::vector<double> qps, rss, steal, batch_ns;
  for (std::size_t i = 0; i < subruns; ++i) {
    const PhaseStats st = sub_run(nullptr, builds++, true);
    qps.push_back(st.qps());
    rss.push_back(sampler.peak_rss_mib());
    steal.push_back(st.steal);
    batch_ns.insert(batch_ns.end(), st.batch_ns.begin(), st.batch_ns.end());
  }
  const double p50 = percentile(batch_ns, 50);
  const double p99 = percentile(batch_ns, 99);
  const std::uint64_t batches = batch_ns.size();
  m->set("throughput_qps", median(qps), "1/s", qps.size());
  m->set("latency_p50_us", p50 / 1e3, "us", batches);
  m->set("latency_p90_us", percentile(batch_ns, 90) / 1e3, "us", batches);
  m->set("latency_p99_us", p99 / 1e3, "us", batches);
  m->set("setup_s", median(setup_s), "s", setup_s.size());
  m->set("peak_rss_mb", median(rss), "MiB", rss.size());
  m->set("batch_p50_ms", p50 / 1e6, "ms", batches);
  m->set("batch_p99_ms", p99 / 1e6, "ms", batches);
  m->set("host_steal_frac", mean(steal), "fraction", steal.size());
  m->set("sub_runs", static_cast<double>(subruns), "count");
  if (!opt.trace) return;

  // The traced pass: the same sub-runs with every call wrapped in spans.
  PhaseStats traced;
  std::vector<double> traced_qps;
  for (std::size_t i = 0; i < subruns; ++i) {
    PhaseStats st = sub_run(&on, builds + i, true);
    traced_qps.push_back(st.qps());
    traced.seconds += st.seconds;
    traced.queries += st.queries;
    traced.submit_ns += st.submit_ns;
    traced.wait_ns += st.wait_ns;
    traced.batch_ns.insert(traced.batch_ns.end(), st.batch_ns.begin(), st.batch_ns.end());
    if (!traced.have_report) {
      traced.report = std::move(st.report);
      traced.have_report = true;
    } else {
      traced.report.merge(st.report);
    }
  }
  const double q = std::max<double>(1, static_cast<double>(traced.queries));
  m->set("core.submit_ns_per_query", traced.submit_ns / q, "ns", traced.batch_ns.size());
  m->set("core.wait_blocked_frac", traced.wait_ns / (traced.seconds * 1e9), "fraction");
  m->set("core.build_s", median(build_s), "s", build_s.size());
  m->set("trace.overhead_qps", median(traced_qps) - median(qps), "1/s");
  m->set("trace.overhead_p50_us", (percentile(traced.batch_ns, 50) - p50) / 1e3, "us");
  set_wire_metrics(traced.report, m);
  m->set("cluster.node_busy_frac", node_busy_frac(traced.report, traced.seconds), "fraction");
  set_absent_layers(true, m);

  ReplayShape shape;
  shape.keys = keys;
  shape.shards = spec.nodes;
  shape.msg_queries = spec.batch / spec.nodes;
  shape.delta_keys = core::StoreOptions{}.max_delta_keys / 2;
  shape.fold_delta_keys = shape.delta_keys;
  shape.kernel = cfg.kernel;
  shape.interleave_width = cfg.interleave_width;
  shape.fold_threads = core::StoreOptions{}.writer_threads;
  shape.seed = opt.seed;
  shape.seconds_per_replay = opt.tiny ? 0.02 : 0.3;
  run_layer_replays(shape, &on, m);
  set_span_metrics(on, m);
  export_trace(on, opt);
}

// ---------------------------------------------------------------------------
// store-parallel-open: a Store over a 2-worker parallel engine, Poisson reads
// through run_open_loop, a paced writer beside them.

struct WriteRound {
  std::int64_t begin = 0;  ///< before insert()
  std::int64_t end = 0;    ///< after flush() returned
  std::vector<key_t> inserts;  ///< sorted
  std::vector<key_t> erases;   ///< sorted
};

/// The paced writer: rounds of `per_round` inserts of fresh keys and
/// `per_round` erases of initial keys, then flush(), at `key_writes_per_s`.
/// Every key is written at most once, which keeps the readers' rank
/// bounds exact: fresh keys are a bijection of a counter, so none
/// repeats, and no set of inserted keys is kept. A round is logged when
/// it begins (end = max until its flush returns), so a snapshot taken
/// while reads are checked covers every write those reads could have
/// seen.
class PacedWriter {
 public:
  static constexpr std::int64_t kInProgress = std::numeric_limits<std::int64_t>::max();

  PacedWriter(core::Store& store, std::span<const key_t> initial, std::uint64_t seed,
              double key_writes_per_s, std::size_t per_round)
      : writer_(store.writer()),
        initial_(initial),
        erased_(initial.size(), false),
        rng_(seed ^ 0xa11ce),
        fresh_salt_(static_cast<std::uint32_t>(rng_.next() >> 32)),
        period_ns_(2e9 * static_cast<double>(per_round) / key_writes_per_s),
        per_round_(per_round),
        thread_([this] { loop(); }) {}
  ~PacedWriter() { stop(); }
  PacedWriter(const PacedWriter&) = delete;
  PacedWriter& operator=(const PacedWriter&) = delete;

  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<WriteRound> rounds() const {
    std::lock_guard lock(mu_);
    return rounds_;
  }
  /// flush() durations (ns) of the rounds that ended inside `intervals`.
  Summary flushes_within(
      const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals) const {
    std::lock_guard lock(mu_);
    Summary s;
    for (const auto& [end, ns] : flush_ns_)
      for (const auto& [t0, t1] : intervals)
        if (end >= t0 && end <= t1) s.add(ns);
    return s;
  }
  /// Valid after stop().
  std::uint64_t failed() const { return failed_; }
  std::uint64_t attempted() const { return attempted_; }
  core::Writer& writer() { return *writer_; }

 private:
  void loop() {
    std::int64_t next = now_ns();
    for (std::uint64_t id = 0; !stop_.load();) {
      const std::int64_t now = now_ns();
      if (now < next) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::int64_t>(next - now, 1'000'000)));
        continue;
      }
      next += static_cast<std::int64_t>(period_ns_);
      round(id++);
    }
  }

  void round(std::uint64_t id) {
    WriteRound r;
    while (r.inserts.size() < per_round_) {
      const key_t k = fresh_key(fresh_++);
      if (!std::binary_search(initial_.begin(), initial_.end(), k)) r.inserts.push_back(k);
    }
    while (r.erases.size() < per_round_) {
      const std::size_t i = rng_.next() % initial_.size();
      if (erased_[i]) continue;
      erased_[i] = true;
      r.erases.push_back(initial_[i]);
    }
    std::sort(r.inserts.begin(), r.inserts.end());
    std::sort(r.erases.begin(), r.erases.end());
    const std::span<const key_t> inserts(r.inserts), erases(r.erases);
    std::size_t slot;
    {
      std::lock_guard lock(mu_);
      r.begin = now_ns();
      r.end = kInProgress;
      slot = rounds_.size();
      rounds_.push_back(std::move(r));
    }
    Tracer* tracer = tracer_.load();
    ScopedSpan span(tracer, "writer.round", 0, id);
    std::size_t changed;
    {
      ScopedSpan s(tracer, "writer.insert", span.id(), id);
      changed = writer_->insert(inserts);
    }
    {
      ScopedSpan s(tracer, "writer.erase", span.id(), id);
      changed += writer_->erase(erases);
    }
    const std::int64_t f0 = now_ns();
    {
      ScopedSpan s(tracer, "writer.flush", span.id(), id);
      writer_->flush();
    }
    const std::int64_t end = now_ns();
    {
      std::lock_guard lock(mu_);
      rounds_[slot].end = end;
      flush_ns_.push_back({end, static_cast<double>(end - f0)});
    }
    attempted_ += 2 * per_round_;
    failed_ += 2 * per_round_ - changed;
  }

  /// A bijection of the 32-bit space (the murmur3 finaliser; xor,
  /// xor-shift and odd multiplies are each invertible), so distinct
  /// counters give distinct keys.
  key_t fresh_key(std::uint32_t i) const {
    std::uint32_t x = i ^ fresh_salt_;
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    x *= 0xc2b2ae35u;
    x ^= x >> 16;
    return x;
  }

  std::unique_ptr<core::Writer> writer_;
  std::span<const key_t> initial_;
  std::vector<bool> erased_;
  Rng rng_;
  const std::uint32_t fresh_salt_;
  std::uint32_t fresh_ = 0;
  const double period_ns_;
  const std::size_t per_round_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<WriteRound> rounds_;  // guarded by mu_
  std::vector<std::pair<std::int64_t, double>> flush_ns_;  // (end, ns), mu_
  std::uint64_t failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

std::int64_t count_le(std::span<const key_t> sorted, key_t q) {
  return std::upper_bound(sorted.begin(), sorted.end(), q) - sorted.begin();
}

/// Check every read against the live sets it could have seen. A read
/// round takes the store's generation inside submit(), so it sees every
/// write round whose flush returned before the submit began, none that
/// began after the submit ended, and any prefix of those in between.
///
/// The exact rank over the surely-visible rounds is a dominance count:
/// written keys <= q from rounds < visible. One sweep over the queries in
/// key order, adding written keys to a Fenwick tree indexed by round,
/// gives all of them in O((reads + writes) log rounds).
std::uint64_t verify_reads(std::span<const key_t> initial,
                           const std::vector<WriteRound>& writes,
                           const std::vector<TracedClient::Round>& reads,
                           std::span<const key_t> queries,
                           std::span<const rank_t> ranks) {
  // Per read round: rounds [0, visible) surely seen, [visible, maybe) perhaps.
  std::vector<std::uint32_t> visible(queries.size());
  std::vector<std::pair<std::size_t, std::size_t>> window(reads.size());
  std::size_t v = 0;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    while (v < writes.size() && writes[v].end < reads[r].submit_begin) ++v;
    std::size_t maybe = v;
    while (maybe < writes.size() && writes[maybe].begin <= reads[r].submit_end) ++maybe;
    window[r] = {v, maybe};
    std::fill_n(visible.begin() + static_cast<std::ptrdiff_t>(reads[r].first), reads[r].count,
                static_cast<std::uint32_t>(v));
  }

  struct Point {
    key_t key;
    std::uint32_t round;
    int sign;
  };
  std::vector<Point> points;
  for (std::size_t w = 0; w < writes.size(); ++w) {
    for (const key_t k : writes[w].inserts) points.push_back({k, static_cast<std::uint32_t>(w), 1});
    for (const key_t k : writes[w].erases) points.push_back({k, static_cast<std::uint32_t>(w), -1});
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) { return a.key < b.key; });
  std::vector<std::int64_t> tree(writes.size() + 1, 0);

  std::vector<std::uint64_t> order(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    order[i] = (std::uint64_t{queries[i]} << 32) | i;
  std::sort(order.begin(), order.end());
  std::vector<std::int64_t> exact(queries.size());
  std::size_t k = 0, p = 0;
  for (const std::uint64_t packed : order) {
    const key_t q = static_cast<key_t>(packed >> 32);
    const std::size_t i = packed & 0xffffffffu;
    while (k < initial.size() && initial[k] <= q) ++k;
    for (; p < points.size() && points[p].key <= q; ++p)
      for (std::size_t t = points[p].round + 1; t < tree.size(); t += t & (~t + 1))
        tree[t] += points[p].sign;
    std::int64_t e = static_cast<std::int64_t>(k);
    for (std::size_t t = visible[i]; t > 0; t &= t - 1) e += tree[t];
    exact[i] = e;
  }

  std::uint64_t bad = 0;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const auto [lo_round, hi_round] = window[r];
    for (std::uint64_t i = reads[r].first; i < reads[r].first + reads[r].count; ++i) {
      std::int64_t lo = exact[i], hi = exact[i];
      for (std::size_t w = lo_round; w < hi_round; ++w) {
        lo -= count_le(writes[w].erases, queries[i]);
        hi += count_le(writes[w].inserts, queries[i]);
      }
      const auto got = static_cast<std::int64_t>(ranks[i]);
      bad += got < lo || got > hi;
    }
  }
  return bad;
}

struct OpenSpec {
  std::size_t keys = 0;
  double read_qps = 0;
  double key_writes_per_s = 0;
  std::size_t per_round = 32;  ///< inserts (and as many erases) per write round
  std::uint32_t workers = 2;
  std::size_t final_queries = 0;
};

/// A measured stretch of the open loop: back-to-back run_open_loop calls
/// of about kOpenSliceSeconds each, every read checked as its call returns.
struct OpenPhase {
  std::vector<double> p50_ns, p90_ns, p99_ns;  ///< per call (each over ~1 M reads)
  Summary latency_ns;  ///< every read of every call (sets the tail for attribution)
  std::vector<double> peak_mib;        ///< per call: peak RSS
  std::vector<double> qps;             ///< per call: achieved read rate
  std::vector<double> steal;           ///< per call: host steal share
  std::uint64_t queries = 0;
  std::uint64_t rounds = 0, deadline_flushes = 0;
  core::RunReport report;
  /// TracedClient::rounds() of the phase; kept only when keep_rounds.
  std::size_t first_round = 0, end_round = 0;
  /// When the run_open_loop calls ran; the checks between them are not
  /// part of the measured window.
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  double serving_s = 0;
  std::uint64_t rebuilds = 0;
  Sampler::Window window;
  Summary batcher_wait_ns;
};

OpenPhase open_phase(TracedClient& client, const core::Store& store, Sampler& sampler,
                     const PacedWriter& writer, std::span<const key_t> initial,
                     double seconds, bool keep_rounds, double read_qps,
                     const dici::workload::ServingConfig& config, Rng& qrng, Outcome* out) {
  OpenPhase p;
  p.first_round = client.rounds().size();
  client.reset_batcher_wait();
  const std::size_t calls = slices_for(seconds, kOpenSliceSeconds);
  for (std::size_t c = 0; c < calls; ++c) {
    const std::vector<key_t> queries = uniform_queries(
        static_cast<std::size_t>(read_qps * seconds / static_cast<double>(calls)), qrng);
    const std::size_t round0 = client.rounds().size();
    const std::uint64_t query0 = client.submitted();
    dici::workload::ServingConfig call = config;
    call.arrivals.seed = config.arrivals.seed + qrng.next();
    const std::uint64_t rebuilds0 = store.rebuilds();
    sampler.reset_peak();
    sampler.take_window();
    const Jiffies j = read_jiffies();
    const std::int64_t t0 = now_ns();
    const dici::workload::ServingResult r =
        dici::workload::run_open_loop(client, queries, call);
    const std::int64_t t1 = now_ns();
    p.steal.push_back(steal_since(j));
    p.qps.push_back(r.achieved_qps);
    p.window += sampler.take_window();
    p.peak_mib.push_back(sampler.peak_rss_mib());
    p.rebuilds += store.rebuilds() - rebuilds0;
    p.intervals.push_back({t0, t1});
    p.serving_s += static_cast<double>(t1 - t0) / 1e9;

    std::vector<TracedClient::Round> rounds(
        client.rounds().begin() + static_cast<std::ptrdiff_t>(round0), client.rounds().end());
    for (TracedClient::Round& round : rounds) round.first -= query0;
    out->mismatches += verify_reads(initial, writer.rounds(), rounds, queries, r.ranks);
    out->attempted += queries.size();
    if (!keep_rounds) client.forget_rounds();

    p.p50_ns.push_back(r.observed_latency_ns.percentile(50));
    p.p90_ns.push_back(r.observed_latency_ns.percentile(90));
    p.p99_ns.push_back(r.observed_latency_ns.percentile(99));
    p.latency_ns.merge(r.observed_latency_ns);
    p.queries += r.num_queries;
    p.rounds += r.batches;
    p.deadline_flushes += r.deadline_flushes;
    if (c == 0)
      p.report = r.engine_total;
    else
      p.report.merge(r.engine_total);
  }
  p.end_round = client.rounds().size();
  p.batcher_wait_ns = client.batcher_wait_ns();
  return p;
}

bool overlaps(std::int64_t a0, std::int64_t a1,
              const std::vector<std::pair<std::int64_t, std::int64_t>>& windows) {
  for (const auto& [b0, b1] : windows)
    if (b0 < a1 && a0 < b1) return true;
  return false;
}

void run_store_open(const Options& opt, const OpenSpec& spec, Sampler& sampler,
                    Metrics* m, Outcome* out) {
  const std::vector<key_t> keys = uniform_sorted_keys(spec.keys, opt.seed);
  core::ParallelConfig cfg;
  cfg.num_threads = spec.workers;

  Tracer off(false);
  Tracer on(opt.trace);
  std::vector<double> setup_s, build_s;
  std::shared_ptr<core::Store> store;
  std::unique_ptr<TracedClient> client;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    client.reset();
    store.reset();
    std::this_thread::sleep_for(kSetupSettle);
    ScopedSpan setup(&on, "setup", 0, i);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(&on, "store.create", setup.id(), i);
      store = core::Store::create(std::make_unique<core::ParallelNativeEngine>(cfg), keys);
    }
    const std::int64_t t1 = now_ns();
    {
      ScopedSpan span(&on, "store.connect", setup.id(), i);
      client = std::make_unique<TracedClient>(store->connect());
    }
    const std::int64_t t2 = now_ns();
    build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }

  dici::workload::ServingConfig serving;
  serving.arrivals.process = dici::workload::ArrivalProcess::kPoisson;
  serving.arrivals.offered_qps = spec.read_qps;
  serving.arrivals.seed = opt.seed ^ 0x9e3779b97f4a7c15ull;
  serving.collect_ranks = true;
  Rng qrng(opt.seed * 0x9e3779b97f4a7c15ull + 2);

  sampler.attach(store.get(), &off);
  // Declared after store: detaches before the store can be destroyed,
  // on the exception path too.
  struct DetachOnExit {
    Sampler& sampler;
    ~DetachOnExit() { sampler.detach(); }
  } detach_on_exit{sampler};

  PacedWriter writer(*store, keys, opt.seed, spec.key_writes_per_s, spec.per_round);
  const auto phase = [&](double seconds, bool keep_rounds) {
    return open_phase(*client, *store, sampler, writer, keys, seconds, keep_rounds,
                      spec.read_qps, serving, qrng, out);
  };
  phase(std::min(1.0, opt.seconds / 10), false);  // warm-up, verified, not measured
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const OpenPhase base = phase(window, false);
  OpenPhase traced;
  if (opt.trace) {
    client->set_tracer(&on);
    writer.set_tracer(&on);
    sampler.attach(store.get(), &on);
    // The traced pass keeps its round records for tail attribution.
    traced = phase(window, true);
    writer.set_tracer(nullptr);
    client->set_tracer(&off);
  }
  writer.stop();
  {
    ScopedSpan span(&on, "writer.flush");
    writer.writer().flush();
  }
  out->attempted += writer.attempted();
  out->failed_writes += writer.failed();

  // Full pass after the final flush against the writer's mirror.
  std::vector<key_t> mirror;
  std::vector<key_t> written;
  {
    std::vector<key_t> erased;
    for (const WriteRound& w : writer.rounds()) {
      erased.insert(erased.end(), w.erases.begin(), w.erases.end());
      written.insert(written.end(), w.inserts.begin(), w.inserts.end());
    }
    std::sort(erased.begin(), erased.end());
    std::set_difference(keys.begin(), keys.end(), erased.begin(), erased.end(),
                        std::back_inserter(mirror));
    mirror.insert(mirror.end(), written.begin(), written.end());
    std::sort(mirror.begin(), mirror.end());
    written.insert(written.end(), erased.begin(), erased.end());
  }
  std::vector<key_t> final_q = uniform_queries(spec.final_queries, qrng);
  final_q.insert(final_q.end(), written.begin(), written.end());
  const std::vector<rank_t> want = merge_ranks(mirror, final_q);
  const auto check = store->connect();
  std::vector<rank_t> got;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < final_q.size(); i += 65536) {
    const std::size_t n = std::min<std::size_t>(65536, final_q.size() - i);
    check->wait(check->submit(std::span<const key_t>(final_q).subspan(i, n), &got));
    for (std::size_t j = 0; j < n; ++j) bad += got[j] != want[i + j];
  }
  out->mismatches += bad;
  out->attempted += final_q.size();

  const Summary flush = writer.flushes_within(base.intervals);
  const double qps = median(base.qps);
  const double p50 = median(base.p50_ns);
  const double p99 = median(base.p99_ns);
  m->set("throughput_qps", qps, "1/s", base.qps.size());
  m->set("latency_p50_us", p50 / 1e3, "us", base.queries);
  m->set("latency_p90_us", median(base.p90_ns) / 1e3, "us", base.queries);
  m->set("latency_p99_us", p99 / 1e3, "us", base.queries);
  m->set("setup_s", median(setup_s), "s", setup_s.size());
  m->set("peak_rss_mb", median(base.peak_mib), "MiB", base.peak_mib.size());
  m->set("host_steal_frac", mean(base.steal), "fraction", base.steal.size());
  m->set("sub_runs", static_cast<double>(base.qps.size()), "count");
  m->set("read_p50_us", p50 / 1e3, "us", base.queries);
  m->set("read_p99_us", p99 / 1e3, "us", base.queries);
  m->set("achieved_ratio", qps / spec.read_qps, "fraction");
  m->set("flush_p50_us", flush.percentile(50) / 1e3, "us", flush.count());
  m->set("flush_p99_us", flush.percentile(99) / 1e3, "us", flush.count());
  if (!opt.trace) return;

  const double wall = traced.serving_s;
  double submit_ns = 0, wait_ns = 0;
  std::uint64_t queries = 0, pin_releases = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> release_waits;
  const auto& all = client->rounds();
  for (std::size_t r = traced.first_round; r < traced.end_round; ++r) {
    submit_ns += static_cast<double>(all[r].submit_end - all[r].submit_begin);
    wait_ns += static_cast<double>(all[r].wait_ns);
    queries += all[r].count;
    if (all[r].released_pin) {
      ++pin_releases;
      release_waits.push_back({all[r].done - all[r].wait_ns, all[r].done});
    }
  }
  // Tail attribution: rounds whose oldest read finished past the p99.
  const double tail_ns = traced.latency_ns.percentile(99);
  const auto rebuilds = sampler.rebuild_windows();
  std::uint64_t tail = 0, tail_rebuild = 0, tail_release = 0;
  for (std::size_t r = traced.first_round; r < traced.end_round; ++r) {
    const std::int64_t arrival =
        all[r].submit_begin - static_cast<std::int64_t>(all[r].oldest_queued_ns);
    if (static_cast<double>(all[r].done - arrival) < tail_ns) continue;
    ++tail;
    tail_rebuild += overlaps(arrival, all[r].done, rebuilds);
    tail_release += overlaps(arrival, all[r].done, release_waits);
  }
  const auto frac = [](double a, double b) { return a / std::max(1.0, b); };
  const Summary tflush = writer.flushes_within(traced.intervals);
  m->set("core.submit_ns_per_query", frac(submit_ns, static_cast<double>(queries)), "ns",
         traced.end_round - traced.first_round);
  m->set("core.wait_blocked_frac", wait_ns / (wall * 1e9), "fraction");
  m->set("core.build_s", median(build_s), "s", build_s.size());
  m->set("core.pin_release_waits", static_cast<double>(pin_releases), "count");
  m->set("parallel.worker_busy_frac", node_busy_frac(traced.report, wall), "fraction");
  m->set("parallel.stolen_frac",
         frac(static_cast<double>(traced.report.stolen_messages),
              static_cast<double>(traced.report.messages)),
         "fraction");
  m->set("store.rebuilds_per_s", static_cast<double>(traced.rebuilds) / wall, "1/s",
         traced.rebuilds);
  m->set("store.rebuild_active_frac",
         frac(static_cast<double>(traced.window.active),
              static_cast<double>(traced.window.samples)),
         "fraction", traced.window.samples);
  const double delta_mean =
      frac(traced.window.delta_sum, static_cast<double>(traced.window.delta_samples));
  m->set("store.delta_keys_mean", delta_mean, "count", traced.window.delta_samples);
  m->set("store.flush_p50_us", tflush.percentile(50) / 1e3, "us", tflush.count());
  m->set("store.flush_p99_us", tflush.percentile(99) / 1e3, "us", tflush.count());
  m->set("batcher.wait_p50_us", traced.batcher_wait_ns.percentile(50) / 1e3, "us",
         traced.batcher_wait_ns.count());
  const double keys_per_round =
      frac(static_cast<double>(traced.queries), static_cast<double>(traced.rounds));
  m->set("batcher.keys_per_round", keys_per_round, "count", traced.rounds);
  m->set("batcher.deadline_flush_frac",
         frac(static_cast<double>(traced.deadline_flushes), static_cast<double>(traced.rounds)),
         "fraction", traced.rounds);
  m->set("trace.overhead_qps", median(traced.qps) - qps, "1/s");
  m->set("trace.overhead_p50_us", (median(traced.p50_ns) - p50) / 1e3, "us");
  m->set("trace.tail_rebuild_frac",
         frac(static_cast<double>(tail_rebuild), static_cast<double>(tail)), "fraction", tail);
  m->set("trace.tail_pin_release_frac",
         frac(static_cast<double>(tail_release), static_cast<double>(tail)), "fraction", tail);
  set_absent_layers(false, m);

  ReplayShape shape;
  shape.keys = keys;
  shape.shards = spec.workers;
  shape.msg_queries =
      std::max<std::size_t>(1, static_cast<std::size_t>(keys_per_round / spec.workers));
  shape.delta_keys = std::max<std::size_t>(1, static_cast<std::size_t>(delta_mean));
  const core::StoreOptions so;
  shape.fold_delta_keys = static_cast<std::size_t>(
      std::ceil(static_cast<double>(so.max_delta_keys) * so.rebuild_trigger_fraction));
  shape.kernel = cfg.kernel;
  shape.interleave_width = cfg.interleave_width;
  shape.fold_threads = so.writer_threads;
  shape.seed = opt.seed;
  shape.seconds_per_replay = opt.tiny ? 0.02 : 0.3;
  run_layer_replays(shape, &on, m);
  set_span_metrics(on, m);
  export_trace(on, opt);
}

// ---------------------------------------------------------------------------
// Self-test: the arithmetic the reported numbers rest on, on inputs whose
// answers are known by hand.

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };

  // Self time. A [0,100] has children B [10,30], C [20,50] (overlapping
  // B) and D [90,120] (runs past A's end); E [12,18] is B's child; F's
  // parent never finished, so F has no parent in the set.
  const std::vector<Span> tree = {
      {1, 0, "A", 0, 0, 0, 100}, {2, 1, "B", 0, 0, 10, 30},
      {3, 1, "C", 0, 1, 20, 50}, {4, 1, "D", 0, 0, 90, 120},
      {5, 2, "E", 0, 0, 12, 18}, {6, 99, "F", 0, 0, 5, 9},
  };
  const std::vector<std::int64_t> self = self_times(tree);
  expect(self == std::vector<std::int64_t>{50, 14, 30, 30, 6, 4}, "self_times");
  const std::vector<SpanTotals> totals = totals_by_name(tree);
  expect(totals.size() == 6 && totals[0].name == "A" && totals[0].total_ns == 100 &&
             totals[0].self_ns == 50,
         "totals_by_name");

  // Reference ranks by merge equal std::upper_bound, duplicates and
  // extreme values included.
  Rng rng(7);
  std::vector<key_t> keys = uniform_sorted_keys(5000, 11);
  expect(std::adjacent_find(keys.begin(), keys.end(), std::greater_equal<>()) == keys.end(),
         "uniform_sorted_keys strictly increasing");
  expect(keys == uniform_sorted_keys(5000, 11), "uniform_sorted_keys deterministic");
  std::vector<key_t> queries = uniform_queries(20000, rng);
  queries.insert(queries.end(), {0u, 0xffffffffu, keys.front(), keys.back(), keys[17]});
  queries.insert(queries.end(), keys.begin(), keys.begin() + 100);
  const std::vector<rank_t> ranks = merge_ranks(keys, queries);
  bool same = true;
  for (std::size_t i = 0; i < queries.size(); ++i)
    same &= ranks[i] == static_cast<rank_t>(std::upper_bound(keys.begin(), keys.end(),
                                                             queries[i]) - keys.begin());
  expect(same, "merge_ranks == std::upper_bound");

  // Read bounds under concurrent writes. Initial {10,20,30}; write round
  // 0 (t 100..200) inserts 15 and erases 20; round 1 (t 300..400)
  // inserts 21. Query 22 ranks 2 before round 0, 2 after it (or 1 or 3
  // with half of it applied), 3 after round 1.
  const std::vector<key_t> initial = {10, 20, 30};
  std::vector<WriteRound> writes(2);
  writes[0] = {100, 200, {15}, {20}};
  writes[1] = {300, 400, {21}, {}};
  const std::vector<key_t> q = {22, 22, 22, 22, 22};
  const auto read = [](std::int64_t b, std::int64_t e, std::uint64_t first) {
    TracedClient::Round r;
    r.submit_begin = b;
    r.submit_end = e;
    r.first = first;
    r.count = 1;
    return r;
  };
  // Submits: before everything; inside round 0; between rounds; inside
  // round 1; after everything.
  const std::vector<TracedClient::Round> reads = {read(50, 60, 0), read(150, 160, 1),
                                                  read(250, 260, 2), read(350, 360, 3),
                                                  read(450, 460, 4)};
  const std::vector<rank_t> good = {2, 1, 2, 3, 3};
  expect(verify_reads(initial, writes, reads, q, good) == 0, "verify_reads accepts");
  const std::vector<rank_t> bad = {3, 0, 3, 1, 2};
  expect(verify_reads(initial, writes, reads, q, bad) == 5, "verify_reads rejects");

  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

void print_json(const Options& opt, const Outcome& out, const Metrics& m) {
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d,\"seconds\":%.17g,",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0, opt.seconds);
  std::printf("\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",",
              out.failed() == 0 ? "true" : "false", out.attempted,
              out.failed());
  std::printf("\"mismatches\":%" PRIu64 ",\"node_failures\":%" PRIu64
              ",\"failed_writes\":%" PRIu64 ",\"metrics\":{",
              out.mismatches, out.node_failures, out.failed_writes);
  bool first = true;
  for (const Metric& x : m.all()) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%" PRIu64 "}",
                first ? "" : ",", x.name.c_str(), std::isfinite(x.value) ? x.value : 0.0,
                x.unit.c_str(), x.samples);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: dici_perfbench --workload cluster-ring-closed|"
               "store-parallel-open [--seed N] [--seconds S] [--trace 0|1]\n"
               "                      [--out-dir DIR] [--tiny]\n"
               "       dici_perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--selftest") return selftest();
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (a == "--out-dir") opt.out_dir = value();
      else if (a == "--tiny") opt.tiny = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be > 0");

  // A fixed mmap threshold: every block of 256 KiB or more is mapped on
  // its own and unmapped when freed. glibc's default threshold rises
  // after such frees, after which a freed multi-MiB index can stay
  // stranded in the heap, and peak RSS read 42 or 46 MiB from run to run.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Metrics metrics;
  Outcome outcome;
  Sampler sampler;
  try {
    if (opt.workload == "cluster-ring-closed") {
      ClosedSpec spec;
      spec.keys = opt.tiny ? 1u << 16 : 1u << 20;
      spec.pool = opt.tiny ? 1u << 16 : 1u << 21;
      spec.batch = opt.tiny ? 4096 : 16384;
      run_closed(opt, spec, sampler, &metrics, &outcome);
    } else if (opt.workload == "store-parallel-open") {
      OpenSpec spec;
      spec.keys = opt.tiny ? 1u << 16 : 1u << 20;
      spec.read_qps = opt.tiny ? 1e5 : 1e6;
      spec.key_writes_per_s = opt.tiny ? 5e3 : 2e4;
      spec.final_queries = opt.tiny ? 1u << 14 : 1u << 20;
      run_store_open(opt, spec, sampler, &metrics, &outcome);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const dici::cluster::NodeFailureError& e) {
    ++outcome.node_failures;
    std::fprintf(stderr, "perfbench: node %u failed: %s\n", e.node(), e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  metrics.set("error_rate",
              static_cast<double>(outcome.failed()) /
                  std::max<double>(1, static_cast<double>(outcome.attempted)),
              "fraction", outcome.attempted);
  print_json(opt, outcome, metrics);
  return outcome.failed() == 0 ? 0 : 1;
}
