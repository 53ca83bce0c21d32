// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call the benchmark makes into a layer of dici
// (build, connect, submit, wait, writer flush, an isolated kernel
// replay, ...). Spans carry a parent id, so a batch's submit and wait
// nest under the batch, and a request id, so every span of one batch
// or write round can be grouped. Nothing is written while the workload
// runs: spans stay in memory and are exported as Chrome trace-event
// JSON when the run ends (open the file in https://ui.perfetto.dev or
// chrome://tracing).
//
// Self time is a span's duration minus the union of its children's
// intervals (clipped to the span). Children may overlap each other and
// may come from other threads; the union counts overlapping time once.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in the process.
std::int64_t now_ns();

/// Small per-thread id (0 = the first thread that asked), for trace tids.
std::uint32_t thread_index();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< static string
  std::uint64_t req = 0;     ///< batch / round / replay-iteration id
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and ScopedSpan reads no clock.
  explicit Tracer(bool enabled, std::size_t max_spans = 4'000'000)
      : enabled_(enabled), max_spans_(max_spans) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  /// Store a finished span; past max_spans it is counted, not kept.
  void record(const Span& span);

  std::vector<Span> spans() const;
  std::uint64_t dropped() const;

 private:
  const bool enabled_;
  const std::size_t max_spans_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t dropped_ = 0;  // guarded by mu_
};

/// RAII span: starts at construction, recorded at destruction. With a
/// null or disabled tracer it does nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when not tracing), for use as a child's parent.
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time of every span, in input order: duration minus the union of
/// its children's intervals clipped to [start, end].
std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// Per-name totals over a span set.
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::vector<SpanTotals> totals_by_name(std::span<const Span> spans);

/// Write `spans` as Chrome trace-event JSON ("X" complete events; ts and
/// dur in microseconds from the earliest span). Returns false on I/O
/// failure.
bool write_chrome_trace(const std::string& path, std::span<const Span> spans,
                        const std::string& label);

}  // namespace perfbench
