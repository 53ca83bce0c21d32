#include "perfbench/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void Tracer::record(const Span& span) {
  std::lock_guard lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
                       std::uint64_t req)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.name = name;
  span_.req = req;
  span_.tid = thread_index();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  tracer_->record(span_);
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) children[it->second].push_back({s.start_ns, s.end_ns});
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (const auto& [ks, ke] : kids) {
      const std::int64_t s = std::max(ks, lo);
      const std::int64_t e = std::min(ke, hi);
      if (e <= s) continue;
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<SpanTotals> totals_by_name(std::span<const Span> spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanTotals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = by_name[spans[i].name];
    t.name = spans[i].name;
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  std::vector<SpanTotals> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

bool write_chrome_trace(const std::string& path, std::span<const Span> spans,
                        const std::string& label) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = spans[0].start_ns;
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  }
  const std::vector<std::int64_t> self = self_times(spans);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"run\":\"%s\"},",
               label.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench %s\"}}",
               label.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"req\":%llu,\"self_us\":%.3f}}",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
