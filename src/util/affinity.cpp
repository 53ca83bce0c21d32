#include "src/util/affinity.hpp"

#include <algorithm>

#if defined(__linux__)
#include <cerrno>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace dici {

#if defined(__linux__)
namespace {

/// Dynamically sized CPU mask: hosts can expose more possible CPUs than
/// CPU_SETSIZE (1024), where the fixed-size sched_getaffinity call
/// fails with EINVAL — exactly the big-NUMA hardware placement targets,
/// so the mask grows until the kernel accepts it.
class CpuMask {
 public:
  CpuMask() = default;
  CpuMask(const CpuMask&) = delete;
  CpuMask& operator=(const CpuMask&) = delete;
  ~CpuMask() {
    if (set_ != nullptr) CPU_FREE(set_);
  }

  bool alloc(int bits) {
    if (set_ != nullptr) CPU_FREE(set_);
    bits_ = std::max(bits, 1);
    set_ = CPU_ALLOC(static_cast<std::size_t>(bits_));
    if (set_ == nullptr) return false;
    bytes_ = CPU_ALLOC_SIZE(static_cast<std::size_t>(bits_));
    CPU_ZERO_S(bytes_, set_);
    return true;
  }

  /// Fill with the calling thread's allowed mask, growing on EINVAL.
  bool read_allowed() {
    for (int bits = CPU_SETSIZE; bits <= (1 << 20); bits <<= 1) {
      if (!alloc(bits)) return false;
      if (sched_getaffinity(0, bytes_, set_) == 0) return true;
      if (errno != EINVAL) return false;
    }
    return false;
  }

  bool test(int cpu) const {
    return cpu >= 0 && cpu < bits_ && CPU_ISSET_S(cpu, bytes_, set_);
  }
  void set(int cpu) {
    if (cpu >= 0 && cpu < bits_) CPU_SET_S(cpu, bytes_, set_);
  }
  int bits() const { return bits_; }

  bool apply() const {
    return pthread_setaffinity_np(pthread_self(), bytes_, set_) == 0;
  }

 private:
  cpu_set_t* set_ = nullptr;
  std::size_t bytes_ = 0;
  int bits_ = 0;
};

/// The calling thread's current allowed mask, sorted; empty when it
/// cannot be read.
std::vector<int> read_thread_cpus() {
  CpuMask mask;
  std::vector<int> cpus;
  if (!mask.read_allowed()) return cpus;
  for (int cpu = 0; cpu < mask.bits(); ++cpu)
    if (mask.test(cpu)) cpus.push_back(cpu);
  return cpus;
}

/// The calling thread's mask as it stood before this library first
/// pinned it; empty until then. sched_getaffinity reports the thread's
/// CURRENT mask, which narrows to the pin target as soon as the thread
/// pins itself — read afresh, it would forbid a thread pinned to one
/// NUMA node from ever re-pinning to another. A restriction applied
/// from outside (taskset, a cgroup cpuset, a restricted parent) is
/// already in the mask the first pin snapshots, so it still holds.
thread_local std::vector<int> t_pre_pin_cpus;

const std::vector<int>& pre_pin_cpus() {
  if (t_pre_pin_cpus.empty()) t_pre_pin_cpus = read_thread_cpus();
  return t_pre_pin_cpus;
}

bool pre_pin_allows(int cpu) {
  const std::vector<int>& cpus = pre_pin_cpus();
  return std::binary_search(cpus.begin(), cpus.end(), cpu);
}

}  // namespace
#endif  // __linux__

std::vector<int> allowed_cpus() {
#if defined(__linux__)
  std::vector<int> cpus =
      t_pre_pin_cpus.empty() ? read_thread_cpus() : t_pre_pin_cpus;
  if (!cpus.empty()) return cpus;
  // Query failed: fall back to the online count so callers still get a
  // plausible target list (ids 0..n-1).
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  for (int cpu = 0; cpu < std::max(1L, n); ++cpu) cpus.push_back(cpu);
  return cpus;
#else
  return {0};
#endif
}

int available_cpus() {
  return static_cast<int>(allowed_cpus().size());
}

int pin_target(std::span<const int> allowed, int slot) {
  if (allowed.empty()) return -1;
  const std::size_t idx =
      static_cast<std::size_t>(slot < 0 ? -(slot + 1) : slot) % allowed.size();
  return allowed[idx];
}

bool pin_current_thread(int cpu) {
  const std::vector<int> allowed = allowed_cpus();
  return pin_current_thread_to_os_cpu(pin_target(allowed, cpu));
}

bool pin_current_thread_to_os_cpu(int os_cpu) {
#if defined(__linux__)
  if (os_cpu < 0) return false;
  // setaffinity REPLACES the mask, and the kernel only checks the
  // cgroup cpuset — so without this guard a stale target would silently
  // WIDEN a taskset-style restriction instead of failing.
  if (!pre_pin_allows(os_cpu)) return false;
  CpuMask one;
  if (!one.alloc(std::max(os_cpu + 1, CPU_SETSIZE))) return false;
  one.set(os_cpu);
  return one.apply();
#else
  (void)os_cpu;
  return false;
#endif
}

bool pin_current_thread_to_cpus(std::span<const int> os_cpus) {
#if defined(__linux__)
  // Intersect with the allowed mask so a stale topology (CPUs since
  // removed from the cpuset) degrades instead of failing or widening.
  const std::vector<int>& allowed = pre_pin_cpus();
  if (allowed.empty()) return false;
  CpuMask target;
  if (!target.alloc(std::max(allowed.back() + 1, CPU_SETSIZE))) return false;
  int kept = 0;
  for (const int cpu : os_cpus) {
    if (!pre_pin_allows(cpu)) continue;
    target.set(cpu);
    ++kept;
  }
  if (kept == 0) return false;
  return target.apply();
#else
  (void)os_cpus;
  return false;
#endif
}

}  // namespace dici
