// CPU affinity helpers for the native (threaded) engines.
//
// The paper's Method C keeps each partition resident in one CPU's cache;
// on a real multicore box that requires pinning the owning thread. All
// pin targets come from the *allowed* mask (sched_getaffinity) rather
// than the online-CPU count: under taskset, a container cpuset, or an
// already-restricted parent the process may only run on a subset of the
// machine, and pinning to a CPU outside that subset either fails or —
// worse — silently widens the mask. On a machine with fewer allowed
// CPUs than workers the calls degrade gracefully (pin to the allowed
// CPU at index `cpu % allowed`).
#pragma once

#include <span>
#include <vector>

namespace dici {

/// Number of CPUs this process is allowed to run on (the allowed mask's
/// population count, not the machine's online count). Always >= 1.
int available_cpus();

/// The calling thread's allowed mask as a sorted list of OS CPU ids —
/// the only valid pin targets. Once the thread has pinned itself through
/// this header, this stays the mask it had before that first pin, so a
/// pinned thread can re-pin anywhere it was allowed to start with (and
/// nowhere else). Falls back to {0} on platforms without affinity
/// queries.
std::vector<int> allowed_cpus();

/// The pin target `slot` maps to: the allowed CPU at index
/// `slot % allowed.size()`. Pure (injectable mask) so the wrap-around /
/// restricted-cpuset policy is unit-testable without changing the
/// process's own mask. Returns -1 for an empty mask.
int pin_target(std::span<const int> allowed, int slot);

/// Pin the calling thread to the allowed CPU at index
/// `cpu % available_cpus()`. Returns true on success; false (without
/// aborting) on platforms/configurations where affinity cannot be set —
/// callers treat pinning as best-effort.
bool pin_current_thread(int cpu);

/// Pin the calling thread to one specific OS CPU id (no wrap-around).
/// Best-effort like pin_current_thread; returns false when the id is
/// not in the allowed mask.
bool pin_current_thread_to_os_cpu(int os_cpu);

/// Restrict the calling thread to a set of OS CPU ids (node-scoped
/// pinning: any core of one NUMA node). Ids outside the allowed mask
/// are dropped; returns false when none remain or the platform cannot
/// set affinity.
bool pin_current_thread_to_cpus(std::span<const int> os_cpus);

}  // namespace dici
