// Deterministic, seed-driven fault injection for the hardened execution
// layer (DESIGN.md §12).
//
// A FaultInjector is armed process-wide with a FaultPlan: a seed, a firing
// rate, a bitmask of sites, and an optional total-fault cap.  Every
// instrumented code path calls fault_point(site); whether a given
// evaluation fires is a pure function of (plan seed, site, per-site
// evaluation counter), so a chaos schedule replays bit-identically across
// runs and platforms — the property the soundness differential relies on.
//
// Sites fall into two groups:
//   * throwing sites (kFlowNetwork, kJobTable, kScheduleTable,
//     kCspVarBudget, kPropagator) raise FaultInjectedError from the guard
//     they shadow, exercising the same degradation path a real allocation
//     failure would take;
//   * deadline sites (kDeadline, kCancel, kStall) are consumed by
//     Deadline::poll() — forced expiry, cooperative cancellation of the
//     plan's target token, or a bounded stall that starves the heartbeat so
//     the portfolio watchdog has something to catch.
//
// Compiled out: building with -DMGRTS_FAULT_INJECTION=0 (CMake option
// MGRTS_FAULT_INJECTION=OFF) turns fault_point into an empty inline
// function, so release hot paths carry no injector load at all.  When
// compiled in but disarmed, the cost is one relaxed atomic load per site.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/deadline.hpp"

#ifndef MGRTS_FAULT_INJECTION
#define MGRTS_FAULT_INJECTION 1
#endif

namespace mgrts::support {

enum class FaultSite : int {
  kFlowNetwork = 0,  ///< flow oracle network allocation (flow/oracle.cpp)
  kJobTable,         ///< job window guard (rt/jobs.cpp: the job table and
                     ///< the generic CSP2 model) and the flow oracle's
                     ///< window guard (flow/oracle.cpp)
  kScheduleTable,    ///< schedule table allocation (rt/schedule.cpp)
  kCspVarBudget,     ///< CSP variable budget (csp/solver.cpp)
  kDeadline,         ///< forced deadline expiry mid-propagation
  kCancel,           ///< cooperative cancellation mid-search
  kPropagator,       ///< induced failure inside the propagation queue
  kStall,            ///< bounded stall starving the lane heartbeat
};

inline constexpr int kFaultSiteCount = 8;

[[nodiscard]] const char* to_string(FaultSite site);

struct FaultPlan {
  std::uint64_t seed = 0;
  /// Firing probability per evaluation of an armed site, in [0, 1].
  double rate = 0.0;
  /// Bitmask over FaultSite (see mask()); 0 arms nothing.
  unsigned sites = 0;
  /// Total faults across all sites; -1 = unlimited.
  std::int64_t max_faults = -1;
  /// Token cancelled when a kCancel fault fires.
  CancelToken cancel_target;
  /// Upper bound on a kStall sleep, so a stall without a watchdog or a
  /// finite deadline still terminates.
  std::int64_t stall_cap_ms = 10'000;

  [[nodiscard]] static constexpr unsigned mask(FaultSite site) noexcept {
    return 1u << static_cast<unsigned>(static_cast<int>(site));
  }
};

class FaultInjector {
 public:
  /// Arms the process-wide injector with `plan`, resetting all counters.
  /// Arming is test-harness machinery: callers must not arm/disarm while
  /// solver threads are mid-run.
  static void arm(const FaultPlan& plan);

  /// Disarms; fault_point() becomes a single relaxed load again.
  static void disarm();

  [[nodiscard]] static FaultInjector* active() noexcept {
    return active_.load(std::memory_order_acquire);
  }

  /// Deterministically decides whether `site` fires at this evaluation and
  /// advances the per-site evaluation counter.  Honors the plan's site
  /// mask, rate, and max_faults cap.
  [[nodiscard]] bool fires(FaultSite site) noexcept;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Faults actually delivered at `site` / across all sites so far.
  [[nodiscard]] std::int64_t fired(FaultSite site) const noexcept;
  [[nodiscard]] std::int64_t fired_total() const noexcept;

 private:
  FaultInjector() = default;

  static std::atomic<FaultInjector*> active_;

  FaultPlan plan_;
  std::atomic<std::uint64_t> evals_[kFaultSiteCount] = {};
  std::atomic<std::int64_t> fired_[kFaultSiteCount] = {};
  std::atomic<std::int64_t> fired_total_{0};
};

/// Out-of-line slow path: consults the armed injector and throws
/// FaultInjectedError when a throwing site fires.  (kDeadline/kCancel/
/// kStall are consumed by Deadline::poll instead and never reach here.)
void fault_point_slow(FaultSite site);

/// Injection hook placed next to the resource guards it shadows.  Disarmed
/// cost: one relaxed atomic load.  Compiled out entirely with
/// MGRTS_FAULT_INJECTION=0.
inline void fault_point([[maybe_unused]] FaultSite site) {
#if MGRTS_FAULT_INJECTION
  if (FaultInjector::active() != nullptr) fault_point_slow(site);
#endif
}

}  // namespace mgrts::support
