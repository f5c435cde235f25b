// Wall-clock budgets for solver runs.
//
// The paper imposes a 30 s resolution-time limit per run (§VII-C).  Solvers
// poll a Deadline at a coarse granularity (every few thousand search nodes)
// so the steady_clock read does not dominate the node rate.
//
// A Deadline can additionally carry a CancelToken: portfolio racing
// (core::solve_portfolio) hands every lane the same token and the first lane
// to decide cancels the rest.  Cancellation is cooperative — a cancelled run
// reports kTimeout at its next deadline poll, exactly like a wall-clock
// expiry — so no solver needs cancellation-specific control flow.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace mgrts::support {

/// Shared cooperative cancellation flag.  Default-constructed tokens are
/// empty (no allocation, never cancelled); make() creates a live flag.
/// Copies share the flag; cancel() is sticky and thread-safe.
///
/// linked(parent) creates a token that also reports cancelled once the
/// parent does, while its own cancel() leaves the parent untouched — a
/// portfolio race hands its lanes a linked token, so the caller's token
/// still aborts the whole race but the winner's cancel cannot leak out.
/// Links chain: a token linked to a linked token observes cancellation
/// anywhere up the ancestry (caller -> race -> lane), which the per-lane
/// watchdog tokens rely on.
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] static CancelToken make() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  [[nodiscard]] static CancelToken linked(const CancelToken& parent) {
    CancelToken token = make();
    if (parent.flag_ != nullptr || parent.parent_ != nullptr) {
      token.parent_ = std::make_shared<const CancelToken>(parent);
    }
    return token;
  }

  /// True when the token carries a flag (make()-created or a copy thereof).
  [[nodiscard]] bool engaged() const noexcept { return flag_ != nullptr; }

  /// Cancels this token (not a linked parent).
  void cancel() const noexcept {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return (flag_ && flag_->load(std::memory_order_relaxed)) ||
           (parent_ && parent_->cancelled());
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
  std::shared_ptr<const CancelToken> parent_;
};

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// A deadline that never expires.
  Deadline() = default;

  /// A deadline `budget` from now; a non-positive budget expires
  /// immediately, and one past the clock's range saturates at its end.
  static Deadline after(std::chrono::nanoseconds budget) {
    Deadline d;
    d.unlimited_ = false;
    const Clock::time_point now = Clock::now();
    d.end_ = budget < Clock::time_point::max() - now
                 ? now + std::max(budget, std::chrono::nanoseconds(0))
                 : Clock::time_point::max();
    return d;
  }

  /// As after(), for a budget in milliseconds (any int64, saturating).
  static Deadline after_ms(std::int64_t ms) {
    constexpr std::int64_t kMaxMs =
        std::chrono::nanoseconds::max().count() / 1'000'000;
    return after(std::chrono::milliseconds(std::clamp<std::int64_t>(
        ms, 0, kMaxMs)));
  }

  /// Attaches a cooperative cancel flag; expired() then also reports true
  /// once the token is cancelled.
  void set_cancel(CancelToken token) noexcept { cancel_ = std::move(token); }

  /// Attaches a progress heartbeat: every poll() bumps the counter, so an
  /// external watchdog can distinguish "still searching" from "stuck".
  void set_heartbeat(
      std::shared_ptr<std::atomic<std::uint64_t>> beat) noexcept {
    beat_ = std::move(beat);
  }

  [[nodiscard]] bool unlimited() const noexcept {
    return unlimited_ && !cancel_.engaged();
  }

  [[nodiscard]] bool expired() const noexcept {
    if (cancel_.cancelled()) return true;
    return !unlimited_ && Clock::now() >= end_;
  }

  /// True when the attached cancel token (if any) was cancelled — lets
  /// containment layers tell cancellation apart from wall expiry when
  /// attributing a kTimeout verdict to a FailureCause.
  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_.cancelled();
  }

  /// Cooperative poll used at solver node-count checkpoints: ticks the
  /// heartbeat, services armed deadline-class fault injection (forced
  /// expiry, cancellation of the plan's target, bounded stall), then
  /// returns expired().  Solvers call this instead of expired() at their
  /// periodic checkpoints; expired() stays the pure side-effect-free query.
  [[nodiscard]] bool poll() const;

  /// Remaining wall budget in milliseconds: -1 when unlimited, floored at
  /// 0 once past the end.  Lets nested runs (portfolio lanes behind a
  /// presolve prefilter) re-derive a budget that expires with the caller's
  /// instead of restarting the clock.  Cancellation does not shorten the
  /// estimate — cancel tokens are forwarded separately.
  [[nodiscard]] std::int64_t remaining_ms() const noexcept {
    if (unlimited_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          end_ - Clock::now())
                          .count();
    return left > 0 ? left : 0;
  }

 private:
  bool unlimited_ = true;
  Clock::time_point end_{};
  CancelToken cancel_;
  std::shared_ptr<std::atomic<std::uint64_t>> beat_;
};

/// Monotonic stopwatch used for reported resolution times.
class Stopwatch {
 public:
  Stopwatch() : start_(Deadline::Clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Deadline::Clock::now() - start_)
        .count();
  }

  [[nodiscard]] std::int64_t micros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Deadline::Clock::now() - start_)
        .count();
  }

 private:
  Deadline::Clock::time_point start_;
};

}  // namespace mgrts::support
