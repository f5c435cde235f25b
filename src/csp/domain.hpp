// Compact finite-domain representation.
//
// Every variable in the MGRTS encodings ranges over at most n+1 values
// (CSP2's {-1, 1..n}) or over {0,1} (CSP1), so a 64-bit mask relative to a
// base value covers all models this solver is asked to handle while keeping
// per-variable state at 16 bytes — CSP1 models reach millions of variables
// (the paper's Choco runs exhaust memory there; see the MemoryLimit guard).
#pragma once

#include <bit>
#include <cstdint>

#include "support/assert.hpp"

namespace mgrts::csp {

/// Value of a CSP variable.  Plain int; encodings map their semantics
/// (task ids, booleans) onto small ranges.
using Value = std::int32_t;

class Domain64 {
 public:
  static constexpr int kMaxSpan = 64;

  Domain64() = default;

  /// Domain {lo..hi}; hi - lo must be < 64.
  Domain64(Value lo, Value hi) : base_(lo) {
    MGRTS_EXPECTS(lo <= hi && hi - lo < kMaxSpan);
    const int span = static_cast<int>(hi - lo) + 1;
    mask_ = span == kMaxSpan ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << span) - 1);
  }

  [[nodiscard]] bool contains(Value v) const noexcept {
    const std::int64_t off = v - base_;
    return off >= 0 && off < kMaxSpan &&
           (mask_ >> static_cast<unsigned>(off)) & 1U;
  }

  /// Number of values: a popcount, which is a library call on builds
  /// without a hardware popcount, so singleton tests use mask_fixed.
  [[nodiscard]] int size() const noexcept { return std::popcount(mask_); }
  [[nodiscard]] bool empty() const noexcept { return mask_ == 0; }
  [[nodiscard]] bool is_fixed() const noexcept { return mask_fixed(mask_); }

  /// The single remaining value; domain must be fixed.
  [[nodiscard]] Value value() const noexcept {
    MGRTS_ASSERT(is_fixed());
    return base_ + std::countr_zero(mask_);
  }

  [[nodiscard]] Value min() const noexcept {
    MGRTS_ASSERT(!empty());
    return base_ + std::countr_zero(mask_);
  }

  [[nodiscard]] Value max() const noexcept {
    MGRTS_ASSERT(!empty());
    return base_ + (63 - std::countl_zero(mask_));
  }

  /// Removes v if present; returns true when the domain changed.
  bool remove(Value v) noexcept {
    if (!contains(v)) return false;
    mask_ &= ~(std::uint64_t{1} << static_cast<unsigned>(v - base_));
    return true;
  }

  /// Reduces the domain to {v}; returns true when the domain changed.
  /// v must be contained.
  bool fix(Value v) noexcept {
    MGRTS_ASSERT(contains(v));
    const std::uint64_t single = std::uint64_t{1}
                                 << static_cast<unsigned>(v - base_);
    if (mask_ == single) return false;
    mask_ = single;
    return true;
  }

  /// Iterates remaining values in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t bits = mask_;
    while (bits != 0) {
      const int off = std::countr_zero(bits);
      fn(base_ + off);
      bits &= bits - 1;
    }
  }

  [[nodiscard]] std::uint64_t raw_mask() const noexcept { return mask_; }
  void set_raw_mask(std::uint64_t mask) noexcept { mask_ = mask; }
  [[nodiscard]] Value base() const noexcept { return base_; }

  // ------------------------------------------------------- mask kernels
  //
  // Word-scan primitives over raw masks, shared by the hot propagator
  // sweeps and the nogood watch checks.  All of
  // them treat a mask exactly as a Domain64 with the same base: bit k is
  // value base + k.

  /// Number of values in a raw mask.
  [[nodiscard]] static constexpr int mask_size(std::uint64_t mask) noexcept {
    return std::popcount(mask);
  }

  /// True iff the raw mask holds exactly one value.
  [[nodiscard]] static constexpr bool mask_fixed(std::uint64_t mask) noexcept {
    return mask != 0 && (mask & (mask - 1)) == 0;
  }

  /// True iff value v is in the raw mask (relative to base).
  [[nodiscard]] static constexpr bool mask_contains(std::uint64_t mask,
                                                    Value base,
                                                    Value v) noexcept {
    const std::int64_t off = v - base;
    return off >= 0 && off < kMaxSpan &&
           ((mask >> static_cast<unsigned>(off)) & 1U) != 0;
  }

  /// Mask of every representable value <= v (relative to base).  Clamps at
  /// the window edges: v below the window gives 0, v at or past the top
  /// gives all ones — matching Lit::truth_mask's window semantics.
  [[nodiscard]] static constexpr std::uint64_t mask_le(Value base,
                                                       Value v) noexcept {
    const std::int64_t off = v - base;
    if (off < 0) return 0;
    if (off >= kMaxSpan - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << static_cast<unsigned>(off + 1)) - 1;
  }

  /// Mask of every representable value >= v (relative to base); clamped
  /// like mask_le.
  [[nodiscard]] static constexpr std::uint64_t mask_ge(Value base,
                                                       Value v) noexcept {
    const std::int64_t off = v - base;
    if (off <= 0) return ~std::uint64_t{0};
    if (off >= kMaxSpan) return 0;
    return ~std::uint64_t{0} << static_cast<unsigned>(off);
  }

  /// Iterates the values of a raw mask in ascending order (ctz scan).
  template <typename Fn>
  static void for_each_in_mask(std::uint64_t mask, Value base, Fn&& fn) {
    while (mask != 0) {
      const int off = std::countr_zero(mask);
      fn(base + off);
      mask &= mask - 1;
    }
  }

 private:
  std::uint64_t mask_ = 0;
  Value base_ = 0;
};

}  // namespace mgrts::csp
