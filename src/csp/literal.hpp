// Bound/value literals over Domain64 variables (DESIGN.md §11).
//
// A literal is a primitive statement about one variable's final value:
// var == v, var != v, var <= v, var >= v.  Every trail entry of the solver
// *is* a literal becoming true (a fix is "var == v", a removal is
// "var != v", a removal at the root min/max is a bound movement), which is
// what lets conflict analysis resolve on implied literals instead of whole
// decisions: learned nogoods are conjunctions of Lits, replayed by the
// nogood store with generalized watches (a <=/>= watch fires on bound
// movement, not only on a fix).
//
// Truth sets are over all integers; domain-relative reasoning goes through
// truth_mask (the satisfying subset of a Domain64's 64-value window), so
// entailment and impossibility are two mask tests each.
#pragma once

#include <cstdint>

#include "csp/domain.hpp"
#include "support/assert.hpp"

namespace mgrts::csp {

using VarId = std::int32_t;

/// Relation of a literal; kLe/kGe are inclusive.
enum class Rel : std::uint8_t { kEq, kNe, kLe, kGe };

struct Lit {
  VarId var = -1;
  Value val = 0;
  Rel rel = Rel::kEq;

  [[nodiscard]] static constexpr Lit eq(VarId v, Value a) noexcept {
    return Lit{v, a, Rel::kEq};
  }
  [[nodiscard]] static constexpr Lit ne(VarId v, Value a) noexcept {
    return Lit{v, a, Rel::kNe};
  }
  [[nodiscard]] static constexpr Lit le(VarId v, Value a) noexcept {
    return Lit{v, a, Rel::kLe};
  }
  [[nodiscard]] static constexpr Lit ge(VarId v, Value a) noexcept {
    return Lit{v, a, Rel::kGe};
  }

  friend constexpr bool operator==(const Lit&, const Lit&) noexcept = default;
};

/// Logical negation: ¬(v == a) is (v != a), ¬(v <= a) is (v >= a + 1).
[[nodiscard]] constexpr Lit negate(Lit l) noexcept {
  switch (l.rel) {
    case Rel::kEq:
      return Lit{l.var, l.val, Rel::kNe};
    case Rel::kNe:
      return Lit{l.var, l.val, Rel::kEq};
    case Rel::kLe:
      return Lit{l.var, l.val + 1, Rel::kGe};
    case Rel::kGe:
      return Lit{l.var, l.val - 1, Rel::kLe};
  }
  return l;
}

/// Bitmask of the values in the window [base, base + 63] satisfying `l`
/// (bit i stands for base + i).  Values outside the window are clamped
/// away, so masking a Domain64's raw mask with this is exact for any
/// domain based at `base`.
[[nodiscard]] constexpr std::uint64_t truth_mask(Lit l, Value base) noexcept {
  const std::int64_t off = static_cast<std::int64_t>(l.val) - base;
  switch (l.rel) {
    case Rel::kEq:
      return off >= 0 && off < Domain64::kMaxSpan
                 ? std::uint64_t{1} << static_cast<unsigned>(off)
                 : 0;
    case Rel::kNe:
      return ~truth_mask(Lit{l.var, l.val, Rel::kEq}, base);
    case Rel::kLe:
      if (off < 0) return 0;
      if (off >= Domain64::kMaxSpan - 1) return ~std::uint64_t{0};
      return (std::uint64_t{1} << static_cast<unsigned>(off + 1)) - 1;
    case Rel::kGe:
      if (off <= 0) return ~std::uint64_t{0};
      if (off >= Domain64::kMaxSpan) return 0;
      return ~((std::uint64_t{1} << static_cast<unsigned>(off)) - 1);
  }
  return 0;
}

/// True when every value of `mask` (based at `base`) satisfies `l` — the
/// literal *must* hold whatever value the variable takes.  An empty mask is
/// vacuously entailed.
[[nodiscard]] constexpr bool entailed_mask(std::uint64_t mask, Value base,
                                          Lit l) noexcept {
  return (mask & ~truth_mask(l, base)) == 0;
}

/// True when no value of `mask` satisfies `l` — the literal can never hold.
[[nodiscard]] constexpr bool impossible_mask(std::uint64_t mask, Value base,
                                            Lit l) noexcept {
  return (mask & truth_mask(l, base)) == 0;
}

[[nodiscard]] inline bool entailed(const Domain64& d, Lit l) noexcept {
  return entailed_mask(d.raw_mask(), d.base(), l);
}

[[nodiscard]] inline bool impossible(const Domain64& d, Lit l) noexcept {
  return impossible_mask(d.raw_mask(), d.base(), l);
}

/// Truth-set containment over all integers: every value satisfying `a`
/// satisfies `b`.  False whenever the literals speak about different
/// variables (no cross-variable implication exists).
[[nodiscard]] constexpr bool implies(Lit a, Lit b) noexcept {
  if (a.var != b.var) return false;
  switch (a.rel) {
    case Rel::kEq:
      switch (b.rel) {
        case Rel::kEq:
          return a.val == b.val;
        case Rel::kNe:
          return a.val != b.val;
        case Rel::kLe:
          return a.val <= b.val;
        case Rel::kGe:
          return a.val >= b.val;
      }
      return false;
    case Rel::kNe:
      // A co-finite truth set only fits inside another co-finite one.
      return b.rel == Rel::kNe && a.val == b.val;
    case Rel::kLe:
      if (b.rel == Rel::kLe) return a.val <= b.val;
      return b.rel == Rel::kNe && b.val > a.val;
    case Rel::kGe:
      if (b.rel == Rel::kGe) return a.val >= b.val;
      return b.rel == Rel::kNe && b.val < a.val;
  }
  return false;
}

/// Nogood subsumption: nogood A (the conjunction of `a[0..a_len)`) makes
/// nogood B redundant when every state forbidden by B is forbidden by A —
/// i.e. conj(B) implies conj(A): every literal of A is implied by some
/// literal of B.  A shorter clause whose literals are individually weaker
/// therefore subsumes a longer, more specific one.
[[nodiscard]] inline bool nogood_subsumes(const Lit* a, std::int32_t a_len,
                                          const Lit* b,
                                          std::int32_t b_len) noexcept {
  MGRTS_ASSERT(a_len >= 0 && b_len >= 0);
  for (std::int32_t i = 0; i < a_len; ++i) {
    bool covered = false;
    for (std::int32_t j = 0; j < b_len && !covered; ++j) {
      covered = implies(b[j], a[i]);
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace mgrts::csp
