// Random problem generation following §VII-A.
//
// The paper's procedure: fix n, m, Tmax globally, then sample each task's
// parameters respecting 0 < C_i <= D_i <= T_i <= Tmax.  The order in which
// (C, D, T) are drawn shapes the distribution; the authors choose the
// "intermediate" option of sampling D_i first, then C_i and T_i (which are
// independent given D_i):
//     D ~ U(1..Tmax),  C ~ U(1..D),  T ~ U(D..Tmax).
// The two extremes they describe are available for the generator-ablation
// bench:
//     C -> D -> T  (favours large periods):  C ~ U(1..Tmax), D ~ U(C..Tmax),
//                                            T ~ U(D..Tmax);
//     T -> D -> C  (favours short WCETs):    T ~ U(1..Tmax), D ~ U(1..T),
//                                            C ~ U(1..D).
// Instances are NOT filtered by utilization (§VII-C keeps r > 1 instances);
// the experiment harness applies the r > 1 filter where the paper does.
//
// Processor counts: a fixed m (the paper uses m=5 for Tables I-III), a
// uniform draw from 1..n-1, or the §VII-E rule m = max(1, ceil(sum C_i/T_i))
// used by the Table IV scaling study.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/task_set.hpp"
#include "support/rng.hpp"

namespace mgrts::gen {

enum class ParamOrder {
  kDFirst,  ///< the paper's choice: D, then C and T given D
  kCdt,     ///< C -> D -> T (favours large periods)
  kTdc,     ///< T -> D -> C (favours short WCETs)
};

[[nodiscard]] const char* to_string(ParamOrder order);

enum class ProcessorRule {
  kFixed,        ///< use `processors` as given
  kUniform,      ///< m ~ U(1..n-1)  (the generic rule of §VII-A)
  kMinCapacity,  ///< m = max(1, ceil(U))  (§VII-E's m_min)
};

struct GeneratorOptions {
  std::int32_t tasks = 10;          ///< n > 2 per §VII-A
  std::int32_t processors = 5;      ///< used when rule == kFixed
  ProcessorRule rule = ProcessorRule::kFixed;
  rt::Time t_max = 7;               ///< Tmax >= 2
  ParamOrder order = ParamOrder::kDFirst;
  /// Sample release offsets O_i ~ U(0..T_i-1).  The paper's experiments use
  /// synchronous systems (offsets appear only in the running example), so
  /// the default is off.
  bool with_offsets = false;
};

struct Instance {
  rt::TaskSet tasks;
  std::int32_t processors = 1;
};

/// Draws one instance; deterministic given the rng state.
[[nodiscard]] Instance generate(const GeneratorOptions& options,
                                support::Rng& rng);

/// Convenience: the k-th instance of a reproducible stream.
[[nodiscard]] Instance generate_indexed(const GeneratorOptions& options,
                                        std::uint64_t seed,
                                        std::uint64_t index);

}  // namespace mgrts::gen
