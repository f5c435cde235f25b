// CSP encoding #2 (§V) expressed declaratively for the *generic* solver:
// one n+1-valued variable x_j(t) per processor and slot.
//
// The paper solves CSP2 with a dedicated search procedure (src/csp2); this
// encoding lets the generic engine consume the same model, which isolates
// the contribution of the encoding from the contribution of the hand-made
// search strategy (ablation bench B).
//
// Deviations from the paper's presentation:
//   * idle is encoded as value n (not -1) so that ascending value order
//     means "tasks first, idle last", matching search rule 1's intent;
//   * the symmetry rule (10)/(13) is posted as a declarative chain
//     propagator per identical-processor group (optional).
//
// Constraints, built from window arithmetic without a job table
// (src/csp/DESIGN.md §17):
//   (7)       x_j(t) keeps task i iff slot t lies in a window of i and
//             s_{i,j} > 0 (§VI-A): one AND of per-slot and per-processor
//             task masks, plus idle;
//   (8)       AllDifferentExcept(idle) per slot column;
//   (9)/(12)  CountEq / WeightedCountEq per job window, scopes in job
//             order (task, k, window slot, processor);
//   (10)/(13) SymmetryChain per identical group and slot, posted at its
//             root fixpoint over (7)'s domains: chain position p starts
//             without the p smallest tasks of its slot, so root
//             propagation need not derive those prunes.
#pragma once

#include <memory>
#include <vector>

#include "csp/solver.hpp"
#include "rt/platform.hpp"
#include "rt/schedule.hpp"
#include "rt/task_set.hpp"

namespace mgrts::enc {

struct Csp2GenericOptions {
  /// Post the symmetry-breaking chains (rule (10), restricted to identical
  /// groups as in rule (13) on heterogeneous platforms).
  bool symmetry_chains = true;
};

struct Csp2GenericModel {
  std::unique_ptr<csp::Solver> solver;
  rt::Time hyperperiod = 0;
  std::int32_t tasks = 0;
  std::int32_t processors = 0;

  /// Idle is the largest value: n.
  [[nodiscard]] csp::Value idle_value() const noexcept { return tasks; }

  /// Variable id of x_j(t); chronological-major so the generic kLex
  /// heuristic matches the paper's chronological variable ordering.
  [[nodiscard]] csp::VarId var(rt::ProcId j, rt::Time t) const {
    return static_cast<csp::VarId>(t * processors + j);
  }
};

/// Builds the model.  Requires n <= 63 (Domain64 span); throws
/// ResourceError when m*T exceeds the variable budget or n is too large.
[[nodiscard]] Csp2GenericModel build_csp2_generic(
    const rt::TaskSet& ts, const rt::Platform& platform,
    const Csp2GenericOptions& options = {}, csp::SolverLimits limits = {});

/// Decodes a satisfying assignment into a schedule.
[[nodiscard]] rt::Schedule decode_csp2_generic(
    const Csp2GenericModel& model, const std::vector<csp::Value>& values);

}  // namespace mgrts::enc
