#include "encodings/csp2_generic.hpp"

#include <string>
#include <vector>

#include "analysis/tests.hpp"
#include "csp/propagators.hpp"
#include "rt/jobs.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::enc {

using csp::VarId;
using rt::ProcId;
using rt::TaskId;
using rt::Time;

Csp2GenericModel build_csp2_generic(const rt::TaskSet& ts,
                                    const rt::Platform& platform,
                                    const Csp2GenericOptions& options,
                                    csp::SolverLimits limits) {
  if (!ts.is_constrained()) {
    throw ValidationError(
        "CSP2 expects a constrained-deadline system; expand clones first");
  }
  const Time T = ts.hyperperiod();
  const std::int32_t n = ts.size();
  const std::int32_t m = platform.processors();
  if (n + 1 > csp::Domain64::kMaxSpan) {
    throw ResourceError(
        "generic CSP2 encoding supports at most 63 tasks (domain width); use "
        "the dedicated solver for larger systems");
  }
  const auto var_count = static_cast<std::int64_t>(m) * T;
  if (var_count > limits.max_variables) {
    throw ResourceError("CSP2 model needs " + std::to_string(var_count) +
                        " variables, budget is " +
                        std::to_string(limits.max_variables));
  }

  Csp2GenericModel model;
  model.hyperperiod = T;
  model.tasks = n;
  model.processors = m;
  model.solver = std::make_unique<csp::Solver>(limits);
  csp::Solver& solver = *model.solver;
  const csp::Value idle = model.idle_value();

  for (std::int64_t k = 0; k < var_count; ++k) {
    static_cast<void>(solver.add_variable(0, idle));
  }

  const rt::WindowIndex windows(ts);

  // (7) + §VI-A domain rule: remove task values outside their windows and on
  // processors that cannot serve them.
  for (Time t = 0; t < T; ++t) {
    for (ProcId j = 0; j < m; ++j) {
      const VarId x = model.var(j, t);
      for (TaskId i = 0; i < n; ++i) {
        if (!windows.in_window(i, t) || !platform.can_run(i, j)) {
          const bool ok = solver.post_remove(x, i);
          MGRTS_ASSERT(ok);  // idle keeps every domain non-empty
        }
      }
    }
  }

  // (8): one processor per task per slot.
  for (Time t = 0; t < T; ++t) {
    std::vector<VarId> column;
    column.reserve(static_cast<std::size_t>(m));
    for (ProcId j = 0; j < m; ++j) column.push_back(model.var(j, t));
    solver.add(csp::make_all_different_except(std::move(column), idle));
  }

  // (9) / (12): per-job execution amount.
  const rt::JobTable jobs(ts);
  for (const rt::Job& job : jobs.jobs()) {
    std::vector<VarId> vars;
    std::vector<std::int64_t> weights;
    vars.reserve(job.slots.size() * static_cast<std::size_t>(m));
    weights.reserve(job.slots.size() * static_cast<std::size_t>(m));
    bool weighted = false;
    for (const Time t : job.slots) {
      for (ProcId j = 0; j < m; ++j) {
        const rt::Rate rate = platform.rate(job.task, j);
        if (rate == 0) continue;  // value i was removed from this variable
        vars.push_back(model.var(j, t));
        weights.push_back(rate);
        weighted = weighted || rate != 1;
      }
    }
    if (weighted) {
      solver.add(csp::make_weighted_count_eq(std::move(vars),
                                             std::move(weights), job.task,
                                             job.wcet));
    } else {
      solver.add(csp::make_count_eq(std::move(vars), job.task, job.wcet));
    }
  }

  // Promoted slack/demand rules (root_demand_prunes; identical platforms
  // only).  All three are necessary conditions — they tighten propagation
  // but can never flip a verdict.  Root infeasibility is posted as an
  // unsatisfiable CountEq so it flows through the normal solve path
  // (kUnsat at root propagation, zero search nodes).
  if (options.root_demand_prunes && platform.is_identical()) {
    bool root_infeasible =
        analysis::forced_demand_test(ts, m).verdict ==
        analysis::TestVerdict::kInfeasible;
    std::vector<std::int32_t> tight_per_slot(static_cast<std::size_t>(T), 0);
    for (const rt::Job& job : jobs.jobs()) {
      const auto capacity = static_cast<std::int64_t>(job.slots.size());
      if (job.wcet > capacity) root_infeasible = true;  // slack rule
      if (root_infeasible) break;
      if (job.wcet != capacity) continue;
      // Tight job: it must occupy exactly one processor in *every* slot of
      // its window (the dedicated solver's slack rule, made declarative).
      for (const Time t : job.slots) {
        ++tight_per_slot[static_cast<std::size_t>(t)];
        std::vector<VarId> column;
        column.reserve(static_cast<std::size_t>(m));
        for (ProcId j = 0; j < m; ++j) column.push_back(model.var(j, t));
        solver.add(csp::make_count_eq(std::move(column), job.task, 1));
      }
    }
    // Counting variant: more tight jobs over one slot than processors is a
    // pigeonhole the per-job counters cannot see at the root.
    for (const std::int32_t tight : tight_per_slot) {
      if (tight > m) root_infeasible = true;
    }
    if (root_infeasible) {
      // count(idle over {x}) == 2 is unsatisfiable over a single variable.
      solver.add(csp::make_count_eq({model.var(0, 0)}, idle, 2));
    }
  }

  // (10)/(13): optional symmetry chains per identical group and slot.
  if (options.symmetry_chains) {
    for (const auto& group : platform.identical_groups(n)) {
      if (group.size() < 2) continue;
      for (Time t = 0; t < T; ++t) {
        std::vector<VarId> chain;
        chain.reserve(group.size());
        for (const ProcId j : group) chain.push_back(model.var(j, t));
        solver.add(csp::make_symmetry_chain(std::move(chain), idle));
      }
    }
  }

  return model;
}

rt::Schedule decode_csp2_generic(const Csp2GenericModel& model,
                                 const std::vector<csp::Value>& values) {
  MGRTS_EXPECTS(static_cast<std::int64_t>(values.size()) ==
                static_cast<std::int64_t>(model.processors) *
                    model.hyperperiod);
  rt::Schedule schedule(model.hyperperiod, model.processors);
  for (Time t = 0; t < model.hyperperiod; ++t) {
    for (ProcId j = 0; j < model.processors; ++j) {
      const csp::Value v =
          values[static_cast<std::size_t>(model.var(j, t))];
      if (v != model.idle_value()) {
        schedule.set(t, j, static_cast<TaskId>(v));
      }
    }
  }
  return schedule;
}

}  // namespace mgrts::enc
