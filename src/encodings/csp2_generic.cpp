#include "encodings/csp2_generic.hpp"

#include <algorithm>
#include <string>
#include <vector>

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

  // Every window walk below is bounded by the job table's slot budget.
  rt::guard_window_slots(ts, rt::JobTable::kDefaultSlotBudget);

  // (7) + §VI-A domain rule: x_j(t) keeps task i iff slot t lies in a window
  // of i and processor j can serve i.  Both are bit masks over the task
  // values (bit i is task i, bit n idle), so each domain is one AND.
  std::vector<std::uint64_t> in_window(static_cast<std::size_t>(T), 0);
  for (TaskId i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    for (Time k = 0; k < ts.jobs_per_hyperperiod(i); ++k) {
      rt::for_each_window_slot(ts, i, k, [&](Time t) {
        in_window[static_cast<std::size_t>(t)] |= bit;
      });
    }
  }
  std::vector<std::uint64_t> servable(static_cast<std::size_t>(m), 0);
  for (ProcId j = 0; j < m; ++j) {
    for (TaskId i = 0; i < n; ++i) {
      if (platform.can_run(i, j)) {
        servable[static_cast<std::size_t>(j)] |= std::uint64_t{1} << i;
      }
    }
  }
  const std::uint64_t idle_bit = std::uint64_t{1} << idle;
  for (Time t = 0; t < T; ++t) {
    for (ProcId j = 0; j < m; ++j) {
      const bool ok = solver.post_restrict(
          model.var(j, t), (in_window[static_cast<std::size_t>(t)] &
                            servable[static_cast<std::size_t>(j)]) |
                               idle_bit);
      MGRTS_ASSERT(ok);  // idle keeps every domain non-empty
    }
  }

  // (8): one processor per task per slot.
  for (Time t = 0; t < T; ++t) {
    std::vector<VarId> column;
    column.reserve(static_cast<std::size_t>(m));
    for (ProcId j = 0; j < m; ++j) column.push_back(model.var(j, t));
    solver.add(csp::make_all_different_except(std::move(column), idle));
  }

  // (9) / (12): per-job execution amount, jobs by task then k, each scope
  // slot by slot over the processors that can serve the task.
  for (TaskId i = 0; i < n; ++i) {
    std::vector<ProcId> servers;
    std::vector<std::int64_t> rates;
    for (ProcId j = 0; j < m; ++j) {
      const rt::Rate rate = platform.rate(i, j);
      if (rate == 0) continue;  // value i was removed from this variable
      servers.push_back(j);
      rates.push_back(rate);
    }
    const bool weighted = std::any_of(rates.begin(), rates.end(),
                                      [](std::int64_t r) { return r != 1; });
    const auto scope_size =
        static_cast<std::size_t>(ts[i].deadline()) * servers.size();
    for (Time k = 0; k < ts.jobs_per_hyperperiod(i); ++k) {
      std::vector<VarId> vars;
      std::vector<std::int64_t> weights;
      vars.reserve(scope_size);
      if (weighted) weights.reserve(scope_size);
      rt::for_each_window_slot(ts, i, k, [&](Time t) {
        for (const ProcId j : servers) vars.push_back(model.var(j, t));
        if (weighted) {
          weights.insert(weights.end(), rates.begin(), rates.end());
        }
      });
      if (weighted) {
        solver.add(csp::make_weighted_count_eq(std::move(vars),
                                               std::move(weights), i,
                                               ts[i].wcet()));
      } else {
        solver.add(csp::make_count_eq(std::move(vars), i, ts[i].wcet()));
      }
    }
  }

  // (10)/(13): optional symmetry chains per identical group and slot.  Each
  // chain's own fixpoint over (7)'s domains is posted before the chain is
  // added (no trail, no events), so root propagation starts there: the
  // chain's first run prunes nothing (DESIGN.md §17).
  if (options.symmetry_chains) {
    std::vector<csp::Domain64> domains;
    for (const auto& group : platform.identical_groups(n)) {
      if (group.size() < 2) continue;
      for (Time t = 0; t < T; ++t) {
        std::vector<VarId> chain;
        chain.reserve(group.size());
        domains.clear();
        for (const ProcId j : group) {
          chain.push_back(model.var(j, t));
          domains.push_back(solver.domain(chain.back()));
        }
        const bool ok = csp::SymmetryChain::root_fixpoint(domains, idle);
        MGRTS_ASSERT(ok);  // idle stays in every domain
        for (std::size_t p = 0; p < chain.size(); ++p) {
          solver.post_restrict(chain[p], domains[p].raw_mask());
        }
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
