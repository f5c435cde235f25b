#include "analysis/tests.hpp"

#include <algorithm>
#include <array>
#include <queue>
#include <vector>

#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace mgrts::analysis {

using rt::TaskId;
using rt::Time;
using support::Rational;

const char* to_string(TestVerdict verdict) {
  switch (verdict) {
    case TestVerdict::kFeasible: return "feasible";
    case TestVerdict::kInfeasible: return "infeasible";
    case TestVerdict::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

void require_constrained(const rt::TaskSet& ts) {
  if (!ts.is_constrained()) {
    throw ValidationError(
        "analysis tests expect a constrained-deadline system; expand clones "
        "first (TaskSet::to_constrained)");
  }
}

}  // namespace

TestResult utilization_test(const rt::TaskSet& ts, std::int32_t processors) {
  require_constrained(ts);
  MGRTS_EXPECTS(processors >= 1);
  TestResult result;
  result.test = "utilization";
  if (ts.exceeds_capacity(processors)) {
    const Rational u = ts.utilization();
    result.verdict = TestVerdict::kInfeasible;
    result.detail = "U = " + std::to_string(u.num()) + "/" +
                    std::to_string(u.den()) + " > m = " +
                    std::to_string(processors);
  }
  return result;
}

TestResult window_fit_test(const rt::TaskSet& ts, std::int32_t processors) {
  require_constrained(ts);
  MGRTS_EXPECTS(processors >= 1);
  TestResult result;
  result.test = "window-fit";
  for (TaskId i = 0; i < ts.size(); ++i) {
    if (ts[i].wcet() > ts[i].deadline()) {
      result.verdict = TestVerdict::kInfeasible;
      result.detail = ts[i].name + ": C = " + std::to_string(ts[i].wcet()) +
                      " > D = " + std::to_string(ts[i].deadline()) +
                      " cannot fit its window at unit speed";
      return result;
    }
  }
  return result;
}

TestResult forced_demand_test(const rt::TaskSet& ts, std::int32_t processors,
                              std::int64_t max_events) {
  require_constrained(ts);
  MGRTS_EXPECTS(processors >= 1);
  TestResult result;
  result.test = "forced-demand";

  // Jobs of task i end their windows at L = O_i + D_i + k*T_i.  Any job
  // whose window lies inside [0, L) must receive its full C_i there, so
  //     demand(L) = sum of C_i over window-ends <= L   must be <= m * L.
  // demand is a step function, so checking at each window end is exact.
  const Time horizon = ts.hyperperiod();
  const Time m = processors;
  const auto violated = [&](Time at, Time demand) {
    result.verdict = TestVerdict::kInfeasible;
    result.detail = "demand(" + std::to_string(at) + ") = " +
                    std::to_string(demand) + " > m*L = " +
                    std::to_string(m * at);
    return result;
  };

  // The window ends in [0, T]: the events a walk in L order visits.  At
  // most T/T_i per task, so the sum is bounded by the total demand, which
  // TaskSet keeps representable.
  std::int64_t ends = 0;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const Time first = ts[i].offset() + ts[i].deadline();
    if (first <= horizon) ends += (horizon - first) / ts[i].period() + 1;
  }

  // Sweep L upwards a block of slots at a time: bucket the C_i of the ends
  // that fall in the block, then check each L of it.  O(J + T) with no
  // ordering work, in a fixed 8 KiB table; a violation ends the sweep in
  // its block.  The sweep visits every end, so it answers for a cap only
  // when all of them fit under it.  It also pays for every slot, so it
  // runs only up to kSlotsPerEnd slots per end: timed per call against the
  // heap walk below, a whole sweep is at parity at 20-28 slots per end and
  // takes 1.6x the heap's time at 28-32 (src/csp/DESIGN.md §18).
  constexpr Time kBlock = 1024;
  constexpr Time kSlotsPerEnd = 24;
  if (ends <= max_events && horizon / kSlotsPerEnd <= ends) {
    std::array<Time, kBlock> ending{};
    Time demand = 0;
    for (Time base = 0; base <= horizon; base += kBlock) {
      const Time end = std::min(base + kBlock, horizon + 1);
      std::fill_n(ending.begin(), end - base, Time{0});
      for (TaskId i = 0; i < ts.size(); ++i) {
        const Time period = ts[i].period();
        Time at = ts[i].offset() + ts[i].deadline();
        if (at < base) at += support::ceil_div(base - at, period) * period;
        for (; at < end; at += period) {
          ending[static_cast<std::size_t>(at - base)] += ts[i].wcet();
        }
      }
      for (Time at = base; at < end; ++at) {
        demand += ending[static_cast<std::size_t>(at - base)];
        if (demand > m * at) return violated(at, demand);
      }
    }
    return result;
  }

  // The capped walk: the event points in ascending order off a min-heap,
  // at most `max_events` of them, O(J log n).  When the cap falls among
  // several ends at one L, which of them count depends on the heap's
  // order, so a cap below the number of ends takes this walk rather than
  // the sweep; so does a T of more than kSlotsPerEnd slots per end.
  struct Event {
    Time at;
    TaskId task;
  };
  struct LaterFirst {
    bool operator()(const Event& a, const Event& b) const {
      return a.at > b.at;
    }
  };
  std::priority_queue<Event, std::vector<Event>, LaterFirst> heap;
  for (TaskId i = 0; i < ts.size(); ++i) {
    heap.push(Event{ts[i].offset() + ts[i].deadline(), i});
  }

  Time demand = 0;
  std::int64_t steps = 0;
  while (!heap.empty() && steps < max_events) {
    const Event event = heap.top();
    heap.pop();
    ++steps;
    if (event.at > horizon) break;
    demand += ts[event.task].wcet();
    if (demand > m * event.at) {
      // The verdict stands; the detail reports the whole demand(L).  Every
      // task ending a window at L has that end in the heap now.
      while (!heap.empty() && heap.top().at == event.at) {
        demand += ts[heap.top().task].wcet();
        heap.pop();
      }
      return violated(event.at, demand);
    }
    const Time next = event.at + ts[event.task].period();
    if (next <= horizon) heap.push(Event{next, event.task});
  }
  return result;
}

TestResult density_test(const rt::TaskSet& ts, std::int32_t processors) {
  require_constrained(ts);
  MGRTS_EXPECTS(processors >= 1);
  TestResult result;
  result.test = "density";
  // delta = sum C_i / D_i, exact.  C_i > D_i makes a single term exceed 1;
  // the window-fit test reports those as infeasible, so bail out here.
  for (TaskId i = 0; i < ts.size(); ++i) {
    if (ts[i].wcet() > ts[i].deadline()) return result;  // unknown
  }
  Rational density;
  for (TaskId i = 0; i < ts.size(); ++i) {
    density += Rational(ts[i].wcet(), ts[i].deadline());
  }
  if (density <= processors) {
    result.verdict = TestVerdict::kFeasible;
    result.detail = "total density " + std::to_string(density.num()) + "/" +
                    std::to_string(density.den()) + " <= m = " +
                    std::to_string(processors);
  }
  return result;
}

TestResult quick_decide(const rt::TaskSet& ts, std::int32_t processors) {
  // Cheapest first; the first decisive test wins.
  if (auto r = window_fit_test(ts, processors);
      r.verdict != TestVerdict::kUnknown) {
    return r;
  }
  if (auto r = utilization_test(ts, processors);
      r.verdict != TestVerdict::kUnknown) {
    return r;
  }
  if (auto r = density_test(ts, processors);
      r.verdict != TestVerdict::kUnknown) {
    return r;
  }
  if (auto r = forced_demand_test(ts, processors);
      r.verdict != TestVerdict::kUnknown) {
    return r;
  }
  TestResult unknown;
  unknown.test = "quick-decide";
  return unknown;
}

}  // namespace mgrts::analysis
