// Reference forced-demand test for differential tests.
//
// The heap walk the production test (analysis/tests.cpp) is checked
// against: the window ends L = O_i + D_i + k*T_i come off a min-heap in
// ascending order, at most `max_events` of them, and the first end whose
// running demand exceeds m*L is reported.  When several windows end at one
// L, the running sum at the reporting end may be a partial demand(L), so
// only the verdict and L are compared, never the detail's sum.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "analysis/tests.hpp"
#include "support/assert.hpp"

namespace mgrts::analysis::reference {

inline TestResult forced_demand_test(const rt::TaskSet& ts,
                                     std::int32_t processors,
                                     std::int64_t max_events = 200'000) {
  MGRTS_EXPECTS(ts.is_constrained() && processors >= 1);
  TestResult result;
  result.test = "forced-demand";
  struct Event {
    rt::Time at;
    rt::TaskId task;
  };
  struct LaterFirst {
    bool operator()(const Event& a, const Event& b) const {
      return a.at > b.at;
    }
  };
  std::priority_queue<Event, std::vector<Event>, LaterFirst> heap;
  for (rt::TaskId i = 0; i < ts.size(); ++i) {
    heap.push(Event{ts[i].offset() + ts[i].deadline(), i});
  }

  const rt::Time horizon = ts.hyperperiod();
  rt::Time demand = 0;
  std::int64_t steps = 0;
  while (!heap.empty() && steps < max_events) {
    const Event event = heap.top();
    heap.pop();
    ++steps;
    if (event.at > horizon) break;
    demand += ts[event.task].wcet();
    if (demand > static_cast<rt::Time>(processors) * event.at) {
      result.verdict = TestVerdict::kInfeasible;
      result.detail = "demand(" + std::to_string(event.at) + ") = " +
                      std::to_string(demand) + " > m*L = " +
                      std::to_string(processors * event.at);
      return result;
    }
    const rt::Time next = event.at + ts[event.task].period();
    if (next <= horizon) heap.push(Event{next, event.task});
  }
  return result;
}

}  // namespace mgrts::analysis::reference
