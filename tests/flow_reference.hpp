// Reference max-flow feasibility oracle for differential tests.
//
// The straightforward construction the production oracle (flow/oracle.hpp)
// is checked against: an `rt::JobTable` materializes every job's slot list,
// and a recursive Dinic runs on vector-of-vectors adjacency.  Same
// reduction, independent code:
//   source --C_i--> job(i,k) --1--> slot(t in window)  --m--> sink
// The max-flow value is unique, so `flow` and `demand` must match the
// production oracle exactly; the witness may differ (any maximum flow is a
// valid schedule) but must validate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "flow/oracle.hpp"
#include "rt/jobs.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace mgrts::flow::reference {

using NodeId = std::int32_t;
using Capacity = std::int64_t;

// Dinic's maximum-flow algorithm on integer capacities.
class Dinic {
 public:
  explicit Dinic(NodeId nodes) : adj_(static_cast<std::size_t>(nodes)) {
    MGRTS_EXPECTS(nodes >= 2);
  }

  /// Adds a directed edge u -> v with capacity `cap` (and an implicit
  /// residual reverse edge).  Returns the edge id for later flow queries.
  std::int32_t add_edge(NodeId u, NodeId v, Capacity cap) {
    MGRTS_EXPECTS(u >= 0 && u < node_count() && v >= 0 && v < node_count());
    MGRTS_EXPECTS(cap >= 0);
    auto& fwd_list = adj_[static_cast<std::size_t>(u)];
    auto& rev_list = adj_[static_cast<std::size_t>(v)];
    const auto fwd_pos = static_cast<std::int32_t>(fwd_list.size());
    const auto rev_pos = static_cast<std::int32_t>(rev_list.size());
    fwd_list.push_back(Edge{v, cap, rev_pos});
    rev_list.push_back(Edge{u, 0, fwd_pos});
    edge_index_.emplace_back(u, fwd_pos);
    initial_cap_.push_back(cap);
    return static_cast<std::int32_t>(edge_index_.size()) - 1;
  }

  /// Runs the algorithm; callable once per instance.
  Capacity max_flow(NodeId source, NodeId sink) {
    MGRTS_EXPECTS(source != sink);
    Capacity total = 0;
    while (bfs(source, sink)) {
      iter_.assign(adj_.size(), 0);
      for (;;) {
        const Capacity pushed =
            dfs(source, sink, std::numeric_limits<Capacity>::max());
        if (pushed == 0) break;
        total += pushed;
      }
    }
    return total;
  }

  /// Flow pushed through edge `id` (as returned by add_edge).
  [[nodiscard]] Capacity flow_on(std::int32_t id) const {
    MGRTS_EXPECTS(id >= 0 &&
                  id < static_cast<std::int32_t>(edge_index_.size()));
    const auto [u, pos] = edge_index_[static_cast<std::size_t>(id)];
    const Edge& e =
        adj_[static_cast<std::size_t>(u)][static_cast<std::size_t>(pos)];
    return initial_cap_[static_cast<std::size_t>(id)] - e.cap;
  }

  [[nodiscard]] NodeId node_count() const noexcept {
    return static_cast<NodeId>(adj_.size());
  }

 private:
  struct Edge {
    NodeId to;
    Capacity cap;       // remaining capacity
    std::int32_t rev;   // index of the reverse edge in adj_[to]
  };

  bool bfs(NodeId source, NodeId sink) {
    level_.assign(adj_.size(), -1);
    std::queue<NodeId> queue;
    level_[static_cast<std::size_t>(source)] = 0;
    queue.push(source);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (const Edge& e : adj_[static_cast<std::size_t>(u)]) {
        if (e.cap > 0 && level_[static_cast<std::size_t>(e.to)] < 0) {
          level_[static_cast<std::size_t>(e.to)] =
              level_[static_cast<std::size_t>(u)] + 1;
          queue.push(e.to);
        }
      }
    }
    return level_[static_cast<std::size_t>(sink)] >= 0;
  }

  Capacity dfs(NodeId u, NodeId sink, Capacity pushed) {
    if (u == sink) return pushed;
    auto& it = iter_[static_cast<std::size_t>(u)];
    auto& edges = adj_[static_cast<std::size_t>(u)];
    for (; it < static_cast<std::int32_t>(edges.size()); ++it) {
      Edge& e = edges[static_cast<std::size_t>(it)];
      if (e.cap <= 0 ||
          level_[static_cast<std::size_t>(e.to)] !=
              level_[static_cast<std::size_t>(u)] + 1) {
        continue;
      }
      const Capacity got = dfs(e.to, sink, std::min(pushed, e.cap));
      if (got > 0) {
        e.cap -= got;
        adj_[static_cast<std::size_t>(e.to)][static_cast<std::size_t>(e.rev)]
            .cap += got;
        return got;
      }
    }
    return 0;
  }

  std::vector<std::vector<Edge>> adj_;
  std::vector<std::pair<NodeId, std::int32_t>> edge_index_;  // id -> (u, pos)
  std::vector<Capacity> initial_cap_;
  std::vector<std::int32_t> level_;
  std::vector<std::int32_t> iter_;
};

/// The network built from a materialized `rt::JobTable`, solved by the
/// recursive Dinic above; same contract as flow::decide_feasibility.
inline OracleResult decide_feasibility(const rt::TaskSet& ts,
                                       const rt::Platform& platform) {
  using rt::ProcId;
  using rt::Schedule;
  using rt::TaskId;
  using rt::Time;

  if (!platform.is_identical()) {
    throw ValidationError(
        "flow oracle supports identical platforms only (see oracle.hpp)");
  }
  if (!ts.is_constrained()) {
    throw ValidationError(
        "flow oracle expects a constrained-deadline system; expand clones "
        "first");
  }

  const Time T = ts.hyperperiod();
  const std::int32_t m = platform.processors();
  const rt::JobTable jobs(ts);

  // Node layout: 0 = source, 1..J = jobs, J+1..J+T = slots, last = sink.
  const auto job_count = static_cast<std::int64_t>(jobs.size());
  const std::int64_t node_count = 2 + job_count + T;
  support::fault_point(support::FaultSite::kFlowNetwork);
  if (node_count > (std::int64_t{1} << 30)) {
    throw ResourceError("flow network too large");
  }
  const auto source = NodeId{0};
  const auto sink = static_cast<NodeId>(node_count - 1);
  auto job_node = [&](std::int64_t idx) {
    return static_cast<NodeId>(1 + idx);
  };
  auto slot_node = [&](Time t) {
    return static_cast<NodeId>(1 + job_count + t);
  };

  Dinic net(static_cast<NodeId>(node_count));

  std::int64_t demand = 0;
  std::vector<std::int32_t> source_edge(jobs.size());
  // job -> slot edge ids, parallel to each job's slot list.
  std::vector<std::vector<std::int32_t>> slot_edges(jobs.size());
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const rt::Job& job = jobs.jobs()[idx];
    demand += job.wcet;
    source_edge[idx] = net.add_edge(source, job_node(
        static_cast<std::int64_t>(idx)), job.wcet);
    slot_edges[idx].reserve(job.slots.size());
    for (const Time t : job.slots) {
      slot_edges[idx].push_back(
          net.add_edge(job_node(static_cast<std::int64_t>(idx)),
                       slot_node(t), 1));
    }
  }
  for (Time t = 0; t < T; ++t) {
    net.add_edge(slot_node(t), sink, m);
  }

  OracleResult result;
  result.demand = demand;
  result.flow = net.max_flow(source, sink);
  MGRTS_ASSERT(result.flow <= demand);
  if (result.flow != demand) {
    result.verdict = OracleVerdict::kInfeasible;
    return result;
  }

  result.verdict = OracleVerdict::kFeasible;

  // Extract the witness: collect the tasks pushing flow through each slot,
  // then assign processors in ascending task order.
  std::vector<std::vector<TaskId>> slot_tasks(static_cast<std::size_t>(T));
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const rt::Job& job = jobs.jobs()[idx];
    for (std::size_t p = 0; p < job.slots.size(); ++p) {
      if (net.flow_on(slot_edges[idx][p]) > 0) {
        slot_tasks[static_cast<std::size_t>(job.slots[p])].push_back(job.task);
      }
    }
  }
  Schedule schedule(T, m);
  for (Time t = 0; t < T; ++t) {
    auto& tasks = slot_tasks[static_cast<std::size_t>(t)];
    MGRTS_ASSERT(static_cast<std::int32_t>(tasks.size()) <= m);
    std::sort(tasks.begin(), tasks.end());
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      schedule.set(t, static_cast<ProcId>(j), tasks[j]);
    }
  }
  result.schedule = std::move(schedule);
  return result;
}

}  // namespace mgrts::flow::reference
