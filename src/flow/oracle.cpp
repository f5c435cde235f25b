#include "flow/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "rt/jobs.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/math.hpp"

namespace mgrts::flow {

namespace {

using rt::Schedule;
using rt::TaskId;
using rt::Time;

// Node and arc ids.  The size guard bounds the forward arcs by
// rt::JobTable::kDefaultSlotBudget, so nodes and arcs (twice the forward
// arcs) both stay far below 2^31.
using Index = std::int32_t;

constexpr std::size_t ix(Index i) { return static_cast<std::size_t>(i); }

/// J + sum of window lengths + T, or nullopt when it overflows 64 bits.
std::optional<std::int64_t> forward_arcs(const rt::TaskSet& ts) {
  std::optional<std::int64_t> total = ts.hyperperiod();
  for (TaskId i = 0; i < ts.size() && total; ++i) {
    const auto arcs = support::checked_mul(ts.jobs_per_hyperperiod(i),
                                           1 + ts[i].deadline());
    total = arcs ? support::checked_add(*total, *arcs) : arcs;
  }
  return total;
}

/// The job -> slot network in compressed sparse row form: the arcs of node
/// u are [head[u], head[u+1]); arc a enters to[a] with residual capacity
/// cap[a], and rev[a] is its residual twin.
struct Network {
  std::vector<Index> head;
  std::vector<Index> to;
  std::vector<Index> rev;
  std::vector<std::int32_t> cap;
  Index first_slot = 0;
  Index sink = 0;

  static constexpr Index kSource = 0;

  [[nodiscard]] Index begin(Index u) const { return head[ix(u)]; }
  [[nodiscard]] Index end(Index u) const { return head[ix(u) + 1]; }
  void push(Index a, std::int32_t f) {
    cap[ix(a)] -= f;
    cap[ix(rev[ix(a)])] += f;
  }
};

/// Lays the network out straight from the task parameters, in the node and
/// arc order oracle.hpp describes.
Network build(const rt::TaskSet& ts, std::int32_t m, Index jobs, Index arcs) {
  const auto T = static_cast<Index>(ts.hyperperiod());
  Network net;
  net.first_slot = 1 + jobs;
  net.sink = net.first_slot + T;
  const Index nodes = net.sink + 1;

  // Degrees land in head[u + 1] and a prefix sum turns them into offsets.
  // A slot's degree counts the windows covering it (a difference array
  // over the cyclic windows) plus its sink arc.
  net.head.assign(ix(nodes) + 1, 0);
  Index* const slot_degree = net.head.data() + net.first_slot + 1;
  net.head[1] = jobs;
  net.head[ix(nodes)] = T;
  Index job = 1;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const rt::Task& task = ts[i];
    const auto D = static_cast<Index>(task.deadline());
    const Time count = ts.jobs_per_hyperperiod(i);
    for (Time k = 0; k < count; ++k, ++job) {
      net.head[ix(job) + 1] = 1 + D;
      const auto release =
          static_cast<Index>(task.offset() + k * task.period());
      ++slot_degree[release];
      if (release + D < T) {
        --slot_degree[release + D];
      } else if (release + D > T) {  // the window wraps past T
        ++slot_degree[0];
        --slot_degree[release + D - T];
      }
    }
  }
  for (Index s = 0, covering = 0; s < T; ++s) {
    covering += slot_degree[s];
    slot_degree[s] = covering + 1;
  }
  std::partial_sum(net.head.begin(), net.head.end(), net.head.begin());
  MGRTS_ASSERT(net.head[ix(nodes)] == arcs);

  net.to.resize(ix(arcs));
  net.rev.resize(ix(arcs));
  net.cap.assign(ix(arcs), 0);
  auto link = [&](Index a, Index u, Index b, Index v, std::int32_t cap) {
    net.to[ix(a)] = v;
    net.rev[ix(a)] = b;
    net.cap[ix(a)] = cap;
    net.to[ix(b)] = u;
    net.rev[ix(b)] = a;
  };

  // Next free back-arc position of each slot.  Jobs arrive in index order,
  // so every slot lists its jobs ascending.
  std::vector<Index> next(net.head.begin() + net.first_slot,
                          net.head.begin() + net.sink);
  job = 1;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const rt::Task& task = ts[i];
    const auto C = static_cast<std::int32_t>(task.wcet());
    const auto D = static_cast<Index>(task.deadline());
    const Time count = ts.jobs_per_hyperperiod(i);
    for (Time k = 0; k < count; ++k, ++job) {
      Index a = net.begin(job);
      link(job - 1, Network::kSource, a, job, C);  // source arcs: job order
      auto s = static_cast<Index>(task.offset() + k * task.period());
      for (Index d = 0; d < D; ++d) {
        link(++a, job, next[ix(s)]++, net.first_slot + s, 1);
        if (++s == T) s = 0;
      }
    }
  }
  for (Index s = 0; s < T; ++s) {
    const Index slot = net.first_slot + s;
    link(net.end(slot) - 1, slot, net.begin(net.sink) + s, net.sink, m);
  }
  return net;
}

/// The warm start: tasks by ascending laxity D_i - C_i (ties by task
/// index), each task's jobs in index order, each job claiming its earliest
/// slots whose sink arc still has room.  `first_job[i]` is task i's first
/// job node and `first_job[n]` the first slot node.  Returns the flow
/// placed.
std::int64_t warm_start(Network& net, const rt::TaskSet& ts,
                        const std::vector<Index>& first_job) {
  std::vector<TaskId> order(static_cast<std::size_t>(ts.size()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return ts[a].d_minus_c() < ts[b].d_minus_c();
  });
  std::int64_t placed = 0;
  for (const TaskId i : order) {
    const auto at = static_cast<std::size_t>(i);
    for (Index job = first_job[at]; job < first_job[at + 1]; ++job) {
      const Index from_source = net.rev[ix(net.begin(job))];
      const std::int32_t need = net.cap[ix(from_source)];
      std::int32_t got = 0;
      for (Index a = net.begin(job) + 1; a < net.end(job) && got < need;
           ++a) {
        const Index to_sink = net.end(net.to[ix(a)]) - 1;
        if (net.cap[ix(to_sink)] == 0) continue;
        net.push(a, 1);
        net.push(to_sink, 1);
        ++got;
      }
      net.push(from_source, got);
      placed += got;
    }
  }
  return placed;
}

/// Iterative Dinic on top of `flow` already placed: BFS levels over the
/// residual network, then a blocking flow along current arcs with an
/// explicit arc stack.  Stops once `demand` flows or the sink is cut off,
/// and returns the total flow; `phases` counts the level graphs that
/// reached the sink, each followed by a blocking flow.
/// Before each phase it asks `deadline`, and returns nullopt once that
/// has expired or been cancelled.
std::optional<std::int64_t> dinic(Network& net, std::int64_t flow,
                                  std::int64_t demand,
                                  const support::Deadline& deadline,
                                  std::int32_t& phases) {
  if (flow == demand) return flow;  // the warm start placed it all
  const std::size_t nodes = ix(net.sink) + 1;
  std::vector<Index> level(nodes);
  std::vector<Index> current(nodes);
  std::vector<Index> queue(nodes);  // the BFS queue, then the DFS arc stack

  auto bfs = [&] {
    std::fill(level.begin(), level.end(), -1);
    level[ix(Network::kSource)] = 0;
    std::size_t tail = 0;
    queue[tail++] = Network::kSource;
    for (std::size_t at = 0; at < tail; ++at) {
      const Index u = queue[at];
      const Index next = level[ix(u)] + 1;
      for (Index a = net.begin(u); a < net.end(u); ++a) {
        const Index v = net.to[ix(a)];
        if (net.cap[ix(a)] == 0 || level[ix(v)] >= 0) continue;
        level[ix(v)] = next;
        if (v == net.sink) {
          // Every node below the sink's level is labelled; the others on
          // its level cannot lead to it.
          while (level[ix(queue[tail - 1])] == next) {
            level[ix(queue[--tail])] = -1;
          }
          return true;
        }
        queue[tail++] = v;
      }
    }
    return false;
  };

  // The node the arc stack reaches after its first `depth` arcs.
  auto tail_of = [&](std::size_t depth) {
    return depth == 0 ? Network::kSource : net.to[ix(queue[depth - 1])];
  };
  while (flow < demand) {
    if (deadline.expired()) return std::nullopt;
    if (!bfs()) break;
    ++phases;
    std::copy(net.head.begin(), net.head.end() - 1, current.begin());
    std::size_t top = 0;
    Index u = Network::kSource;
    for (;;) {
      if (u == net.sink) {
        std::int32_t f = net.cap[ix(queue[0])];
        for (std::size_t k = 1; k < top; ++k) {
          f = std::min(f, net.cap[ix(queue[k])]);
        }
        std::size_t saturated = top;
        for (std::size_t k = 0; k < top; ++k) {
          net.push(queue[k], f);
          if (saturated == top && net.cap[ix(queue[k])] == 0) saturated = k;
        }
        flow += f;
        top = saturated;  // resume at the tail of the first saturated arc
        u = tail_of(top);
        continue;
      }
      Index& a = current[ix(u)];
      const Index next = level[ix(u)] + 1;
      const Index end = net.end(u);
      while (a < end &&
             (net.cap[ix(a)] == 0 || level[ix(net.to[ix(a)])] != next)) {
        ++a;
      }
      if (a < end) {
        queue[top++] = a;
        u = net.to[ix(a)];
      } else if (u == Network::kSource) {
        break;
      } else {
        level[ix(u)] = -1;  // a dead end: prune it for the rest of the phase
        u = tail_of(--top);
      }
    }
  }
  return flow;
}

}  // namespace

std::optional<OracleResult> decide_feasibility(
    const rt::TaskSet& ts, const rt::Platform& platform,
    const support::Deadline& deadline) {
  if (!platform.is_identical()) {
    throw ValidationError(
        "flow oracle supports identical platforms only (see oracle.hpp)");
  }
  if (!ts.is_constrained()) {
    throw ValidationError(
        "flow oracle expects a constrained-deadline system; expand clones "
        "first");
  }

  // The one size guard, before anything is allocated.
  support::fault_point(support::FaultSite::kJobTable);
  constexpr std::int64_t kBudget = rt::JobTable::kDefaultSlotBudget;
  const auto forward = forward_arcs(ts);
  if (!forward || *forward > kBudget) {
    throw ResourceError("flow oracle: the network needs more than " +
                        std::to_string(kBudget) +
                        " forward arcs (jobs + window slots + hyperperiod)");
  }

  const Time T = ts.hyperperiod();
  const std::int32_t m = platform.processors();
  // Task i's jobs are the nodes [first_job[i], first_job[i + 1]).
  std::vector<Index> first_job(static_cast<std::size_t>(ts.size()) + 1, 1);
  std::int64_t demand = 0;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto at = static_cast<std::size_t>(i);
    first_job[at + 1] =
        first_job[at] + static_cast<Index>(ts.jobs_per_hyperperiod(i));
    demand += ts.jobs_per_hyperperiod(i) * ts[i].wcet();
  }
  const Index jobs = first_job.back() - 1;

  support::fault_point(support::FaultSite::kFlowNetwork);
  Network net = build(ts, m, jobs, static_cast<Index>(2 * *forward));

  OracleResult result;
  result.demand = demand;
  const std::optional<std::int64_t> flow =
      dinic(net, warm_start(net, ts, first_job), demand, deadline,
            result.phases);
  if (!flow) return std::nullopt;
  result.flow = *flow;
  MGRTS_ASSERT(result.flow <= demand);
  if (result.flow != demand) {
    result.verdict = OracleVerdict::kInfeasible;
    return result;
  }

  result.verdict = OracleVerdict::kFeasible;

  // A slot's back arcs hold the flow of its job -> slot arcs and list its
  // jobs in index order, which is ascending task order; so walking them
  // hands the slot's processors 0..k-1 out in ascending task order, the
  // canonical assignment, one schedule row at a time.  Which arcs carry
  // flow is too irregular to predict, so each arc's task is written to
  // `cells` unconditionally and kept by advancing `busy` when it carries
  // flow; at most m do, so `busy` never passes m.
  std::vector<TaskId> task_of(ix(net.first_slot));
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto at = static_cast<std::size_t>(i);
    std::fill(task_of.begin() + first_job[at],
              task_of.begin() + first_job[at + 1], i);
  }
  Schedule schedule(T, m);
  std::vector<TaskId> cells(static_cast<std::size_t>(m) + 1);
  for (Index s = 0; s < static_cast<Index>(T); ++s) {
    const Index slot = net.first_slot + s;
    std::size_t busy = 0;
    for (Index b = net.begin(slot); b < net.end(slot) - 1; ++b) {
      cells[busy] = task_of[ix(net.to[ix(b)])];
      busy += static_cast<std::size_t>(net.cap[ix(b)] != 0);
    }
    MGRTS_ASSERT(busy <= static_cast<std::size_t>(m));
    std::copy_n(cells.begin(), busy, schedule.row(s).begin());
  }
  result.schedule = std::move(schedule);
  return result;
}

OracleResult decide_feasibility(const rt::TaskSet& ts,
                                const rt::Platform& platform) {
  // An unlimited deadline never expires, so a result always comes back.
  return *decide_feasibility(ts, platform, support::Deadline{});
}

}  // namespace mgrts::flow
