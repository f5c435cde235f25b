#include "flow/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
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

// Job, slot and cell ids.  The size guard bounds J + sum of the window
// lengths + T by rt::JobTable::kDefaultSlotBudget, so every id, and the
// cell count (at most the sum of the window lengths), stays far below 2^31.
using Index = std::int32_t;

constexpr std::size_t ix(Index i) { return static_cast<std::size_t>(i); }

/// J + sum of window lengths + T, or nullopt when it overflows 64 bits.
std::optional<std::int64_t> window_slots(const rt::TaskSet& ts) {
  std::optional<std::int64_t> total = ts.hyperperiod();
  for (TaskId i = 0; i < ts.size() && total; ++i) {
    const auto slots = support::checked_mul(ts.jobs_per_hyperperiod(i),
                                            1 + ts[i].deadline());
    total = slots ? support::checked_add(*total, *slots) : slots;
  }
  return total;
}

/// The deadline as the loops over jobs and slots ask it: once every 65,536
/// steps, never at the first, through expired() as Dinic asks it (no
/// heartbeat tick, no fault evaluation).  The loops run in blocks and are
/// counted a block at a time: a count and a test per job or per slot cost
/// a median Table-I oracle call ~5%.
class Checkpoint {
 public:
  static constexpr std::int64_t kEvery = 65'536;

  explicit Checkpoint(const support::Deadline& deadline)
      : deadline_(deadline) {}

  /// Counts `steps` more iterations; true when they crossed a multiple of
  /// kEvery and the deadline has run out.
  [[nodiscard]] bool expired(std::int64_t steps) {
    const std::int64_t before = done_;
    done_ += steps;
    return before / kEvery != done_ / kEvery && deadline_.expired();
  }

  /// How many loop steps worth `weight` iterations each (a job's window)
  /// make a block of about kEvery iterations.
  [[nodiscard]] static std::int64_t block(std::int64_t weight) {
    return std::max<std::int64_t>(1, kEvery / weight);
  }

  /// Runs `body(s)` for every slot s in [0, T), in blocks of kEvery slots
  /// counted after each; false once the deadline stopped it.
  template <typename Body>
  [[nodiscard]] bool walk_slots(Index T, const Body& body) {
    for (Index begin = 0; begin < T; begin += kEvery) {
      const auto end =
          static_cast<Index>(std::min<std::int64_t>(T, begin + kEvery));
      for (Index s = begin; s < end; ++s) body(s);
      if (expired(end - begin)) return false;
    }
    return true;
  }

 private:
  const support::Deadline& deadline_;
  std::int64_t done_ = 0;
};

/// The flow, held as who sits where (oracle.hpp): per job its window and
/// unplaced units, per slot its occupants, ascending, in a block of
/// min(m, windows covering the slot) cells.  Every field is an int32, so
/// hot loops copy what they read into locals: a store may alias them all.
struct Occupancy {
  struct Job {
    TaskId task;
    Index release, window;  // the first window slot, D of its task
    std::int32_t unplaced;
  };
  struct Slot {
    Index first;  // its block's first cell
    std::int32_t count;
  };
  std::vector<Job> jobs;
  std::vector<Slot> slots;
  std::unique_ptr<Index[]> cells;
  Index T = 0;

  [[nodiscard]] Index* occupants(Index s) const {
    return cells.get() + slots[ix(s)].first;
  }
  [[nodiscard]] bool holds(Index job, Index s) const {
    const Index* c = occupants(s);
    return std::find(c, c + slots[ix(s)].count, job) != c + slots[ix(s)].count;
  }
  /// Seats `job` in s (`out`'s cell when given), keeping the block
  /// ascending.
  void seat(Index s, Index job, Index out = -1) {
    Index* c = occupants(s);
    const Index n = out < 0 ? ++slots[ix(s)].count : slots[ix(s)].count;
    auto k = out < 0 ? n - 1 : static_cast<Index>(std::find(c, c + n, out) - c);
    for (; k + 1 < n && c[k + 1] < job; ++k) c[k] = c[k + 1];
    for (; k > 0 && c[k - 1] > job; --k) c[k] = c[k - 1];
    c[k] = job;
  }
  /// Calls `body(s)` on `job`'s window slots in window order from position
  /// `d` on, until it returns true; returns the position it stopped at
  /// (the window length when it never did).
  template <typename Body>
  Index walk_window(Index job, Index d, const Body& body) const {
    const Index window = jobs[ix(job)].window;
    const Index T_ = T;
    Index s = jobs[ix(job)].release + d;
    if (s >= T_) s -= T_;
    for (; d < window; ++d) {
      if (body(s)) break;
      if (++s == T_) s = 0;
    }
    return d;
  }
};

/// Lays the jobs and the slot blocks out from the task parameters (a
/// difference array over the cyclic windows counts each slot's windows),
/// writing no cell; nullopt once `checkpoint` expires.
std::optional<Occupancy> build(const rt::TaskSet& ts, std::int32_t m,
                               Index jobs, Checkpoint& checkpoint) {
  Occupancy occ;
  const auto T = occ.T = static_cast<Index>(ts.hyperperiod());
  occ.jobs.resize(ix(jobs));
  occ.slots.assign(ix(T), {0, 0});
  Occupancy::Slot* const slot = occ.slots.data();
  Index job = 0;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const rt::Task& task = ts[i];
    const auto D = static_cast<Index>(task.deadline());
    const Time count = ts.jobs_per_hyperperiod(i);
    for (Time first = 0; first < count; first += Checkpoint::kEvery) {
      const Time last = std::min(count, first + Checkpoint::kEvery);
      for (Time k = first; k < last; ++k, ++job) {
        const auto release =
            static_cast<Index>(task.offset() + k * task.period());
        occ.jobs[ix(job)] = {i, release, D,
                             static_cast<std::int32_t>(task.wcet())};
        ++slot[release].first;
        if (release + D < T) {
          --slot[release + D].first;
        } else if (release + D > T) {  // the window wraps past T
          ++slot[0].first;
          --slot[release + D - T].first;
        }
      }
      if (checkpoint.expired(last - first)) return std::nullopt;
    }
  }
  Index covering = 0;
  Index cells = 0;
  if (!checkpoint.walk_slots(T, [&](Index s) {
        covering += slot[s].first;
        slot[s].first = cells;
        cells += std::min(m, covering);
      })) {
    return std::nullopt;
  }
  occ.cells = std::make_unique_for_overwrite<Index[]>(ix(cells));
  return occ;
}

/// The warm start: tasks by ascending laxity D_i - C_i (ties by task
/// index), each task's jobs in index order, each job taking its earliest
/// window slots that still have a free processor.  `first_job[i]` is task
/// i's first job and `first_job[n]` the job count.  Returns the flow
/// placed, or nullopt once `checkpoint` expires.
std::optional<std::int64_t> warm_start(Occupancy& occ, std::int32_t m,
                                       const rt::TaskSet& ts,
                                       const std::vector<Index>& first_job,
                                       Checkpoint& checkpoint) {
  std::vector<TaskId> order(static_cast<std::size_t>(ts.size()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return ts[a].d_minus_c() < ts[b].d_minus_c();
  });
  std::int64_t placed = 0;
  for (const TaskId i : order) {
    const auto at = static_cast<std::size_t>(i);
    const Index block =
        static_cast<Index>(Checkpoint::block(1 + ts[i].deadline()));
    for (Index first = first_job[at]; first < first_job[at + 1];
         first += block) {
      const Index last = std::min(first_job[at + 1], first + block);
      for (Index job = first; job < last; ++job) {
        const std::int32_t need = occ.jobs[ix(job)].unplaced;
        std::int32_t got = 0;
        static_cast<void>(occ.walk_window(job, 0, [&](Index s) {
          if (occ.slots[ix(s)].count < m) {
            occ.seat(s, job);
            ++got;
          }
          return got == need;
        }));
        occ.jobs[ix(job)].unplaced = need - got;
        placed += got;
      }
      if (checkpoint.expired(std::int64_t{last - first} *
                             (1 + ts[i].deadline()))) {
        return std::nullopt;
      }
    }
  }
  return placed;
}

/// Iterative Dinic on top of `flow` already placed, over the residual
/// network the occupancy implies (oracle.hpp lists its arcs, in the order
/// tried).  Node ids are the jobs [0, J), the slots [J, J + T), then the
/// source; the sink is implicit.  Stops once `demand` flows or the sink is
/// cut off, and returns the total flow; `phases` counts the level graphs
/// that reached the sink, each followed by a blocking flow.  Before each
/// phase it asks `deadline`: nullopt once that has expired or been
/// cancelled.
std::optional<std::int64_t> dinic(Occupancy& occ, std::int32_t m,
                                  std::int64_t flow, std::int64_t demand,
                                  const support::Deadline& deadline,
                                  std::int32_t& phases) {
  if (flow == demand) return flow;  // the warm start placed it all
  const auto J = static_cast<Index>(occ.jobs.size());
  const Index source = J + occ.T;
  const std::size_t nodes = ix(source) + 1;
  // A phase touches only the nodes its search labels (queue[0, tail)),
  // and the next one resets just those.
  std::vector<Index> level(nodes, -1);
  std::vector<Index> current(nodes, 0);
  std::vector<Index> queue(nodes);
  std::size_t tail = 0;
  std::vector<Index> path;
  Index sink_level = 0;
  // The jobs with unplaced units, ascending: the source's arcs that remain.
  std::vector<Index> deficient(ix(J));
  std::iota(deficient.begin(), deficient.end(), 0);

  // Levels from the deficient jobs (level 1) out to the first level with a
  // free processor.  Jobs labelled on the sink's level are never asked: a
  // slot one level below the sink looks only at its free processors.
  auto bfs = [&] {
    for (std::size_t k = 0; k < tail; ++k) {
      level[ix(queue[k])] = -1;
      current[ix(queue[k])] = 0;
    }
    current[ix(source)] = 0;
    std::erase_if(deficient,
                  [&](Index j) { return occ.jobs[ix(j)].unplaced == 0; });
    tail = 0;
    for (const Index j : deficient) level[ix(queue[tail++] = j)] = 1;
    for (std::size_t at = 0; at < tail; ++at) {
      const Index u = queue[at];
      const Index next = level[ix(u)] + 1;
      if (u < J) {
        static_cast<void>(occ.walk_window(u, 0, [&](Index s) {
          if (level[ix(J + s)] < 0 && !occ.holds(u, s)) {
            level[ix(J + s)] = next;
            queue[tail++] = J + s;
          }
          return false;
        }));
        continue;
      }
      if (occ.slots[ix(u - J)].count < m) {
        sink_level = next;
        return true;
      }
      const Index* c = occ.occupants(u - J);  // a full slot: m occupants
      for (Index k = 0; k < m; ++k) {
        if (level[ix(c[k])] >= 0) continue;
        level[ix(c[k])] = next;
        queue[tail++] = c[k];
      }
    }
    return false;
  };

  // The current arc of the source is a place in `deficient`, of a job its
  // window position, of a slot the occupant last tried: an augmenting path
  // moves the cells.
  while (flow < demand) {
    if (deadline.expired()) return std::nullopt;
    if (!bfs()) break;
    ++phases;
    path.assign(ix(sink_level), source);
    std::size_t top = 0;
    Index u = source;
    for (;;) {
      const Index next = level[ix(u)] + 1;
      Index v = -1;
      if (u == source) {
        Index& at = current[ix(u)];
        const auto end = static_cast<Index>(deficient.size());
        while (at < end && level[ix(deficient[ix(at)])] != 1) ++at;
        if (at == end) break;
        v = deficient[ix(at)];
      } else if (u < J) {
        Index& d = current[ix(u)];
        d = occ.walk_window(u, d, [&](Index s) {
          if (level[ix(J + s)] != next || occ.holds(u, s)) return false;
          v = J + s;
          return true;
        });
      } else if (next == sink_level) {
        if (occ.slots[ix(u - J)].count < m) {
          // One unit: each job on the path takes the slot after it from
          // the job after that, and the last slot seats one more.
          std::int32_t& unplaced = occ.jobs[ix(path[1])].unplaced;
          if (--unplaced == 0) level[ix(path[1])] = -1;  // its source arc
          ++flow;
          for (std::size_t k = 1; k + 1 < top; k += 2) {
            occ.seat(path[k + 1] - J, path[k], path[k + 2]);
          }
          occ.seat(u - J, path[top - 1]);
          // Resume at the tail of the first saturated arc: the source's
          // once the job is placed, else the job's, whose slot it now holds.
          top = unplaced == 0 ? 0 : 1;
          u = path[top];
          continue;
        }
      } else {
        Index& last = current[ix(u)];
        const Index* c = occ.occupants(u - J);
        const Index* const end = c + occ.slots[ix(u - J)].count;
        for (c = std::lower_bound(c, end, last); c < end; ++c) {
          if (level[ix(*c)] == next) break;
        }
        if (c < end) v = last = *c;
      }
      if (v >= 0) {
        path[++top] = u = v;
      } else {
        level[ix(u)] = -1;  // a dead end: prune it for the rest of the phase
        u = path[--top];
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

  // The size guards, before anything is allocated: one bound for the job
  // table, the slot blocks and Dinic's arrays, one for the witness.
  support::fault_point(support::FaultSite::kJobTable);
  constexpr std::int64_t kBudget = rt::JobTable::kDefaultSlotBudget;
  const auto slots = window_slots(ts);
  if (!slots || *slots > kBudget) {
    throw ResourceError("flow oracle: the job table and slot blocks need "
                        "more than " + std::to_string(kBudget) +
                        " entries (jobs + window slots + hyperperiod)");
  }
  const Time T = ts.hyperperiod();
  const std::int32_t m = platform.processors();
  if (T * m > kBudget) {  // T <= kBudget, so the product fits
    throw ResourceError("flow oracle: the witness needs more than " +
                        std::to_string(kBudget) +
                        " cells (hyperperiod x processors)");
  }

  // Task i's jobs are [first_job[i], first_job[i + 1]).
  std::vector<Index> first_job(static_cast<std::size_t>(ts.size()) + 1, 0);
  std::int64_t demand = 0;
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto at = static_cast<std::size_t>(i);
    first_job[at + 1] =
        first_job[at] + static_cast<Index>(ts.jobs_per_hyperperiod(i));
    demand += ts.jobs_per_hyperperiod(i) * ts[i].wcet();
  }

  support::fault_point(support::FaultSite::kFlowNetwork);
  Checkpoint checkpoint(deadline);
  std::optional<Occupancy> built = build(ts, m, first_job.back(), checkpoint);
  if (!built) return std::nullopt;
  Occupancy& occ = *built;
  const std::optional<std::int64_t> placed =
      warm_start(occ, m, ts, first_job, checkpoint);
  if (!placed) return std::nullopt;

  OracleResult result;
  result.demand = demand;
  const std::optional<std::int64_t> flow =
      dinic(occ, m, *placed, demand, deadline, result.phases);
  if (!flow) return std::nullopt;
  result.flow = *flow;
  MGRTS_ASSERT(result.flow <= demand);
  if (result.flow != demand) {
    result.verdict = OracleVerdict::kInfeasible;
    return result;
  }

  result.verdict = OracleVerdict::kFeasible;

  // A slot's occupants ascend by job, which is ascending task order; so
  // they hand the slot's processors 0..k-1 out in ascending task order,
  // the canonical assignment, one schedule row at a time.
  Schedule schedule(T, m);
  if (!checkpoint.walk_slots(static_cast<Index>(T), [&](Index s) {
        const Index* c = occ.occupants(s);
        std::transform(c, c + occ.slots[ix(s)].count, schedule.row(s).begin(),
                       [&](Index job) { return occ.jobs[ix(job)].task; });
      })) {
    return std::nullopt;
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
