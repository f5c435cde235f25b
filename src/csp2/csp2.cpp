#include "csp2/csp2.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"
#include "support/error.hpp"

namespace mgrts::csp2 {

using rt::ProcId;
using rt::Rate;
using rt::TaskId;
using rt::Time;

const char* to_string(ValueOrder order) {
  switch (order) {
    case ValueOrder::kInput: return "CSP2";
    case ValueOrder::kRateMonotonic: return "CSP2+RM";
    case ValueOrder::kDeadlineMonotonic: return "CSP2+DM";
    case ValueOrder::kTMinusC: return "CSP2+(T-C)";
    case ValueOrder::kDMinusC: return "CSP2+(D-C)";
  }
  return "CSP2+?";
}

const std::array<ValueOrder, 4>& informed_value_orders() {
  static const std::array<ValueOrder, 4> orders = {
      ValueOrder::kRateMonotonic, ValueOrder::kDeadlineMonotonic,
      ValueOrder::kTMinusC, ValueOrder::kDMinusC};
  return orders;
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kFeasible: return "feasible";
    case Status::kInfeasible: return "infeasible";
    case Status::kTimeout: return "timeout";
    case Status::kNodeLimit: return "node-limit";
  }
  return "?";
}

std::vector<TaskId> value_order_tasks(const rt::TaskSet& ts,
                                      ValueOrder order) {
  std::vector<TaskId> ids(static_cast<std::size_t>(ts.size()));
  std::iota(ids.begin(), ids.end(), 0);
  auto key = [&](TaskId i) -> Time {
    switch (order) {
      case ValueOrder::kInput: return 0;
      case ValueOrder::kRateMonotonic: return ts[i].period();
      case ValueOrder::kDeadlineMonotonic: return ts[i].deadline();
      case ValueOrder::kTMinusC: return ts[i].t_minus_c();
      case ValueOrder::kDMinusC: return ts[i].d_minus_c();
    }
    return 0;
  };
  std::stable_sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    const Time ka = key(a);
    const Time kb = key(b);
    if (ka != kb) return ka < kb;
    return a < b;  // deterministic tie-break by id
  });
  return ids;
}

namespace {

/// Precomputed per-task constants for the window arithmetic of DESIGN.md §3.
struct TaskConst {
  Time offset;
  Time wcet;
  Time deadline;
  Time period;
  bool wraps;       ///< last window crosses T (O + D > T_i)
  Time tail_end;    ///< e_i = O + D - T_i - 1 (valid iff wraps)
  Time head_start;  ///< A_i = T - T_i + O (valid iff wraps)
  Rate max_rate;    ///< fastest processor that can serve this task
};

/// How a slot relates to a task's windows, given the traversal position.
enum class Zone { kOutside, kTail, kHead, kNormal };

class Search {
 public:
  Search(const rt::TaskSet& ts, const rt::Platform& platform,
         const Options& options)
      : ts_(ts), platform_(platform), options_(options) {
    T_ = ts.hyperperiod();
    n_ = ts.size();
    m_ = platform.processors();

    tasks_.reserve(static_cast<std::size_t>(n_));
    for (TaskId i = 0; i < n_; ++i) {
      TaskConst c{};
      c.offset = ts[i].offset();
      c.wcet = ts[i].wcet();
      c.deadline = ts[i].deadline();
      c.period = ts[i].period();
      c.wraps = c.offset + c.deadline > c.period;
      c.tail_end = c.offset + c.deadline - c.period - 1;
      c.head_start = T_ - c.period + c.offset;
      c.max_rate = 0;
      for (ProcId j = 0; j < m_; ++j) {
        c.max_rate = std::max(c.max_rate, platform.rate(i, j));
      }
      tasks_.push_back(c);
    }

    // Variable order within a slot column: processor ids, quality-ascending
    // on heterogeneous platforms (§VI-A).
    if (!platform.is_identical()) {
      proc_order_ = platform.processors_by_quality(ts);
    } else {
      proc_order_.resize(static_cast<std::size_t>(m_));
      std::iota(proc_order_.begin(), proc_order_.end(), 0);
    }
    group_of_proc_ = platform_.group_of(n_);
    group_count_ = 0;
    for (const auto g : group_of_proc_) {
      group_count_ = std::max(group_count_, g + 1);
    }
    group_size_.assign(static_cast<std::size_t>(group_count_), 0);
    for (const auto g : group_of_proc_) {
      ++group_size_[static_cast<std::size_t>(g)];
    }

    order_ = value_order_tasks(ts, options.value_order);
    // Rule 2 compares tasks by their *position in the value order*, not by
    // raw id: §V-C2 orders the values and eq. (10) then breaks symmetry on
    // that ordering (re-indexing tasks by the heuristic).  This keeps the
    // heuristic and the canonical representative aligned — with raw-id
    // comparisons the two would fight each other (a high-priority task
    // with a large id would forbid every smaller-id task on later
    // processors of the group).  With kInput ordering rank == id.
    rank_.assign(static_cast<std::size_t>(n_), 0);
    for (std::size_t pos = 0; pos < order_.size(); ++pos) {
      rank_[static_cast<std::size_t>(order_[pos])] =
          static_cast<TaskId>(pos);
    }

    depth_.assign(static_cast<std::size_t>(n_), 0);
    remaining_.assign(static_cast<std::size_t>(n_), 0);
    tail_units_.assign(static_cast<std::size_t>(n_), 0);
    run_stamp_.assign(static_cast<std::size_t>(n_), -1);
    last_in_group_.assign(static_cast<std::size_t>(group_count_), -1);
    for (TaskId i = 0; i < n_; ++i) {
      depth_[static_cast<std::size_t>(i)] =
          support::floor_mod(-tasks_[static_cast<std::size_t>(i)].offset,
                             tasks_[static_cast<std::size_t>(i)].period);
      remaining_[static_cast<std::size_t>(i)] =
          tasks_[static_cast<std::size_t>(i)].wcet;
    }
  }

  Result run() {
    support::Stopwatch watch;
    Result result;
    result.search_complete =
        platform_.is_identical() || !options_.idle_rule;
    auto finish = [&](Status status) {
      stats_.seconds = watch.seconds();
      result.status = status;
      result.stats = stats_;
      return result;
    };

    // A task no processor can serve can never receive its C_i > 0 units.
    for (TaskId i = 0; i < n_; ++i) {
      if (tasks_[static_cast<std::size_t>(i)].max_rate == 0) {
        return finish(Status::kInfeasible);
      }
    }
    // Column-0 necessary conditions (the same checks every transition runs).
    if (!column_checks(0)) {
      return finish(Status::kInfeasible);
    }

    open_cell(0);
    while (!frames_.empty()) {
      Frame& frame = frames_.back();

      // Undo the frame's previous attempt before trying the next value.
      if (frame.has_assignment) {
        undo_assignment(frame);
      }

      const std::int64_t candidate = next_candidate(frame);
      if (candidate == kNoCandidate) {
        ++stats_.failures;
        frames_.pop_back();
        continue;
      }

      ++stats_.nodes;
      if ((stats_.nodes & 0x3ff) == 0 && options_.deadline.poll()) {
        return finish(Status::kTimeout);
      }
      if (options_.max_nodes >= 0 && stats_.nodes > options_.max_nodes) {
        return finish(Status::kNodeLimit);
      }

      apply_assignment(frame, static_cast<TaskId>(candidate));

      if (frame.pos + 1 < m_) {
        open_cell(frame.cell + 1);
        continue;
      }

      // Last cell of the column: run the slot transition.
      if (!apply_transition(frames_.size() - 1)) {
        ++stats_.failures;
        continue;  // the loop undoes the assignment and tries the next value
      }
      const Time next_t = frame.column + 1;
      if (next_t == T_) {
        result.schedule = build_schedule();
        return finish(Status::kFeasible);
      }
      open_cell(frame.cell + 1);
    }
    return finish(Status::kInfeasible);
  }

 private:
  static constexpr std::int64_t kNoCandidate = -2;

  struct Frame {
    std::int64_t cell = 0;  ///< t * m + pos
    Time column = 0;
    std::int32_t pos = 0;   ///< position in proc_order_
    ProcId proc = 0;
    std::int32_t group = 0;

    std::int32_t iter = 0;      ///< next index into order_; n_ = idle
    bool idle_allowed = false;  ///< decided when the frame opens
    bool has_assignment = false;
    TaskId assigned = rt::kIdle;

    // Assignment undo data.
    Time prev_stamp = -1;
    TaskId prev_last_in_group = -1;
    Rate rate = 0;
    bool charged_tail = false;

    // Transition undo data (only on the last cell of a column).
    bool transition_applied = false;
    std::vector<std::pair<TaskId, Time>> start_undo;
    std::vector<TaskId> group_undo;
  };

  [[nodiscard]] Zone zone(TaskId i, Time t) const {
    const TaskConst& c = tasks_[static_cast<std::size_t>(i)];
    if (depth_[static_cast<std::size_t>(i)] >= c.deadline) {
      return Zone::kOutside;
    }
    if (c.wraps && t <= c.tail_end) return Zone::kTail;
    if (c.wraps && t >= c.head_start) return Zone::kHead;
    return Zone::kNormal;
  }

  /// Work still owed by the job active at (i, t); tail progress is kept in
  /// a separate counter because intermediate jobs reuse `remaining_`.
  [[nodiscard]] Time owed(TaskId i, Zone z) const {
    if (z == Zone::kTail) {
      return tasks_[static_cast<std::size_t>(i)].wcet -
             tail_units_[static_cast<std::size_t>(i)];
    }
    return remaining_[static_cast<std::size_t>(i)];
  }

  /// Traversal slots still usable by the job active at (i, t), including t.
  [[nodiscard]] Time slots_left(TaskId i, Time t, Zone z) const {
    const TaskConst& c = tasks_[static_cast<std::size_t>(i)];
    switch (z) {
      case Zone::kTail:
        return (c.tail_end - t + 1) + (c.period - c.offset);
      case Zone::kHead:
        return T_ - t;
      case Zone::kNormal:
        return c.deadline - depth_[static_cast<std::size_t>(i)];
      case Zone::kOutside:
        return 0;
    }
    return 0;
  }

  [[nodiscard]] bool available(TaskId i, const Frame& frame) const {
    const Zone z = zone(i, frame.column);
    if (z == Zone::kOutside) return false;
    const Rate rate = platform_.rate(i, frame.proc);
    if (rate == 0) return false;
    if (owed(i, z) < rate) return false;  // done, or would overshoot (12)
    if (run_stamp_[static_cast<std::size_t>(i)] == frame.column) {
      return false;  // C3: already running this slot
    }
    if (options_.symmetry_rule &&
        group_size_[static_cast<std::size_t>(frame.group)] > 1 &&
        rank_[static_cast<std::size_t>(i)] <=
            last_in_group_[static_cast<std::size_t>(frame.group)]) {
      return false;  // rule (10)/(13): ascending value-order ranks
    }
    return true;
  }

  void open_cell(std::int64_t cell) {
    Frame frame;
    frame.cell = cell;
    frame.column = static_cast<Time>(cell / m_);
    frame.pos = static_cast<std::int32_t>(cell % m_);
    frame.proc = proc_order_[static_cast<std::size_t>(frame.pos)];
    frame.group = group_of_proc_[static_cast<std::size_t>(frame.proc)];
    stats_.max_column = std::max(stats_.max_column, frame.column);

    // Rule 1: idle is permitted only when no task is available; without the
    // rule it is always permitted (tried after every task).
    if (options_.idle_rule) {
      bool any = false;
      for (TaskId i = 0; i < n_ && !any; ++i) {
        any = available(i, frame);
      }
      frame.idle_allowed = !any;
    } else {
      frame.idle_allowed = true;
    }
    frames_.push_back(std::move(frame));
  }

  /// Returns the next value for the frame: a task id, rt::kIdle, or
  /// kNoCandidate when exhausted.
  [[nodiscard]] std::int64_t next_candidate(Frame& frame) {
    while (frame.iter < n_) {
      const TaskId i = order_[static_cast<std::size_t>(frame.iter)];
      ++frame.iter;
      if (available(i, frame)) return i;
    }
    if (frame.iter == n_) {
      ++frame.iter;
      if (frame.idle_allowed) return rt::kIdle;
    }
    return kNoCandidate;
  }

  void apply_assignment(Frame& frame, TaskId value) {
    frame.has_assignment = true;
    frame.assigned = value;
    cells_resize(frame.cell);
    cells_[static_cast<std::size_t>(frame.cell)] = value;
    if (value == rt::kIdle) return;

    frame.prev_stamp = run_stamp_[static_cast<std::size_t>(value)];
    run_stamp_[static_cast<std::size_t>(value)] = frame.column;

    frame.prev_last_in_group =
        last_in_group_[static_cast<std::size_t>(frame.group)];
    last_in_group_[static_cast<std::size_t>(frame.group)] =
        std::max(frame.prev_last_in_group,
                 rank_[static_cast<std::size_t>(value)]);

    frame.rate = platform_.rate(value, frame.proc);
    frame.charged_tail = zone(value, frame.column) == Zone::kTail;
    if (frame.charged_tail) {
      tail_units_[static_cast<std::size_t>(value)] += frame.rate;
    } else {
      remaining_[static_cast<std::size_t>(value)] -= frame.rate;
    }
  }

  void undo_assignment(Frame& frame) {
    if (frame.transition_applied) undo_transition(frame);
    if (frame.assigned != rt::kIdle) {
      const auto i = static_cast<std::size_t>(frame.assigned);
      if (frame.charged_tail) {
        tail_units_[i] -= frame.rate;
      } else {
        remaining_[i] += frame.rate;
      }
      last_in_group_[static_cast<std::size_t>(frame.group)] =
          frame.prev_last_in_group;
      run_stamp_[i] = frame.prev_stamp;
    }
    frame.has_assignment = false;
    frame.assigned = rt::kIdle;
  }

  /// Necessary-condition checks for the column that is about to be filled
  /// (also run once for column 0 before the search starts).
  [[nodiscard]] bool column_checks(Time t) {
    if (!options_.slack_prune && !options_.tight_demand_prune) return true;
    std::int32_t tight = 0;
    for (TaskId i = 0; i < n_; ++i) {
      const Zone z = zone(i, t);
      if (z == Zone::kOutside) continue;
      const Time rem = owed(i, z);
      if (rem <= 0) continue;
      const Time cap = slots_left(i, t, z);
      if (options_.slack_prune) {
        if (rem > cap * tasks_[static_cast<std::size_t>(i)].max_rate) {
          return false;
        }
      }
      if (options_.tight_demand_prune && platform_.is_identical() &&
          rem == cap) {
        ++tight;
      }
    }
    return tight <= m_;
  }

  /// Advances the per-task state from column `t` to `t+1`.  Returns false
  /// when a closure check or a column check fails (state fully restored by
  /// undo_transition via the caller's undo_assignment).
  [[nodiscard]] bool apply_transition(std::size_t frame_index) {
    Frame& frame = frames_[frame_index];
    const Time t = frame.column;

    // Closure: jobs whose window ends with slot t must be complete.  The
    // check is skipped at a wrapped tail end (t < O_i): that job's head
    // still comes later in the traversal.
    for (TaskId i = 0; i < n_; ++i) {
      const TaskConst& c = tasks_[static_cast<std::size_t>(i)];
      if (depth_[static_cast<std::size_t>(i)] == c.deadline - 1 &&
          t >= c.offset &&
          remaining_[static_cast<std::size_t>(i)] != 0) {
        return false;
      }
    }

    frame.transition_applied = true;
    // Advance depths.
    for (TaskId i = 0; i < n_; ++i) {
      auto& d = depth_[static_cast<std::size_t>(i)];
      d = d + 1 == tasks_[static_cast<std::size_t>(i)].period ? 0 : d + 1;
    }

    const Time next_t = t + 1;
    if (next_t == T_) {
      // End of the hyperperiod: wrapped jobs must have collected their full
      // C_i across tail + head.
      for (TaskId i = 0; i < n_; ++i) {
        if (tasks_[static_cast<std::size_t>(i)].wraps &&
            remaining_[static_cast<std::size_t>(i)] != 0) {
          return false;
        }
      }
      return true;
    }

    // Window starts at next_t: reset the job budget.  The wrapped head
    // start continues from the tail's progress instead (DESIGN.md §3).
    for (TaskId i = 0; i < n_; ++i) {
      const TaskConst& c = tasks_[static_cast<std::size_t>(i)];
      if (depth_[static_cast<std::size_t>(i)] != 0) continue;
      frame.start_undo.emplace_back(i, remaining_[static_cast<std::size_t>(i)]);
      remaining_[static_cast<std::size_t>(i)] =
          next_t + c.deadline > T_
              ? c.wcet - tail_units_[static_cast<std::size_t>(i)]
              : c.wcet;
    }

    // New column: the symmetry chain restarts.
    frame.group_undo = last_in_group_;
    std::fill(last_in_group_.begin(), last_in_group_.end(), TaskId{-1});

    return column_checks(next_t);
  }

  void undo_transition(Frame& frame) {
    if (!frame.group_undo.empty()) {
      last_in_group_ = frame.group_undo;
      frame.group_undo.clear();
    }
    for (auto it = frame.start_undo.rbegin(); it != frame.start_undo.rend();
         ++it) {
      remaining_[static_cast<std::size_t>(it->first)] = it->second;
    }
    frame.start_undo.clear();
    for (TaskId i = 0; i < n_; ++i) {
      auto& d = depth_[static_cast<std::size_t>(i)];
      d = d == 0 ? tasks_[static_cast<std::size_t>(i)].period - 1 : d - 1;
    }
    frame.transition_applied = false;
  }

  void cells_resize(std::int64_t cell) {
    if (static_cast<std::size_t>(cell) >= cells_.size()) {
      cells_.resize(static_cast<std::size_t>(cell) + 1, rt::kIdle);
    }
  }

  [[nodiscard]] rt::Schedule build_schedule() const {
    rt::Schedule schedule(T_, m_);
    for (Time t = 0; t < T_; ++t) {
      for (std::int32_t pos = 0; pos < m_; ++pos) {
        const TaskId v = cells_[static_cast<std::size_t>(t * m_ + pos)];
        if (v != rt::kIdle) {
          schedule.set(t, proc_order_[static_cast<std::size_t>(pos)], v);
        }
      }
    }
    return schedule;
  }

  const rt::TaskSet& ts_;
  const rt::Platform& platform_;
  const Options& options_;

  Time T_ = 0;
  std::int32_t n_ = 0;
  std::int32_t m_ = 0;

  std::vector<TaskConst> tasks_;
  std::vector<ProcId> proc_order_;
  std::vector<std::int32_t> group_of_proc_;
  std::int32_t group_count_ = 0;
  std::vector<std::int32_t> group_size_;
  std::vector<TaskId> order_;
  std::vector<TaskId> rank_;  ///< position of each task in order_

  // Mutable search state.
  std::vector<Time> depth_;       ///< d_i = (t - O_i) mod T_i
  std::vector<Time> remaining_;   ///< budget of the active job
  std::vector<Time> tail_units_;  ///< work banked during a wrapped tail
  std::vector<Time> run_stamp_;   ///< column where the task last ran
  std::vector<TaskId> last_in_group_;
  std::vector<TaskId> cells_;
  std::vector<Frame> frames_;

  Stats stats_;
};

}  // namespace

Result solve(const rt::TaskSet& ts, const rt::Platform& platform,
             const Options& options) {
  if (!ts.is_constrained()) {
    throw ValidationError(
        "csp2::solve expects a constrained-deadline system; expand clones "
        "first (TaskSet::to_constrained)");
  }
  if (platform.rate_rows() > 0 && platform.rate_rows() != ts.size()) {
    throw ValidationError(
        "heterogeneous rate matrix does not match the task count");
  }
  Search search(ts, platform, options);
  return search.run();
}

}  // namespace mgrts::csp2
