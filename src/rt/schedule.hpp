// Cyclic schedule sigma : {0..T-1} x {0..m-1} -> {kIdle, 0..n-1}.
//
// Per Theorem 1 the infinite schedule is sigma(t mod T); this class stores
// exactly one hyperperiod.  Cells hold 0-based task ids; kIdle (-1) marks an
// idle processor slot (the paper's 0 / "no task" value).  The table is
// slot-major: the m cells of slot t are contiguous, and `row(t)` hands them
// out without the mod-T reduction `at`/`set` pay per cell, for the loops
// that walk a whole hyperperiod slot by slot (the flow oracle's witness,
// the validator).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rt/task.hpp"
#include "support/assert.hpp"

namespace mgrts::rt {

class Schedule {
 public:
  Schedule() = default;

  /// All slots start idle.
  Schedule(Time hyperperiod, std::int32_t processors);

  [[nodiscard]] Time hyperperiod() const noexcept { return T_; }
  [[nodiscard]] std::int32_t processors() const noexcept { return m_; }
  [[nodiscard]] bool empty() const noexcept { return table_.empty(); }

  /// Task at cyclic slot t (any integer >= 0; reduced mod T) on processor j.
  [[nodiscard]] TaskId at(Time t, ProcId j) const {
    return table_[index(t, j)];
  }

  void set(Time t, ProcId j, TaskId task) { table_[index(t, j)] = task; }

  /// The m cells of slot t, processor 0 first; t must lie in [0, T).
  [[nodiscard]] std::span<const TaskId> row(Time t) const {
    return {table_.data() + row_start(t), static_cast<std::size_t>(m_)};
  }
  [[nodiscard]] std::span<TaskId> row(Time t) {
    return {table_.data() + row_start(t), static_cast<std::size_t>(m_)};
  }

  /// Number of (slot, processor) pairs assigned to `task`.
  [[nodiscard]] Time units_of(TaskId task) const noexcept;

  /// Total busy cells.
  [[nodiscard]] Time busy_cells() const noexcept;

  /// Tasks running at slot t, in processor order (kIdle entries skipped).
  [[nodiscard]] std::vector<TaskId> running_at(Time t) const;

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  [[nodiscard]] std::size_t index(Time t, ProcId j) const {
    const Time tc = t % T_;
    return static_cast<std::size_t>(tc) * static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(j);
  }
  [[nodiscard]] std::size_t row_start(Time t) const {
    MGRTS_ASSERT(t >= 0 && t < T_);
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(m_);
  }

  Time T_ = 0;
  std::int32_t m_ = 0;
  std::vector<TaskId> table_;
};

}  // namespace mgrts::rt
