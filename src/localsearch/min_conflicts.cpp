#include "localsearch/min_conflicts.hpp"

#include <algorithm>
#include <vector>

#include "rt/jobs.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace mgrts::ls {

using rt::ProcId;
using rt::TaskId;
using rt::Time;

const char* to_string(Status status) {
  switch (status) {
    case Status::kFeasible: return "feasible";
    case Status::kUnknown: return "unknown";
    case Status::kTimeout: return "timeout";
  }
  return "?";
}

namespace {

/// Probability of a random-walk move instead of the greedy one.
constexpr double kRandomWalk = 0.08;

class MinConflicts {
 public:
  MinConflicts(const rt::TaskSet& ts, std::int32_t m, const Options& options)
      : ts_(ts), jobs_(ts), m_(m), options_(options) {
    T_ = ts.hyperperiod();
    occupancy_.assign(static_cast<std::size_t>(T_), 0);
    overfull_pos_.assign(static_cast<std::size_t>(T_), -1);
    chosen_.resize(jobs_.size());
    in_use_.assign(static_cast<std::size_t>(T_), false);
  }

  Result run() {
    support::Stopwatch watch;
    support::Rng rng(options_.seed);
    Result result;
    result.stats.best_cost = -1;

    for (std::int64_t restart = 0; restart < options_.restarts; ++restart) {
      result.stats.restarts_used = restart;
      initialize(rng);
      if (cost_ == 0) {
        return finish(result, watch, Status::kFeasible);
      }
      for (std::int64_t it = 0; it < options_.iterations_per_restart; ++it) {
        ++result.stats.iterations;
        if ((result.stats.iterations & 0x3ff) == 0 &&
            options_.deadline.poll()) {
          return finish(result, watch, Status::kTimeout);
        }
        step(rng);
        if (result.stats.best_cost < 0 || cost_ < result.stats.best_cost) {
          result.stats.best_cost = cost_;
        }
        if (cost_ == 0) {
          return finish(result, watch, Status::kFeasible);
        }
      }
    }
    return finish(result, watch, Status::kUnknown);
  }

 private:
  Result finish(Result& result, const support::Stopwatch& watch,
                Status status) {
    result.status = status;
    if (result.stats.best_cost < 0) result.stats.best_cost = cost_;
    if (status == Status::kFeasible) {
      result.stats.best_cost = 0;
      result.schedule = build_schedule();
    }
    result.stats.seconds = watch.seconds();
    return result;
  }

  // ------------------------------------------------------------ state ops

  void add_unit(Time slot) {
    auto& occ = occupancy_[static_cast<std::size_t>(slot)];
    ++occ;
    if (occ == m_ + 1) mark_overfull(slot);
    if (occ > m_) ++cost_;
  }

  void remove_unit(Time slot) {
    auto& occ = occupancy_[static_cast<std::size_t>(slot)];
    MGRTS_ASSERT(occ > 0);
    if (occ > m_) --cost_;
    --occ;
    if (occ == m_) unmark_overfull(slot);
  }

  void mark_overfull(Time slot) {
    overfull_pos_[static_cast<std::size_t>(slot)] =
        static_cast<std::int32_t>(overfull_.size());
    overfull_.push_back(slot);
  }

  void unmark_overfull(Time slot) {
    const auto pos = overfull_pos_[static_cast<std::size_t>(slot)];
    MGRTS_ASSERT(pos >= 0);
    const Time moved = overfull_.back();
    overfull_[static_cast<std::size_t>(pos)] = moved;
    overfull_pos_[static_cast<std::size_t>(moved)] = pos;
    overfull_.pop_back();
    overfull_pos_[static_cast<std::size_t>(slot)] = -1;
  }

  void initialize(support::Rng& rng) {
    std::fill(occupancy_.begin(), occupancy_.end(), 0);
    for (const Time slot : overfull_) {
      overfull_pos_[static_cast<std::size_t>(slot)] = -1;
    }
    overfull_.clear();
    cost_ = 0;

    // Greedy randomized construction: each job picks its C_i slots among
    // the currently least-loaded slots of its window (ties shuffled).
    for (std::size_t idx = 0; idx < jobs_.size(); ++idx) {
      const rt::Job& job = jobs_.jobs()[idx];
      std::vector<Time> window = job.slots;
      rng.shuffle(window);
      std::stable_sort(window.begin(), window.end(), [&](Time a, Time b) {
        return occupancy_[static_cast<std::size_t>(a)] <
               occupancy_[static_cast<std::size_t>(b)];
      });
      auto& mine = chosen_[idx];
      mine.assign(window.begin(),
                  window.begin() + static_cast<std::ptrdiff_t>(job.wcet));
      for (const Time slot : mine) add_unit(slot);
    }
  }

  void step(support::Rng& rng) {
    MGRTS_ASSERT(!overfull_.empty());
    // Pick a conflicted slot, then one of the jobs occupying it.
    const Time slot = overfull_[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(overfull_.size()) - 1))];
    const std::size_t victim = random_job_on(slot, rng);

    const rt::Job& job = jobs_.jobs()[victim];
    auto& mine = chosen_[victim];

    // Candidate target slots: window slots this job does not already use.
    for (const Time s : mine) in_use_[static_cast<std::size_t>(s)] = true;
    Time best = -1;
    std::int32_t best_occ = 0;
    std::int64_t ties = 0;
    const bool walk = rng.chance(kRandomWalk);
    for (const Time s : job.slots) {
      if (in_use_[static_cast<std::size_t>(s)]) continue;
      const auto occ = occupancy_[static_cast<std::size_t>(s)];
      if (walk) {
        // Reservoir-sample uniformly among all alternatives.
        ++ties;
        if (rng.uniform(1, ties) == 1) best = s;
        continue;
      }
      if (best < 0 || occ < best_occ) {
        best = s;
        best_occ = occ;
        ties = 1;
      } else if (occ == best_occ) {
        ++ties;
        if (rng.uniform(1, ties) == 1) best = s;
      }
    }
    for (const Time s : mine) in_use_[static_cast<std::size_t>(s)] = false;

    if (best < 0) return;  // window == C_i slots: job has no freedom

    // Apply the move (even if it does not improve: min-conflicts relies on
    // sideways moves; moving out of an overfull slot never increases cost
    // unless the target is also at capacity, which the walk tolerates).
    const auto it = std::find(mine.begin(), mine.end(), slot);
    MGRTS_ASSERT(it != mine.end());
    *it = best;
    remove_unit(slot);
    add_unit(best);
  }

  /// Uniformly picks a job occupying `slot` (jobs store few slots, so a
  /// scan with reservoir sampling over the jobs whose window covers the
  /// slot is cheap through the per-task window arithmetic).
  std::size_t random_job_on(Time slot, support::Rng& rng) {
    std::size_t pick = 0;
    std::int64_t seen = 0;
    for (TaskId i = 0; i < ts_.size(); ++i) {
      const auto job_index = jobs_.job_at(i, slot);
      if (job_index < 0) continue;
      const auto idx = static_cast<std::size_t>(job_index);
      const auto& mine = chosen_[idx];
      if (std::find(mine.begin(), mine.end(), slot) == mine.end()) continue;
      ++seen;
      if (rng.uniform(1, seen) == 1) pick = idx;
    }
    MGRTS_ASSERT(seen > 0);
    return pick;
  }

  rt::Schedule build_schedule() const {
    rt::Schedule schedule(T_, m_);
    std::vector<std::vector<TaskId>> per_slot(static_cast<std::size_t>(T_));
    for (std::size_t idx = 0; idx < jobs_.size(); ++idx) {
      for (const Time slot : chosen_[idx]) {
        per_slot[static_cast<std::size_t>(slot)].push_back(
            jobs_.jobs()[idx].task);
      }
    }
    for (Time t = 0; t < T_; ++t) {
      auto& tasks = per_slot[static_cast<std::size_t>(t)];
      MGRTS_ASSERT(static_cast<std::int32_t>(tasks.size()) <= m_);
      std::sort(tasks.begin(), tasks.end());
      for (std::size_t j = 0; j < tasks.size(); ++j) {
        schedule.set(t, static_cast<ProcId>(j), tasks[j]);
      }
    }
    return schedule;
  }

  const rt::TaskSet& ts_;
  rt::JobTable jobs_;
  std::int32_t m_;
  const Options& options_;
  Time T_ = 0;

  std::vector<std::vector<Time>> chosen_;  ///< slots per job
  std::vector<std::int32_t> occupancy_;
  std::vector<Time> overfull_;
  std::vector<std::int32_t> overfull_pos_;
  std::vector<bool> in_use_;
  std::int64_t cost_ = 0;
};

}  // namespace

Result solve(const rt::TaskSet& ts, const rt::Platform& platform,
             const Options& options) {
  if (!platform.is_identical()) {
    throw ValidationError("local search supports identical platforms only");
  }
  if (!ts.is_constrained()) {
    throw ValidationError(
        "local search expects constrained deadlines; expand clones first");
  }
  // A job with C > D can never pick C distinct window slots.
  for (TaskId i = 0; i < ts.size(); ++i) {
    if (ts[i].wcet() > ts[i].deadline()) {
      Result result;
      result.status = Status::kUnknown;  // local search proves nothing
      return result;
    }
  }
  MinConflicts search(ts, platform.processors(), options);
  return search.run();
}

}  // namespace mgrts::ls
