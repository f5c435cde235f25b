#include "rt/validate.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/tests.hpp"
#include "csp2/csp2.hpp"
#include "flow/oracle.hpp"
#include "gen/generator.hpp"
#include "rt/schedule.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "validate_reference.hpp"

namespace mgrts::rt {
namespace {

using mgrts::testing::example1;

/// A hand-checked feasible schedule for Example 1 (m=2, T=12):
///     slot  0  1  2  3  4  5  6  7  8  9 10 11
///     P1    1  2  1  2  1  2  1  2  1  2  2  1
///     P2    3  3  2  3  3  .  3  3  2  3  3  2
/// tau1 gets one slot per window; tau3 both slots of each of its windows;
/// tau2's jobs get {1,2,3}, {5,7,8} and the wrapped {9,10,11}.
Schedule example1_schedule() {
  Schedule s(12, 2);
  const TaskId p1[12] = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0};
  const TaskId p2[12] = {2, 2, 1, 2, 2, kIdle, 2, 2, 1, 2, 2, 1};
  for (Time t = 0; t < 12; ++t) {
    s.set(t, 0, p1[t]);
    if (p2[t] != kIdle) s.set(t, 1, p2[t]);
  }
  return s;
}

TEST(Schedule, BasicAccessors) {
  Schedule s(4, 2);
  EXPECT_EQ(s.hyperperiod(), 4);
  EXPECT_EQ(s.processors(), 2);
  EXPECT_EQ(s.at(0, 0), kIdle);
  s.set(3, 1, 7);
  EXPECT_EQ(s.at(3, 1), 7);
  EXPECT_EQ(s.at(7, 1), 7);  // cyclic access
  EXPECT_EQ(s.units_of(7), 1);
  EXPECT_EQ(s.busy_cells(), 1);
}

TEST(Schedule, RowIsTheSlotsCellsInProcessorOrder) {
  Schedule s(3, 2);
  s.set(1, 0, 4);
  s.set(1, 1, 2);
  const Schedule& view = s;
  EXPECT_EQ(std::vector<TaskId>(view.row(1).begin(), view.row(1).end()),
            (std::vector<TaskId>{4, 2}));
  EXPECT_EQ(view.row(0).size(), 2u);
  s.row(2)[1] = 5;
  EXPECT_EQ(s.at(2, 1), 5);
  EXPECT_EQ(s.at(5, 1), 5);
}

TEST(Schedule, RunningAtSkipsIdle) {
  Schedule s(2, 3);
  s.set(0, 0, 2);
  s.set(0, 2, 0);
  EXPECT_EQ(s.running_at(0), (std::vector<TaskId>{2, 0}));
  EXPECT_TRUE(s.running_at(1).empty());
}

TEST(Validator, AcceptsHandBuiltExample1Schedule) {
  const TaskSet ts = example1();
  const auto report =
      validate_schedule(ts, Platform::identical(2), example1_schedule());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Validator, DetectsShapeMismatch) {
  const TaskSet ts = example1();
  const Schedule wrong(6, 2);  // wrong hyperperiod
  const auto report = validate_schedule(ts, Platform::identical(2), wrong);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kShape);
}

TEST(Validator, DetectsMissingWork) {
  const TaskSet ts = example1();
  Schedule s = example1_schedule();
  s.set(0, 0, kIdle);  // remove one tau1 unit
  const auto report = validate_schedule(ts, Platform::identical(2), s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kWrongAmount);
  EXPECT_EQ(report.violations[0].task, 0);
}

TEST(Validator, DetectsExcessWork) {
  const TaskSet ts = example1();
  Schedule s = example1_schedule();
  s.set(1, 0, 0);  // tau1 now has 2 units in window {0,1}
  const auto report = validate_schedule(ts, Platform::identical(2), s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kWrongAmount);
}

TEST(Validator, DetectsOutsideWindow) {
  const TaskSet ts = example1();
  Schedule s = example1_schedule();
  // tau3 has no window at slot 2; also remove a unit from its window to
  // keep the amount right and isolate the C1 violation.
  s.set(2, 0, 2);
  s.set(0, 1, kIdle);
  const auto report = validate_schedule(ts, Platform::identical(2), s);
  ASSERT_FALSE(report.ok());
  bool saw_c1 = false;
  for (const auto& v : report.violations) {
    saw_c1 = saw_c1 || v.kind == ViolationKind::kOutsideWindow;
  }
  EXPECT_TRUE(saw_c1) << report.to_string();
}

TEST(Validator, DetectsIntraSlotParallelism) {
  const TaskSet ts = example1();
  Schedule s(12, 2);
  // tau1 on both processors at slot 0.
  s.set(0, 0, 0);
  s.set(0, 1, 0);
  const auto report = validate_schedule(ts, Platform::identical(2), s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kParallelism);
  EXPECT_EQ(report.violations[0].slot, 0);
}

TEST(Validator, DetectsBadTaskId) {
  const TaskSet ts = example1();
  Schedule s(12, 2);
  s.set(0, 0, 17);
  const auto report = validate_schedule(ts, Platform::identical(2), s);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kBadTaskId);
}

TEST(Validator, DetectsZeroRateProcessor) {
  const TaskSet ts = TaskSet::from_params({{0, 1, 1, 1}});
  const Platform p = Platform::heterogeneous({{1, 0}});
  Schedule s(1, 2);
  s.set(0, 1, 0);  // P2 cannot serve tau1
  const auto report = validate_schedule(ts, p, s);
  ASSERT_FALSE(report.ok());
  bool saw = false;
  for (const auto& v : report.violations) {
    saw = saw || v.kind == ViolationKind::kZeroRateProc;
  }
  EXPECT_TRUE(saw);
}

TEST(Validator, HeterogeneousWeightedAmount) {
  // tau1 needs C=2; P1 runs it at rate 2, so one slot suffices.
  const TaskSet ts = TaskSet::from_params({{0, 2, 2, 2}});
  const Platform p = Platform::heterogeneous({{2}});
  Schedule s(2, 1);
  s.set(0, 0, 0);
  EXPECT_TRUE(validate_schedule(ts, p, s).ok());
  // Running both slots would overshoot (4 != 2).
  s.set(1, 0, 0);
  EXPECT_FALSE(validate_schedule(ts, p, s).ok());
}

TEST(Validator, RejectsArbitraryDeadlineInput) {
  const TaskSet ts =
      TaskSet::from_params({{0, 1, 5, 4}}, DeadlineModel::kArbitrary);
  const Schedule s(20, 1);
  EXPECT_THROW(
      static_cast<void>(validate_schedule(ts, Platform::identical(1), s)),
      ValidationError);
}

TEST(Validator, ReportRendersHumanReadably) {
  const TaskSet ts = example1();
  Schedule s(12, 2);
  s.set(0, 0, 0);
  s.set(0, 1, 0);
  const auto report = validate_schedule(ts, Platform::identical(2), s);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("C3-parallelism"), std::string::npos);
  EXPECT_NE(text.find("tau1"), std::string::npos);
}


// ------------------------------------------------ validator differential
//
// The validator walks window phases slot by slot; the reference in
// validate_reference.hpp places every cell with WindowIndex::hit.  Both
// must give the same report, violation for violation and in order, on
// real witnesses (the flow oracle's, and the dedicated CSP2 solver's on
// uniform and heterogeneous platforms) and on mutants of them.

struct Witness {
  TaskSet tasks;
  Platform platform;
  Schedule schedule;
};

std::vector<Witness> witnesses() {
  std::vector<Witness> out;
  // Flow-oracle witnesses: Table-I shapes, then offsets on 2-3 processors.
  gen::GeneratorOptions table1;
  for (std::uint64_t k = 0; out.size() < 60; ++k) {
    const auto inst = gen::generate_indexed(table1, 3, k);
    const Platform p = Platform::identical(inst.processors);
    auto result = flow::decide_feasibility(inst.tasks, p);
    if (result.schedule) out.push_back({inst.tasks, p, *result.schedule});
  }
  gen::GeneratorOptions offsets;
  offsets.tasks = 5;
  offsets.t_max = 6;
  offsets.with_offsets = true;
  for (std::uint64_t k = 0; out.size() < 100; ++k) {
    offsets.processors = 2 + static_cast<std::int32_t>(k % 2);
    const auto inst = gen::generate_indexed(offsets, 5, k);
    const Platform p = Platform::identical(inst.processors);
    auto result = flow::decide_feasibility(inst.tasks, p);
    if (result.schedule) out.push_back({inst.tasks, p, *result.schedule});
  }
  // Dedicated-CSP2 witnesses on uniform and heterogeneous platforms, some
  // heterogeneous rates zero.
  support::Rng rng(20'261'019);
  gen::GeneratorOptions small;
  small.tasks = 4;
  small.t_max = 5;
  int csp2_witnesses = 0;
  for (std::uint64_t k = 0; csp2_witnesses < 60 && k < 2'000; ++k) {
    small.processors = 2 + static_cast<std::int32_t>(k % 2);
    small.with_offsets = k % 3 == 0;
    const auto inst = gen::generate_indexed(small, 9, k);
    const std::int32_t m = inst.processors;
    Platform p = Platform::identical(m);
    if (k % 2 == 0) {
      std::vector<Rate> speeds;
      for (std::int32_t j = 0; j < m; ++j) speeds.push_back(rng.uniform(1, 3));
      p = Platform::uniform(speeds);
    } else {
      std::vector<std::vector<Rate>> rates(
          static_cast<std::size_t>(inst.tasks.size()));
      for (auto& row : rates) {
        for (std::int32_t j = 0; j < m; ++j) row.push_back(rng.uniform(0, 2));
        row[static_cast<std::size_t>(rng.uniform(0, m - 1))] = 1;
      }
      p = Platform::heterogeneous(rates);
    }
    csp2::Options options;
    options.max_nodes = 20'000;
    auto result = csp2::solve(inst.tasks, p, options);
    if (!result.schedule) continue;
    out.push_back({inst.tasks, p, *result.schedule});
    ++csp2_witnesses;
  }
  return out;
}

/// One edit of the kinds a broken witness shows.
void mutate(const Witness& w, Schedule& s, support::Rng& rng) {
  const Time T = s.hyperperiod();
  const std::int32_t m = s.processors();
  const std::int32_t n = w.tasks.size();
  const auto slot = [&] { return rng.uniform(0, T - 1); };
  const auto proc = [&] { return static_cast<ProcId>(rng.uniform(0, m - 1)); };
  const auto task = [&] { return static_cast<TaskId>(rng.uniform(0, n - 1)); };
  switch (rng.uniform(0, 8)) {
    case 0: {  // swap two cells
      const Time t1 = slot(), t2 = slot();
      const ProcId j1 = proc(), j2 = proc();
      const TaskId a = s.at(t1, j1);
      s.set(t1, j1, s.at(t2, j2));
      s.set(t2, j2, a);
      break;
    }
    case 1: {  // move a unit out of its window, onto a cell of another slot
      const Time t = slot();
      const ProcId j = proc();
      const TaskId i = s.at(t, j);
      if (i == kIdle) break;
      const WindowIndex windows(w.tasks);
      for (int tries = 0; tries < 8; ++tries) {
        const Time to = slot();
        if (windows.in_window(i, to)) continue;
        s.set(t, j, kIdle);
        s.set(to, proc(), i);
        break;
      }
      break;
    }
    case 2: {  // run a task twice in one slot
      const Time t = slot();
      const ProcId j = proc();
      if (s.at(t, j) != kIdle) s.set(t, (j + 1) % m, s.at(t, j));
      break;
    }
    case 3:  // an id outside {kIdle, 0..n-1}
      s.set(slot(), proc(),
            rng.chance(0.5) ? static_cast<TaskId>(n + rng.uniform(0, 3))
                            : static_cast<TaskId>(-2 - rng.uniform(0, 3)));
      break;
    case 4:  // drop a unit
      s.set(slot(), proc(), kIdle);
      break;
    case 5:  // add a unit
      s.set(slot(), proc(), task());
      break;
    case 6: {  // fill a zero-rate cell, where the platform has one
      if (m != w.platform.processors()) break;  // after a shape edit
      for (int tries = 0; tries < 16; ++tries) {
        const TaskId i = task();
        const ProcId j = proc();
        if (w.platform.can_run(i, j)) continue;
        s.set(slot(), j, i);
        break;
      }
      break;
    }
    case 7: {  // a wrong shape
      Schedule wrong(T + (rng.chance(0.5) ? 1 : 0),
                     m + (rng.chance(0.5) ? 0 : 1));
      if (wrong.hyperperiod() == T && wrong.processors() == m) {
        wrong = Schedule(2 * T, m);
      }
      s = std::move(wrong);
      break;
    }
    default: {  // rewrite a whole slot at random
      const Time t = slot();
      for (ProcId j = 0; j < m; ++j) {
        s.set(t, j, rng.chance(0.3) ? kIdle : task());
      }
      break;
    }
  }
}

::testing::AssertionResult same_report(const ValidationReport& got,
                                       const ValidationReport& want) {
  if (got.violations.size() != want.violations.size()) {
    return ::testing::AssertionFailure()
           << got.violations.size() << " violations, reference "
           << want.violations.size() << "\n"
           << got.to_string() << "reference:\n" << want.to_string();
  }
  for (std::size_t v = 0; v < got.violations.size(); ++v) {
    const Violation& a = got.violations[v];
    const Violation& b = want.violations[v];
    if (a.kind != b.kind || a.slot != b.slot || a.processor != b.processor ||
        a.task != b.task || a.detail != b.detail) {
      return ::testing::AssertionFailure()
             << "violation " << v << " differs\n"
             << got.to_string() << "reference:\n" << want.to_string();
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ValidatorDifferential, MutantsGetTheReferenceReport) {
  // ~70 ms in Release, ~0.5 s under ASan+UBSan (4-vCPU Xeon VM); a
  // measurement, not an assertion, so a slow sanitizer runner cannot fail
  // it.
  const std::vector<Witness> pool = witnesses();
  ASSERT_EQ(pool.size(), 160u);
  support::Rng rng(20'261'020);
  int clean = 0;
  int mutants = 0;
  std::array<int, 6> kinds{};  // one count per ViolationKind
  for (const Witness& w : pool) {
    const ValidationReport report =
        validate_schedule(w.tasks, w.platform, w.schedule);
    ASSERT_TRUE(report.ok()) << report.to_string();
    ASSERT_TRUE(same_report(
        report, reference::validate_schedule(w.tasks, w.platform, w.schedule)));
    ++clean;
    for (int k = 0; k < 40; ++k) {
      Schedule s = w.schedule;
      for (std::int64_t edits = rng.uniform(1, 3); edits > 0; --edits) {
        mutate(w, s, rng);
      }
      ++mutants;
      const ValidationReport want =
          reference::validate_schedule(w.tasks, w.platform, s);
      ASSERT_TRUE(
          same_report(validate_schedule(w.tasks, w.platform, s), want))
          << "witness " << clean - 1 << ", mutant " << k;
      for (const Violation& v : want.violations) {
        ++kinds[static_cast<std::size_t>(v.kind)];
      }
    }
  }
  EXPECT_EQ(mutants, 6'400);
  // Every kind of violation was exercised.
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    EXPECT_GT(kinds[kind], 0) << to_string(static_cast<ViolationKind>(kind));
  }
}

}  // namespace
}  // namespace mgrts::rt
