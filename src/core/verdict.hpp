// Canonical solve verdict and the one place where every frontend's private
// status enum maps into it.
//
// The repo grew five deciders — analytical bound tests, the max-flow
// oracle, min-conflicts local search, the generic CSP engine and the
// dedicated CSP2 solver — each with its own verdict enum.  Call sites used
// to re-map them ad hoc; the pipeline (core/pipeline.hpp) instead speaks
// exactly one vocabulary, defined here, and `canonical_verdict` is the only
// sanctioned translation.  Everything downstream (harness records, tables,
// benches, provenance strings) consumes core::Verdict.
//
// kUnknown is the verdict of an *incomplete* answer that exhausted its own
// notion of budget without proving anything: an analysis filter that did
// not fire, or local search giving up (§VIII's asymmetry).  It counts as an
// overrun for Table-I bookkeeping, like kTimeout/kNodeLimit.
#pragma once

namespace mgrts::csp {
enum class SolveStatus;
}
namespace mgrts::csp2 {
enum class Status;
}
namespace mgrts::flow {
enum class OracleVerdict;
}
namespace mgrts::analysis {
enum class TestVerdict;
}
namespace mgrts::ls {
enum class Status;
}

namespace mgrts::core {

enum class Verdict {
  kFeasible,
  kInfeasible,
  kTimeout,      ///< the paper's "overrun"
  kNodeLimit,
  kMemoryLimit,  ///< model exceeded the variable/memory budget (Table IV "-")
  kUnknown,      ///< incomplete method gave up without a proof either way
};

[[nodiscard]] const char* to_string(Verdict verdict);

/// Why a run failed to decide (DESIGN.md §12).  Carried next to
/// `decided_by` on SolveReport / exp::RunRecord so every non-decisive
/// verdict explains itself.  kNone for decisive answers and for plain
/// incomplete give-ups (an analysis filter that did not fire, min-conflicts
/// running dry) — those are ordinary outcomes, not failures.
enum class FailureCause {
  kNone,
  kDeadline,       ///< wall-clock budget expired
  kCancelled,      ///< cooperative cancel (caller, race winner, or watchdog)
  kMemory,         ///< ResourceError / std::bad_alloc during model build
  kNodeBudget,     ///< node budget exhausted
  kInternalError,  ///< unexpected exception, contained at the boundary
  kFaultInjected,  ///< support::FaultInjector fired (chaos testing)
};

[[nodiscard]] const char* to_string(FailureCause cause);

/// A verdict settles the instance when it is feasible, or infeasible with an
/// exhaustive proof behind it (`complete` — see SolveReport::complete).
[[nodiscard]] constexpr bool decisive(Verdict verdict,
                                      bool complete) noexcept {
  return verdict == Verdict::kFeasible ||
         (verdict == Verdict::kInfeasible && complete);
}

/// A crash-type cause: the run did not finish on its own terms (memory, an
/// internal error, an injected fault), so a retry may help.  Budget causes
/// (deadline, node budget, cancellation) are legitimate answers.
[[nodiscard]] constexpr bool crash_type(FailureCause cause) noexcept {
  return cause == FailureCause::kMemory ||
         cause == FailureCause::kInternalError ||
         cause == FailureCause::kFaultInjected;
}

// The canonical mappings.  Every switch over a frontend enum lives behind
// one of these; call sites must not re-derive them.
[[nodiscard]] Verdict canonical_verdict(csp::SolveStatus status);
[[nodiscard]] Verdict canonical_verdict(csp2::Status status);
[[nodiscard]] Verdict canonical_verdict(flow::OracleVerdict verdict);
[[nodiscard]] Verdict canonical_verdict(analysis::TestVerdict verdict);
[[nodiscard]] Verdict canonical_verdict(ls::Status status);

}  // namespace mgrts::core
