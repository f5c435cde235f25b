// Canonicalization of (task set, platform) pairs into verdict-cache keys.
//
// Two instances with the same canonical key are *schedulability-equivalent*
// — same feasibility answer — so the serving layer's verdict cache
// (serve/cache.hpp) may answer one from a decisive solve of the other.
// Soundness is the whole game here; only transformations with a proof
// behind them participate:
//
//   * Task permutation (always).  Schedulability is a property of the task
//     *multiset*: reordering tasks permutes CSP variables and nothing else.
//     On heterogeneous platforms each task's rate row travels with it, so
//     the pairing (task, row) is preserved.
//   * Uniform-speed permutation (uniform platforms).  Processors are
//     interchangeable up to their speed multiset; speeds are sorted.
//   * Utilization scaling (identical platforms only).  Dividing every
//     O/C/D/T by their common gcd g yields an equivalent system: identical
//     -platform feasibility is exactly the max-flow condition (this repo's
//     polynomial oracle), whose release/deadline boundaries and capacities
//     all scale linearly with g — the flow saturates for S iff it
//     saturates for S/g.  On non-identical platforms no such exactness
//     theorem is available, so scaling is NOT applied there.
//
// The key is a readable text string (versioned, '|'-separated), compared
// byte-for-byte — no hash truncation, so equal keys mean equal canonical
// forms, never a collision gamble.
#pragma once

#include <string>

#include "rt/platform.hpp"
#include "rt/task_set.hpp"

namespace mgrts::core {

/// The canonical cache key for (ts, platform): tasks (with their rate rows)
/// sorted, uniform speeds sorted, and the common gcd of all task parameters
/// divided out on identical platforms only (see the soundness note above).
/// Deterministic, total (every valid instance has one), and stable across
/// processes/machines.
[[nodiscard]] std::string canonical_key(const rt::TaskSet& ts,
                                        const rt::Platform& platform);

}  // namespace mgrts::core
