// Generic finite-domain CSP solver: trail-based backtracking search with
// event-driven, incremental constraint propagation.
//
// This is the repo's stand-in for the Choco solver the paper uses for CSP1
// (§VII): a *generic* engine that consumes a declarative model — variables,
// domains, propagators — and searches with configurable variable/value
// heuristics, randomized tie-breaking and Luby restarts (Choco's default
// search is randomized, which the paper observes as run-to-run variance in
// §VII-B; seed the options to reproduce any particular run).
//
// Architecture (see DESIGN.md for the full discussion):
//   * Domain64 per variable (<= 64 values, 16 bytes);
//   * a trail of (variable, previous mask) pairs plus a typed trail of
//     (slot, previous value) pairs for propagator state, both unwound in
//     O(1) per entry on backtracking;
//   * domain changes are split into kPruned and kFixed events with separate
//     CSR watch lists; each watch entry carries the scope position, so a
//     propagator's advisor (`on_event`) can update trailed counters in O(1)
//     and decide whether the propagator needs to run at all;
//   * woken propagators land in a three-level priority queue (cheap pending
//     lists, then counters, then global rules); propagation drains the
//     cheapest level first and re-checks it after every run, so expensive
//     propagators only fire on states the cheap ones could not refute;
//   * dom/wdeg failure weights are maintained incrementally;
//   * while nogood shrinking is active every trail entry carries a *reason*
//     (the decision or propagator that caused it), forming an implication
//     trail; each entry additionally records its decision depth and the
//     previous entry on the same variable, so the trail doubles as a
//     literal-based implication graph (every entry *is* a csp::Lit becoming
//     true).  Conflict analysis walks it backwards once per conflict: by
//     default it resolves to the first unique implication point and emits
//     the implied-literal frontier (NogoodLearn::kUip1, DESIGN.md §11),
//     falling back to the reachable decisions (NogoodLearn::kDecisionSet,
//     DESIGN.md §10) when the walk meets an untracked entry.  An asserting
//     1-UIP clause unwinds straight to its assertion level and asserts the
//     negated UIP literal there (non-chronological backjumping, DESIGN.md
//     §15).  With recording off the reason slot is a dead constant and
//     search trees are bit-identical to a reason-free build;
//   * search is iterative (explicit frame stack), so model size — not
//     recursion depth — is the only memory bound.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "csp/domain.hpp"
#include "csp/literal.hpp"
#include "csp/options.hpp"
#include "support/rng.hpp"

namespace mgrts::csp {

/// Index into the solver's trailed propagator-state array (see
/// Solver::alloc_state).
using StateSlot = std::int32_t;

class Solver;
class NogoodStore;

/// Luby restart sequence, 1-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
/// Iterative O(log i): strip completed-prefix subtrees until i sits at the
/// end of one (i + 1 a power of two), whose value is (i + 1) / 2.  Exposed
/// for the closed-form cross-check test.
[[nodiscard]] std::int64_t luby(std::int64_t i);

enum class PropResult { kOk, kFail };

// ---- trail reasons (DESIGN.md §10) -----------------------------------
//
// Every trail entry records why the change happened, encoded in one int32:
//   reason >= 0                 — the propagator with that id pruned; its
//                                 scope() is the dependency set;
//   reason == kReasonDecision   — a search decision fixed the variable;
//   reason <= kReasonExplicit   — an explicit reason: index
//                                 (kReasonExplicit - reason) into the
//                                 solver's reason-var pool, for propagators
//                                 whose pruning depends on fewer variables
//                                 than their scope (clause replays, pair
//                                 rules, broadcast-from-one-fix);
//   reason == kReasonNone       — tracking was off when the entry was
//                                 written (never seen above the root mark
//                                 while tracking is on).
inline constexpr std::int32_t kReasonNone = -1;
inline constexpr std::int32_t kReasonDecision = -2;
inline constexpr std::int32_t kReasonExplicit = -3;

/// Which domain events wake a propagator.  A change that leaves the domain
/// with one value is a *fix* event; any other narrowing is a *prune* event.
/// kFixedOnly watchers never see prune events — right for propagators whose
/// pruning logic only reads fixed variables (at-most-one, all-different,
/// symmetry chains).
enum class WakePolicy : std::uint8_t {
  kAnyChange,  ///< wake on prunes and fixes
  kFixedOnly,  ///< wake only when a scope variable becomes fixed
};

/// Queue level; lower levels run first and are re-checked after every
/// propagator execution, so keep cheap propagators low.
enum class PropPriority : std::uint8_t {
  kFast = 0,     ///< O(changes): pending-list propagators
  kCounter = 1,  ///< O(1) checks on trailed counters, rare O(scope) sweeps
  kGlobal = 2,   ///< O(scope) or worse per run
};

inline constexpr int kPriorityLevels = 3;

/// Base class for constraint propagators.  Propagators may keep search-state
/// only in solver-trailed slots (alloc_state/set_state) or in stale-tolerant
/// pending buffers: `propagate` must prune only through Solver::fix /
/// Solver::remove so every change is trailed.
class Propagator {
 public:
  virtual ~Propagator() = default;

  /// Runs the propagator to its fixpoint; kFail signals a conflict.
  virtual PropResult propagate(Solver& solver) = 0;

  /// Variables whose domain changes wake this propagator.
  [[nodiscard]] virtual const std::vector<VarId>& scope() const = 0;

  /// Variables whose dom/wdeg weight is bumped when this propagator fails;
  /// defaults to the full scope.  Propagators multiplexing many constraints
  /// (the nogood store) narrow it to the constraint that actually failed.
  [[nodiscard]] virtual const std::vector<VarId>& failure_scope() const {
    return scope();
  }

  /// Human-readable kind, for debugging and stats.
  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once from Solver::add; allocate trailed state slots here.
  virtual void attach(Solver& solver) { static_cast<void>(solver); }

  /// Event class this propagator subscribes to (uniform over its scope).
  [[nodiscard]] virtual WakePolicy wake_policy() const {
    return WakePolicy::kAnyChange;
  }

  [[nodiscard]] virtual PropPriority priority() const {
    return PropPriority::kGlobal;
  }

  /// Watched-value contract (DESIGN.md §2): a propagator returning a value
  /// v here promises that, once its first run has completed, its advisor
  /// neither changes state nor returns true on an event that did not
  /// remove v from the variable and did not fix the variable to v.  The
  /// solver then skips the advisor call on every other event.  Before the
  /// first run the advisor still hears every event.
  [[nodiscard]] virtual std::optional<Value> watched_value() const {
    return std::nullopt;
  }

  /// Advisor: runs synchronously on every subscribed event on scope()[pos]
  /// (old_mask is the domain mask before the change; the current domain is
  /// solver.domain(scope()[pos])).  Updates incremental state and returns
  /// whether the propagator should be queued.  Must not prune any domain.
  virtual bool on_event(Solver& solver, std::int32_t pos,
                        std::uint64_t old_mask) {
    static_cast<void>(solver);
    static_cast<void>(pos);
    static_cast<void>(old_mask);
    return true;
  }

 private:
  friend class Solver;
  std::int32_t id_ = -1;
  bool queued_ = false;
  std::uint8_t priority_cache_ = 2;  ///< priority(), cached at add()
  std::int64_t weight_ = 1;          ///< wdeg failure weight
};

struct SolverLimits {
  /// Hard cap on variable count; exceeding it throws ResourceError.  This is
  /// the explicit analogue of Choco running out of memory on large CSP1
  /// models (Table IV); adapters report it as SolveStatus::kMemoryLimit.
  std::int64_t max_variables = 4'000'000;
};

class Solver {
 public:
  explicit Solver(SolverLimits limits = {});
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // ---- model building -----------------------------------------------

  /// New variable with domain {lo..hi} (hi - lo < 64).
  VarId add_variable(Value lo, Value hi);

  [[nodiscard]] std::int64_t variable_count() const noexcept {
    return static_cast<std::int64_t>(domains_.size());
  }

  [[nodiscard]] const Domain64& domain(VarId v) const {
    return domains_[static_cast<std::size_t>(v)];
  }

  /// Takes ownership of a propagator.  Call before solve().
  void add(std::unique_ptr<Propagator> propagator);

  /// Root-level pruning while building the model (e.g. CSP1 constraint (2),
  /// out-of-window zeroing): no trail, no events.  Returns false when the
  /// model becomes trivially inconsistent.  post_restrict keeps only the
  /// values whose bits `keep` holds (bit k is value base + k).
  bool post_fix(VarId v, Value a);
  bool post_remove(VarId v, Value a);
  bool post_restrict(VarId v, std::uint64_t keep);

  // ---- propagator API (valid during propagation) ----------------------

  PropResult fix(VarId v, Value a);
  PropResult remove(VarId v, Value a);

  /// Trailed propagator state: slots are allocated in attach(), survive
  /// into search, and are restored alongside the domain trail on
  /// backtracking.  Reads are O(1); writes trail the previous value.
  StateSlot alloc_state(std::int64_t initial);
  [[nodiscard]] std::int64_t state(StateSlot slot) const {
    return pstate_[static_cast<std::size_t>(slot)];
  }
  void set_state(StateSlot slot, std::int64_t value);

  /// True when the active solve runs PropagationMode::kScratch; incremental
  /// propagators then recompute from their full scope instead of trusting
  /// trailed counters (differential-testing reference).
  [[nodiscard]] bool scratch_mode() const noexcept { return scratch_; }

  /// The decision depth (1-based; 0 = root) at which `lit` became entailed
  /// by the current domain state, or -1 when it is not entailed.  Walks the
  /// per-variable trail chain backwards to the first entry whose pre-change
  /// mask no longer entails the literal — exact, O(changes on the
  /// variable).  The chain is only threaded while the reason trail is
  /// active; without it every entailed literal reports the root depth.
  /// Used by the nogood store to recompute a clause's block LBD from
  /// current depths when a replay fires (DESIGN.md §11).
  [[nodiscard]] std::int32_t entailment_depth(Lit lit) const;

  /// Narrowed reason scope (DESIGN.md §10): until end_explicit_reason, the
  /// running propagator's fix/remove calls are explained by `vars` instead
  /// of its full scope — use when a pruning provably depends on fewer
  /// variables (a violated clause's literals, one fixed broadcast source, a
  /// chain pair).  No-ops while reason tracking is off; one level only (no
  /// nesting).  The span is committed to the reason pool lazily, at the
  /// first trailed change it explains — a window that prunes nothing costs
  /// nothing — so `vars` must stay alive until end_explicit_reason.
  void begin_explicit_reason(const VarId* vars, std::int32_t n);
  void end_explicit_reason();

  // ---- solving ---------------------------------------------------------

  /// Runs the search.  May be called once per Solver instance: a second
  /// call is a precondition failure.
  [[nodiscard]] SolveOutcome solve(const SearchOptions& options);

 private:
  /// Joint position in the domain, propagator-state and explicit-reason
  /// trails.
  struct Mark {
    std::size_t domain = 0;
    std::size_t state = 0;
    std::size_t reasons = 0;  ///< explicit-reason count (0 unless tracking)
  };

  struct Frame {
    VarId var = -1;
    Mark mark;
    std::uint64_t tried = 0;  ///< mask of value offsets already attempted
    VarId lex_hint = 0;       ///< scan start for the lex heuristic
  };

  /// One CSR watch entry: propagator `pid` watches scope position `pos`.
  struct Watch {
    std::int32_t pid;
    std::int32_t pos;
  };

  struct WatchList {
    std::vector<std::int32_t> offset;  ///< per-variable CSR offsets
    std::vector<Watch> data;
  };

  [[nodiscard]] Mark mark() const noexcept {
    return Mark{trail_.size(), state_trail_.size(), reason_offset_.size() - 1};
  }

  /// One selection-heap node: the (size, wdeg) key stored for `var`.
  /// While `var` is unfixed the stored key is never worse than its current
  /// key (DESIGN.md §7).
  struct HeapNode {
    std::int64_t wdeg;
    std::int32_t size;
    VarId var;
  };

  /// Equal size/wdeg fractions, compared by cross multiplication (size <=
  /// 64, so the products fit easily).
  [[nodiscard]] static bool same_key(const HeapNode& a,
                                     const HeapNode& b) noexcept {
    return a.size * b.wdeg == b.size * a.wdeg;
  }
  /// Heap order: the smaller fraction first, equal fractions by the
  /// smaller variable id — so the root is exactly the scan's pick.
  [[nodiscard]] static bool heap_before(const HeapNode& a,
                                        const HeapNode& b) noexcept {
    const std::int64_t lhs = a.size * b.wdeg;
    const std::int64_t rhs = b.size * a.wdeg;
    if (lhs != rhs) return lhs < rhs;
    return a.var < b.var;
  }

  void trail_push(VarId v, std::uint64_t old_mask);
  void backtrack_to(const Mark& mark);
  void sync_membership(VarId v);
  void notify_watchers(VarId v, std::uint64_t old_mask, bool became_fixed);
  /// Walks one watch list; `hit` holds the values whose watchers may react
  /// (the removed values, plus the remaining one after a fix).
  void wake_list(const WatchList& list, VarId v, std::uint64_t old_mask,
                 std::uint64_t hit);
  /// Direct (non-virtual) event delivery to the solve-owned nogood store —
  /// the store watches *every* variable, so routing it through the CSR
  /// lists would add one entry per variable per list; instead the lists
  /// skip it and notify_watchers calls it explicitly, preserving the
  /// added-last ordering the CSR walk gave it.
  void notify_store(VarId v, std::uint64_t old_mask);
  void enqueue(Propagator& p);
  bool propagate_queue();         // false on conflict
  void clear_queue();
  void bump_failure(std::int32_t prop_id);

  // ---- selection heap (SelectionMode::kHeap; DESIGN.md §7) ------------
  [[nodiscard]] HeapNode current_key(VarId v) const noexcept;
  /// Notes a key improvement of `v` (a narrowing, a wdeg bump, re-entering
  /// the unfixed set); the next selection absorbs it through heap_improve.
  void heap_touch(VarId v) {
    auto& flag = heap_dirty_flag_[static_cast<std::size_t>(v)];
    if (flag != 0) return;
    flag = 1;
    heap_dirty_.push_back(v);
  }
  /// Inserts `v`, or lowers its stored key to its current key when that is
  /// strictly better.
  void heap_improve(VarId v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  void heap_pop_root();
  [[nodiscard]] VarId select_from_heap(const SearchOptions& options,
                                       support::Rng& rng);

  [[nodiscard]] VarId select_variable(const SearchOptions& options,
                                      VarId lex_hint, support::Rng& rng);
  [[nodiscard]] Value select_value(const SearchOptions& options, VarId var,
                                   std::uint64_t tried,
                                   support::Rng& rng) const;
  [[nodiscard]] bool all_assigned() const noexcept {
    return unfixed_size_ == 0;
  }

  void build_watch_lists();

  SolverLimits limits_;
  std::vector<Domain64> domains_;
  std::vector<std::unique_ptr<Propagator>> propagators_;

  // Per-event watch lists: watchers of var v live in
  // data[offset[v] .. offset[v+1]).  kAnyChange subscribers are in
  // any_watch_ (walked on every change); kFixedOnly subscribers are in
  // fixed_watch_ (walked only when the change fixed the variable).
  WatchList any_watch_;
  WatchList fixed_watch_;
  bool frozen_ = false;

  // Sparse set of variables with domain size > 1.
  std::vector<VarId> unfixed_list_;
  std::vector<std::int32_t> unfixed_pos_;
  std::int64_t unfixed_size_ = 0;

  std::vector<std::int64_t> var_wdeg_;

  // Selection heap: a binary min-heap with one node per variable, in
  // heap_before order over the stored keys.  Invariant at every selection
  // while heap_active_: every unfixed variable has a node, and its stored
  // key is <= its current key (improvements are noted as they happen and
  // applied in place when the selection starts; regressions wait for the
  // root).  Fixed variables may keep a node until it reaches the root.
  std::vector<HeapNode> heap_;
  std::vector<std::int32_t> heap_pos_;  ///< node index per variable, -1: none
  std::vector<VarId> heap_dirty_;       ///< improved since the last selection
  std::vector<std::uint8_t> heap_dirty_flag_;  ///< membership in heap_dirty_
  std::vector<VarId> ties_;             ///< random-tie scratch (no realloc)
  std::vector<std::size_t> heap_walk_;  ///< tie-region walk stack
  bool heap_active_ = false;
  bool heap_use_wdeg_ = false;

  /// Per propagator id: the domain bits an event must touch (remove, or
  /// keep as the fixed value) for the advisor to hear it — its
  /// watched_value()'s bit, or all ones for propagators without one and for
  /// every propagator until root propagation has primed them (always, under
  /// PropagationMode::kScratch).
  std::vector<std::uint64_t> watch_mask_;
  /// watch_mask_ entry for a propagator watching `value` over `scope`.
  [[nodiscard]] std::uint64_t watched_bit(const std::vector<VarId>& scope,
                                          Value value) const;

  struct TrailEntry {
    std::uint64_t old_mask;
    VarId var;
    std::int32_t reason;  ///< kReasonNone unless tracking (DESIGN.md §10)
    std::int32_t depth;   ///< decision depth of the change (0 = root)
    /// Index of the previous trail entry on the same variable (-1: none);
    /// together with last_entry_ this threads a per-variable change
    /// history through the trail — the implication graph's edges.
    std::int32_t prev_on_var;
  };
  std::vector<TrailEntry> trail_;
  /// Newest trail entry per variable (-1: untouched); restored alongside
  /// the trail via TrailEntry::prev_on_var.
  std::vector<std::int32_t> last_entry_;
  /// Trail positions of the decision entries, ascending (one per decision
  /// level); kept only while the reason trail is.
  std::vector<std::int32_t> decisions_;

  /// Current decision depth (== open frame count), stamped into every
  /// trail entry; maintained by solve() at frame pushes/pops and restarts.
  std::int32_t cur_depth_ = 0;

  // ---- reason tracking (active only while track_reasons_) --------------
  // Explicit reasons live in a CSR pool: reason i spans reason_vars_
  // [reason_offset_[i], reason_offset_[i+1]).  The pool unwinds with the
  // trail (Mark::reasons), so entries never outlive the trail entries that
  // reference them.
  bool track_reasons_ = false;
  std::int32_t active_reason_ = kReasonNone;
  std::int32_t saved_reason_ = kReasonNone;  ///< begin/end_explicit_reason
  /// Pending explicit span, committed to the pool by the first trail_push
  /// it explains (len 0 = none; always 0 while tracking is off).
  const VarId* pending_reason_vars_ = nullptr;
  std::int32_t pending_reason_len_ = 0;
  std::vector<std::int32_t> reason_offset_ = {0};
  std::vector<VarId> reason_vars_;
  // Epoch-stamped "relevant" set of the conflict-analysis walk.
  std::vector<std::int64_t> relevant_stamp_;
  std::int64_t relevant_epoch_ = 0;
  /// Per propagator id: the epoch whose 1-UIP walk last expanded its scope.
  std::vector<std::int64_t> expanded_stamp_;

  // ---- 1-UIP walk state (epoch-stamped; sized only while tracking) -----
  /// Unvisited conflict-level suffix entries per variable (zeroed after
  /// every walk); feeds the pending-resolvent counter.
  std::vector<std::int32_t> uip_count_;
  /// Variables marked relevant by the active walk, in marking order.
  std::vector<VarId> uip_marked_;
  /// Root-level domain bounds (refreshed when the root mark advances);
  /// entry_literal emits >=/<= literals exactly when they are equivalent
  /// to the removal literal relative to these.
  std::vector<Value> root_min_;
  std::vector<Value> root_max_;
  /// analyze_uip output: the learned clause, ascending depth, UIP last.
  std::vector<Lit> uip_lits_;
  std::vector<std::int32_t> uip_depths_;
  /// Frontier-form scratch (recursive minimization, DESIGN.md §15): the
  /// implied-literal frontier before the decision-form expansion, as
  /// (literal, depth, trail index) triples in trail order.
  struct FrontierLit {
    Lit lit;
    std::int32_t depth;
    std::int32_t trail_idx;
  };
  std::vector<FrontierLit> frontier_;
  /// analyze_uip's relevant-entry bitmap below the UIP, indexed by trail
  /// position - root_trail (all zero between calls), the post-change mask
  /// of each flagged entry, and the lowest word holding a flag.
  std::vector<std::uint64_t> flag_bits_;
  std::vector<std::uint64_t> flag_post_;
  std::size_t flag_lo_ = 0;
  /// Per-trail-entry memo of the self-subsumption recursion ("is this
  /// entry's reason transitively covered by the Phase-A mark set?"),
  /// epoch-stamped so no per-conflict clearing is needed.
  std::vector<std::int64_t> min_stamp_;
  std::vector<std::uint8_t> min_ok_;
  /// Clause variables of the in-flight UIP assertion; must outlive the
  /// explicit-reason window of the assert (see backjump in solve()).
  std::vector<VarId> assert_vars_;
  /// Strictly-ascending unique depths for block_lbd (the frontier form can
  /// carry several literals at one depth).
  std::vector<std::int32_t> lbd_depths_;

  /// Conflict analysis (DESIGN.md §10): stamps every variable the conflict
  /// transitively depends on — seeded with failing_prop_'s failure scope,
  /// closed by walking trail entries in (root_trail, end) newest-first and
  /// expanding each relevant entry's reason.  Must run before the conflict
  /// is backtracked.  Returns false (analysis unusable, caller falls back
  /// to the full decision set) when an untracked entry is met.
  [[nodiscard]] bool analyze_conflict(std::size_t root_trail);

  /// Expands a non-decision entry's reason — the propagator scope or the
  /// explicit CSR span — through `mark` (one call per dependency
  /// variable); false on an untracked entry (analysis unusable).  Shared
  /// by the decision-set and 1-UIP walks so the reason encoding is decoded
  /// in exactly one place.
  template <typename MarkFn>
  [[nodiscard]] bool expand_reason(const TrailEntry& e, MarkFn&& mark);

  // ---- 1-UIP resolution walk (DESIGN.md §11) ---------------------------

  /// expand_reason for the 1-UIP walk's marking passes, which are
  /// idempotent within one epoch: a propagator reason already expanded in
  /// this walk is skipped (expanded_stamp_).
  template <typename MarkFn>
  [[nodiscard]] bool expand_walk_reason(const TrailEntry& e, MarkFn&& mark);

  /// Marks `v` relevant for the active walk epoch; during the conflict-
  /// level phase the pending counter absorbs v's unvisited suffix entries.
  void uip_mark(VarId v, std::int64_t& pending);
  /// The domain mask trail entry `idx` left behind: the old_mask of the
  /// next newer entry on its variable, or the current domain.
  [[nodiscard]] std::uint64_t post_mask(std::size_t idx) const;
  /// The literal entry `e` made true: a fix is (var == v); a single-value
  /// removal is (var != a), emitted as the equivalent bound literal
  /// (var >= a+1 / var <= a-1) when `a` is the variable's root min/max.
  [[nodiscard]] Lit entry_literal(const TrailEntry& e,
                                  std::uint64_t post_mask) const;

  /// True 1-UIP conflict analysis: resolves the conflict over the
  /// implication trail, stopping at the first unique implication point of
  /// the conflict level ([level_start, end) of the trail) and keeping the
  /// reachable decisions below it.  Fills uip_lits_/uip_depths_ (ascending
  /// depth, the UIP literal last) and returns true; false falls back to
  /// decision-set recording (untracked entry, or no conflict-level
  /// dependency).  Must run before the conflict is backtracked.  Opens its
  /// own stamp epoch, so the decision-set fallback walk may follow it.
  /// With `minimize` the walk additionally builds the implied-literal
  /// frontier form, prunes it by recursive self-subsumption, and keeps
  /// whichever of the two forms is shorter (DESIGN.md §15) — so the
  /// emitted clause is still never longer than the decision set.
  [[nodiscard]] bool analyze_uip(std::size_t root_trail,
                                 std::size_t level_start, bool minimize);
  /// Flags every entry of `v` in [root_trail, below) in flag_bits_,
  /// walking v's trail chain, and notes each one's post-change mask in
  /// flag_post_; returns how many it flagged.
  std::size_t flag_entries(VarId v, std::size_t root_trail,
                           std::size_t below);

  /// Refreshes root_min_/root_max_ from the current (root-level) domains;
  /// called whenever the root mark advances while 1-UIP learning is on —
  /// entry_literal's bound-form test is relative to these.
  void snapshot_root_bounds();

  // ---- recursive clause minimization (DESIGN.md §15) -------------------

  /// True when trail entry `idx`'s reason is transitively covered by the
  /// Phase-A relevant set: every antecedent entry either sits on a marked
  /// variable (its literal is in the frontier clause) or is itself
  /// recursively covered.  Decisions are never covered.  Memoized per
  /// trail entry (min_stamp_/min_ok_); `depth` bounds the recursion.
  [[nodiscard]] bool reason_covered(std::size_t idx, std::size_t root_trail,
                                    int depth);

  /// Sörensson-style self-subsumption over frontier_: drops literals
  /// implied by stronger same-variable literals, then literals whose
  /// reasons are covered (reason_covered).  Returns the number removed.
  std::int64_t minimize_frontier(std::size_t root_trail);

  // Trailed propagator state (incremental counters etc.).
  std::vector<std::int64_t> pstate_;
  struct StateTrailEntry {
    StateSlot slot;
    std::int64_t old_value;
  };
  std::vector<StateTrailEntry> state_trail_;

  // Priority buckets, each popped from `head`; a bucket is recycled (clear +
  // head = 0) the moment it drains, so no O(n) compaction is ever needed.
  std::array<std::vector<std::int32_t>, kPriorityLevels> queue_;
  std::array<std::size_t, kPriorityLevels> queue_head_{};

  bool scratch_ = false;
  SolveStats stats_;
  std::int32_t failing_prop_ = -1;

  // ---- per-propagator observability (SolveStats::propagators) ----------
  // Indexed by propagator id; wake/run/prune counters are always on (plain
  // array increments), the per-run clock reads only under prop_profile_.
  // Aggregated by Propagator::name() when a solve finishes.
  std::vector<std::int64_t> prop_wakes_;
  std::vector<std::int64_t> prop_runs_;
  std::vector<std::int64_t> prop_prunes_;
  std::vector<double> prop_seconds_;
  std::int32_t running_prop_ = -1;  ///< id inside propagate(), else -1
  bool prop_profile_ = false;

  // ---- search-phase profile (SolveStats::phases; prop_profile_ only) ---
  enum class Phase : std::uint8_t {
    kOther,  ///< set-up, root propagation, result assembly (not reported)
    kSelect,
    kPropagate,
    kAnalyze,
    kMinimize,
    kBackjump,
    kRestart,
  };
  static constexpr std::size_t kPhaseCount = 7;
  /// Charges the time since the previous switch to the current phase and
  /// makes `next` current; free unless profiling.
  void enter_phase(Phase next) {
    if (prop_profile_) switch_phase(next);
  }
  void switch_phase(Phase next);
  std::array<std::int64_t, kPhaseCount> phase_ns_{};
  std::chrono::steady_clock::time_point phase_t0_;
  Phase phase_ = Phase::kOther;

  /// Owned by propagators_ like any propagator; non-null while the active
  /// solve records nogoods (see solve()).
  NogoodStore* nogood_store_ = nullptr;
  /// Direct-delivery subscription of nogood_store_ (kAnyChange vs
  /// kFixedOnly); both false when the store is absent or externally added.
  bool store_direct_any_ = false;
  bool store_direct_fixed_ = false;
};

}  // namespace mgrts::csp
