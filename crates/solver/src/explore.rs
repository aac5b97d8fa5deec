//! Bounded explicit-state exploration of a guarded form's run space.
//!
//! States live in the shared hash-consed [`StateStore`]: deduplicated
//! — under the default [`SymmetryMode::Reduced`] — *up to isomorphism*
//! via interned canonical encodings, which preserve sibling multiplicity.
//! This is deliberately **not** the bisimulation quotient: Lemma 4.3
//! makes the canonical-instance abstraction sound for depth-1 forms only,
//! and Thm 4.1 shows that at depth ≥ 2 multiplicities carry real
//! information (they encode counter values!). The depth-1 fast path lives
//! in [`crate::depth1`]; this explorer is the general-purpose engine.
//! [`SymmetryMode::Plain`] turns the symmetry reduction off (states are
//! ordered trees) — the ablation baseline the differential fuzzer and the
//! `reproduce` harness compare against.
//!
//! Because completability is undecidable in general (Thm 4.1), the
//! exploration is bounded, and the outcome records whether the search
//! *closed* — i.e. exhausted every reachable state without hitting a limit.
//! When it closed, negative answers are exact; otherwise they are reported
//! as [`Verdict::Unknown`](crate::Verdict) by the callers.
//!
//! # Execution modes
//!
//! In RAM there is one engine, a sequential BFS: one FIFO queue, one
//! [`StateStore`], dense [`StateId`]s in discovery order. A bounded
//! [`MemoryBudget`] swaps the store for the out-of-core spill store of
//! [`crate::spill`] (the *capacity engine*), which walks the same states
//! in the same order. Neither engine uses threads: parallelism lives one
//! level up, across forms (the [`BatchAnalyzer`](crate::BatchAnalyzer)
//! pool and the server's worker pool), never inside one exploration.
//!
//! Every outcome — the visited state set and its numbering, the goal
//! state and run returned, and every [`SearchStats`] field — is a pure
//! function of form, limits and symmetry mode.

use crate::kernel::{Kernel, Step};
use crate::session::{ExpandEvent, ExpansionLog, SessionGraph};
use crate::spill::{MemoryBudget, SpillReport, SpillStore};
use crate::store::{StateId, StateStore, SuccessorTable, SymmetryMode};
use crate::verdict::{LimitKind, SearchStats};
use idar_core::{GuardedForm, Instance, Update};
use std::ops::ControlFlow;

/// Resource limits for bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExploreLimits {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Maximum live-node count per instance; additions beyond it are pruned.
    pub max_state_size: usize,
    /// Maximum run length (steps from the initial instance).
    pub max_depth: usize,
    /// If set, prune additions that would give a parent more than this many
    /// children along one schema edge. Sound completeness bounds for this
    /// cap exist in fragment `F(A+, φ−, k)` (Thm 5.2 / Lemma 4.4); the
    /// [`crate::np`] solver computes one. Elsewhere it is a heuristic and
    /// de-closes the search.
    pub multiplicity_cap: Option<usize>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 200_000,
            max_state_size: 160,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        }
    }
}

impl ExploreLimits {
    /// Limits suitable for small exhaustive checks in tests.
    pub fn small() -> Self {
        ExploreLimits {
            max_states: 20_000,
            max_state_size: 64,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        }
    }
}

/// The result of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// A run (update sequence from the initial instance) reaching the first
    /// goal state found, if any.
    pub goal_run: Option<Vec<Update>>,
    /// Search statistics; `stats.closed` reports exhaustiveness.
    pub stats: SearchStats,
}

/// The reachable state graph produced by [`Explorer::graph`]: the
/// hash-consed [`StateStore`] (states, provenance) plus the compact CSR
/// successor table.
#[derive(Debug, Clone)]
pub struct StateGraph {
    /// The interned states with BFS provenance; index 0 is the initial
    /// instance.
    pub store: StateStore,
    /// CSR successor adjacency (empty for goal searches, which skip edge
    /// collection).
    pub succ: SuccessorTable,
    /// Search statistics.
    pub stats: SearchStats,
}

impl StateGraph {
    /// Number of explored states.
    pub fn state_count(&self) -> usize {
        self.store.len()
    }

    /// The state instances, indexed by state id (index 0 = initial).
    pub fn states(&self) -> &[Instance] {
        self.store.states()
    }

    /// The instance of state `i`.
    pub fn state(&self, i: usize) -> &Instance {
        self.store.get(StateId(i as u32))
    }

    /// BFS depth of state `i`.
    pub fn depth_of(&self, i: usize) -> usize {
        self.store.depth(StateId(i as u32))
    }

    /// Outgoing `(update, successor)` edges of state `i`.
    pub fn successors(&self, i: usize) -> &[(Update, StateId)] {
        self.succ.successors(StateId(i as u32))
    }

    /// Total number of explored edges.
    pub fn edge_count(&self) -> usize {
        self.succ.edge_count()
    }

    /// Reconstruct the update sequence leading from the initial instance to
    /// state `i` (replayable via [`GuardedForm::replay`]).
    pub fn run_to(&self, i: usize) -> Vec<Update> {
        self.store.run_to(StateId(i as u32))
    }
}

/// The default thread budget of the across-form pools (the
/// [`BatchAnalyzer`](crate::BatchAnalyzer) and the server's workers): all
/// available cores. No grant parallelises a single exploration; the
/// explorer is always sequential.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Bounded breadth-first explorer over a guarded form's instances.
///
/// ```
/// use idar_core::leave;
/// use idar_solver::{ExploreLimits, Explorer};
///
/// let form = leave::example_3_12();
/// let explorer = Explorer::new(&form, ExploreLimits::small());
/// let out = explorer.find(|i| form.is_complete(i));
/// let run = out.goal_run.expect("the leave form is completable");
/// assert!(form.is_complete_run(&run));
/// ```
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    form: &'a GuardedForm,
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    memory: MemoryBudget,
}

impl<'a> Explorer<'a> {
    /// An explorer over `form` with the given limits and symmetry
    /// reduction on.
    pub fn new(form: &'a GuardedForm, limits: ExploreLimits) -> Self {
        Explorer {
            form,
            limits,
            symmetry: SymmetryMode::Reduced,
            memory: MemoryBudget::unbounded(),
        }
    }

    /// A no-op, kept for source compatibility: no thread grant
    /// parallelises a single exploration, which always runs the
    /// sequential engine.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Select the state-space quotient: [`SymmetryMode::Reduced`]
    /// (default, isomorphism classes) or [`SymmetryMode::Plain`] (ordered
    /// trees — no symmetry reduction, for ablations and differential
    /// testing).
    pub fn with_symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Set the memory budget for goal searches. A bounded budget makes
    /// [`Explorer::find`] run the out-of-core **capacity engine** (see
    /// [`crate::spill`]): delta-compressed state records that spill cold
    /// pages to a temp file so the arena-resident encoded bytes stay
    /// under the budget. It visits exactly the same states with the same
    /// [`SearchStats`] as the in-RAM engine.
    ///
    /// [`Explorer::graph`] and [`Explorer::build_session`] ignore the
    /// budget: retained graphs hand out `&Instance`/run-to views that
    /// require the flat store, and their retention is bounded separately
    /// by the session manager's eviction budget.
    pub fn with_memory_budget(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// The configured memory budget.
    pub fn memory(&self) -> MemoryBudget {
        self.memory
    }

    /// The configured symmetry mode.
    pub fn symmetry(&self) -> SymmetryMode {
        self.symmetry
    }

    /// BFS from the initial instance until `goal` holds for some state (or
    /// the space/limits are exhausted). Returns the shortest-in-BFS run to
    /// the goal, if found.
    pub fn find(&self, goal: impl FnMut(&Instance) -> bool) -> ExploreOutcome {
        let mut goal = goal;
        if self.memory.is_bounded() {
            return self.run_capacity(Some(&mut goal), false).0;
        }
        let g = self.run(Some(&mut goal), false, None);
        ExploreOutcome {
            goal_run: g.goal.map(|i| g.graph.store.run_to(i)),
            stats: g.graph.stats,
        }
    }

    /// [`Explorer::find`] on the capacity engine regardless of whether
    /// the budget is bounded (an unbounded budget keeps every arena page
    /// hot but still delta-encodes), returning the run's
    /// [`SpillReport`] alongside the outcome. This is the entry point
    /// the bench harness and the equivalence tests measure through.
    pub fn find_spilled(
        &self,
        goal: impl FnMut(&Instance) -> bool,
    ) -> (ExploreOutcome, SpillReport) {
        let mut goal = goal;
        self.run_capacity(Some(&mut goal), false)
    }

    /// The capacity engine in **frontier-only** mode: closed-layer
    /// words, records, and provenance are dropped entirely, so memory
    /// scales with the widest BFS layer instead of the explored total.
    ///
    /// Sound only for deletion-free forms
    /// ([`GuardedForm::is_deletion_free`]) — node counts then grow
    /// monotonically along every run, so states at different BFS depths
    /// are never isomorphic and per-layer dedup is exact. The outcome's
    /// `goal_run` is always `None` (no provenance is retained); use it
    /// for verdict kinds that only need existence/closure.
    ///
    /// # Panics
    /// If the form has a deletion rule that is not syntactically `false`.
    pub fn find_frontier_only(
        &self,
        goal: impl FnMut(&Instance) -> bool,
    ) -> (ExploreOutcome, SpillReport) {
        assert!(
            self.form.is_deletion_free(),
            "frontier-only exploration requires a deletion-free form"
        );
        let mut goal = goal;
        self.run_capacity(Some(&mut goal), true)
    }

    /// Exhaustively (within limits) build the reachable state graph.
    pub fn graph(&self) -> StateGraph {
        self.run(None, true, None).graph
    }

    /// The **build phase** of the incremental split: explore exhaustively
    /// (within limits) and retain everything — states, edges, and the
    /// per-state [`ExpansionLog`] — as a [`SessionGraph`] that later
    /// queries [`resume`](Explorer::resume) from.
    pub fn build_session(&self) -> SessionGraph {
        let mut log = ExpansionLog::default();
        let r = self.run(None, true, Some(&mut log));
        SessionGraph::from_build(r.graph, log, self.limits)
    }

    /// The **query phase**: re-seed the BFS at a state already interned
    /// in `session` and search for `goal` under *this* explorer's
    /// limits, reusing every retained state, provenance pointer, and
    /// logged expansion. Equivalent — in verdict, goal depth, and
    /// [`SearchStats`] — to a cold [`Explorer::find`] on the
    /// form re-rooted at that state's instance; see the
    /// [`crate::session`] docs for the exact contract. New states
    /// discovered past the retained frontier are interned into the
    /// session, growing it for subsequent queries.
    pub fn resume(
        &self,
        session: &mut SessionGraph,
        from: StateId,
        goal: impl FnMut(&Instance) -> bool,
    ) -> ExploreOutcome {
        session.resume_with(self.form, self.limits, from, goal)
    }

    /// The in-RAM engine: FIFO BFS over a [`StateStore`].
    ///
    /// Dense [`StateId`]s are assigned in discovery order, so an id
    /// doubles as the state's index — no side table.
    fn run(
        &self,
        mut goal: Option<&mut dyn FnMut(&Instance) -> bool>,
        want_edges: bool,
        mut log: Option<&mut ExpansionLog>,
    ) -> RunResult {
        let mut stats = SearchStats::default();
        let mut store = StateStore::new(self.symmetry);
        let mut triples: Vec<(StateId, Update, StateId)> = Vec::new();
        let finish =
            |store, triples, stats, goal| finish_run(store, triples, stats, goal, want_edges);

        let initial = self.form.initial().clone();
        let (root, _) = store.intern(initial, None);
        debug_assert_eq!(root, StateId(0));
        stats.states = 1;

        if let Some(goal) = goal.as_deref_mut() {
            if goal(store.get(root)) {
                stats.closed = true;
                return finish(store, triples, stats, Some(root));
            }
        }

        let mut kernel = Kernel::new(self.form, &self.limits, self.symmetry);
        let mut queue = std::collections::VecDeque::from([root]);
        let mut pruned = false;

        while let Some(i) = queue.pop_front() {
            if store.depth(i) >= self.limits.max_depth {
                // Queue depths are non-decreasing, so every state still
                // queued is also at the depth limit: the search is
                // exhaustive iff none of them has a successor.
                if std::iter::once(i)
                    .chain(queue.drain(..))
                    .any(|j| self.form.has_allowed_update(store.get(j)))
                {
                    pruned = true;
                    stats.limit_hit = Some(LimitKind::Depth);
                }
                break;
            }
            if let Some(log) = log.as_deref_mut() {
                log.begin(i);
            }
            kernel.load(store.get(i));
            let flow = kernel.expand(|u, step| {
                stats.transitions += 1;
                let next = match step {
                    Step::Pruned(kind) => {
                        pruned = true;
                        stats.limit_hit = Some(kind);
                        if let Some(log) = log.as_deref_mut() {
                            log.push(i, ExpandEvent::Pruned(kind));
                        }
                        return ControlFlow::Continue(());
                    }
                    Step::Next(next) => next,
                };
                let (j, is_new) =
                    store.intern_ref(next.fingerprint, next.words, next.inst, Some((i, u)));
                if want_edges {
                    triples.push((i, u, j));
                }
                if let Some(log) = log.as_deref_mut() {
                    log.push(i, ExpandEvent::Edge(u, j));
                }
                if !is_new {
                    return ControlFlow::Continue(());
                }
                stats.states += 1;
                if goal.as_deref_mut().is_some_and(|g| g(next.inst)) {
                    return ControlFlow::Break(Some(j));
                }
                if stats.states >= self.limits.max_states {
                    stats.limit_hit = Some(LimitKind::States);
                    return ControlFlow::Break(None);
                }
                queue.push_back(j);
                ControlFlow::Continue(())
            });
            if let ControlFlow::Break(found) = flow {
                return finish(store, triples, stats, found);
            }
            if let Some(log) = log.as_deref_mut() {
                log.seal(i);
            }
        }

        stats.closed = !pruned;
        finish(store, triples, stats, None)
    }

    /// The **capacity engine**: sequential FIFO BFS over the
    /// out-of-core [`SpillStore`] instead of the flat [`StateStore`].
    ///
    /// The traversal mirrors [`Explorer::run`] step for step — same
    /// expansion order, same prune checks in the same order, same
    /// goal-before-state-cap sequencing, same depth-probe
    /// short-circuit — so it produces an identical [`SearchStats`] and
    /// finds the same goal state. What differs is residency: decoded
    /// instances live only in the BFS queue (the pinned frontier — a
    /// popped state's instance is dropped once expanded), canonical
    /// words of closed layers live as delta records in the paged arena,
    /// and cold pages spill to disk under the [`MemoryBudget`].
    fn run_capacity(
        &self,
        mut goal: Option<&mut dyn FnMut(&Instance) -> bool>,
        frontier_only: bool,
    ) -> (ExploreOutcome, SpillReport) {
        let mut stats = SearchStats::default();
        let mut store = SpillStore::new(self.memory, frontier_only);

        let initial = self.form.initial().clone();
        let key = self.symmetry.key_of(&initial);
        let (root, _) = store.intern(key.fingerprint(), key.words(), None, 0);
        debug_assert_eq!(root, 0);
        stats.states = 1;

        if let Some(goal) = goal.as_deref_mut() {
            if goal(&initial) {
                stats.closed = true;
                let goal_run = if frontier_only {
                    None
                } else {
                    Some(Vec::new())
                };
                return (ExploreOutcome { goal_run, stats }, store.report());
            }
        }

        let mut kernel = Kernel::new(self.form, &self.limits, self.symmetry);
        let mut queue = std::collections::VecDeque::from([(root, 0usize, initial)]);
        let mut cur_depth = 0usize;
        let mut pruned = false;

        while let Some((i, d, inst)) = queue.pop_front() {
            if d > cur_depth {
                cur_depth = d;
                store.begin_layer(d as u32);
            }
            if d >= self.limits.max_depth {
                if std::iter::once(inst)
                    .chain(queue.drain(..).map(|(_, _, s)| s))
                    .any(|s| self.form.has_allowed_update(&s))
                {
                    pruned = true;
                    stats.limit_hit = Some(LimitKind::Depth);
                }
                break;
            }
            kernel.load(&inst);
            let flow = kernel.expand(|u, step| {
                stats.transitions += 1;
                let next = match step {
                    Step::Pruned(kind) => {
                        pruned = true;
                        stats.limit_hit = Some(kind);
                        return ControlFlow::Continue(());
                    }
                    Step::Next(next) => next,
                };
                let (j, is_new) =
                    store.intern(next.fingerprint, next.words, Some((i, u)), (d + 1) as u32);
                if !is_new {
                    return ControlFlow::Continue(());
                }
                stats.states += 1;
                if goal.as_deref_mut().is_some_and(|g| g(next.inst)) {
                    return ControlFlow::Break(Some(j));
                }
                if stats.states >= self.limits.max_states {
                    stats.limit_hit = Some(LimitKind::States);
                    return ControlFlow::Break(None);
                }
                queue.push_back((j, d + 1, next.inst.clone()));
                ControlFlow::Continue(())
            });
            if let ControlFlow::Break(found) = flow {
                let goal_run = found.and_then(|j| store.run_to(j));
                return (ExploreOutcome { goal_run, stats }, store.report());
            }
        }

        stats.closed = !pruned;
        (
            ExploreOutcome {
                goal_run: None,
                stats,
            },
            store.report(),
        )
    }
}

struct RunResult {
    graph: StateGraph,
    goal: Option<StateId>,
}

/// Graph finalization of the in-RAM engine: build the CSR successor
/// table (or an empty one for goal searches) and package the result.
fn finish_run(
    store: StateStore,
    triples: Vec<(StateId, Update, StateId)>,
    stats: SearchStats,
    goal: Option<StateId>,
    want_edges: bool,
) -> RunResult {
    let succ = if want_edges {
        SuccessorTable::from_triples(store.len(), &triples)
    } else {
        SuccessorTable::empty(store.len())
    };
    RunResult {
        graph: StateGraph { store, succ, stats },
        goal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idar_core::{AccessRules, Formula, GuardedForm, Schema};
    use std::sync::Arc;

    /// r with children a, b; free add/del of both but at most one of each
    /// (¬a / ¬b add guards). 4 reachable states.
    fn toggle_form() -> GuardedForm {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set_both(
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
            Formula::True,
        );
        rules.set_both(
            schema.resolve("b").unwrap(),
            Formula::parse("!b").unwrap(),
            Formula::True,
        );
        let init = Instance::empty(schema.clone());
        GuardedForm::new(schema, rules, init, Formula::parse("a & b").unwrap())
    }

    /// The toggle form without deletions: each of a, b can be added once
    /// and never removed, so {a,b} at depth 2 is a dead end.
    fn add_once_form() -> GuardedForm {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        for label in ["a", "b"] {
            rules.set_both(
                schema.resolve(label).unwrap(),
                Formula::parse(&format!("!{label}")).unwrap(),
                Formula::False,
            );
        }
        let init = Instance::empty(schema.clone());
        GuardedForm::new(schema, rules, init, Formula::parse("a & b").unwrap())
    }

    #[test]
    fn finds_goal_and_run_replays() {
        let g = toggle_form();
        let ex = Explorer::new(&g, ExploreLimits::small());
        let out = ex.find(|i| g.is_complete(i));
        let run = out.goal_run.expect("goal reachable");
        assert_eq!(run.len(), 2);
        assert!(g.is_complete_run(&run));
    }

    #[test]
    fn graph_closes_on_finite_space() {
        let g = toggle_form();
        let graph = Explorer::new(&g, ExploreLimits::small()).graph();
        assert_eq!(graph.state_count(), 4); // {}, {a}, {b}, {a,b}
        assert!(graph.stats.closed);
        // Every non-initial state's reconstructed run replays.
        for i in 1..graph.state_count() {
            let run = graph.run_to(i);
            let r = g.replay(&run).unwrap();
            assert!(r.last().isomorphic(graph.state(i)));
        }
    }

    #[test]
    fn edges_cover_all_transitions() {
        let g = toggle_form();
        let graph = Explorer::new(&g, ExploreLimits::small()).graph();
        // state {}: 2 adds; {a}: del a + add b; {b}: del b + add a;
        // {a,b}: del a + del b. Total 8 directed edges.
        assert_eq!(graph.edge_count(), 8);
    }

    #[test]
    fn state_limit_reported() {
        let g = toggle_form();
        let lim = ExploreLimits {
            max_states: 2,
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).graph();
        assert!(!graph.stats.closed);
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::States));
        // The cap stops at exactly its count, mid-layer ({} then {a} of
        // the {a}, {b} layer) and at a layer's end, in both symmetry
        // modes.
        for symmetry in [SymmetryMode::Reduced, SymmetryMode::Plain] {
            for max_states in [2, 3, 4] {
                let lim = ExploreLimits {
                    max_states,
                    ..ExploreLimits::small()
                };
                let graph = Explorer::new(&g, lim).with_symmetry(symmetry).graph();
                assert_eq!(graph.state_count(), max_states, "{symmetry} {max_states}");
                assert_eq!(graph.stats.states, max_states, "{symmetry} {max_states}");
                assert!(!graph.stats.closed, "{symmetry} {max_states}");
                assert_eq!(graph.stats.limit_hit, Some(LimitKind::States));
            }
        }
    }

    /// The capacity engine (tiny spill budget) is verdict-, depth- and
    /// stats-identical to the sequential in-RAM engine, and its witness
    /// run replays.
    #[test]
    fn capacity_engine_matches_sequential_on_leave() {
        let g = idar_core::leave::example_3_12();
        let seq = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        let (cap, report) = Explorer::new(&g, ExploreLimits::small())
            .with_memory_budget(MemoryBudget::bytes(4 * 1024))
            .find_spilled(|i| g.is_complete(i));
        assert_eq!(cap.stats, seq.stats);
        let seq_run = seq.goal_run.expect("completable");
        let cap_run = cap.goal_run.expect("completable");
        assert_eq!(cap_run.len(), seq_run.len(), "same BFS goal depth");
        assert!(g.is_complete_run(&cap_run), "spilled witness replays");
        assert!(report.encoded_bytes > 0);
        assert!(
            report.encoded_bytes < report.word_bytes,
            "delta encoding compresses"
        );
    }

    /// A bounded memory budget routes `find` through the capacity
    /// engine with unchanged exhaustive-search semantics.
    #[test]
    fn budgeted_find_closes_finite_space() {
        let g = toggle_form();
        let seq = Explorer::new(&g, ExploreLimits::small()).find(|_| false);
        let cap = Explorer::new(&g, ExploreLimits::small())
            .with_memory_budget(MemoryBudget::bytes(0))
            .find(|_| false);
        assert_eq!(cap.stats, seq.stats);
        assert!(cap.stats.closed);
        assert_eq!(cap.stats.states, 4);
    }

    /// Frontier-only mode on a deletion-free form: same stats and goal
    /// depth as the in-RAM engine, no retained records.
    #[test]
    fn frontier_only_matches_on_deletion_free_form() {
        let g = add_once_form();
        assert!(g.is_deletion_free());
        let seq = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        let (fo, report) =
            Explorer::new(&g, ExploreLimits::small()).find_frontier_only(|i| g.is_complete(i));
        assert_eq!(fo.stats, seq.stats);
        assert!(fo.goal_run.is_none(), "frontier-only keeps no provenance");
        assert!(report.frontier_only);
        assert_eq!(report.encoded_bytes, 0);
    }

    #[test]
    fn unbounded_growth_hits_size_limit() {
        // A form whose instances grow forever: add `a` always allowed.
        let schema = Arc::new(Schema::parse("a").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let init = Instance::empty(schema.clone());
        let g = GuardedForm::new(schema, rules, init, Formula::False);
        let lim = ExploreLimits {
            max_states: 1000,
            max_state_size: 16,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        };
        let graph = Explorer::new(&g, lim).graph();
        assert!(!graph.stats.closed);
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::StateSize));
        // 16 states: 0..=15 copies of `a` … plus none beyond the cap.
        assert_eq!(graph.state_count(), 16);
    }

    #[test]
    fn multiplicity_cap_prunes() {
        let schema = Arc::new(Schema::parse("a").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let init = Instance::empty(schema.clone());
        let g = GuardedForm::new(schema, rules, init, Formula::False);
        let lim = ExploreLimits {
            multiplicity_cap: Some(3),
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).graph();
        assert_eq!(graph.state_count(), 4); // 0,1,2,3 copies
        assert!(!graph.stats.closed);
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::Multiplicity));
    }

    #[test]
    fn goal_at_initial_state() {
        let g = toggle_form().with_completion(Formula::True);
        let out = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        assert_eq!(out.goal_run, Some(vec![]));
    }

    #[test]
    fn depth_limit() {
        let g = toggle_form();
        let lim = ExploreLimits {
            max_depth: 1,
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).graph();
        // initial + {a} + {b}; {a,b} is at depth 2.
        assert_eq!(graph.state_count(), 3);
        assert!(!graph.stats.closed);
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::Depth));
        // A depth limit that exhausts the space: the add-once form's
        // depth-2 states have no successors, so the search closes and
        // records no limit.
        let g = add_once_form();
        let lim = ExploreLimits {
            max_depth: 2,
            ..ExploreLimits::small()
        };
        for (symmetry, states) in [(SymmetryMode::Reduced, 4), (SymmetryMode::Plain, 5)] {
            let graph = Explorer::new(&g, lim).with_symmetry(symmetry).graph();
            assert!(graph.stats.closed, "{symmetry}");
            assert_eq!(graph.stats.limit_hit, None, "{symmetry}");
            assert_eq!(graph.state_count(), states, "{symmetry}");
        }
    }

    /// With the symmetry reduction off (plain mode), sibling permutations
    /// of the toggle form count separately: {a,b} and {b,a} are distinct
    /// ordered trees, and the verdict-relevant facts still agree.
    #[test]
    fn plain_mode_explores_the_ordered_space() {
        let g = toggle_form();
        let reduced = Explorer::new(&g, ExploreLimits::small()).graph();
        let plain = Explorer::new(&g, ExploreLimits::small())
            .with_symmetry(SymmetryMode::Plain)
            .graph();
        assert_eq!(reduced.state_count(), 4);
        assert_eq!(plain.state_count(), 5); // {}, a, b, ab, ba
        assert!(reduced.stats.closed && plain.stats.closed);
        // Goal search agrees on existence and BFS depth.
        let rf = Explorer::new(&g, ExploreLimits::small()).find(|i| g.is_complete(i));
        let pf = Explorer::new(&g, ExploreLimits::small())
            .with_symmetry(SymmetryMode::Plain)
            .find(|i| g.is_complete(i));
        assert_eq!(
            rf.goal_run.as_ref().map(Vec::len),
            pf.goal_run.as_ref().map(Vec::len)
        );
        assert!(g.is_complete_run(&pf.goal_run.unwrap()));
    }
}
