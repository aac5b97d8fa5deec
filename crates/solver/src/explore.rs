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
//! The explorer has two interchangeable engines:
//!
//! * **Sequential BFS** — one FIFO queue, one [`StateStore`]. Always
//!   available; state indices follow discovery order.
//! * **Pooled parallel BFS** (cargo feature `parallel`, on by default) —
//!   a **persistent worker pool** over a fingerprint-sharded
//!   [`ShardedStateStore`](crate::store::ShardedStateStore). Workers are
//!   spawned lazily once per run and live until it ends (no per-layer
//!   spawn/join); within a layer they claim frontier chunks from a
//!   shared atomic cursor and intern successors *directly* into the
//!   store shard that owns the successor's key fingerprint — dedup,
//!   storage and BFS provenance in one lock acquisition, with no second
//!   sequential merge pass. The layer barrier only assigns dense
//!   [`StateId`]s (plain vector pushes, no hashing); the CSR successor
//!   table is assembled from the per-worker edge logs at finish time.
//!   See `docs/ARCHITECTURE.md` for the pool/shard diagram.
//!
//! Both engines visit exactly the same state set, report the same
//! [`SearchStats::closed`] flag and the same `states` count, and find
//! goals at the same BFS depth; these invariants are independent of
//! thread scheduling. What *may* vary — between the engines and, for the
//! parallel engine, between runs (chunk claiming is racy, so the OS
//! scheduler picks which discoverer supplies a state's parent pointer
//! and barrier position) — is state numbering, which same-depth goal
//! state is returned first, and the `transitions` count of searches that
//! stop early (workers abandon their remaining chunks as soon as the
//! terminal condition is flagged). Use `.with_threads(1)` when
//! bit-identical graphs across runs matter. The differential tests in
//! this module and in `tests/parallel_differential.rs` pin these
//! guarantees down.

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

/// Number of worker threads the explorer uses by default: all available
/// cores with the `parallel` feature, 1 without.
pub fn default_threads() -> usize {
    if cfg!(feature = "parallel") {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        1
    }
}

/// Bounded breadth-first explorer over a guarded form's instances.
///
/// ```
/// use idar_core::leave;
/// use idar_solver::{ExploreLimits, Explorer};
///
/// let form = leave::example_3_12();
/// let explorer = Explorer::new(&form, ExploreLimits::small()).with_threads(2);
/// let out = explorer.find(|i| form.is_complete(i));
/// let run = out.goal_run.expect("the leave form is completable");
/// assert!(form.is_complete_run(&run));
/// ```
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    form: &'a GuardedForm,
    limits: ExploreLimits,
    threads: usize,
    symmetry: SymmetryMode,
    memory: MemoryBudget,
}

impl<'a> Explorer<'a> {
    /// An explorer over `form` with the given limits, the default
    /// thread count ([`default_threads`]), and symmetry reduction on.
    pub fn new(form: &'a GuardedForm, limits: ExploreLimits) -> Self {
        Explorer {
            form,
            limits,
            threads: default_threads(),
            symmetry: SymmetryMode::Reduced,
            memory: MemoryBudget::unbounded(),
        }
    }

    /// Set the worker-thread count. `1` forces the sequential engine;
    /// values above 1 use the parallel layered engine when the `parallel`
    /// feature is enabled (and fall back to sequential otherwise).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
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
    /// under the budget. The engine is sequential (the thread setting is
    /// ignored while a budget is set) and visits exactly the same states
    /// with the same [`SearchStats`] as the sequential in-RAM engine.
    ///
    /// [`Explorer::graph`] and [`Explorer::build_session`] ignore the
    /// budget: retained graphs hand out `&Instance`/run-to views that
    /// require the flat store, and their retention is bounded separately
    /// by the session manager's eviction budget.
    pub fn with_memory_budget(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
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
    pub fn find(&self, goal: impl Fn(&Instance) -> bool + Sync) -> ExploreOutcome {
        if self.memory.is_bounded() {
            let mut goal = goal;
            return self.run_capacity(Some(&mut goal), false).0;
        }
        #[cfg(feature = "parallel")]
        if self.threads > 1 {
            let g = self.run_parallel(Some(&goal), false);
            return ExploreOutcome {
                goal_run: g.goal.map(|i| g.graph.store.run_to(i)),
                stats: g.graph.stats,
            };
        }
        let mut goal = goal;
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
        #[cfg(feature = "parallel")]
        if self.threads > 1 {
            return self.run_parallel(None, true).graph;
        }
        self.run(None, true, None).graph
    }

    /// The **build phase** of the incremental split: explore exhaustively
    /// (within limits) and retain everything — states, edges, and the
    /// per-state [`ExpansionLog`] — as a [`SessionGraph`] that later
    /// queries [`resume`](Explorer::resume) from.
    ///
    /// Always runs the sequential engine regardless of the configured
    /// thread count: the expansion journal requires the deterministic
    /// enumeration order only the FIFO BFS guarantees.
    pub fn build_session(&self) -> SessionGraph {
        let mut log = ExpansionLog::default();
        let r = self.run(None, true, Some(&mut log));
        SessionGraph::from_build(r.graph, log, self.limits)
    }

    /// The **query phase**: re-seed the BFS at a state already interned
    /// in `session` and search for `goal` under *this* explorer's
    /// limits, reusing every retained state, provenance pointer, and
    /// logged expansion. Equivalent — in verdict, goal depth, and
    /// [`SearchStats`] — to a cold sequential [`Explorer::find`] on the
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

    /// The sequential engine: FIFO BFS over a [`StateStore`].
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

    /// The parallel engine: a persistent worker pool over the
    /// fingerprint-sharded [`ShardedStateStore`].
    ///
    /// Workers are spawned lazily (the first time a layer is wide enough
    /// to dispatch) and then live for the whole run, blocking on their
    /// job channel between layers. Within a layer every pool member —
    /// the coordinating thread included — claims frontier chunks from a
    /// shared atomic cursor and interns successors straight into the
    /// store shard owning the successor's fingerprint: dedup, storage
    /// and parent provenance happen under one shard lock, so there is no
    /// second sequential intern pass at the barrier. The barrier itself
    /// only assigns dense [`StateId`]s in pool order (vector pushes),
    /// mirroring the sequential engine's goal/state-cap truncation
    /// exactly; states interned past a terminal condition are trimmed at
    /// finish time, which keeps `stats.states` equal to the sequential
    /// count at every limit boundary. Narrow layers (deep, thin spaces
    /// like the Thm 4.1 machine simulations) are expanded inline by the
    /// coordinator without waking the pool.
    #[cfg(feature = "parallel")]
    fn run_parallel(
        &self,
        goal: Option<&(dyn Fn(&Instance) -> bool + Sync)>,
        want_edges: bool,
    ) -> RunResult {
        use crate::store::{PackedStateId, ShardedStateStore};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::{mpsc, Arc};

        /// One `(from, update, successor)` record; the successor is
        /// still a packed id until finish-time remapping.
        type PendEdge = (StateId, Update, PackedStateId);

        /// A layer's shared work description: the frontier snapshot plus
        /// the cursor workers claim chunks from.
        struct LayerWork {
            items: Vec<(StateId, Arc<Instance>)>,
            cursor: AtomicUsize,
            chunk: usize,
            depth: u32,
        }

        /// What the pool is asked to do with a layer.
        enum Job {
            /// Expand every frontier state.
            Expand(Arc<LayerWork>),
            /// Depth-limit exhaustiveness probe: does *any* frontier
            /// state still have a successor? Short-circuits pool-wide.
            Probe(Arc<LayerWork>),
        }

        /// A state discovered (intern race won) by one pool member.
        struct NewState {
            id: PackedStateId,
            inst: Arc<Instance>,
            is_goal: bool,
        }

        /// One pool member's output for one job.
        #[derive(Default)]
        struct LayerOut {
            new: Vec<NewState>,
            transitions: usize,
            pruned: Option<LimitKind>,
            probe_found: bool,
        }

        /// The shared read-only context of every pool member.
        #[derive(Clone, Copy)]
        struct Ctx<'a> {
            form: &'a GuardedForm,
            limits: ExploreLimits,
            store: &'a ShardedStateStore,
            /// Terminal condition (goal found / state cap reached / probe
            /// succeeded): abandon remaining chunks.
            stop: &'a AtomicBool,
            /// Running count of interned states (the workers' state-cap
            /// heuristic; the barrier's dense assignment is the truth).
            states_total: &'a AtomicUsize,
            goal: Option<&'a (dyn Fn(&Instance) -> bool + Sync)>,
            want_edges: bool,
        }

        /// The chunk-claiming protocol shared by [`expand`] and
        /// [`probe`]: claim chunks off the layer's shared cursor and feed
        /// items to `handle` until the layer drains or `handle` breaks
        /// (the pool-wide terminal flag).
        fn for_each_claimed(
            work: &LayerWork,
            mut handle: impl FnMut(&(StateId, Arc<Instance>)) -> ControlFlow<()>,
        ) {
            let n = work.items.len();
            'claim: loop {
                let start = work.cursor.fetch_add(work.chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for item in &work.items[start..(start + work.chunk).min(n)] {
                    if handle(item).is_break() {
                        break 'claim;
                    }
                }
            }
        }

        /// The expansion loop every pool member runs, mirroring the
        /// sequential inner loop exactly (same prune checks, goal
        /// evaluated only on newly discovered states).
        fn expand(ctx: &Ctx, work: &LayerWork, edges: &mut Vec<PendEdge>) -> LayerOut {
            let mut out = LayerOut::default();
            let mut kernel = Kernel::new(ctx.form, &ctx.limits, ctx.store.symmetry());
            for_each_claimed(work, |(from, inst)| {
                if ctx.stop.load(Ordering::Relaxed) {
                    return ControlFlow::Break(());
                }
                kernel.load(inst);
                kernel.expand(|u, step| {
                    if ctx.stop.load(Ordering::Relaxed) {
                        return ControlFlow::Break(());
                    }
                    out.transitions += 1;
                    let next = match step {
                        Step::Pruned(kind) => {
                            out.pruned = Some(kind);
                            return ControlFlow::Continue(());
                        }
                        Step::Next(next) => next,
                    };
                    let (id, created) = ctx.store.intern(
                        next.fingerprint,
                        next.words,
                        next.inst,
                        Some((*from, u)),
                        work.depth + 1,
                    );
                    if ctx.want_edges {
                        edges.push((*from, u, id));
                    }
                    if let Some(arc) = created {
                        let count = ctx.states_total.fetch_add(1, Ordering::Relaxed) + 1;
                        let is_goal = ctx.goal.is_some_and(|g| g(&arc));
                        if is_goal || count >= ctx.limits.max_states {
                            ctx.stop.store(true, Ordering::Relaxed);
                        }
                        out.new.push(NewState {
                            id,
                            inst: arc,
                            is_goal,
                        });
                    }
                    ControlFlow::Continue(())
                })
            });
            out
        }

        /// The depth-limit probe every pool member runs: short-circuit
        /// pool-wide on the first frontier state with a successor.
        fn probe(ctx: &Ctx, work: &LayerWork) -> LayerOut {
            let mut out = LayerOut::default();
            for_each_claimed(work, |(_, inst)| {
                if ctx.stop.load(Ordering::Relaxed) {
                    return ControlFlow::Break(());
                }
                if ctx.form.has_allowed_update(inst) {
                    out.probe_found = true;
                    ctx.stop.store(true, Ordering::Relaxed);
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            });
            out
        }

        let form = self.form;
        let limits = self.limits;
        let threads = self.threads;
        let mut stats = SearchStats::default();

        // Goal at the initial instance short-circuits before any pool
        // machinery exists (and closes, per the sequential contract).
        let initial = form.initial().clone();
        if let Some(g) = goal {
            if g(&initial) {
                let mut store = StateStore::new(self.symmetry);
                let (root, _) = store.intern(initial, None);
                stats.states = 1;
                stats.closed = true;
                return finish_run(store, Vec::new(), stats, Some(root), want_edges);
            }
        }

        let store = ShardedStateStore::new(self.symmetry);
        let stop = AtomicBool::new(false);
        let states_total = AtomicUsize::new(1); // the root
        let root_key = store.key_of(&initial);
        let (root_packed, root_arc) =
            store.intern(root_key.fingerprint(), root_key.words(), &initial, None, 0);
        let root_arc = root_arc.expect("the root interns into the empty store as new");
        stats.states = 1;

        // Dense-id assignment state: `locs[g]` is the packed id of dense
        // state `g`; `global_of[shard][local]` inverts it (missing /
        // `u32::MAX` ⇒ trimmed, never assigned).
        let mut locs: Vec<PackedStateId> = vec![root_packed];
        let mut global_of: Vec<Vec<u32>> = vec![Vec::new(); ShardedStateStore::SHARD_COUNT];
        fn assign(global_of: &mut [Vec<u32>], p: PackedStateId, g: u32) {
            let col = &mut global_of[p.shard()];
            if col.len() <= p.local() {
                col.resize(p.local() + 1, u32::MAX);
            }
            col[p.local()] = g;
        }
        assign(&mut global_of, root_packed, 0);

        let ctx = Ctx {
            form,
            limits,
            store: &store,
            stop: &stop,
            states_total: &states_total,
            goal,
            want_edges,
        };

        let (goal_state, coord_edges, worker_edges) = std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<LayerOut>();
            let mut job_txs: Vec<mpsc::Sender<Job>> = Vec::new();
            let mut handles = Vec::new();
            let mut coord_edges: Vec<PendEdge> = Vec::new();

            // Spawn the pool on first use; each worker loops over its job
            // channel until the coordinator drops the senders, returning
            // its accumulated edge log on join.
            let mut dispatch = |work: &Arc<LayerWork>,
                                probe_job: bool,
                                job_txs: &mut Vec<mpsc::Sender<Job>>|
             -> usize {
                if job_txs.is_empty() {
                    for _ in 0..threads - 1 {
                        let (jtx, jrx) = mpsc::channel::<Job>();
                        job_txs.push(jtx);
                        let res = res_tx.clone();
                        let wctx = ctx;
                        handles.push(scope.spawn(move || {
                            let mut edges: Vec<PendEdge> = Vec::new();
                            while let Ok(job) = jrx.recv() {
                                let out = match job {
                                    Job::Expand(w) => expand(&wctx, &w, &mut edges),
                                    Job::Probe(w) => probe(&wctx, &w),
                                };
                                if res.send(out).is_err() {
                                    break;
                                }
                            }
                            edges
                        }));
                    }
                }
                for tx in job_txs.iter() {
                    let j = if probe_job {
                        Job::Probe(work.clone())
                    } else {
                        Job::Expand(work.clone())
                    };
                    tx.send(j).expect("pool worker exited early");
                }
                job_txs.len()
            };

            let mut frontier: Vec<(StateId, Arc<Instance>)> = vec![(StateId(0), root_arc)];
            let mut cur_depth = 0usize;
            let mut pruned = false;
            let mut goal_state: Option<StateId> = None;

            // A layer is dispatched to the pool only when it offers every
            // member a meaningful chunk; narrow layers are expanded
            // inline by the coordinator without waking anyone.
            const MIN_ITEMS_PER_WORKER: usize = 4;

            'search: loop {
                if frontier.is_empty() {
                    stats.closed = !pruned;
                    break;
                }
                let wide = threads > 1 && frontier.len() >= MIN_ITEMS_PER_WORKER * threads;
                let chunk = (frontier.len() / (threads * 8)).clamp(1, 1024);
                let work = Arc::new(LayerWork {
                    items: std::mem::take(&mut frontier),
                    cursor: AtomicUsize::new(0),
                    chunk,
                    depth: cur_depth as u32,
                });

                if cur_depth >= limits.max_depth {
                    // Unexpanded frontier: exhaustiveness is lost iff any
                    // frontier state still has a successor. One probe hit
                    // short-circuits the whole pool.
                    let sent = if wide {
                        dispatch(&work, true, &mut job_txs)
                    } else {
                        0
                    };
                    let mut found = probe(&ctx, &work).probe_found;
                    for _ in 0..sent {
                        found |= res_rx.recv().expect("pool worker died").probe_found;
                    }
                    if found {
                        pruned = true;
                        stats.limit_hit = Some(LimitKind::Depth);
                    }
                    stats.closed = !pruned;
                    break;
                }

                // --- expand: the pool (and this thread) drain the layer
                let sent = if wide {
                    dispatch(&work, false, &mut job_txs)
                } else {
                    0
                };
                let mut outs = Vec::with_capacity(sent + 1);
                outs.push(expand(&ctx, &work, &mut coord_edges));
                for _ in 0..sent {
                    outs.push(res_rx.recv().expect("pool worker died"));
                }

                // --- barrier: merge stats, assign dense ids ------------
                for out in &outs {
                    stats.transitions += out.transitions;
                    if let Some(k) = out.pruned {
                        pruned = true;
                        stats.limit_hit = Some(k);
                    }
                }
                let mut next: Vec<(StateId, Arc<Instance>)> = Vec::new();
                'merge: for out in outs {
                    for ns in out.new {
                        let g = StateId(locs.len() as u32);
                        locs.push(ns.id);
                        assign(&mut global_of, ns.id, g.0);
                        stats.states += 1;
                        if ns.is_goal {
                            goal_state = Some(g);
                            break 'merge;
                        }
                        if stats.states >= limits.max_states {
                            stats.limit_hit = Some(LimitKind::States);
                            break 'merge;
                        }
                        next.push((g, ns.inst));
                    }
                }
                if goal_state.is_some() || stats.limit_hit == Some(LimitKind::States) {
                    break 'search;
                }
                frontier = next;
                cur_depth += 1;
            }

            drop(job_txs); // workers drain and exit
            let worker_edges: Vec<Vec<PendEdge>> = handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect();
            (goal_state, coord_edges, worker_edges)
        });

        // --- finish: remap edges, flatten the shards -------------------
        // Edges whose target was trimmed (interned past a terminal
        // condition, never assigned a dense id) are dropped, matching the
        // sequential engine's truncation. All frontier handles died with
        // the scope, so the flatten unwraps instances without cloning.
        let triples: Vec<(StateId, Update, StateId)> = if want_edges {
            coord_edges
                .into_iter()
                .chain(worker_edges.into_iter().flatten())
                .filter_map(|(from, u, p)| {
                    let g = global_of[p.shard()].get(p.local()).copied();
                    match g {
                        Some(g) if g != u32::MAX => Some((from, u, StateId(g))),
                        _ => None,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        debug_assert_eq!(stats.states, locs.len());
        let store = store.into_store(&locs);
        finish_run(store, triples, stats, goal_state, want_edges)
    }
}

struct RunResult {
    graph: StateGraph,
    goal: Option<StateId>,
}

/// Shared graph finalization of both engines: build the CSR successor
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

    #[test]
    fn finds_goal_and_run_replays() {
        let g = toggle_form();
        let ex = Explorer::new(&g, ExploreLimits::small()).with_threads(1);
        let out = ex.find(|i| g.is_complete(i));
        let run = out.goal_run.expect("goal reachable");
        assert_eq!(run.len(), 2);
        assert!(g.is_complete_run(&run));
    }

    #[test]
    fn graph_closes_on_finite_space() {
        let g = toggle_form();
        let graph = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .graph();
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
        let graph = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .graph();
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
        let graph = Explorer::new(&g, lim).with_threads(1).graph();
        assert!(!graph.stats.closed);
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::States));
    }

    /// The capacity engine (tiny spill budget) is verdict-, depth- and
    /// stats-identical to the sequential in-RAM engine, and its witness
    /// run replays.
    #[test]
    fn capacity_engine_matches_sequential_on_leave() {
        let g = idar_core::leave::example_3_12();
        let seq = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .find(|i| g.is_complete(i));
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
        let seq = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .find(|_| false);
        let cap = Explorer::new(&g, ExploreLimits::small())
            .with_memory_budget(MemoryBudget::bytes(0))
            .find(|_| false);
        assert_eq!(cap.stats, seq.stats);
        assert!(cap.stats.closed);
        assert_eq!(cap.stats.states, 4);
    }

    /// Frontier-only mode on a deletion-free form: same stats and goal
    /// depth as the sequential engine, no retained records.
    #[test]
    fn frontier_only_matches_on_deletion_free_form() {
        let schema = Arc::new(Schema::parse("a, b").unwrap());
        let mut rules = AccessRules::new(&schema);
        rules.set_both(
            schema.resolve("a").unwrap(),
            Formula::parse("!a").unwrap(),
            Formula::False,
        );
        rules.set_both(
            schema.resolve("b").unwrap(),
            Formula::parse("!b").unwrap(),
            Formula::False,
        );
        let init = Instance::empty(schema.clone());
        let g = GuardedForm::new(schema, rules, init, Formula::parse("a & b").unwrap());
        assert!(g.is_deletion_free());
        let seq = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .find(|i| g.is_complete(i));
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
        let graph = Explorer::new(&g, lim).with_threads(1).graph();
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
        let graph = Explorer::new(&g, lim).with_threads(1).graph();
        assert_eq!(graph.state_count(), 4); // 0,1,2,3 copies
        assert!(!graph.stats.closed);
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::Multiplicity));
    }

    #[test]
    fn goal_at_initial_state() {
        let g = toggle_form().with_completion(Formula::True);
        let out = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .find(|i| g.is_complete(i));
        assert_eq!(out.goal_run, Some(vec![]));
    }

    #[test]
    fn depth_limit() {
        let g = toggle_form();
        let lim = ExploreLimits {
            max_depth: 1,
            ..ExploreLimits::small()
        };
        let graph = Explorer::new(&g, lim).with_threads(1).graph();
        // initial + {a} + {b}; {a,b} is at depth 2.
        assert_eq!(graph.state_count(), 3);
        assert!(!graph.stats.closed);
    }

    /// With the symmetry reduction off (plain mode), sibling permutations
    /// of the toggle form count separately: {a,b} and {b,a} are distinct
    /// ordered trees, and the verdict-relevant facts still agree.
    #[test]
    fn plain_mode_explores_the_ordered_space() {
        let g = toggle_form();
        let reduced = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .graph();
        let plain = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .with_symmetry(SymmetryMode::Plain)
            .graph();
        assert_eq!(reduced.state_count(), 4);
        assert_eq!(plain.state_count(), 5); // {}, a, b, ab, ba
        assert!(reduced.stats.closed && plain.stats.closed);
        // Goal search agrees on existence and BFS depth.
        let rf = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .find(|i| g.is_complete(i));
        let pf = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .with_symmetry(SymmetryMode::Plain)
            .find(|i| g.is_complete(i));
        assert_eq!(
            rf.goal_run.as_ref().map(Vec::len),
            pf.goal_run.as_ref().map(Vec::len)
        );
        assert!(g.is_complete_run(&pf.goal_run.unwrap()));
    }

    // -- parallel engine ----------------------------------------------------

    /// The canonical state set of a graph, as a sorted list of iso codes.
    #[cfg(feature = "parallel")]
    fn state_set(g: &StateGraph) -> Vec<String> {
        let mut v: Vec<String> = g.states().iter().map(|s| s.iso_code()).collect();
        v.sort_unstable();
        v
    }

    /// Parallel and sequential engines agree on the state set, closedness,
    /// depths, and edge counts of a small closed space.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_graph_matches_sequential() {
        let g = toggle_form();
        let seq = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .graph();
        for threads in [2, 3, 8] {
            let par = Explorer::new(&g, ExploreLimits::small())
                .with_threads(threads)
                .graph();
            assert_eq!(state_set(&par), state_set(&seq), "threads={threads}");
            assert_eq!(par.stats.states, seq.stats.states);
            assert_eq!(par.stats.transitions, seq.stats.transitions);
            assert!(par.stats.closed);
            assert_eq!(par.edge_count(), seq.edge_count());
            // Depth multisets agree (BFS layering is engine-independent).
            let mut sd: Vec<usize> = (0..seq.state_count()).map(|i| seq.depth_of(i)).collect();
            let mut pd: Vec<usize> = (0..par.state_count()).map(|i| par.depth_of(i)).collect();
            sd.sort_unstable();
            pd.sort_unstable();
            assert_eq!(sd, pd);
            // Every parallel parent pointer reconstructs a valid run.
            for i in 0..par.state_count() {
                let run = par.run_to(i);
                assert_eq!(run.len(), par.depth_of(i));
                let r = g.replay(&run).unwrap();
                assert!(r.last().isomorphic(par.state(i)));
            }
        }
    }

    /// Parallel `find` returns a replayable shortest run.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_find_agrees() {
        let g = toggle_form();
        let seq = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .find(|i| g.is_complete(i));
        let par = Explorer::new(&g, ExploreLimits::small())
            .with_threads(4)
            .find(|i| g.is_complete(i));
        let seq_run = seq.goal_run.expect("seq finds goal");
        let par_run = par.goal_run.expect("par finds goal");
        assert_eq!(seq_run.len(), par_run.len(), "same BFS goal depth");
        assert!(g.is_complete_run(&par_run));
    }

    /// Limit behaviours (state cap, depth cap, size cap) are preserved.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_limits_match() {
        let g = toggle_form();
        // Depth cap.
        let lim = ExploreLimits {
            max_depth: 1,
            ..ExploreLimits::small()
        };
        let par = Explorer::new(&g, lim).with_threads(4).graph();
        assert_eq!(par.state_count(), 3);
        assert!(!par.stats.closed);
        assert_eq!(par.stats.limit_hit, Some(LimitKind::Depth));

        // State-size cap on an unbounded form.
        let schema = Arc::new(Schema::parse("a").unwrap());
        let rules = AccessRules::with_default(&schema, Formula::True);
        let init = Instance::empty(schema.clone());
        let grow = GuardedForm::new(schema, rules, init, Formula::False);
        let lim = ExploreLimits {
            max_states: 1000,
            max_state_size: 16,
            max_depth: usize::MAX,
            multiplicity_cap: None,
        };
        let par = Explorer::new(&grow, lim).with_threads(4).graph();
        assert!(!par.stats.closed);
        assert_eq!(par.stats.limit_hit, Some(LimitKind::StateSize));
        assert_eq!(par.state_count(), 16);

        // State-count cap.
        let lim = ExploreLimits {
            max_states: 2,
            ..ExploreLimits::small()
        };
        let par = Explorer::new(&g, lim).with_threads(4).graph();
        assert!(!par.stats.closed);
        assert_eq!(par.stats.limit_hit, Some(LimitKind::States));
    }

    /// Goal on the initial instance short-circuits identically.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_goal_at_initial_state() {
        let g = toggle_form().with_completion(Formula::True);
        let out = Explorer::new(&g, ExploreLimits::small())
            .with_threads(4)
            .find(|i| g.is_complete(i));
        assert_eq!(out.goal_run, Some(vec![]));
        assert!(out.stats.closed);
    }

    /// The parallel engine honours the plain symmetry mode and matches
    /// the sequential plain exploration.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_plain_mode_matches_sequential() {
        let g = toggle_form();
        let seq = Explorer::new(&g, ExploreLimits::small())
            .with_threads(1)
            .with_symmetry(SymmetryMode::Plain)
            .graph();
        let par = Explorer::new(&g, ExploreLimits::small())
            .with_threads(4)
            .with_symmetry(SymmetryMode::Plain)
            .graph();
        assert_eq!(par.state_count(), seq.state_count());
        assert_eq!(par.stats.transitions, seq.stats.transitions);
        assert!(par.stats.closed);
    }
}
