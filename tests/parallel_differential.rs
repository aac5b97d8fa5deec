//! Differential tests for the explorer's exactness contract: a search is
//! a pure function of form, limits and symmetry. Each test runs the same
//! search through both exploration engines — the in-RAM BFS
//! ([`Explorer::find`] / [`Explorer::graph`]) and the out-of-core
//! capacity engine ([`Explorer::find_spilled`] under a tiny spill
//! budget) — once on the calling thread and once on scoped worker
//! threads racing each other, the way the batch pool and the server
//! run one sequential exploration per form. Every run must report the
//! same `SearchStats` (closedness, limit kind, state and transition
//! counts) and the same BFS goal depth.
//!
//! The inputs sit on the limit boundaries and the Theorem 4.1
//! two-counter workloads: a depth limit that exhausts the space, a
//! state cap firing mid-layer, halting machines whose goal runs must
//! replay, and a non-halting machine that no engine may call complete.

use idar::core::{AccessRules, Formula, GuardedForm, Instance, Right, Schema};
use idar::solver::{
    ExploreLimits, ExploreOutcome, Explorer, LimitKind, MemoryBudget, SymmetryMode,
};
use idar_bench::workloads;
use std::sync::Arc;

/// Small enough that the capacity engine spills pages on every input.
const SPILL_BUDGET: MemoryBudget = MemoryBudget::bytes(4 * 1024);

/// One goal search through both engines: `[in-RAM, capacity]`.
fn both_engines(
    form: &GuardedForm,
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    goal: fn(&GuardedForm, &Instance) -> bool,
) -> [ExploreOutcome; 2] {
    let explorer = Explorer::new(form, limits).with_symmetry(symmetry);
    let in_ram = explorer.find(|i| goal(form, i));
    let (capacity, _) = explorer
        .with_memory_budget(SPILL_BUDGET)
        .find_spilled(|i| goal(form, i));
    [in_ram, capacity]
}

/// [`both_engines`] for every case, first on the calling thread, then
/// with every case on its own scoped worker thread at once; asserts the
/// two passes agree outcome for outcome and returns the first pass.
fn across_threads<C: Sync>(
    cases: &[C],
    search: impl Fn(&C) -> [ExploreOutcome; 2] + Sync,
) -> Vec<[ExploreOutcome; 2]> {
    let direct: Vec<_> = cases.iter().map(&search).collect();
    let pooled: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = cases.iter().map(|case| s.spawn(|| search(case))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (ix, (d, p)) in direct.iter().zip(&pooled).enumerate() {
        for engine in 0..2 {
            assert_eq!(
                d[engine].stats, p[engine].stats,
                "case {ix} engine {engine}"
            );
            assert_eq!(
                d[engine].goal_run.as_ref().map(Vec::len),
                p[engine].goal_run.as_ref().map(Vec::len),
                "case {ix} engine {engine}: same BFS goal depth"
            );
        }
    }
    direct
}

fn never(_: &GuardedForm, _: &Instance) -> bool {
    false
}

fn complete(form: &GuardedForm, i: &Instance) -> bool {
    form.is_complete(i)
}

/// Halting two-counter machines (Thm 4.1): both engines find a complete
/// run at the same BFS depth, and every witness replays complete.
#[test]
fn two_counter_halting_machines_agree() {
    let machines = [
        (
            "count_up(2)",
            idar::machines::library::count_up_then_accept(2),
        ),
        ("transfer(2)", idar::machines::library::transfer_c1_to_c2(2)),
    ];
    let forms: Vec<_> = machines
        .iter()
        .map(|(name, m)| workloads::tcm(m, name, true).form)
        .collect();
    let limits = ExploreLimits {
        max_states: 500_000,
        max_state_size: 256,
        ..ExploreLimits::default()
    };
    let outs = across_threads(&forms, |form| {
        both_engines(form, limits, SymmetryMode::Reduced, complete)
    });
    for ((name, _), (form, [in_ram, capacity])) in machines.iter().zip(forms.iter().zip(&outs)) {
        assert_eq!(in_ram.stats, capacity.stats, "{name}");
        let ram_run = in_ram
            .goal_run
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: in-RAM finds halt"));
        let cap_run = capacity
            .goal_run
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: capacity finds halt"));
        assert_eq!(ram_run.len(), cap_run.len(), "{name}: same BFS goal depth");
        assert!(form.is_complete_run(ram_run), "{name}: in-RAM run replays");
        assert!(
            form.is_complete_run(cap_run),
            "{name}: capacity run replays"
        );
    }
}

/// A non-halting machine under tight limits: no engine finds a complete
/// run, and both agree on closedness and state count.
#[test]
fn two_counter_diverging_machine_agrees() {
    let machine = idar::machines::library::ping_pong();
    let w = workloads::tcm(&machine, "ping_pong", false);
    let limits = ExploreLimits {
        max_states: 20_000,
        max_state_size: 64,
        ..ExploreLimits::default()
    };
    let symmetries = [SymmetryMode::Reduced, SymmetryMode::Plain];
    let outs = across_threads(&symmetries, |&symmetry| {
        both_engines(&w.form, limits, symmetry, complete)
    });
    for (symmetry, [in_ram, capacity]) in symmetries.iter().zip(&outs) {
        assert!(in_ram.goal_run.is_none(), "{symmetry}");
        assert!(capacity.goal_run.is_none(), "{symmetry}");
        assert_eq!(in_ram.stats, capacity.stats, "{symmetry}");
    }
}

/// A depth limit that exactly exhausts the space: the deletion-free
/// lattice's deepest states have no successors, so the probe finds
/// nothing, no limit is recorded, and the search **closes** — in both
/// engines, under both symmetry modes, and in the retained graph too.
#[test]
fn depth_limit_exhausting_the_space_closes_in_both_engines() {
    let n = 6usize;
    let labels: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
    let schema = Arc::new(Schema::parse(&labels.join(", ")).unwrap());
    let mut rules = AccessRules::new(&schema);
    for l in &labels {
        // Add-once, never delete: depth n is a dead end, not a frontier.
        rules.set(
            Right::Add,
            schema.resolve(l).unwrap(),
            Formula::parse(&format!("!{l}")).unwrap(),
        );
    }
    let form = GuardedForm::new(
        schema.clone(),
        rules,
        Instance::empty(schema),
        Formula::True,
    );
    let limits = ExploreLimits {
        max_depth: n,
        ..ExploreLimits::default()
    };
    let symmetries = [SymmetryMode::Reduced, SymmetryMode::Plain];
    let outs = across_threads(&symmetries, |&symmetry| {
        both_engines(&form, limits, symmetry, never)
    });
    for (&symmetry, [in_ram, capacity]) in symmetries.iter().zip(&outs) {
        assert!(
            in_ram.stats.closed,
            "{symmetry}: depth n exhausts the space"
        );
        assert_eq!(in_ram.stats.limit_hit, None, "{symmetry}");
        assert_eq!(in_ram.stats, capacity.stats, "{symmetry}");
        let graph = Explorer::new(&form, limits).with_symmetry(symmetry).graph();
        assert!(graph.stats.closed, "{symmetry}: graph closes");
        assert_eq!(graph.stats.limit_hit, None, "{symmetry}");
        assert_eq!(graph.state_count(), in_ram.stats.states, "{symmetry}");
        if symmetry == SymmetryMode::Reduced {
            assert_eq!(graph.state_count(), 1 << n, "one state per subset");
        }
    }
}

/// State-count cap firing **mid-layer**: both engines stop at exactly
/// the cap, report the `States` limit and stay un-closed — under both
/// symmetry modes, and in the retained graph too.
#[test]
fn state_limit_mid_layer_agrees() {
    let w = workloads::subset_lattice(8);
    let mut cases = Vec::new();
    for symmetry in [SymmetryMode::Reduced, SymmetryMode::Plain] {
        for max_states in [2usize, 7, 37, 100] {
            cases.push((symmetry, max_states));
        }
    }
    let outs = across_threads(&cases, |&(symmetry, max_states)| {
        let limits = ExploreLimits {
            max_states,
            ..ExploreLimits::default()
        };
        both_engines(&w.form, limits, symmetry, never)
    });
    for (&(symmetry, max_states), [in_ram, capacity]) in cases.iter().zip(&outs) {
        let ctx = format!("{symmetry} cap {max_states}");
        assert_eq!(in_ram.stats.states, max_states, "{ctx}");
        assert!(!in_ram.stats.closed, "{ctx}");
        assert_eq!(in_ram.stats.limit_hit, Some(LimitKind::States), "{ctx}");
        assert_eq!(in_ram.stats, capacity.stats, "{ctx}");
        let limits = ExploreLimits {
            max_states,
            ..ExploreLimits::default()
        };
        let graph = Explorer::new(&w.form, limits)
            .with_symmetry(symmetry)
            .graph();
        assert_eq!(graph.state_count(), max_states, "{ctx}");
        assert_eq!(graph.stats.limit_hit, Some(LimitKind::States), "{ctx}");
        assert!(!graph.stats.closed, "{ctx}");
    }
}
