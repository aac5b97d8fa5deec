//! `explore`: build the implied workflow graph of large forms with
//! `WorkflowGraph::build` at the library's default thread count.
//!
//! Almost all the work is the explorer's: `allowed_updates`, clone +
//! `apply`, `canon_key`, `intern` and the bytes the store keeps. The
//! screener, the cache and the server do nothing here.

use crate::reference;
use crate::stats;
use crate::Run;
use idar_core::{GuardedForm, Instance, Update};
use idar_gen::{ChainSpec, LevelSpec, ScenarioSpec};
use idar_solver::{ExploreLimits, Explorer, StateStore, SymmetryMode};
use idar_workflow::WorkflowGraph;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Limits every build runs under: the library default, which every
/// input closes within.
fn limits() -> ExploreLimits {
    ExploreLimits::default()
}

struct Input {
    name: String,
    form: GuardedForm,
    /// Exact reachable state count when it is known in closed form.
    states: Option<usize>,
    /// The answer of an independent reference, checked against the
    /// graph's annotation of the initial state (and of every state).
    reference: Option<reference::Depth1Answer>,
}

/// A seeded approval chain of 29 525 states: nine levels of three
/// approvers each, drawn from a pool of six users. Only which users
/// approve depends on the seed, so the state count does not.
pub fn approval_chain(seed: u64) -> ScenarioSpec {
    let mut rng = stats::Rng::new(seed ^ 0xA99_0A1);
    let users = 6;
    let levels = (0..9)
        .map(|_| {
            let mut pool: Vec<usize> = (0..users).collect();
            let mut approvers = Vec::new();
            while approvers.len() < 3 {
                approvers.push(pool.swap_remove(rng.below(pool.len())));
            }
            approvers.sort_unstable();
            LevelSpec::approvers(approvers)
        })
        .collect();
    ScenarioSpec::unconstrained(ChainSpec { users, levels })
}

fn inputs(seed: u64) -> Vec<Input> {
    let philosophers = idar_deadlock::dining_philosophers(6);
    vec![
        Input {
            name: "subset_lattice(17)".into(),
            form: idar_gen::builders::subset_lattice(17),
            states: Some(1 << 17),
            reference: None,
        },
        Input {
            name: "two_counter_monotone(8)".into(),
            form: idar_gen::builders::monotone_lattice(2 * 8),
            states: Some(1 << 16),
            reference: None,
        },
        Input {
            name: "depth1_philosophers(6)".into(),
            form: idar_reductions::deadlock_to_completability::reduce(&philosophers)
                .expect("philosophers have no self-loop pairs"),
            states: None,
            reference: None,
        },
        Input {
            name: "approval_chain".into(),
            form: approval_chain(seed).build("approval").form,
            states: Some(29_525),
            reference: None,
        },
    ]
}

/// Fill in the references: lattices are completable from every state;
/// the philosophers' form is completable iff the protocol can deadlock;
/// the approval chain is checked by plain enumeration and by the
/// scenario generator's own duty-aware oracle.
fn add_references(seed: u64, inputs: &mut [Input]) -> Result<(), String> {
    for input in inputs.iter_mut() {
        input.reference = Some(match input.name.as_str() {
            "subset_lattice(17)" | "two_counter_monotone(8)" => reference::Depth1Answer {
                completable: true,
                semisound: true,
                states: input.states.expect("closed-form count"),
            },
            "depth1_philosophers(6)" => {
                let deadlock = idar_deadlock::dining_philosophers(6)
                    .find_reachable_deadlock()
                    .deadlock
                    .is_some();
                let r = reference::depth1(&input.form, 1_000_000)
                    .ok_or("philosophers(6) did not close in the reference enumeration")?;
                if r.completable != deadlock {
                    return Err(
                        "philosophers(6): enumeration disagrees with the deadlock checker".into(),
                    );
                }
                input.states = Some(r.states);
                r
            }
            _ => {
                let spec = approval_chain(seed);
                let oracle = idar_gen::constraints::constrained_completable(&spec, 1_000_000)
                    .ok_or("approval oracle hit its cap")?;
                let r = reference::depth1(&input.form, 1_000_000)
                    .ok_or("approval chain did not close in the reference enumeration")?;
                if r.completable != oracle || Some(r.states) != input.states {
                    return Err("approval chain: enumeration disagrees with the oracle".into());
                }
                r
            }
        });
    }
    Ok(())
}

/// Check one built graph against its input's reference.
fn check(input: &Input, g: &WorkflowGraph) -> Result<(), String> {
    let r = input.reference.as_ref().expect("references are computed");
    let semisound = (0..g.state_count()).all(|i| g.is_completable_state(i));
    let fail = |what: &str| Err(format!("explore {}: {what}", input.name));
    if !g.closed() {
        return fail("graph did not close");
    }
    if Some(g.state_count()) != input.states {
        return fail(&format!(
            "{} states, reference {:?}",
            g.state_count(),
            input.states
        ));
    }
    if g.is_completable_state(0) != r.completable || semisound != r.semisound {
        return fail("completability annotation disagrees with the reference");
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let (mut inputs, setup_s) = stats::timed_setup(|| inputs(seed));
    let mut out = Run::new(setup_s);
    out.context(format!(
        "explorer_threads={}",
        idar_solver::default_threads()
    ));
    if let Err(e) = add_references(seed, &mut inputs) {
        out.mismatch(e);
        return out;
    }
    if trace {
        traced(&inputs, &mut out);
        return out;
    }

    // Closed loop: whole passes over the inputs until the time is spent,
    // so every pass has the same mix. Every graph must close (`check`),
    // so all are decided.
    let mut pass_ms = Vec::new();
    let mut states = 0usize;
    let mut rss = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        stats::reset_peak_rss();
        let mut pass = Duration::ZERO;
        for input in &inputs {
            out.attempted += 1;
            let t0 = Instant::now();
            let g = WorkflowGraph::build(black_box(&input.form), limits());
            pass += t0.elapsed();
            states += g.state_count();
            if let Err(e) = check(input, &g) {
                out.mismatch(e);
            }
            drop(black_box(g));
        }
        pass_ms.push(stats::ms(pass));
        rss.push(stats::peak_rss_mb());
    }

    let m = &mut out.metrics;
    m.put(
        "states_per_s",
        "1/s",
        states as f64 * 1e3 / pass_ms.iter().sum::<f64>(),
        pass_ms.len() * inputs.len(),
    );
    stats::put_latency(m, "pass", &pass_ms);
    stats::put_round_rss(m, &rss);
    m.put("decided_share", "ratio", 1.0, out.attempted as usize);
    out.alias("ops_per_s", "states_per_s");
    out.alias("p50_ms", "pass_p50_ms");
    out.alias("p90_ms", "pass_p90_ms");
    out
}

/// Layer totals of the replayed BFS.
#[derive(Default)]
struct Layers {
    states: usize,
    transitions: usize,
    collisions: u64,
    bytes: usize,
    allowed: Duration,
    apply: Duration,
    canon: Duration,
    intern: Duration,
    wall: Duration,
}

/// Replay the sequential engine's BFS through the public calls it is made
/// of, timing each. Returns the states and transitions it found.
fn replay(form: &GuardedForm, layers: &mut Layers) -> (usize, usize) {
    let lim = limits();
    let t_wall = Instant::now();
    let mut store = StateStore::new(SymmetryMode::Reduced);
    let initial = form.initial().clone();
    let key = store.key_of(&initial);
    store.intern_keyed(key, initial, None);
    let mut queue = std::collections::VecDeque::from([idar_solver::StateId(0)]);
    let mut edges = 0usize;
    while let Some(i) = queue.pop_front() {
        let t0 = Instant::now();
        let updates = form.allowed_updates(store.get(i));
        layers.allowed += t0.elapsed();
        for u in updates {
            if let Update::Add { parent, edge } = u {
                let inst = store.get(i);
                assert!(
                    inst.live_count() < lim.max_state_size
                        && lim
                            .multiplicity_cap
                            .is_none_or(|cap| inst.children_at(parent, edge).count() < cap),
                    "explore inputs close without pruning"
                );
            }
            let t1 = Instant::now();
            let mut next: Instance = store.get(i).clone();
            form.apply_unchecked(&mut next, &u)
                .expect("allowed updates apply");
            let t2 = Instant::now();
            let key = store.key_of(&next);
            let t3 = Instant::now();
            let (j, is_new) = store.intern_keyed(key, next, Some((i, u)));
            let t4 = Instant::now();
            layers.apply += t2 - t1;
            layers.canon += t3 - t2;
            layers.intern += t4 - t3;
            edges += 1;
            if is_new {
                queue.push_back(j);
            }
        }
    }
    layers.wall += t_wall.elapsed();
    layers.states += store.len();
    layers.transitions += edges;
    layers.collisions += store.collisions();
    layers.bytes += store.approx_bytes();
    (store.len(), edges)
}

/// The traced run: per input, time `Explorer::graph` and
/// `WorkflowGraph::build` apart (their difference is the annotation),
/// then replay the BFS layer by layer and check it found the same graph.
fn traced(inputs: &[Input], out: &mut Run) {
    let mut layers = Layers::default();
    let (mut graph_s, mut build_s, mut untraced_s) = (0.0, 0.0, 0.0);
    for input in inputs {
        let t0 = Instant::now();
        let g = Explorer::new(&input.form, limits()).graph();
        graph_s += t0.elapsed().as_secs_f64();
        drop(g);
        let t0 = Instant::now();
        let wf = WorkflowGraph::build(&input.form, limits());
        build_s += t0.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = check(input, &wf) {
            out.mismatch(e);
        }
        let want = (wf.state_count(), wf.edge_count());
        drop(wf);
        // The untraced counterpart of the replay: the same sequential BFS
        // inside the library, with no timers around its calls.
        let t0 = Instant::now();
        drop(Explorer::new(&input.form, limits()).with_threads(1).graph());
        untraced_s += t0.elapsed().as_secs_f64();
        let got = replay(&input.form, &mut layers);
        if got != want {
            out.mismatch(format!(
                "explore {}: replayed BFS found {got:?} (states, transitions), build found {want:?}",
                input.name
            ));
        }
    }
    let m = &mut out.metrics;
    let (st, tr) = (layers.states as f64, layers.transitions as f64);
    let ns = |d: Duration, per: f64| d.as_secs_f64() * 1e9 / per;
    m.put(
        "core.guarded.allowed_updates.ns_per_state",
        "ns",
        ns(layers.allowed, st),
        layers.states,
    );
    m.put(
        "core.guarded.apply.ns_per_edge",
        "ns",
        ns(layers.apply, tr),
        layers.transitions,
    );
    m.put(
        "core.intern.canon_key.ns_per_edge",
        "ns",
        ns(layers.canon, tr),
        layers.transitions,
    );
    m.put(
        "solver.store.intern.ns_per_edge",
        "ns",
        ns(layers.intern, tr),
        layers.transitions,
    );
    m.put(
        "solver.explore.new_state_ratio",
        "ratio",
        st / tr,
        layers.transitions,
    );
    m.put("solver.explore.graph_s", "s", graph_s, inputs.len());
    m.put(
        "workflow.graph.annotate_s",
        "s",
        build_s - graph_s,
        inputs.len(),
    );
    m.put(
        "solver.store.bytes_per_state",
        "B",
        layers.bytes as f64 / st,
        layers.states,
    );
    m.put("solver.explore.states", "count", st, 1);
    m.put("solver.explore.transitions", "count", tr, 1);
    m.put(
        "solver.store.collisions",
        "count",
        layers.collisions as f64,
        1,
    );
    let traced_s = layers.wall.as_secs_f64();
    m.put(
        "bench.trace_overhead_share",
        "ratio",
        traced_s / untraced_s - 1.0,
        inputs.len(),
    );
}
