//! `verify`: a form designer's or CI pipeline's time to a verdict.
//!
//! Sequential `idar_solver::analyze` calls ask completability and
//! semi-soundness of every form in the corpus, as the default
//! `idar-server` runs them: under its default budget, from one closed-loop
//! caller per server worker, each analysis with the worker's share of
//! explorer threads (two callers with one explorer thread each on a
//! two-core host). The screen, method dispatch, `depth1`, `np` and CDCL do
//! the work; the cache, sessions and HTTP are bypassed.
//!
//! Every caller is busy for the whole run, so every run spreads its work
//! over all of the host's cores. On a shared two-vCPU host one vCPU can
//! run the same code a third slower than the other for minutes at a time;
//! one caller took on whichever vCPU it was scheduled on, and over eight
//! 15-s runs the spread (IQR/median) of its p50 was 0.16 and of its p90
//! 0.13, against 0.08 and 0.04 for two callers alternating with it.

use crate::reference;
use crate::stats::{self, Metrics};
use crate::Run;
use idar_core::GuardedForm;
use idar_gen::ScenarioAxis;
use idar_logic::gen::split_mix;
use idar_solver::{
    analyze, AnalysisKind, AnalysisReport, AnalysisRequest, Budget, Method, ScreenOutcome, Verdict,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Scenario forms drawn from each of the four scenario axes. With the
/// 19 Table-1 forms a pass asks 1 318 questions. The mix of cheap and
/// costly scenario analyses sets the p50 and p90; at 80 forms per axis
/// one seed's p90 sat below another's in each of four alternating runs,
/// so the count was doubled.
const SCENARIOS_PER_AXIS: usize = 160;

/// Largest reachable space the plain reference enumeration explores
/// (philosophers(6) has 47 288 states).
const REFERENCE_CAP: usize = 100_000;

/// Both questions, in the order every pass asks them.
const KINDS: [AnalysisKind; 2] = [AnalysisKind::Completability, AnalysisKind::Semisoundness];

/// The answer of a reference the solver did not compute.
#[derive(Debug, Clone, Copy, Default)]
struct Expected {
    completable: Option<bool>,
    semisound: Option<bool>,
}

/// How a form's reference answer is obtained.
enum Oracle {
    /// A sampled scenario: the generator's duty-aware oracle.
    Scenario(idar_gen::ScenarioSpec),
    /// Thm 5.1: completable iff the CNF is satisfiable.
    NpSat(idar_logic::Cnf),
    /// Thm 5.6: semi-sound iff the CNF is unsatisfiable.
    ConpSat(idar_logic::Cnf),
    /// Cor. 4.7: semi-sound iff the CNF is satisfiable.
    ResetBuild(idar_logic::Cnf),
    /// Thm 5.3: semi-sound iff the QBF is false.
    Qsat(idar_logic::Qbf),
    /// Thm 4.6: completable iff the protocol can deadlock.
    Philosophers(usize),
    /// Thm 4.1: completable iff the machine halts.
    Machine(idar_machines::TwoCounterMachine),
}

struct Item {
    name: String,
    form: GuardedForm,
    oracle: Oracle,
}

/// The budget every `idar-server` request runs under by default
/// (multiplicity cap 1, 20 000 states).
pub fn server_budget() -> Budget {
    idar_server::ServerConfig::default().budget
}

/// The default `idar-server`'s workers and the explorer threads it
/// grants each request's analysis: `split_threads(threads, concurrency)`.
pub fn server_split() -> (usize, usize) {
    let config = idar_server::ServerConfig::default();
    idar_solver::split_threads(config.threads, config.concurrency)
}

fn corpus(seed: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for axis in ScenarioAxis::ALL {
        for (k, s) in idar_gen::scenario_stream(axis, seed, SCENARIOS_PER_AXIS)
            .into_iter()
            .enumerate()
        {
            let spec = axis.sample(s);
            items.push(Item {
                name: format!("{axis}/{k}"),
                form: spec.build("verify").form,
                oracle: Oracle::Scenario(spec),
            });
        }
    }
    let sub = |tag: u64| split_mix(seed ^ split_mix(tag));
    for (k, vars) in [4usize, 6, 8, 10].into_iter().enumerate() {
        let cnf = idar_logic::gen::random_3cnf(sub(0x100 + k as u64), vars, 3 * vars);
        items.push(Item {
            name: format!("np_sat/v{vars}"),
            form: idar_reductions::sat_to_completability::reduce(&cnf),
            oracle: Oracle::NpSat(cnf),
        });
    }
    for (k, vars) in [3usize, 4, 5, 6].into_iter().enumerate() {
        let cnf = idar_logic::gen::random_3cnf(sub(0x200 + k as u64), vars, 3 * vars);
        items.push(Item {
            name: format!("conp_sat/v{vars}"),
            form: idar_reductions::sat_to_non_semisoundness::reduce(&cnf),
            oracle: Oracle::ConpSat(cnf),
        });
    }
    for (k, vars) in [3usize, 4, 5].into_iter().enumerate() {
        let cnf = idar_logic::gen::random_3cnf(sub(0x300 + k as u64), vars, 3 * vars);
        let base = idar_reductions::sat_to_completability::reduce(&cnf);
        items.push(Item {
            name: format!("depth1_reset_build/v{vars}"),
            form: idar_reductions::completability_to_semisoundness::reduce(&base)
                .expect("the Thm 5.1 form is depth 1"),
            oracle: Oracle::ResetBuild(cnf),
        });
    }
    for (k, n) in [1usize, 2, 3].into_iter().enumerate() {
        let qbf = idar_logic::gen::random_qsat2k(sub(0x400 + k as u64), 1, n, 3 * n);
        items.push(Item {
            name: format!("qsat_semisound/k1n{n}"),
            form: idar_reductions::qsat_to_semisoundness::reduce(&qbf)
                .expect("qsat2k shape")
                .form,
            oracle: Oracle::Qsat(qbf),
        });
    }
    for n in [5usize, 6] {
        items.push(Item {
            name: format!("depth1_philosophers/n{n}"),
            form: idar_reductions::deadlock_to_completability::reduce(
                &idar_deadlock::dining_philosophers(n),
            )
            .expect("philosophers have no self-loop pairs"),
            oracle: Oracle::Philosophers(n),
        });
    }
    let machines = [
        (
            "count_up(2)",
            idar_machines::library::count_up_then_accept(2),
        ),
        ("transfer(2)", idar_machines::library::transfer_c1_to_c2(2)),
        ("even(4)", idar_machines::library::accept_iff_even(4)),
    ];
    for (name, machine) in machines {
        items.push(Item {
            name: format!("tcm/{name}"),
            form: idar_reductions::tcm_to_completability::reduce(&machine).form,
            oracle: Oracle::Machine(machine),
        });
    }
    items
}

/// The reference answers of one item: the reduction's own source
/// problem, solved by an engine the solver does not use, plus a plain
/// enumeration of the reachable space for the families whose space is
/// finite (scenarios and philosophers; the SAT, QBF and machine forms
/// grow without bound, so their other question has no reference).
fn expected(item: &Item) -> Result<Expected, String> {
    let plain = match item.oracle {
        Oracle::Scenario(_) | Oracle::Philosophers(_) => Some(
            reference::depth1(&item.form, REFERENCE_CAP)
                .ok_or(format!("{}: plain enumeration hit its cap", item.name))?,
        ),
        _ => None,
    };
    let mut e = Expected {
        completable: plain.map(|a| a.completable),
        semisound: plain.map(|a| a.semisound),
    };
    let agree = |field: &mut Option<bool>, value: bool, source: &str| {
        if field.is_some_and(|v| v != value) {
            return Err(format!(
                "{}: {source} disagrees with the plain enumeration",
                item.name
            ));
        }
        *field = Some(value);
        Ok(())
    };
    match &item.oracle {
        Oracle::Scenario(spec) => {
            let c = idar_gen::constraints::constrained_completable(spec, REFERENCE_CAP)
                .ok_or(format!("{}: scenario oracle hit its cap", item.name))?;
            agree(&mut e.completable, c, "scenario oracle")?;
        }
        Oracle::NpSat(cnf) => agree(&mut e.completable, reference::dpll_sat(cnf), "DPLL")?,
        Oracle::ConpSat(cnf) => agree(&mut e.semisound, !reference::dpll_sat(cnf), "DPLL")?,
        Oracle::ResetBuild(cnf) => agree(&mut e.semisound, reference::dpll_sat(cnf), "DPLL")?,
        Oracle::Qsat(qbf) => agree(&mut e.semisound, !qbf.eval(), "QBF evaluation")?,
        Oracle::Philosophers(n) => {
            let deadlock = idar_deadlock::dining_philosophers(*n)
                .find_reachable_deadlock()
                .deadlock
                .is_some();
            agree(&mut e.completable, deadlock, "deadlock checker")?;
        }
        Oracle::Machine(m) => {
            let halts = m.run(1_000_000).halted();
            if !halts {
                return Err(format!("{}: corpus machines must halt", item.name));
            }
            agree(&mut e.completable, halts, "machine simulator")?;
        }
    }
    Ok(e)
}

/// Check one report against the references and against its own
/// certificate: a completability `Holds` carries a run that must replay
/// to a complete instance.
fn check(item: &Item, e: &Expected, r: &AnalysisReport) -> Result<(), String> {
    let want = match r.kind {
        AnalysisKind::Completability => e.completable,
        _ => e.semisound,
    };
    let got = match r.verdict {
        Verdict::Holds => Some(true),
        Verdict::Fails => Some(false),
        Verdict::Unknown => None,
    };
    if let (Some(w), Some(g)) = (want, got) {
        if w != g {
            return Err(format!(
                "{} {}: {} by {}, reference says {w}",
                item.name, r.kind, r.verdict, r.method
            ));
        }
    }
    if r.kind == AnalysisKind::Completability && r.verdict == Verdict::Holds {
        if let Some(run) = &r.run {
            if !item.form.is_complete_run(run) {
                return Err(format!(
                    "{} completability: witness run is not complete",
                    item.name
                ));
            }
        }
    }
    Ok(())
}

/// An analysis's latency in milliseconds and its report.
type Timed = (f64, AnalysisReport);

/// One timed pass over every (form, question), asked from index `start`
/// round to `start - 1`: latency in ms, verdict and method per analysis,
/// in index order.
fn pass(requests: &[AnalysisRequest], start: usize) -> Vec<Timed> {
    let mut out: Vec<Option<Timed>> = (0..requests.len()).map(|_| None).collect();
    for k in 0..requests.len() {
        let i = (start + k) % requests.len();
        let t0 = Instant::now();
        let r = analyze(black_box(&requests[i]));
        out[i] = Some((stats::ms(t0.elapsed()), r));
    }
    out.into_iter()
        .map(|t| t.expect("every index asked"))
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let budget = server_budget();
    let (callers, threads) = server_split();
    let ((items, requests), setup_s) = stats::timed_setup(|| {
        let items = corpus(seed);
        let requests: Vec<AnalysisRequest> = items
            .iter()
            .flat_map(|it| {
                KINDS.map(|k| {
                    AnalysisRequest::new(it.form.clone(), k)
                        .with_budget(budget.clone())
                        .with_threads(threads)
                })
            })
            .collect();
        (items, requests)
    });
    let mut out = Run::new(setup_s);
    let mut refs = Vec::with_capacity(items.len());
    let mut unchecked = 0usize;
    for item in &items {
        match expected(item) {
            Ok(e) => {
                unchecked +=
                    usize::from(e.completable.is_none()) + usize::from(e.semisound.is_none());
                refs.push(e);
            }
            Err(msg) => {
                out.mismatch(msg);
                return out;
            }
        }
    }
    out.context(format!(
        "forms={} analyses_per_pass={} without_reference={unchecked}",
        items.len(),
        requests.len()
    ));

    // The first pass fixes each analysis's verdict and method; every later
    // pass must repeat them.
    let mut first: Vec<(Verdict, Method)> = Vec::new();
    let mut record = |out: &mut Run, results: &[Timed]| {
        for (i, (_, r)) in results.iter().enumerate() {
            out.attempted += 1;
            let item = &items[i / KINDS.len()];
            if let Err(e) = check(item, &refs[i / KINDS.len()], r) {
                out.mismatch(e);
            }
            if first.len() < results.len() {
                first.push((r.verdict, r.method));
            } else if first[i] != (r.verdict, r.method) {
                out.mismatch(format!(
                    "{} {}: {} by {} after {} by {}",
                    item.name, r.kind, r.verdict, r.method, first[i].0, first[i].1
                ));
            }
        }
    };

    if trace {
        traced(&requests, seconds, &mut out, &mut record);
        // `serve` is not a gated workload, so the server's layers are
        // measured in this traced run.
        out.absorb(crate::serve::run(seed, seconds, true));
        return out;
    }

    // One closed loop of whole passes per caller, so every pass has the
    // same mix. This thread checks each pass as it arrives.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut rss = Vec::new();
    let mut decided = 0usize;
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<Vec<Timed>>();
    std::thread::scope(|scope| {
        for c in 0..callers {
            let (tx, requests) = (tx.clone(), &requests);
            // Callers start at evenly spaced points of the corpus, so the
            // few heavy analyses seldom run at the same time.
            let start = c * requests.len() / callers;
            scope.spawn(move || {
                while started.elapsed().as_secs_f64() < seconds {
                    if tx.send(pass(requests, start)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        stats::reset_peak_rss();
        for results in rx {
            // A round is the time between two finished passes.
            rss.push(stats::peak_rss_mb());
            stats::reset_peak_rss();
            record(&mut out, &results);
            decided += results
                .iter()
                .filter(|(_, r)| r.verdict != Verdict::Unknown)
                .count();
            passes.push(results.into_iter().map(|(ms, _)| ms).collect());
        }
    });
    out.context(format!("callers={callers} explorer_threads={threads}"));

    let n: usize = passes.iter().map(Vec::len).sum();
    let m = &mut out.metrics;
    let all: Vec<f64> = passes.concat();
    stats::put_latency(m, "analyze", &all);
    // Every caller is always busy, so together they finish `callers`
    // analyses per mean analysis time.
    m.put(
        "analyses_per_s",
        "1/s",
        (callers * n) as f64 * 1e3 / all.iter().sum::<f64>(),
        n,
    );
    stats::put_round_rss(m, &rss);
    m.put("decided_share", "ratio", decided as f64 / n as f64, n);
    m.put("failed_share", "ratio", 0.0, n);
    out.alias("p50_ms", "analyze_p50_ms");
    out.alias("p90_ms", "analyze_p90_ms");
    out.alias("ops_per_s", "analyses_per_s");
    out
}

/// Per-method time and call count.
#[derive(Default)]
struct MethodTime {
    total: Duration,
    calls: usize,
}

/// The per-layer metrics of each method: (mean ms per call, calls per
/// pass).
const METHOD_METRICS: [(Method, &str, &str); 5] = [
    (
        Method::Depth1Canonical,
        "solver.depth1.ms",
        "solver.depth1.calls",
    ),
    (
        Method::BoundedExploration,
        "solver.explore.bounded_ms",
        "solver.explore.bounded_calls",
    ),
    (Method::NpTwoPhase, "solver.np.ms", "solver.np.calls"),
    (
        Method::PositiveSaturation,
        "solver.positive.ms",
        "solver.positive.calls",
    ),
    (
        Method::ReachableEnumeration,
        "solver.reachable.ms",
        "solver.reachable.calls",
    ),
];

/// The traced run: alternate an untraced pass with a pass that splits
/// each analysis into `fragment::classify`, `screen`, `prune` and an
/// `analyze` with `skip_screen` on the pruned form, until the time is
/// spent. Each split analysis must return the untraced verdict and method.
fn traced(
    requests: &[AnalysisRequest],
    seconds: f64,
    out: &mut Run,
    record: &mut dyn FnMut(&mut Run, &[Timed]),
) {
    let (mut classify, mut screen, mut prune) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut analyses, mut screen_decided, mut pruned, mut dead_rules) = (0usize, 0, 0, 0);
    let (mut states, mut unknown_by_limit) = (0usize, 0usize);
    let mut by_method: HashMap<Method, MethodTime> = HashMap::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut passes = 0usize;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        passes += 1;
        let plain = pass(requests, 0);
        untraced_s += plain.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3;
        record(out, &plain);
        let mut split = Vec::with_capacity(requests.len());
        let t_pass = Instant::now();
        for req in requests {
            analyses += 1;
            let t0 = Instant::now();
            let fragment = idar_core::fragment::classify(&req.form);
            let t1 = Instant::now();
            let s = idar_solver::screen(&req.form);
            let t2 = Instant::now();
            classify += t1 - t0;
            screen += t2 - t1;
            dead_rules += s.dead_rules.len();
            let outcome = match req.kind {
                AnalysisKind::Completability => &s.completability,
                _ => &s.semisoundness,
            };
            if let ScreenOutcome::Decided(verdict, run) = outcome {
                screen_decided += 1;
                split.push(AnalysisReport {
                    kind: req.kind,
                    fragment,
                    verdict: *verdict,
                    method: Method::StaticScreen,
                    run: run.clone(),
                    sat_witness: None,
                    stats: Default::default(),
                    cache: idar_solver::CacheProvenance::Uncached,
                    threads: 0,
                    screen: Some(s.stats),
                });
                continue;
            }
            let t0 = Instant::now();
            let form = if s.dead_rules.is_empty() {
                req.form.clone()
            } else {
                pruned += 1;
                idar_solver::prune(&req.form, &s.dead_rules)
            };
            prune += t0.elapsed();
            let skip = AnalysisRequest {
                form,
                kind: req.kind,
                budget: Budget {
                    skip_screen: true,
                    ..req.budget.clone()
                },
                threads: req.threads,
            };
            let t0 = Instant::now();
            let r = analyze(&skip);
            let dt = t0.elapsed();
            let slot = by_method.entry(r.method).or_default();
            slot.total += dt;
            slot.calls += 1;
            states += r.stats.states;
            unknown_by_limit +=
                usize::from(r.verdict == Verdict::Unknown && r.stats.limit_hit.is_some());
            split.push(r);
        }
        traced_s += t_pass.elapsed().as_secs_f64();
        // Same verdict and method as the untraced pass: `record` compares
        // against the first pass it saw.
        let split: Vec<Timed> = split.into_iter().map(|r| (0.0, r)).collect();
        record(out, &split);
    }

    let m: &mut Metrics = &mut out.metrics;
    let n = analyses as f64;
    m.put(
        "core.fragment.classify_us",
        "us",
        classify.as_secs_f64() * 1e6 / n,
        analyses,
    );
    m.put(
        "solver.screen.ms",
        "ms",
        screen.as_secs_f64() * 1e3 / n,
        analyses,
    );
    m.put(
        "solver.screen.decided_share",
        "ratio",
        screen_decided as f64 / n,
        analyses,
    );
    m.put(
        "solver.screen.prune_us",
        "us",
        prune.as_secs_f64() * 1e6 / pruned.max(1) as f64,
        pruned,
    );
    // Counts are per pass, so they do not grow with the run's length.
    let per_pass = |count: usize| count as f64 / passes as f64;
    for (method, time_name, calls_name) in METHOD_METRICS {
        let (total, calls) = by_method
            .get(&method)
            .map_or((Duration::ZERO, 0), |t| (t.total, t.calls));
        m.put(
            time_name,
            "ms",
            total.as_secs_f64() * 1e3 / calls.max(1) as f64,
            calls,
        );
        m.put(calls_name, "count", per_pass(calls), passes);
    }
    m.put("solver.states_explored", "count", per_pass(states), passes);
    m.put(
        "solver.screen.dead_rules",
        "count",
        per_pass(dead_rules),
        passes,
    );
    m.put(
        "solver.unknown_by_limit",
        "count",
        per_pass(unknown_by_limit),
        passes,
    );
    m.put(
        "bench.trace_overhead_share",
        "ratio",
        traced_s / untraced_s - 1.0,
        analyses,
    );
}
