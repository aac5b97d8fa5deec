//! Randomised round-trip tests for every reduction, at sizes above the
//! per-crate unit tests: compile a problem instance, decide the resulting
//! guarded form, compare with the baseline solver.

use idar::logic::gen::{random_3cnf, random_qsat2k, Rng, XorShift};
use idar::reductions::*;
use idar::solver::semisound::{semisoundness, SemisoundnessOptions};
use idar::solver::{completability, CompletabilityOptions, Verdict};

fn verdict(b: bool) -> Verdict {
    if b {
        Verdict::Holds
    } else {
        Verdict::Fails
    }
}

#[test]
fn thm_5_1_sat_to_completability() {
    let mut sat_count = 0;
    for seed in 0..30u64 {
        let cnf = random_3cnf(seed * 13 + 1, 6, 14 + (seed as usize % 12));
        let expected = idar::logic::sat_solve(&cnf).is_some();
        sat_count += expected as usize;
        let g = sat_to_completability::reduce(&cnf);
        let r = completability(&g, &CompletabilityOptions::default());
        assert_eq!(r.verdict, verdict(expected), "seed {seed}");
    }
    assert!(sat_count > 0 && sat_count < 30, "family should be mixed");
}

#[test]
fn thm_5_6_sat_to_semisoundness() {
    for seed in 0..20u64 {
        let cnf = random_3cnf(seed * 7 + 3, 5, 10 + (seed as usize % 12));
        let expected_semisound = idar::logic::sat_solve(&cnf).is_none();
        let g = sat_to_non_semisoundness::reduce(&cnf);
        let r = semisoundness(&g, &SemisoundnessOptions::default());
        assert_eq!(r.verdict, verdict(expected_semisound), "seed {seed}");
    }
}

#[test]
fn thm_5_3_qsat_to_semisoundness_k1() {
    for seed in 0..15u64 {
        let qbf = random_qsat2k(seed, 1, 2, 8);
        let q = qsat_to_semisoundness::reduce(&qbf).unwrap();
        let r = semisoundness(&q.form, &SemisoundnessOptions::default());
        assert_eq!(r.verdict, verdict(!qbf.eval()), "seed {seed}");
    }
}

#[test]
fn thm_5_3_qsat_k2_witness_protocol() {
    for seed in 0..12u64 {
        let qbf = random_qsat2k(seed * 3 + 2, 2, 1, 6);
        let q = qsat_to_semisoundness::reduce(&qbf).unwrap();
        match qsat_to_semisoundness::strategy_witness(&q, &qbf) {
            Some(w) => {
                assert!(qbf.eval(), "witness only for true QBFs");
                let run = qsat_to_semisoundness::run_to(&q, &w);
                let replay = q.form.replay(&run).unwrap();
                assert!(!qsat_to_semisoundness::ucfree_completable(
                    &q,
                    replay.last()
                ));
            }
            None => assert!(!qbf.eval(), "true QBFs must yield a witness"),
        }
    }
}

#[test]
fn thm_4_6_deadlock_roundtrip_philosophers() {
    for n in 2..=4 {
        let inst = idar::deadlock::dining_philosophers(n);
        let baseline = inst.find_reachable_deadlock().deadlock.is_some();
        let g = deadlock_to_completability::reduce(&inst).unwrap();
        let r = completability(&g, &CompletabilityOptions::default());
        assert_eq!(r.verdict, verdict(baseline), "philosophers {n}");
    }
}

#[test]
fn cor_4_7_roundtrip_on_sat_forms() {
    for seed in 0..10u64 {
        let cnf = random_3cnf(seed + 500, 4, 9);
        let base = sat_to_completability::reduce(&cnf);
        let c = completability(&base, &CompletabilityOptions::default()).verdict;
        let g2 = completability_to_semisoundness::reduce(&base).unwrap();
        let s = semisoundness(&g2, &SemisoundnessOptions::default()).verdict;
        assert_eq!(c, s, "seed {seed}: Cor 4.7 equivalence");
    }
}

#[test]
fn sec_4_2_positive_completion_preserves_both_properties() {
    for seed in 0..8u64 {
        let cnf = random_3cnf(seed + 900, 4, 8);
        let base = sat_to_completability::reduce(&cnf);
        let g2 = positive_completion::reduce(&base).unwrap();
        let before_c = completability(&base, &CompletabilityOptions::default()).verdict;
        let after_c = completability(&g2, &CompletabilityOptions::default()).verdict;
        assert_eq!(before_c, after_c, "seed {seed} completability");
        let before_s = semisoundness(&base, &SemisoundnessOptions::default()).verdict;
        let after_s = semisoundness(&g2, &SemisoundnessOptions::default()).verdict;
        assert_eq!(before_s, after_s, "seed {seed} semisoundness");
    }
}

#[test]
fn cor_4_2_deletion_elimination_on_random_depth1_forms() {
    // Random small depth-1 forms with ¬-guarded additions (finite spaces)
    // and genuine deletions; verdicts must survive the transformation.
    use idar::core::{AccessRules, Formula, GuardedForm, Instance, Right, Schema};
    use std::sync::Arc;
    let labels = ["a", "b", "c"];
    let mut rng = XorShift::new(4242);
    let mut decided = 0;
    for round in 0..12 {
        let schema = Arc::new(Schema::parse("a, b, c").unwrap());
        let mut rules = AccessRules::new(&schema);
        for l in labels {
            let e = schema.resolve(l).unwrap();
            // Addition guarded by ¬l and possibly another label's presence.
            let other = labels[rng.below(3)];
            let add = if rng.bool() {
                Formula::parse(&format!("!{l}")).unwrap()
            } else {
                Formula::parse(&format!("!{l} & {other}")).unwrap()
            };
            rules.set(Right::Add, e, add);
            // Deletion guarded by a random label or never.
            if rng.bool() {
                let trigger = labels[rng.below(3)];
                rules.set(Right::Del, e, Formula::label(trigger));
            }
        }
        let mut init = Instance::empty(schema.clone());
        if rng.bool() {
            init.add_child_by_label(idar::core::InstNodeId::ROOT, "a")
                .unwrap();
        }
        let completion = match rng.below(3) {
            0 => Formula::parse("a & !b").unwrap(),
            1 => Formula::parse("b & c & !a").unwrap(),
            _ => Formula::parse("!a & !b & c").unwrap(),
        };
        let g = GuardedForm::new(schema, rules, init, completion);
        let before = completability(&g, &CompletabilityOptions::default()).verdict;
        let g2 = deletion_elimination::reduce(&g).unwrap();
        let after = completability(&g2, &CompletabilityOptions::default()).verdict;
        // The transformed form lives in A− depth 2: bounded exploration.
        // Its space is finite here (all adds ¬-guarded), so verdicts must
        // agree whenever the explorer closes.
        if after != Verdict::Unknown {
            assert_eq!(before, after, "round {round}");
            decided += 1;
        }
    }
    assert!(decided >= 8, "most rounds should close ({decided}/12)");
}

#[test]
fn dimacs_through_the_reduction_pipeline() {
    // A standard-format instance flows through parse → Thm 5.1 → solver,
    // and through Thm 5.6 → semi-soundness, agreeing with DPLL on both.
    let text = "c pigeonhole-ish\np cnf 4 6\n1 2 0\n3 4 0\n-1 -3 0\n-1 -4 0\n-2 -3 0\n-2 -4 0\n";
    let cnf = idar::logic::dimacs::parse(text).unwrap();
    let sat = idar::logic::sat_solve(&cnf).is_some();
    assert!(!sat, "PHP(2,2)-style instance is UNSAT");

    let g = sat_to_completability::reduce(&cnf);
    let c = completability(&g, &CompletabilityOptions::default());
    assert_eq!(c.verdict, verdict(sat));

    let g = sat_to_non_semisoundness::reduce(&cnf);
    let s = semisoundness(&g, &SemisoundnessOptions::default());
    assert_eq!(s.verdict, verdict(!sat));

    // Round-trip the serialisation too.
    let back = idar::logic::dimacs::parse(&idar::logic::dimacs::render(&cnf)).unwrap();
    assert_eq!(cnf, back);
}

#[test]
fn thm_4_1_machine_suite_roundtrip() {
    use idar::machines::library;
    use idar::solver::{ExploreLimits, Explorer};
    // Halting and non-halting machines; verdicts must track halting
    // (bounded verdicts may be Unknown for non-halting, never Holds).
    let suite: Vec<(idar::machines::TwoCounterMachine, bool)> = vec![
        (library::count_up_then_accept(1), true),
        (library::transfer_c1_to_c2(1), true),
        (library::accept_iff_even(2), true),
        (library::accept_iff_even(1), false),
        (library::ping_pong(), false),
    ];
    for (machine, halts) in suite {
        let compiled = tcm_to_completability::reduce(&machine);
        let limits = ExploreLimits {
            max_states: if halts { 500_000 } else { 15_000 },
            max_state_size: 128,
            ..Default::default()
        };
        let r = completability(&compiled.form, &CompletabilityOptions::with_limits(limits));
        if halts {
            assert_eq!(r.verdict, Verdict::Holds);
            // The explorer's own goal run replays to a complete instance.
            let out = Explorer::new(&compiled.form, limits).find(|i| compiled.form.is_complete(i));
            let run = out.goal_run.expect("a halting machine's run is found");
            assert!(compiled.form.is_complete_run(&run), "goal run replays");
        } else {
            assert_ne!(r.verdict, Verdict::Holds);
        }
    }
    // Goal-free searches: the ping-pong loop never grows the counters, so
    // its space is finite and the search closes (an exact negative); the
    // diverging machine increments forever, so its search cannot close.
    for (machine, closes) in [(library::ping_pong(), true), (library::diverge(), false)] {
        let form = tcm_to_completability::reduce(&machine).form;
        let limits = ExploreLimits {
            max_states: 15_000,
            max_state_size: 128,
            ..Default::default()
        };
        let out = Explorer::new(&form, limits).find(|i| form.is_complete(i));
        assert!(out.goal_run.is_none());
        assert_eq!(out.stats.closed, closes);
    }
}
