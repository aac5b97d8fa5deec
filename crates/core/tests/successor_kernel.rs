//! Differential tests of the successor kernel's core layers against
//! their reference implementations, on random `idar-gen` forms and the
//! instances reachable in them:
//!
//! * schema-resolved guards ([`Guard`], and the compiled rule table
//!   behind `allowed_updates` / `is_allowed` / `is_complete`) against
//!   the reference evaluator [`formula::holds`];
//! * in-place apply/undo against `clone()` + `apply_unchecked`, the
//!   buffer-reusing `clone_from` against the parent it copies, and the
//!   scratch-encoded keys against the allocating `canon_key()` /
//!   `ordered_key()`.

use idar_core::formula::{self, holds};
use idar_core::{
    Formula, Guard, GuardedForm, InstNodeId, Instance, KeyScratch, PathExpr, Right, Schema, Update,
};
use idar_gen::{generate, FragmentSpec, GenConfig};
use std::collections::{HashSet, VecDeque};

/// Seeds per fragment.
const FORMS: u64 = 40;
/// Reachable instances examined per form.
const STATES: usize = 60;

/// A tiny xorshift, so random formulas need no extra dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A random formula over the schema's labels plus one label (`zz`) the
/// schema lacks: `..` anywhere (so also at the root), `p/q` chains and
/// nested filters.
fn random_formula(rng: &mut Rng, labels: &[String], budget: usize) -> Formula {
    if budget <= 1 {
        return match rng.below(6) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::Path(random_path(rng, labels, 1)),
        };
    }
    match rng.below(5) {
        0 => random_formula(rng, labels, budget - 1).not(),
        1 => random_formula(rng, labels, budget / 2).and(random_formula(rng, labels, budget / 2)),
        2 => random_formula(rng, labels, budget / 2).or(random_formula(rng, labels, budget / 2)),
        _ => Formula::Path(random_path(rng, labels, budget - 1)),
    }
}

fn random_path(rng: &mut Rng, labels: &[String], budget: usize) -> PathExpr {
    if budget <= 1 {
        return match rng.below(labels.len() + 2) {
            0 => PathExpr::Parent,
            1 => PathExpr::Label("zz".into()),
            k => PathExpr::Label(labels[k - 2].clone()),
        };
    }
    match rng.below(3) {
        0 => random_path(rng, labels, budget / 2).then(random_path(rng, labels, budget / 2)),
        1 => random_path(rng, labels, budget / 2).filtered(random_formula(rng, labels, budget / 2)),
        _ => random_path(rng, labels, 1),
    }
}

/// Every form of the test corpus: `FORMS` seeds of every fragment.
fn corpus() -> impl Iterator<Item = (String, GuardedForm)> {
    FragmentSpec::ALL.into_iter().flat_map(|fragment| {
        (0..FORMS).map(move |seed| {
            let form = generate(&GenConfig::new(fragment), seed);
            (format!("{}/{seed}", fragment.name()), form)
        })
    })
}

/// Up to `STATES` instances reachable from the form's initial instance
/// (BFS, deduplicated by isomorphism code), each expanded through the
/// reference path: `allowed_updates` checked against a reference
/// enumeration, successors built by `clone()` + `apply_unchecked`.
fn reachable(form: &GuardedForm) -> Vec<Instance> {
    let mut seen = HashSet::from([form.initial().iso_code()]);
    let mut queue = VecDeque::from([form.initial().clone()]);
    let mut out = Vec::new();
    while let Some(inst) = queue.pop_front() {
        if out.len() == STATES {
            break;
        }
        let updates = form.allowed_updates(&inst);
        assert_eq!(updates, reference_updates(form, &inst));
        for u in &updates {
            assert!(form.is_allowed(&inst, u));
            let mut next = inst.clone();
            form.apply_unchecked(&mut next, u)
                .expect("allowed updates apply");
            if next.live_count() <= 24 && seen.insert(next.iso_code()) {
                queue.push_back(next);
            }
        }
        out.push(inst);
    }
    out
}

/// `allowed_updates` spelled out over the reference evaluator.
fn reference_updates(form: &GuardedForm, inst: &Instance) -> Vec<Update> {
    let mut out = Vec::new();
    for n in inst.live_nodes() {
        for &edge in form.schema().children(inst.schema_node(n)) {
            if holds(inst, n, form.rules().get(Right::Add, edge)) {
                out.push(Update::Add { parent: n, edge });
            }
        }
        if let Some(parent) = inst.parent(n) {
            let guard = form.rules().get(Right::Del, inst.schema_node(n));
            if inst.is_leaf(n) && holds(inst, parent, guard) {
                out.push(Update::Del { node: n });
            }
        }
    }
    out
}

fn labels(schema: &Schema) -> Vec<String> {
    schema
        .node_ids()
        .map(|n| schema.label(n).to_string())
        .collect()
}

/// Compiled at each live node's schema node, a formula agrees with the
/// reference evaluator there.
fn assert_agrees(schema: &Schema, inst: &Instance, f: &Formula, what: &str) {
    for n in inst.live_nodes() {
        let guard = Guard::compile(schema, inst.schema_node(n), f);
        assert_eq!(
            guard.holds(inst, n),
            holds(inst, n, f),
            "{what}: `{f}` at {n} of {:?}",
            inst.to_text()
        );
    }
}

#[test]
fn compiled_guards_agree_with_the_reference_evaluator() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut checked = 0usize;
    for (name, form) in corpus() {
        let schema = form.schema();
        let labels = labels(schema);
        let extra: Vec<Formula> = (0..8)
            .map(|k| random_formula(&mut rng, &labels, 2 + k))
            .collect();
        for inst in reachable(&form) {
            for e in schema.edge_ids() {
                for right in [Right::Add, Right::Del] {
                    let rule = form.rules().get(right, e);
                    assert_agrees(schema, &inst, rule, &format!("{name} {right} {e}"));
                }
            }
            assert_agrees(
                schema,
                &inst,
                form.completion(),
                &format!("{name} completion"),
            );
            assert_eq!(
                form.is_complete(&inst),
                formula::holds_at_root(&inst, form.completion()),
                "{name}"
            );
            for f in &extra {
                assert_agrees(schema, &inst, f, &name);
            }
            checked += 1;
        }
    }
    assert!(checked > 1000, "only {checked} instances checked");
}

#[test]
fn guard_edge_cases_agree_with_the_reference_evaluator() {
    let schema = std::sync::Arc::new(Schema::parse("a(n, p(b, e)), s, d(a, r(r))").unwrap());
    let inst = Instance::parse(schema.clone(), "a(n, p(b), p(b, e)), s, d(r(r)), d(a)").unwrap();
    for text in [
        "..",
        "../s",
        "..[a]",
        "zz",
        "a/zz | !zz",
        "a/p/b/e",
        "a[p[b[..[e]]]]",
        "a/p[b & e]/../n",
        "(a/p)[b]/..",
        "d[r/r[..[..[a]]]]",
        "d/r/r/../../a",
        "../../..",
        "!a/p[!b | !e]",
        "!f | d[a | r]",
        "..[s]/a/p[..[n]]",
        "r | ../r | r/r",
        "true & !false",
    ] {
        assert_agrees(&schema, &inst, &Formula::parse(text).unwrap(), text);
    }
}

#[test]
fn in_place_successors_match_clone_and_apply() {
    let mut scratch = KeyScratch::default();
    let mut edges = 0usize;
    // Reloaded with every parent in turn, across schemas and sizes.
    let mut reloaded = Instance::empty(std::sync::Arc::new(Schema::parse("x(y)").unwrap()));
    for (name, form) in corpus() {
        for parent in reachable(&form) {
            reloaded.clone_from(&parent);
            assert_eq!(reloaded.to_text(), parent.to_text(), "{name}");
            assert_eq!(reloaded.slot_count(), parent.slot_count(), "{name}");
            assert_eq!(reloaded.live_count(), parent.live_count(), "{name}");
            assert_eq!(
                form.allowed_updates(&reloaded),
                form.allowed_updates(&parent)
            );
            let (text, slots, live) = (parent.to_text(), parent.slot_count(), parent.live_count());
            let (canon, ordered) = (parent.canon_key(), parent.ordered_key());
            let mut work = parent.clone();
            for u in form.allowed_updates(&parent) {
                let mut expected = parent.clone();
                let added = form.apply_unchecked(&mut expected, &u).unwrap();
                let undo = work.apply_in_place(&u).unwrap();
                assert_eq!(work.to_text(), expected.to_text(), "{name}: {u}");
                assert_eq!(work.slot_count(), expected.slot_count(), "{name}: {u}");
                if let Some(id) = added {
                    assert_eq!(undo, idar_core::Undo::Added(id));
                }
                let key = expected.canon_key();
                let fp = work.canon_key_into(&mut scratch);
                assert_eq!(
                    (fp, scratch.words()),
                    (key.fingerprint(), key.words()),
                    "{name}: {u}"
                );
                let key = expected.ordered_key();
                let fp = work.ordered_key_into(&mut scratch);
                assert_eq!(
                    (fp, scratch.words()),
                    (key.fingerprint(), key.words()),
                    "{name}: {u}"
                );
                work.undo(undo);
                assert_eq!(work.to_text(), text, "{name}: undo {u}");
                assert_eq!(work.slot_count(), slots, "{name}: undo {u}");
                assert_eq!(work.live_count(), live, "{name}: undo {u}");
                assert_eq!(work.canon_key(), canon, "{name}: undo {u}");
                assert_eq!(work.ordered_key(), ordered, "{name}: undo {u}");
                edges += 1;
            }
        }
    }
    assert!(edges > 1000, "only {edges} successors checked");
}

/// Deleting a middle sibling and undoing it restores the child order.
#[test]
fn undo_restores_sibling_order() {
    let schema = std::sync::Arc::new(Schema::parse("a, b, c").unwrap());
    let mut inst = Instance::parse(schema, "c, a, b, a").unwrap();
    let before = inst.to_text();
    for node in inst.children(InstNodeId::ROOT).to_vec() {
        let undo = inst.apply_in_place(&Update::Del { node }).unwrap();
        assert_eq!(inst.live_count(), 4, "root and three siblings remain");
        inst.undo(undo);
        assert_eq!(inst.to_text(), before);
    }
}
