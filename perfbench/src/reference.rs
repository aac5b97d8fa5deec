//! Answers the program under test does not compute, used to check its
//! verdicts.
//!
//! Only the form semantics of `idar-core` (which updates a guard allows,
//! what applying one does, whether an instance is complete) is shared
//! with the solver. Deduplication, search order, method selection, the
//! screener and every solver engine are bypassed.

use idar_core::{GuardedForm, InstNodeId, Instance};
use std::collections::{HashMap, VecDeque};

/// The exact answer for a depth-1 form whose reachable space closes
/// within `cap` states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Depth1Answer {
    pub completable: bool,
    pub semisound: bool,
    pub states: usize,
}

/// A depth-1 instance up to isomorphism: the sorted multiset of its root
/// children's schema edges.
fn depth1_key(inst: &Instance) -> Vec<u32> {
    let mut k: Vec<u32> = inst
        .children(InstNodeId::ROOT)
        .iter()
        .map(|&c| inst.schema_node(c).index() as u32)
        .collect();
    k.sort_unstable();
    k
}

/// Plain breadth-first enumeration of every reachable instance of a
/// depth-1 form, then backward reachability from the complete ones.
/// `None` when the form is deeper than one level or the space exceeds
/// `cap` states.
pub fn depth1(form: &GuardedForm, cap: usize) -> Option<Depth1Answer> {
    if form.schema().depth() > 1 {
        return None;
    }
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut states: Vec<Instance> = Vec::new();
    let mut rev: Vec<Vec<usize>> = Vec::new();
    index.insert(depth1_key(form.initial()), 0);
    states.push(form.initial().clone());
    rev.push(Vec::new());
    let mut queue = VecDeque::from([0usize]);
    while let Some(i) = queue.pop_front() {
        for up in form.allowed_updates(&states[i]) {
            let mut next = states[i].clone();
            form.apply(&mut next, &up).expect("allowed update applies");
            let key = depth1_key(&next);
            let j = match index.get(&key) {
                Some(&j) => j,
                None => {
                    if states.len() >= cap {
                        return None;
                    }
                    let j = states.len();
                    index.insert(key, j);
                    states.push(next);
                    rev.push(Vec::new());
                    queue.push_back(j);
                    j
                }
            };
            rev[j].push(i);
        }
    }
    let mut completable: Vec<bool> = states.iter().map(|s| form.is_complete(s)).collect();
    let mut back: VecDeque<usize> = (0..states.len()).filter(|&i| completable[i]).collect();
    while let Some(j) = back.pop_front() {
        for &i in &rev[j] {
            if !completable[i] {
                completable[i] = true;
                back.push_back(i);
            }
        }
    }
    Some(Depth1Answer {
        completable: completable[0],
        semisound: completable.iter().all(|&c| c),
        states: states.len(),
    })
}

/// Satisfiability of a CNF by the DPLL engine (not the CDCL engine the
/// screener and the NP solver use).
pub fn dpll_sat(cnf: &idar_logic::Cnf) -> bool {
    idar_logic::dpll::solve(cnf).is_some()
}
