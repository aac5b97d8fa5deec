//! The successor kernel: the one way every explorer turns a state into
//! its successors.
//!
//! The in-RAM engine, the capacity engine and session resumes all
//! expand states through [`Kernel`].
//! Per expanded state it
//!
//! 1. copies the state into a working instance — the one copy per
//!    expanded state, into buffers reused across states (`clone_from`)
//!    — and enumerates its allowed updates with the form's
//!    schema-resolved guards into a reused buffer;
//! 2. per update, in enumeration order, applies the per-expansion prune
//!    checks (state size, multiplicity cap) exactly as a cold run must;
//! 3. applies the update in place, encodes the successor's dedup key
//!    into reused scratch, hands the borrowed `(fingerprint, words,
//!    &Instance)` to the caller, and undoes the update.
//!
//! The caller's store boxes the words and clones the instance only when
//! the state is new, so an edge to a known state allocates nothing.

use crate::explore::ExploreLimits;
use crate::store::SymmetryMode;
use crate::verdict::LimitKind;
use idar_core::{GuardedForm, Instance, KeyScratch, Update};
use std::ops::ControlFlow;

/// What one allowed update of the loaded state yields.
pub(crate) enum Step<'a> {
    /// The update was pruned, before application, by a per-expansion
    /// resource limit.
    Pruned(LimitKind),
    /// The successor, borrowed until the visitor returns.
    Next(Successor<'a>),
}

/// A successor state and its dedup key under the kernel's symmetry mode.
pub(crate) struct Successor<'a> {
    pub fingerprint: u64,
    pub words: &'a [u32],
    pub inst: &'a Instance,
}

/// Reusable expansion state of one explorer thread. See the module docs.
pub(crate) struct Kernel<'f> {
    form: &'f GuardedForm,
    symmetry: SymmetryMode,
    max_state_size: usize,
    multiplicity_cap: Option<usize>,
    work: Instance,
    updates: Vec<Update>,
    scratch: KeyScratch,
}

impl<'f> Kernel<'f> {
    pub fn new(form: &'f GuardedForm, limits: &ExploreLimits, symmetry: SymmetryMode) -> Self {
        Kernel {
            form,
            symmetry,
            max_state_size: limits.max_state_size,
            multiplicity_cap: limits.multiplicity_cap,
            work: Instance::empty(form.schema().clone()),
            updates: Vec::new(),
            scratch: KeyScratch::default(),
        }
    }

    /// Make `state` the state the next [`Kernel::expand`] expands.
    pub fn load(&mut self, state: &Instance) {
        self.work.clone_from(state);
        self.form
            .allowed_updates_into(&self.work, &mut self.updates);
    }

    /// Feed every allowed update of the loaded state to `visit`, in
    /// enumeration order, with its prune or its successor, until `visit`
    /// breaks. The loaded state is unchanged afterwards.
    pub fn expand<B>(
        &mut self,
        mut visit: impl FnMut(Update, Step<'_>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        for k in 0..self.updates.len() {
            let u = self.updates[k];
            if let Update::Add { parent, edge } = u {
                if self.work.live_count() >= self.max_state_size {
                    visit(u, Step::Pruned(LimitKind::StateSize))?;
                    continue;
                }
                if let Some(cap) = self.multiplicity_cap {
                    if self.work.children_at(parent, edge).count() >= cap {
                        visit(u, Step::Pruned(LimitKind::Multiplicity))?;
                        continue;
                    }
                }
            }
            let undo = self.work.apply_in_place(&u).expect("allowed updates apply");
            let fingerprint = self.symmetry.encode(&self.work, &mut self.scratch);
            let flow = visit(
                u,
                Step::Next(Successor {
                    fingerprint,
                    words: self.scratch.words(),
                    inst: &self.work,
                }),
            );
            self.work.undo(undo);
            flow?;
        }
        ControlFlow::Continue(())
    }
}
