//! Symmetry reduction: canonical representatives of isomorphism classes.
//!
//! Two instances of the same schema are *isomorphic* when one is obtained
//! from the other by renaming node ids and permuting siblings — the
//! "iso-value renaming" symmetry. Every analysis in this workspace is
//! invariant under that symmetry: formulas (Def. 3.5) only observe labels
//! and tree shape, so guards, completion formulas, and therefore
//! completability and semi-soundness verdicts cannot distinguish
//! isomorphic instances. Quotienting the state space by it is the
//! symmetry reduction the explorers perform.
//!
//! [`Instance::canonicalize`] makes the quotient *constructive*: it
//! returns
//!
//! * a **canonical representative** — the instance rebuilt with children
//!   in canonical (sorted-encoding) order and densely renumbered ids, so
//!   two instances are isomorphic iff their canonical forms are
//!   *identical* (same `to_text`, same node numbering);
//! * a **renaming witness** — the node-id map from the original instance
//!   onto the canonical one, i.e. the isomorphism itself; and
//! * the stable 64-bit **canonical fingerprint** shared by every member
//!   of the class (the [`CanonKey`](crate::CanonKey) fingerprint).
//!
//! The fingerprint is what the solver's `StateStore` and `VerdictCache`
//! key on; the witness is what lets callers transport node-indexed data
//! (selections, annotations) across the quotient.

use crate::instance::{InstNodeId, Instance};
use crate::intern::KeyScratch;
use std::fmt;

/// The result of [`Instance::canonicalize`]: canonical representative,
/// renaming witness, and class fingerprint.
#[derive(Debug, Clone)]
pub struct Canonicalized {
    /// The canonical representative of the isomorphism class: children in
    /// canonical order, node ids dense in canonical pre-order (no
    /// tombstones). Canonicalizing it again is the identity on `to_text`
    /// and on node numbering.
    pub instance: Instance,
    /// The isomorphism witness: `renaming[original_slot]` is the canonical
    /// node id of the original node, `None` for dead (tomb-stoned) slots.
    pub renaming: Vec<Option<InstNodeId>>,
    /// The 64-bit canonical fingerprint of the class — equal for two
    /// instances of the same schema iff they are isomorphic (modulo the
    /// collision-checked caveat of [`crate::intern`]); identical to
    /// `self.canon_key().fingerprint()`.
    pub fingerprint: u64,
}

impl Canonicalized {
    /// Map an original node id through the renaming witness.
    pub fn rename(&self, original: InstNodeId) -> Option<InstNodeId> {
        self.renaming.get(original.index()).copied().flatten()
    }
}

impl fmt::Display for Canonicalized {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} #{:016x}", self.instance.to_text(), self.fingerprint)
    }
}

impl Instance {
    /// Quotient this instance by iso-value renaming: return the canonical
    /// representative of its isomorphism class, the renaming witness onto
    /// it, and the class fingerprint. See the module docs.
    ///
    /// ```
    /// # use idar_core::{Instance, Schema};
    /// # use std::sync::Arc;
    /// let schema = Arc::new(Schema::parse("a(p(b, e)), s").unwrap());
    /// let i1 = Instance::parse(schema.clone(), "s, a(p(e), p(b))").unwrap();
    /// let i2 = Instance::parse(schema, "a(p(b), p(e)), s").unwrap();
    /// let c1 = i1.canonicalize();
    /// let c2 = i2.canonicalize();
    /// // Isomorphic instances canonicalize to the *identical* form.
    /// assert_eq!(c1.instance.to_text(), c2.instance.to_text());
    /// assert_eq!(c1.fingerprint, c2.fingerprint);
    /// // The witness maps original nodes onto canonical ones.
    /// for n in i1.live_nodes() {
    ///     let m = c1.rename(n).unwrap();
    ///     assert_eq!(i1.label(n), c1.instance.label(m));
    /// }
    /// ```
    pub fn canonicalize(&self) -> Canonicalized {
        let mut renaming: Vec<Option<InstNodeId>> = vec![None; self.slot_count()];
        let mut out = Instance::empty(self.schema().clone());
        renaming[InstNodeId::ROOT.index()] = Some(InstNodeId::ROOT);
        rebuild(
            self,
            InstNodeId::ROOT,
            InstNodeId::ROOT,
            &mut out,
            &mut renaming,
            &mut KeyScratch::default(),
        );
        let fingerprint = out.canon_key().fingerprint();
        debug_assert_eq!(
            fingerprint,
            self.canon_key().fingerprint(),
            "canonical representative must stay in the class"
        );
        Canonicalized {
            instance: out,
            renaming,
            fingerprint,
        }
    }
}

/// Copy the children of `src_node` under `dst_node` in canonical order
/// (sorted by canonical subtree encoding, ties broken by original id for
/// determinism), recursing depth-first.
fn rebuild(
    src: &Instance,
    src_node: InstNodeId,
    dst_node: InstNodeId,
    out: &mut Instance,
    renaming: &mut [Option<InstNodeId>],
    scratch: &mut KeyScratch,
) {
    for c in scratch.canonical_child_order(src, src_node) {
        let nc = out
            .add_child(dst_node, src.schema_node(c))
            .expect("schema edge preserved by canonicalization");
        renaming[c.index()] = Some(nc);
        rebuild(src, c, nc, out, renaming, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap())
    }

    #[test]
    fn canonicalize_is_a_fixpoint() {
        let i = Instance::parse(schema(), "s, a(p(e, b), n, p(b)), f").unwrap();
        let c1 = i.canonicalize();
        let c2 = c1.instance.canonicalize();
        assert_eq!(c1.instance.to_text(), c2.instance.to_text());
        assert_eq!(c1.fingerprint, c2.fingerprint);
        // On an already-canonical compact instance the renaming is the
        // identity.
        for n in c1.instance.live_nodes() {
            assert_eq!(c2.rename(n), Some(n));
        }
    }

    #[test]
    fn isomorphic_instances_canonicalize_identically() {
        let s = schema();
        let variants = [
            "a(p(b, e), n, d), s, d(r(r), a)",
            "s, a(n, d, p(e, b)), d(a, r(r))",
            "d(r(r), a), a(d, n, p(b, e)), s",
        ];
        let canons: Vec<Canonicalized> = variants
            .iter()
            .map(|t| Instance::parse(s.clone(), t).unwrap().canonicalize())
            .collect();
        for c in &canons[1..] {
            assert_eq!(c.instance.to_text(), canons[0].instance.to_text());
            assert_eq!(c.fingerprint, canons[0].fingerprint);
        }
        // Non-isomorphic instance: different fingerprint and text.
        let other = Instance::parse(s, "a(p(b)), s").unwrap().canonicalize();
        assert_ne!(other.fingerprint, canons[0].fingerprint);
        assert_ne!(other.instance.to_text(), canons[0].instance.to_text());
    }

    #[test]
    fn renaming_is_an_isomorphism() {
        let i = Instance::parse(schema(), "s, a(p(e), p(b, e), n), d(a)").unwrap();
        let c = i.canonicalize();
        assert_eq!(c.instance.live_count(), i.live_count());
        let mut seen = std::collections::HashSet::new();
        for n in i.live_nodes() {
            let m = c.rename(n).expect("live nodes are mapped");
            assert!(seen.insert(m), "witness must be injective");
            // Labels and schema nodes agree.
            assert_eq!(i.schema_node(n), c.instance.schema_node(m));
            // Parent edges are preserved.
            match (i.parent(n), c.instance.parent(m)) {
                (None, None) => {}
                (Some(p), Some(q)) => assert_eq!(c.rename(p), Some(q)),
                _ => panic!("parent structure not preserved"),
            }
        }
    }

    #[test]
    fn fingerprint_matches_canon_key() {
        for text in ["", "a", "a(n), s", "d(r(r)), f, a(p(b, e), p(b))"] {
            let i = Instance::parse(schema(), text).unwrap();
            assert_eq!(i.canonicalize().fingerprint, i.canon_key().fingerprint());
        }
    }

    #[test]
    fn dead_slots_are_unmapped() {
        let mut i = Instance::parse(schema(), "a(n), s").unwrap();
        let a = i.children_with_label(InstNodeId::ROOT, "a").next().unwrap();
        let n = i.children_with_label(a, "n").next().unwrap();
        i.remove_leaf(n).unwrap();
        let c = i.canonicalize();
        assert_eq!(c.rename(n), None);
        assert_eq!(c.instance.live_count(), c.instance.slot_count());
    }
}
