//! Schema-resolved guards: formulas compiled against the schema node they
//! are evaluated at.
//!
//! A guard `A(right, ê)` is always evaluated at an instance node whose
//! schema node is fixed — the parent of `ê` — and the homomorphism into
//! the schema is unique (Prop. 3.3). Every step of a path (Def. 3.4) from
//! a fixed schema node therefore ends at a fixed schema node: `..` at its
//! schema parent, a label `l` at its unique child labelled `l` (sibling
//! labels are unique in a schema). [`Guard::compile`] resolves each step
//! once, ahead of time, into a label-free tree:
//!
//! ```text
//! g ::= true | false | ¬g | g ∧ g | g ∨ g | Child(ŝ, g) | Parent(g)
//! ```
//!
//! where `Child(ŝ, g)` holds iff some child mapped to schema node `ŝ`
//! satisfies `g`, and `Parent(g)` iff the parent does. A label absent
//! from the schema at its step, or `..` at the schema root, compiles to
//! `false`: such a path has no end node in any instance. A disjunction
//! of bare existence tests at one node, `Child(ŝ₁, true) ∨ … ∨
//! Child(ŝₖ, true)`, folds into one test "some child is mapped into
//! {ŝ₁ … ŝₖ}" against a schema-node bitset, so it scans the children
//! once instead of k times. Evaluation ([`Guard::holds`]) then compares
//! schema-node ids instead of looking labels up in a map. [`formula::holds`](crate::formula::holds) stays
//! the reference semantics; the tests differential the two.

use crate::formula::{Formula, PathExpr};
use crate::instance::{InstNodeId, Instance};
use crate::schema::{Schema, SchemaNodeId};

/// One node of a compiled guard; operands index the same arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    False,
    True,
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Child(SchemaNodeId, u32),
    /// Some child's schema node is in the bitset starting at this word
    /// of the set arena.
    AnyChild(u32),
    Parent(u32),
}

/// Arena slots every compiler pre-fills, so constant operands are
/// recognisable by index.
const FALSE: u32 = 0;
const TRUE: u32 = 1;

/// Builds compiled guards into one arena, folding constants and
/// existence disjunctions as it goes. Every compiled operand has exactly
/// one consumer, which is what lets `or` widen an operand's bitset in
/// place.
struct Compiler<'s> {
    schema: &'s Schema,
    ops: Vec<Op>,
    /// Schema-node bitsets of `AnyChild` ops, `words` words each.
    sets: Vec<u64>,
    words: usize,
}

impl<'s> Compiler<'s> {
    fn new(schema: &'s Schema) -> Self {
        Compiler {
            schema,
            ops: vec![Op::False, Op::True],
            sets: Vec::new(),
            words: schema.node_count().div_ceil(64),
        }
    }

    /// Add the schema nodes `op` tests for to the bitset at `set`, if
    /// `op` is a bare existence test.
    fn widen(&mut self, set: usize, op: u32) -> bool {
        match self.ops[op as usize] {
            Op::Child(c, TRUE) => {
                self.sets[set + c.index() / 64] |= 1 << (c.index() % 64);
                true
            }
            Op::AnyChild(other) => {
                for w in 0..self.words {
                    self.sets[set + w] |= self.sets[other as usize + w];
                }
                true
            }
            _ => false,
        }
    }

    /// `a ∨ b` as one `AnyChild` test, if both are existence tests.
    fn merge_existence(&mut self, a: u32, b: u32) -> Option<u32> {
        let is_test = |op: Op| matches!(op, Op::Child(_, TRUE) | Op::AnyChild(_));
        if !is_test(self.ops[a as usize]) || !is_test(self.ops[b as usize]) {
            return None;
        }
        if let Op::AnyChild(set) = self.ops[a as usize] {
            self.widen(set as usize, b);
            return Some(a);
        }
        let set = self.sets.len();
        self.sets.resize(set + self.words, 0);
        self.widen(set, a);
        self.widen(set, b);
        Some(self.push(Op::AnyChild(set as u32)))
    }

    fn push(&mut self, op: Op) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    fn not(&mut self, a: u32) -> u32 {
        match a {
            FALSE => TRUE,
            TRUE => FALSE,
            _ => match self.ops[a as usize] {
                Op::Not(inner) => inner,
                _ => self.push(Op::Not(a)),
            },
        }
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        match (a, b) {
            (FALSE, _) | (_, FALSE) => FALSE,
            (TRUE, x) | (x, TRUE) => x,
            _ => self.push(Op::And(a, b)),
        }
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        match (a, b) {
            (TRUE, _) | (_, TRUE) => TRUE,
            (FALSE, x) | (x, FALSE) => x,
            _ => match self.merge_existence(a, b) {
                Some(test) => test,
                None => self.push(Op::Or(a, b)),
            },
        }
    }

    /// Compile `f` for evaluation at an instance node mapped to `at`.
    fn formula(&mut self, f: &Formula, at: SchemaNodeId) -> u32 {
        match f {
            Formula::True => TRUE,
            Formula::False => FALSE,
            Formula::Path(p) => self.path(p, at, &mut |_, _| TRUE),
            Formula::Not(g) => {
                let g = self.formula(g, at);
                self.not(g)
            }
            Formula::And(a, b) => {
                let a = self.formula(a, at);
                let b = self.formula(b, at);
                self.and(a, b)
            }
            Formula::Or(a, b) => {
                let a = self.formula(a, at);
                let b = self.formula(b, at);
                self.or(a, b)
            }
        }
    }

    /// Compile "some end node of `p` from a node mapped to `at`
    /// satisfies `then`", where `then` compiles the condition at the end
    /// node's schema node (unique, so `then` runs at most once).
    fn path(
        &mut self,
        p: &PathExpr,
        at: SchemaNodeId,
        then: &mut dyn FnMut(&mut Self, SchemaNodeId) -> u32,
    ) -> u32 {
        match p {
            PathExpr::Parent => match self.schema.parent(at) {
                None => FALSE,
                Some(up) => match then(self, up) {
                    FALSE => FALSE,
                    g => self.push(Op::Parent(g)),
                },
            },
            PathExpr::Label(l) => match self.schema.child_by_label(at, l) {
                None => FALSE,
                Some(c) => match then(self, c) {
                    FALSE => FALSE,
                    g => self.push(Op::Child(c, g)),
                },
            },
            PathExpr::Seq(p, q) => self.path(p, at, &mut |c, mid| c.path(q, mid, then)),
            PathExpr::Filter(p, f) => self.path(p, at, &mut |c, end| {
                let filter = c.formula(f, end);
                match filter {
                    FALSE => FALSE,
                    _ => {
                        let rest = then(c, end);
                        c.and(filter, rest)
                    }
                }
            }),
        }
    }
}

/// A compiled arena: the ops and the bitsets their `AnyChild` tests
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Code {
    ops: Box<[Op]>,
    sets: Box<[u64]>,
}

impl Code {
    fn new(c: Compiler) -> Code {
        Code {
            ops: c.ops.into_boxed_slice(),
            sets: c.sets.into_boxed_slice(),
        }
    }

    /// Evaluate arena node `op` at instance node `n`.
    fn eval(&self, op: u32, inst: &Instance, n: InstNodeId) -> bool {
        match self.ops[op as usize] {
            Op::False => false,
            Op::True => true,
            Op::Not(a) => !self.eval(a, inst, n),
            Op::And(a, b) => self.eval(a, inst, n) && self.eval(b, inst, n),
            Op::Or(a, b) => self.eval(a, inst, n) || self.eval(b, inst, n),
            Op::Child(s, g) => inst
                .children(n)
                .iter()
                .any(|&m| inst.schema_node(m) == s && self.eval(g, inst, m)),
            Op::AnyChild(set) => inst.children(n).iter().any(|&m| {
                let s = inst.schema_node(m).index();
                self.sets[set as usize + s / 64] & (1 << (s % 64)) != 0
            }),
            Op::Parent(g) => inst.parent(n).is_some_and(|p| self.eval(g, inst, p)),
        }
    }
}

/// A formula compiled against the schema node it is evaluated at. See
/// the module docs.
///
/// ```
/// use idar_core::{Formula, Guard, InstNodeId, Instance, Schema, SchemaNodeId};
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::parse("a(p(b, e)), s").unwrap());
/// let f = Formula::parse("!a/p[!b | !e] & !zz").unwrap();
/// let g = Guard::compile(&schema, SchemaNodeId::ROOT, &f);
/// let done = Instance::parse(schema.clone(), "a(p(b, e))").unwrap();
/// let open = Instance::parse(schema, "a(p(b))").unwrap();
/// assert!(g.holds(&done, InstNodeId::ROOT));
/// assert!(!g.holds(&open, InstNodeId::ROOT));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Guard {
    code: Code,
    root: u32,
}

impl Guard {
    /// Resolve `f` for evaluation at instance nodes mapped to schema node
    /// `at`.
    pub fn compile(schema: &Schema, at: SchemaNodeId, f: &Formula) -> Guard {
        let mut c = Compiler::new(schema);
        let root = c.formula(f, at);
        Guard {
            code: Code::new(c),
            root,
        }
    }

    /// Does the guard hold at `n`? `n` must be mapped to the schema node
    /// the guard was compiled at; then this agrees with
    /// [`formula::holds`](crate::formula::holds) on the source formula.
    pub fn holds(&self, inst: &Instance, n: InstNodeId) -> bool {
        self.code.eval(self.root, inst, n)
    }
}

/// Every access rule of a form, and its completion formula, compiled
/// into one arena: `add[e]` and `del[e]` root the guards of edge `e` (a
/// schema node id), resolved at the edge's parent, where Sec. 3.4
/// evaluates them; `complete` roots the completion formula, resolved at
/// the root (Def. 3.11).
#[derive(Debug)]
pub(crate) struct GuardTable {
    code: Code,
    add: Vec<u32>,
    del: Vec<u32>,
    complete: u32,
}

impl GuardTable {
    pub(crate) fn compile(
        schema: &Schema,
        rules: &crate::guarded::AccessRules,
        completion: &Formula,
    ) -> GuardTable {
        use crate::guarded::Right;
        let mut c = Compiler::new(schema);
        let mut add = vec![FALSE; schema.node_count()];
        let mut del = vec![FALSE; schema.node_count()];
        for e in schema.edge_ids() {
            let at = schema.parent(e).expect("an edge has a parent");
            add[e.index()] = c.formula(rules.get(Right::Add, e), at);
            del[e.index()] = c.formula(rules.get(Right::Del, e), at);
        }
        let complete = c.formula(completion, SchemaNodeId::ROOT);
        GuardTable {
            code: Code::new(c),
            add,
            del,
            complete,
        }
    }

    /// Does the completion formula hold (at the root)?
    #[inline]
    pub(crate) fn complete_holds(&self, inst: &Instance) -> bool {
        self.code.eval(self.complete, inst, InstNodeId::ROOT)
    }

    /// Does `A(add, edge)` hold at `parent`?
    #[inline]
    pub(crate) fn add_holds(
        &self,
        edge: SchemaNodeId,
        inst: &Instance,
        parent: InstNodeId,
    ) -> bool {
        self.code.eval(self.add[edge.index()], inst, parent)
    }

    /// Does `A(del, edge)` hold at `parent`?
    #[inline]
    pub(crate) fn del_holds(
        &self,
        edge: SchemaNodeId,
        inst: &Instance,
        parent: InstNodeId,
    ) -> bool {
        self.code.eval(self.del[edge.index()], inst, parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::holds;
    use std::sync::Arc;

    fn leave() -> Arc<Schema> {
        Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap())
    }

    /// Disjunctions of existence tests fold into one bitset test, also
    /// across nested groups, and still agree with the reference.
    #[test]
    fn existence_disjunctions_fold_into_one_test() {
        let s = leave();
        let f = Formula::parse("!(a | s | (d | f)) | zz | (a/n | d)").unwrap();
        let g = Guard::compile(&s, SchemaNodeId::ROOT, &f);
        let tests = g
            .code
            .ops
            .iter()
            .filter(|op| matches!(op, Op::AnyChild(_)))
            .count();
        assert!(tests >= 1, "{:?}", g.code.ops);
        for text in ["", "a(n)", "s", "d(a)", "f, a", "a"] {
            let inst = Instance::parse(s.clone(), text).unwrap();
            assert_eq!(
                g.holds(&inst, InstNodeId::ROOT),
                holds(&inst, InstNodeId::ROOT, &f),
                "{text}"
            );
        }
    }

    #[test]
    fn unreachable_paths_fold_to_false() {
        let s = leave();
        for f in ["..", "zz", "a/zz", "../s", "a[false]"] {
            let g = Guard::compile(&s, SchemaNodeId::ROOT, &Formula::parse(f).unwrap());
            assert_eq!(g.root, FALSE, "{f}");
        }
        let g = Guard::compile(&s, SchemaNodeId::ROOT, &Formula::parse("!zz").unwrap());
        assert_eq!(g.root, TRUE);
        let g = Guard::compile(&s, SchemaNodeId::ROOT, &Formula::parse("a").unwrap());
        assert!(g.root != FALSE && g.root != TRUE);
    }
}
