//! Recursive-descent parser for the concrete formula syntax.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! formula  := iff
//! iff      := or ( ("<->" | "↔" | "iff") or )*          -- sugar, expanded
//! or       := and ( ("|" | "||" | "or" | "∨") and )*
//! and      := unary ( ("&" | "&&" | "and" | "∧") unary )*
//! unary    := ("!" | "not" | "¬") unary | atom
//! atom     := "true" | "false" | path | "(" formula ")" [pathtail]
//! path     := step ( "/" step )*
//! step     := (".." | ident) ( "[" formula "]" )*
//! pathtail := ( "[" formula "]" | "/" step )*           -- resumes a path
//! ```
//!
//! A parenthesised group followed by `[` or `/` is re-interpreted as a
//! parenthesised *path* (the group must then be a pure path expression),
//! so `(a/b)[c]` and `(a/b)/c` parse as the paper's `P[F]` / `P/P`.
//!
//! Identifiers may contain ASCII alphanumerics and `_ ' - +` (primes and
//! signs appear in the paper's own labels, e.g. `d'` and `init(q,0,+)`
//! which we render as `init_q_0_+`).

use super::{Formula, PathExpr};
use crate::error::{CoreError, Result};

/// The deepest a parsed formula may nest, counted in syntax-tree levels
/// (formula and path nodes alike) and, separately, in nested `!`,
/// `(…)` and `[…]`. The parser, the evaluator, the guard compiler and
/// `Drop` all recurse once per level, so without a cap one short input
/// (100 000 nested `!` is ~100 KB) overflows the stack and aborts the
/// process; past the cap [`Formula::parse`] returns
/// [`CoreError::Parse`] instead.
pub const MAX_FORMULA_DEPTH: usize = 256;

pub fn parse(text: &str) -> Result<Formula> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        open: 0,
    };
    let (f, _) = p.formula()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(f)
}

/// A parsed node together with its syntax-tree depth.
type Node<T> = (T, usize);

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Nested `!`, `(…)` and `[…]` currently open: the recursion depth.
    open: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CoreError {
        CoreError::Parse {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn too_deep(&self) -> CoreError {
        self.err(&format!(
            "formula nests deeper than {MAX_FORMULA_DEPTH} levels"
        ))
    }

    /// Run a nested parse (under `!`, `(` or `[`), refusing to recurse
    /// past the cap.
    fn nested<T>(&mut self, inner: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.open >= MAX_FORMULA_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let out = inner(self);
        self.open -= 1;
        out
    }

    /// Build a node one level above its deepest child, within the cap.
    fn node<T>(&self, value: T, child_depth: usize) -> Result<Node<T>> {
        if child_depth >= MAX_FORMULA_DEPTH {
            return Err(self.too_deep());
        }
        Ok((value, child_depth + 1))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Consume `tok` if present at the cursor (after whitespace).
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(tok.as_bytes()) {
            // Word tokens must not run into an identifier: `or` vs `order`.
            let is_word = tok.bytes().all(|b| b.is_ascii_alphabetic());
            if is_word {
                let after = self.pos + tok.len();
                if after < self.bytes.len() && crate::schema::is_label_byte(self.bytes[after]) {
                    return false;
                }
            }
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn eat_any(&mut self, toks: &[&str]) -> bool {
        toks.iter().any(|t| self.eat(t))
    }

    fn formula(&mut self) -> Result<Node<Formula>> {
        let (lhs, dl) = self.or_expr()?;
        if self.eat_any(&["<->", "\u{2194}", "iff"]) {
            let (rhs, dr) = self.or_expr()?;
            // (a ∧ b) ∨ (¬a ∧ ¬b): three levels above the operands.
            return self.node(lhs.iff(rhs), dl.max(dr) + 2);
        }
        Ok((lhs, dl))
    }

    fn or_expr(&mut self) -> Result<Node<Formula>> {
        let (mut f, mut d) = self.and_expr()?;
        while self.eat_any(&["||", "|", "or", "\u{2228}"]) {
            let (rhs, dr) = self.and_expr()?;
            (f, d) = self.node(f.or(rhs), d.max(dr))?;
        }
        Ok((f, d))
    }

    fn and_expr(&mut self) -> Result<Node<Formula>> {
        let (mut f, mut d) = self.unary()?;
        while self.eat_any(&["&&", "&", "and", "\u{2227}"]) {
            let (rhs, dr) = self.unary()?;
            (f, d) = self.node(f.and(rhs), d.max(dr))?;
        }
        Ok((f, d))
    }

    fn unary(&mut self) -> Result<Node<Formula>> {
        if self.eat_any(&["!", "not", "\u{00ac}"]) {
            let (f, d) = self.nested(Self::unary)?;
            return self.node(f.not(), d);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Node<Formula>> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let (inner, d) = self.nested(Self::formula)?;
                if !self.eat(")") {
                    return Err(self.err("expected `)`"));
                }
                // `(p)[f]` / `(p)/q`: resume as a path expression.
                if matches!(self.peek(), Some(b'[') | Some(b'/')) {
                    let Formula::Path(p) = inner else {
                        return Err(self.err(
                            "parenthesised group continued as a path, \
                             but it is not a path expression",
                        ));
                    };
                    // `inner` was `Path(p)`: `p` sits one level lower.
                    let (p, d) = self.path_tail((p, d - 1))?;
                    return self.node(Formula::Path(p), d);
                }
                Ok((inner, d))
            }
            Some(_) => {
                if self.eat("true") {
                    return Ok((Formula::True, 1));
                }
                if self.eat("false") {
                    return Ok((Formula::False, 1));
                }
                let (p, d) = self.path()?;
                self.node(Formula::Path(p), d)
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn path(&mut self) -> Result<Node<PathExpr>> {
        let first = self.step()?;
        self.path_tail(first)
    }

    /// Parse `[formula]` after the `[`.
    fn filter(&mut self) -> Result<Node<Formula>> {
        let f = self.nested(Self::formula)?;
        if !self.eat("]") {
            return Err(self.err("expected `]`"));
        }
        Ok(f)
    }

    /// Continue a path: apply any number of `/step` extensions.
    fn path_tail(&mut self, (mut p, mut d): Node<PathExpr>) -> Result<Node<PathExpr>> {
        loop {
            // Filters directly on a parenthesised path land here too.
            while self.peek() == Some(b'[') {
                self.pos += 1;
                let (f, df) = self.filter()?;
                (p, d) = self.node(PathExpr::Filter(Box::new(p), Box::new(f)), d.max(df))?;
            }
            if self.peek() == Some(b'/') {
                self.pos += 1;
                let (s, ds) = self.step()?;
                (p, d) = self.node(PathExpr::Seq(Box::new(p), Box::new(s)), d.max(ds))?;
            } else {
                return Ok((p, d));
            }
        }
    }

    fn step(&mut self) -> Result<Node<PathExpr>> {
        self.skip_ws();
        let (mut base, mut d) = if self.eat("..") {
            (PathExpr::Parent, 1)
        } else if self.peek() == Some(b'(') {
            self.pos += 1;
            let (inner, d) = self.nested(Self::formula)?;
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            let Formula::Path(p) = inner else {
                return Err(self.err("expected a path expression inside `(…)` step"));
            };
            (p, d - 1)
        } else {
            (PathExpr::Label(self.ident()?), 1)
        };
        while self.peek() == Some(b'[') {
            self.pos += 1;
            let (f, df) = self.filter()?;
            (base, d) = self.node(PathExpr::Filter(Box::new(base), Box::new(f)), d.max(df))?;
        }
        Ok((base, d))
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && crate::schema::is_label_byte(self.bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("idents are ascii")
            .to_string();
        // Reserved words cannot be labels in the concrete syntax.
        if matches!(s.as_str(), "true" | "false" | "and" | "or" | "not" | "iff") {
            return Err(self.err("reserved word used as label"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Formula, PathExpr};

    fn p(s: &str) -> Formula {
        Formula::parse(s).unwrap_or_else(|e| panic!("parse `{s}`: {e}"))
    }

    #[test]
    fn atoms() {
        assert_eq!(p("a"), Formula::label("a"));
        assert_eq!(p("true"), Formula::True);
        assert_eq!(p("false"), Formula::False);
        assert_eq!(p(".."), Formula::Path(PathExpr::Parent));
    }

    #[test]
    fn precedence() {
        // ¬ binds tighter than ∧ binds tighter than ∨.
        assert_eq!(p("!a & b | c"), p("((!a) & b) | c"));
        assert_eq!(p("a | b & c"), p("a | (b & c)"));
    }

    #[test]
    fn operator_spellings() {
        assert_eq!(p("a & b"), p("a and b"));
        assert_eq!(p("a & b"), p("a && b"));
        assert_eq!(p("a & b"), p("a ∧ b"));
        assert_eq!(p("a | b"), p("a or b"));
        assert_eq!(p("a | b"), p("a ∨ b"));
        assert_eq!(p("!a"), p("not a"));
        assert_eq!(p("!a"), p("¬a"));
    }

    #[test]
    fn word_ops_do_not_eat_idents() {
        // `order` is a label, not `or` + `der`.
        assert_eq!(p("order"), Formula::label("order"));
        assert_eq!(p("nota"), Formula::label("nota"));
        assert!(Formula::parse("a or").is_err());
    }

    #[test]
    fn paths() {
        assert_eq!(p("a/p/b").to_string(), "a/p/b");
        assert_eq!(p("../s").to_string(), "../s");
        assert_eq!(p("../../s").to_string(), "../../s");
        assert_eq!(p("a[n]/p").to_string(), "a[n]/p");
    }

    #[test]
    fn filters() {
        let f = p("a/p[!b | !e]");
        assert_eq!(f.to_string(), "a/p[!b | !e]");
        let g = p("d[!(a & r)]");
        assert_eq!(g.to_string(), "d[!(a & r)]");
        // Stacked filters on one step.
        let h = p("a[b][c]");
        assert_eq!(h.to_string(), "a[b][c]");
    }

    #[test]
    fn parenthesised_paths() {
        let f = p("(a/b)[c]");
        assert_eq!(f.to_string(), "(a/b)[c]");
        let g = p("(a/b)/c");
        assert_eq!(g, p("a/b/c"));
        // A parenthesised non-path cannot continue as a path.
        assert!(Formula::parse("(a & b)/c").is_err());
    }

    #[test]
    fn iff_sugar() {
        assert_eq!(p("a <-> b"), Formula::label("a").iff(Formula::label("b")));
        assert_eq!(p("a iff b"), p("a <-> b"));
        // The paper's η_ij shape (Thm 5.3).
        let f = p("y1 <-> ../yk");
        assert_eq!(f.to_string(), "y1 & ../yk | !y1 & !../yk");
    }

    #[test]
    fn example_3_6_formulas() {
        // The three example formulas from Ex. 3.6 parse.
        p("!a/p[!b | !e]");
        p("!f | d[a | r]");
        p("d[!(a & r)]");
    }

    #[test]
    fn example_3_12_rules_parse() {
        for s in [
            "!a",
            "!../s & !n",
            "!../s",
            "!../../s & !b",
            "!s & a[n & d & p] & !a/p[!b | !e]",
            "s & !d",
            "!(a | r)",
            "!../f",
            "!r",
            "!../../f",
            "d[a | r] & !f",
        ] {
            p(s);
        }
    }

    #[test]
    fn errors() {
        for s in [
            "", "&", "a &", "(a", "a[", "a]", "..[", "a b", "not", "(a|b)[c]",
        ] {
            assert!(Formula::parse(s).is_err(), "should fail: {s}");
        }
    }

    /// Inputs nested past the cap are parse errors, not stack overflows,
    /// whichever construct does the nesting; the deepest accepted formula
    /// still evaluates, prints and re-parses.
    #[test]
    fn nesting_is_capped() {
        use super::MAX_FORMULA_DEPTH as MAX;
        let n = 100_000;
        let deep = [
            format!("{}a", "!".repeat(n)),
            format!("{}a{}", "(".repeat(n), ")".repeat(n)),
            format!("{}a{}", "a[".repeat(n), "]".repeat(n)),
            vec!["a"; n].join(" & "),
            vec!["a"; n].join(" | "),
            vec!["a"; n].join("/"),
            format!("a{}", "[b]".repeat(n)),
        ];
        for text in &deep {
            let err = Formula::parse(text).unwrap_err();
            assert!(err.to_string().contains("nests deeper"), "{err}");
        }
        // `Path(Label)` is two levels, each `!` one more.
        let at_cap = format!("{}a", "!".repeat(MAX - 2));
        let f = p(&at_cap);
        assert_eq!(Formula::parse(&f.to_string()), Ok(f.clone()));
        let schema = std::sync::Arc::new(crate::Schema::parse("a").unwrap());
        let i = crate::Instance::empty(schema.clone());
        let odd = (MAX - 2) % 2 == 1;
        assert_eq!(crate::formula::holds_at_root(&i, &f), odd);
        let g = crate::Guard::compile(&schema, crate::SchemaNodeId::ROOT, &f);
        assert_eq!(g.holds(&i, crate::InstNodeId::ROOT), odd);
        assert!(Formula::parse(&format!("!{at_cap}")).is_err());
    }

    #[test]
    fn primes_in_labels() {
        assert_eq!(p("d'"), Formula::label("d'"));
        assert_eq!(p("c1[!d & !d']").to_string(), "c1[!d & !d']");
    }
}
