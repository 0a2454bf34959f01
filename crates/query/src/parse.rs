//! Text syntax for queries.
//!
//! ```text
//! q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")
//! ```
//!
//! * the head name (`q`) is ignored;
//! * bare identifiers are **variables**;
//! * quoted strings (single or double quotes) are **constants**, interned
//!   into the caller's [`ConstPool`] (which must be the database's pool so
//!   constants align at evaluation time);
//! * for ontology queries, unary atoms must name concepts and binary atoms
//!   must name roles;
//! * a UCQ is one CQ per non-empty line.
//!
//! Errors carry 1-based line/column positions (`0` = unknown): the CQ
//! parsers position errors at the offending atom within their single
//! line, and [`parse_onto_ucq`] rebases them onto the multi-line text.

// Parsers run on untrusted user input: they must never panic (the crate
// root denies `unwrap`/`expect` outside tests).

use crate::onto::{OntoAtom, OntoCq, OntoUcq};
use crate::src::{SrcAtom, SrcCq};
use crate::term::{Term, VarId};
use obx_ontology::OntoVocab;
use obx_srcdb::{parse::split_atom, parse::unquote, ConstPool, Schema};
use obx_util::diag::col_of;
use obx_util::FxHashMap;
use std::fmt;

/// Errors from the query parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// 1-based line number; `0` when unknown (single-query parses report
    /// line 1).
    pub line: usize,
    /// 1-based character column; `0` when unknown.
    pub col: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.col) {
            (0, _) => write!(f, "{}", self.msg),
            (l, 0) => write!(f, "line {l}: {}", self.msg),
            (l, c) => write!(f, "line {l}:{c}: {}", self.msg),
        }
    }
}

impl std::error::Error for QueryParseError {}

impl QueryParseError {
    /// Fills in a position, keeping any already-set fields (inner parsers
    /// position errors more precisely than their callers can).
    pub fn at(mut self, line: usize, col: usize) -> Self {
        if self.line == 0 {
            self.line = line;
        }
        if self.col == 0 {
            self.col = col;
        }
        self
    }
}

fn err(msg: impl Into<String>) -> QueryParseError {
    QueryParseError {
        line: 0,
        col: 0,
        msg: msg.into(),
    }
}

fn err_at(col: usize, msg: impl Into<String>) -> QueryParseError {
    QueryParseError {
        line: 0,
        col,
        msg: msg.into(),
    }
}

struct VarScope {
    names: FxHashMap<String, VarId>,
}

impl VarScope {
    fn new() -> Self {
        Self {
            names: FxHashMap::default(),
        }
    }

    fn var(&mut self, name: &str) -> VarId {
        let next = VarId(self.names.len() as u32);
        *self.names.entry(name.to_owned()).or_insert(next)
    }
}

fn is_quoted(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() >= 2
        && ((b[0] == b'"' && b[b.len() - 1] == b'"') || (b[0] == b'\'' && b[b.len() - 1] == b'\''))
}

fn parse_term(
    scope: &mut VarScope,
    consts: &mut ConstPool,
    raw: &str,
) -> Result<Term, QueryParseError> {
    if raw.is_empty() {
        return Err(err("empty term"));
    }
    if is_quoted(raw) {
        Ok(Term::Const(consts.intern(unquote(raw))))
    } else if raw.chars().all(|c| c.is_alphanumeric() || c == '_') {
        Ok(Term::Var(scope.var(raw)))
    } else {
        Err(err(format!("bad term `{raw}` (quote constants)")))
    }
}

/// Body atom texts paired with their 1-based character column within the rule.
type BodyAtoms = Vec<(usize, String)>;

/// Splits `HEAD :- BODY` and returns the head atom text plus the body atom
/// texts, each with its 1-based character column within `text`.
fn split_rule(text: &str) -> Result<(&str, BodyAtoms), QueryParseError> {
    let (head, body) = text
        .split_once(":-")
        .ok_or_else(|| err(format!("expected `head :- body` in `{text}`")))?;
    let body_off = head.chars().count() + 2;
    // Split the body on commas at depth 0 (commas also appear inside atoms).
    let mut atoms: Vec<(usize, String)> = Vec::new();
    let mut open_cols: Vec<usize> = Vec::new();
    let mut cur = String::new();
    let mut cur_col = 0usize;
    for (i, ch) in body.chars().enumerate() {
        let col = body_off + i + 1;
        match ch {
            '(' => {
                open_cols.push(col);
                cur.push(ch);
            }
            ')' => {
                if open_cols.pop().is_none() {
                    return Err(err_at(col, "unbalanced parentheses"));
                }
                cur.push(ch);
            }
            ',' if open_cols.is_empty() => {
                atoms.push((cur_col, std::mem::take(&mut cur).trim().to_owned()));
                cur_col = 0;
            }
            _ => {
                if cur_col == 0 && !ch.is_whitespace() {
                    cur_col = col;
                }
                cur.push(ch);
            }
        }
    }
    if let Some(&col) = open_cols.first() {
        return Err(err_at(col, "unbalanced parentheses"));
    }
    if !cur.trim().is_empty() {
        atoms.push((cur_col, cur.trim().to_owned()));
    }
    if atoms.is_empty() {
        return Err(err("empty body"));
    }
    Ok((head.trim(), atoms))
}

fn parse_head(scope: &mut VarScope, head: &str) -> Result<Vec<VarId>, QueryParseError> {
    let (_, args) = split_atom(head).ok_or_else(|| err_at(1, format!("bad head `{head}`")))?;
    let mut out = Vec::with_capacity(args.len());
    for a in args {
        if a.is_empty() || is_quoted(a) {
            return Err(err_at(
                1,
                format!("head terms must be variables, got `{a}`"),
            ));
        }
        out.push(scope.var(a));
    }
    Ok(out)
}

/// Parses a CQ over the ontology vocabulary. Errors report line 1 plus the
/// column of the offending atom.
pub fn parse_onto_cq(
    vocab: &OntoVocab,
    consts: &mut ConstPool,
    text: &str,
) -> Result<OntoCq, QueryParseError> {
    let (head_txt, atom_txts) = split_rule(text).map_err(|e| e.at(1, 0))?;
    let mut scope = VarScope::new();
    let head = parse_head(&mut scope, head_txt).map_err(|e| e.at(1, 0))?;
    let mut body = Vec::with_capacity(atom_txts.len());
    for (col, atom_txt) in &atom_txts {
        let (name, args) = split_atom(atom_txt)
            .ok_or_else(|| err_at(*col, format!("bad atom `{atom_txt}`")).at(1, 0))?;
        let terms: Vec<Term> = args
            .iter()
            .map(|a| parse_term(&mut scope, consts, a))
            .collect::<Result<_, _>>()
            .map_err(|e| e.at(1, *col))?;
        match terms.len() {
            1 => {
                let c = vocab
                    .get_concept(name)
                    .ok_or_else(|| err_at(*col, format!("unknown concept `{name}`")).at(1, 0))?;
                body.push(OntoAtom::Concept(c, terms[0]));
            }
            2 => {
                let r = vocab
                    .get_role(name)
                    .ok_or_else(|| err_at(*col, format!("unknown role `{name}`")).at(1, 0))?;
                body.push(OntoAtom::Role(r, terms[0], terms[1]));
            }
            n => {
                return Err(err_at(
                    *col,
                    format!("ontology atom `{name}` has arity {n}, not 1/2"),
                )
                .at(1, 0))
            }
        }
    }
    OntoCq::new(head, body).map_err(|e| err(e.to_string()).at(1, 0))
}

/// Parses a UCQ over the ontology vocabulary: one CQ per non-empty,
/// non-comment line. Errors are rebased onto the multi-line text (real
/// line number, column within the raw line).
pub fn parse_onto_ucq(
    vocab: &OntoVocab,
    consts: &mut ConstPool,
    text: &str,
) -> Result<OntoUcq, QueryParseError> {
    let mut ucq = OntoUcq::empty();
    for (lineno, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        ucq.push(parse_onto_cq(vocab, consts, line).map_err(|mut e| {
            e.line = lineno + 1;
            if e.col > 0 {
                // Rebase the within-line column onto the raw line (leading
                // whitespace and indentation shift it right).
                e.col += col_of(raw, line).saturating_sub(1);
            }
            e
        })?);
    }
    if ucq.is_empty() {
        return Err(err("no disjuncts"));
    }
    Ok(ucq)
}

/// Parses a CQ over the source schema. Errors report line 1 plus the
/// column of the offending atom.
pub fn parse_src_cq(
    schema: &Schema,
    consts: &mut ConstPool,
    text: &str,
) -> Result<SrcCq, QueryParseError> {
    let (head_txt, atom_txts) = split_rule(text).map_err(|e| e.at(1, 0))?;
    let mut scope = VarScope::new();
    let head = parse_head(&mut scope, head_txt).map_err(|e| e.at(1, 0))?;
    let mut body = Vec::with_capacity(atom_txts.len());
    for (col, atom_txt) in &atom_txts {
        let (name, args) = split_atom(atom_txt)
            .ok_or_else(|| err_at(*col, format!("bad atom `{atom_txt}`")).at(1, 0))?;
        let rel = schema
            .rel(name)
            .map_err(|e| err_at(*col, e.to_string()).at(1, 0))?;
        if schema.arity(rel) != args.len() {
            return Err(err_at(
                *col,
                format!(
                    "relation `{name}` has arity {}, got {}",
                    schema.arity(rel),
                    args.len()
                ),
            )
            .at(1, 0));
        }
        let terms: Vec<Term> = args
            .iter()
            .map(|a| parse_term(&mut scope, consts, a))
            .collect::<Result<_, _>>()
            .map_err(|e| e.at(1, *col))?;
        body.push(SrcAtom::new(rel, terms));
    }
    SrcCq::new(head, body).map_err(|e| err(e.to_string()).at(1, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_ontology::parse_tbox;
    use obx_srcdb::parse_schema;

    #[test]
    fn parses_the_papers_q1() {
        let tbox = parse_tbox("concept none\nrole studies taughtIn locatedIn likes").unwrap();
        let mut consts = ConstPool::new();
        let q = parse_onto_cq(
            tbox.vocab(),
            &mut consts,
            r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#,
        )
        .unwrap();
        assert_eq!(q.arity(), 1);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.head(), &[VarId(0)]);
        let rome = consts.get("Rome").unwrap();
        assert!(matches!(
            q.body()[2],
            OntoAtom::Role(_, Term::Var(_), Term::Const(c)) if c == rome
        ));
    }

    #[test]
    fn variable_identity_is_by_name() {
        let tbox = parse_tbox("role r").unwrap();
        let mut consts = ConstPool::new();
        let q = parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- r(x, y), r(y, x)").unwrap();
        let (a, b) = match (q.body()[0], q.body()[1]) {
            (OntoAtom::Role(_, a1, a2), OntoAtom::Role(_, b1, b2)) => ((a1, a2), (b1, b2)),
            _ => panic!(),
        };
        assert_eq!(a.0, b.1);
        assert_eq!(a.1, b.0);
    }

    #[test]
    fn unary_is_concept_binary_is_role() {
        let tbox = parse_tbox("concept Student\nrole studies").unwrap();
        let mut consts = ConstPool::new();
        assert!(parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- Student(x)").is_ok());
        assert!(parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- studies(x, y)").is_ok());
        let e = parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- studies(x)").unwrap_err();
        assert!(e.msg.contains("unknown concept"));
        let e = parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- Student(x, y)").unwrap_err();
        assert!(e.msg.contains("unknown role"));
        let e = parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- Student(x, y, z)").unwrap_err();
        assert!(e.msg.contains("arity"));
    }

    #[test]
    fn errors_point_at_the_offending_atom() {
        let tbox = parse_tbox("concept Student\nrole studies").unwrap();
        let mut consts = ConstPool::new();
        let e =
            parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- Student(x), Nope(x)").unwrap_err();
        assert_eq!((e.line, e.col), (1, 21), "{e}");
        assert_eq!(e.to_string(), "line 1:21: unknown concept `Nope`");
        // UCQ parsing rebases onto the real line.
        let e = parse_onto_ucq(
            tbox.vocab(),
            &mut consts,
            "q(x) :- Student(x)\n  q(x) :- Nope(x)",
        )
        .unwrap_err();
        assert_eq!((e.line, e.col), (2, 11), "{e}");
    }

    #[test]
    fn src_queries_check_schema_arity() {
        let schema = parse_schema("ENR/3 LOC/2").unwrap();
        let mut consts = ConstPool::new();
        let q = parse_src_cq(
            &schema,
            &mut consts,
            r#"q(x) :- ENR(x, y, z), LOC(z, "Rome")"#,
        )
        .unwrap();
        assert_eq!(q.num_atoms(), 2);
        assert!(parse_src_cq(&schema, &mut consts, "q(x) :- ENR(x, y)").is_err());
        assert!(parse_src_cq(&schema, &mut consts, "q(x) :- NOPE(x, y)").is_err());
    }

    #[test]
    fn malformed_queries_error() {
        let tbox = parse_tbox("role r").unwrap();
        let mut consts = ConstPool::new();
        for bad in [
            "q(x) r(x, y)",        // no :-
            "q(x) :-",             // empty body
            "q(\"c\") :- r(x, y)", // constant in head
            "q(x) :- r(x, y",      // unbalanced
            "q(z) :- r(x, y)",     // unsafe head
            "q(x) :- r(x, a-b)",   // bad term
        ] {
            assert!(
                parse_onto_cq(tbox.vocab(), &mut consts, bad).is_err(),
                "should reject `{bad}`"
            );
        }
        // Unbalanced parentheses point at the unclosed `(`.
        let e = parse_onto_cq(tbox.vocab(), &mut consts, "q(x) :- r(x, y").unwrap_err();
        assert_eq!((e.line, e.col), (1, 10), "{e}");
    }

    #[test]
    fn ucq_parses_lines_and_dedups() {
        let tbox = parse_tbox("role r").unwrap();
        let mut consts = ConstPool::new();
        let u = parse_onto_ucq(
            tbox.vocab(),
            &mut consts,
            "# comment\nq(x) :- r(x, y)\n\nq(u) :- r(u, w)\n",
        )
        .unwrap();
        assert_eq!(u.len(), 1, "alpha-equivalent disjuncts dedup");
        assert!(parse_onto_ucq(tbox.vocab(), &mut consts, "# nothing").is_err());
    }
}
