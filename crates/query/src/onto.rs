//! CQs and UCQs over the ontology vocabulary.
//!
//! Atoms are unary (concept) or binary (role). A query like the paper's
//!
//! ```text
//! q1(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")
//! ```
//!
//! is an [`OntoCq`] with head `[x]` and three role atoms.

use crate::term::{Term, VarId};
use obx_ontology::{ConceptId, OntoVocab, RoleId};
use obx_srcdb::ConstPool;
use obx_util::FxHashMap;
use std::fmt;

/// An atom over the ontology vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OntoAtom {
    /// `A(t)` — concept membership.
    Concept(ConceptId, Term),
    /// `P(t1, t2)` — role membership (always over the *atomic* role; an
    /// inverse-role atom `P⁻(x, y)` is normalized to `P(y, x)`).
    Role(RoleId, Term, Term),
}

impl OntoAtom {
    /// The terms of the atom, in order.
    pub fn terms(&self) -> impl Iterator<Item = Term> {
        let (a, b) = match *self {
            OntoAtom::Concept(_, t) => (t, None),
            OntoAtom::Role(_, t1, t2) => (t1, Some(t2)),
        };
        std::iter::once(a).chain(b)
    }

    /// Applies a substitution to every term.
    pub fn substitute(&self, subst: &FxHashMap<VarId, Term>) -> OntoAtom {
        let map = |t: Term| match t {
            Term::Var(v) => subst.get(&v).copied().unwrap_or(t),
            Term::Const(_) => t,
        };
        match *self {
            OntoAtom::Concept(c, t) => OntoAtom::Concept(c, map(t)),
            OntoAtom::Role(r, t1, t2) => OntoAtom::Role(r, map(t1), map(t2)),
        }
    }

    /// Renders like `studies(x0, "Rome")`.
    pub fn render(&self, vocab: &OntoVocab, consts: &ConstPool) -> String {
        let term = |t: Term| match t {
            Term::Var(v) => format!("x{}", v.0),
            Term::Const(c) => format!("\"{}\"", consts.resolve(c)),
        };
        match *self {
            OntoAtom::Concept(c, t) => format!("{}({})", vocab.concept_name(c), term(t)),
            OntoAtom::Role(r, t1, t2) => {
                format!("{}({}, {})", vocab.role_name(r), term(t1), term(t2))
            }
        }
    }
}

/// Errors constructing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in the body (unsafe query).
    UnsafeHead(VarId),
    /// The body is empty.
    EmptyBody,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeHead(v) => write!(f, "head variable x{} not bound by body", v.0),
            QueryError::EmptyBody => write!(f, "query body is empty"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive query over the ontology vocabulary.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OntoCq {
    /// Answer variables (possibly with repeats).
    head: Vec<VarId>,
    /// Body atoms.
    body: Vec<OntoAtom>,
}

impl OntoCq {
    /// Builds a CQ, enforcing safety (every head variable occurs in the
    /// body) and a non-empty body.
    pub fn new(head: Vec<VarId>, body: Vec<OntoAtom>) -> Result<Self, QueryError> {
        if body.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        for &h in &head {
            let occurs = body.iter().any(|a| a.terms().any(|t| t == Term::Var(h)));
            if !occurs {
                return Err(QueryError::UnsafeHead(h));
            }
        }
        Ok(Self { head, body })
    }

    /// The answer variables.
    #[inline]
    pub fn head(&self) -> &[VarId] {
        &self.head
    }

    /// The body atoms.
    #[inline]
    pub fn body(&self) -> &[OntoAtom] {
        &self.body
    }

    /// Arity of the query (length of the head).
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Number of body atoms — the paper's criterion δ5 measures this.
    pub fn num_atoms(&self) -> usize {
        self.body.len()
    }

    /// Number of occurrences of each variable in the body.
    pub fn occurrences(&self) -> FxHashMap<VarId, usize> {
        let mut occ: FxHashMap<VarId, usize> = FxHashMap::default();
        for atom in &self.body {
            for t in atom.terms() {
                if let Term::Var(v) = t {
                    *occ.entry(v).or_insert(0) += 1;
                }
            }
        }
        occ
    }

    /// Whether `v` is *bound* in the PerfectRef sense: it appears in the
    /// head, or at least twice in the body. Unbound variables act as
    /// existential "don't cares".
    pub fn is_bound(&self, v: VarId, occ: &FxHashMap<VarId, usize>) -> bool {
        self.head.contains(&v) || occ.get(&v).copied().unwrap_or(0) >= 2
    }

    /// The largest variable index used (`None` if the query has only
    /// constants — impossible for safe queries with non-empty heads).
    pub fn max_var(&self) -> Option<u32> {
        let mut max = None;
        for &h in &self.head {
            max = Some(max.map_or(h.0, |m: u32| m.max(h.0)));
        }
        for atom in &self.body {
            for t in atom.terms() {
                if let Term::Var(v) = t {
                    max = Some(max.map_or(v.0, |m: u32| m.max(v.0)));
                }
            }
        }
        max
    }

    /// Applies a substitution to the body (head variables must not be
    /// remapped to constants by callers that want to keep the query safe).
    pub fn substitute_body(&self, subst: &FxHashMap<VarId, Term>) -> OntoCq {
        OntoCq {
            head: self.head.clone(),
            body: self.body.iter().map(|a| a.substitute(subst)).collect(),
        }
    }

    /// Replaces the body wholesale (used by rewriting steps).
    pub fn with_body(&self, body: Vec<OntoAtom>) -> OntoCq {
        OntoCq {
            head: self.head.clone(),
            body,
        }
    }

    /// Canonical variant: variables renamed to `0, 1, 2, …` in order of
    /// first occurrence (head first, then body left-to-right), and body
    /// atoms deduplicated and sorted; the rename/sort pass is iterated to a
    /// fixed point. The result is a *sound* dedup key: equal canonical
    /// forms imply equivalent queries. It is not a complete graph
    /// canonicalization (that would require isomorphism testing), which is
    /// fine for its uses — PerfectRef termination only needs the canonical
    /// space to be finite, and search dedup only needs soundness.
    pub fn canonical(&self) -> OntoCq {
        if self.is_canonical() {
            return self.clone();
        }
        let mut cur = self.canon_pass();
        for _ in 0..8 {
            if cur.is_canonical() {
                break;
            }
            cur = cur.canon_pass();
        }
        cur
    }

    /// Whether a rename + sort + dedup pass leaves this query as it is:
    /// its variables are `0, 1, 2, …` in order of first occurrence (head
    /// first, then body left-to-right), and its body atoms are strictly
    /// sorted. Such a query is its own [`OntoCq::canonical`] form.
    pub fn is_canonical(&self) -> bool {
        let mut next = 0u32;
        let mut in_order = |v: VarId| {
            if v.0 < next {
                true
            } else if v.0 == next {
                next += 1;
                true
            } else {
                false
            }
        };
        let vars_in_order = self.head.iter().all(|&v| in_order(v))
            && self
                .body
                .iter()
                .flat_map(OntoAtom::terms)
                .all(|t| !matches!(t, Term::Var(v) if !in_order(v)));
        vars_in_order
            && self
                .body
                .windows(2)
                .all(|w| atom_sort_key(&w[0]) < atom_sort_key(&w[1]))
    }

    /// One rename + sort + dedup pass of [`OntoCq::canonical`]. A query
    /// has few variables, so the renaming is a linear scan of the ones
    /// seen so far: the new name of a variable is its index there.
    fn canon_pass(&self) -> OntoCq {
        let mut seen: Vec<VarId> = Vec::new();
        let mut get = |v: VarId| -> VarId {
            let i = seen.iter().position(|&w| w == v).unwrap_or_else(|| {
                seen.push(v);
                seen.len() - 1
            });
            VarId(i as u32)
        };
        let head: Vec<VarId> = self.head.iter().map(|&v| get(v)).collect();
        let mut map = |t: Term| match t {
            Term::Var(v) => Term::Var(get(v)),
            c => c,
        };
        let mut body: Vec<OntoAtom> = self
            .body
            .iter()
            .map(|a| match *a {
                OntoAtom::Concept(c, t) => OntoAtom::Concept(c, map(t)),
                OntoAtom::Role(r, t1, t2) => {
                    let t1 = map(t1);
                    OntoAtom::Role(r, t1, map(t2))
                }
            })
            .collect();
        // Note: dedup+sort *after* renaming keeps the renaming dependent
        // only on the original syntactic order, which is deterministic.
        body.sort_by_key(atom_sort_key);
        body.dedup();
        OntoCq { head, body }
    }

    /// Renders like `q(x0) :- studies(x0, x1), Course(x1)`.
    pub fn render(&self, vocab: &OntoVocab, consts: &ConstPool) -> String {
        let mut s = String::from("q(");
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("x{}", v.0));
        }
        s.push_str(") :- ");
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&a.render(vocab, consts));
        }
        s
    }
}

fn term_sort_key(t: Term) -> (u8, u32) {
    match t {
        Term::Var(v) => (0, v.0),
        Term::Const(c) => (1, c.0 .0),
    }
}

fn atom_sort_key(a: &OntoAtom) -> (u8, u32, (u8, u32), (u8, u32)) {
    match *a {
        OntoAtom::Concept(c, t) => (0, c.0 .0, term_sort_key(t), (0, 0)),
        OntoAtom::Role(r, t1, t2) => (1, r.0 .0, term_sort_key(t1), term_sort_key(t2)),
    }
}

/// A union of conjunctive queries over the ontology vocabulary.
///
/// Disjuncts are kept canonicalized and deduplicated.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct OntoUcq {
    disjuncts: Vec<OntoCq>,
}

impl OntoUcq {
    /// An empty union (unsatisfiable query).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single-disjunct union.
    pub fn from_cq(cq: OntoCq) -> Self {
        let mut u = Self::default();
        u.push(cq);
        u
    }

    /// Adds a disjunct (canonicalized; duplicates ignored). Returns whether
    /// the disjunct was new.
    pub fn push(&mut self, cq: OntoCq) -> bool {
        let canon = cq.canonical();
        if self.disjuncts.contains(&canon) {
            false
        } else {
            self.disjuncts.push(canon);
            true
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[OntoCq] {
        &self.disjuncts
    }

    /// Number of disjuncts — the paper's criterion δ6 measures this.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Whether the union is empty.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Renders one disjunct per line.
    pub fn render(&self, vocab: &OntoVocab, consts: &ConstPool) -> String {
        let mut s = String::new();
        for d in &self.disjuncts {
            s.push_str(&d.render(vocab, consts));
            s.push('\n');
        }
        s
    }
}

impl FromIterator<OntoCq> for OntoUcq {
    fn from_iter<T: IntoIterator<Item = OntoCq>>(iter: T) -> Self {
        let mut u = Self::default();
        for cq in iter {
            u.push(cq);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::var;
    use obx_ontology::OntoVocab;

    fn vocab() -> (OntoVocab, ConceptId, RoleId) {
        let mut v = OntoVocab::new();
        let student = v.concept("Student");
        let studies = v.role("studies");
        (v, student, studies)
    }

    #[test]
    fn safety_is_enforced() {
        let (_, student, _) = vocab();
        let ok = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(student, var(0))]);
        assert!(ok.is_ok());
        let unsafe_q = OntoCq::new(vec![VarId(1)], vec![OntoAtom::Concept(student, var(0))]);
        assert_eq!(unsafe_q.unwrap_err(), QueryError::UnsafeHead(VarId(1)));
        let empty = OntoCq::new(vec![], vec![]);
        assert_eq!(empty.unwrap_err(), QueryError::EmptyBody);
    }

    #[test]
    fn boundness_matches_perfectref_definition() {
        let (_, _, studies) = vocab();
        // q(x0) :- studies(x0, x1): x1 occurs once and not in head -> unbound.
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(studies, var(0), var(1))],
        )
        .unwrap();
        let occ = q.occurrences();
        assert!(q.is_bound(VarId(0), &occ));
        assert!(!q.is_bound(VarId(1), &occ));
        // Adding a second occurrence binds x1.
        let q2 = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Role(studies, var(0), var(1)),
                OntoAtom::Role(studies, var(1), var(0)),
            ],
        )
        .unwrap();
        let occ2 = q2.occurrences();
        assert!(q2.is_bound(VarId(1), &occ2));
    }

    #[test]
    fn canonical_is_invariant_under_renaming_and_order() {
        let (_, student, studies) = vocab();
        let q1 = OntoCq::new(
            vec![VarId(5)],
            vec![
                OntoAtom::Role(studies, var(5), var(9)),
                OntoAtom::Concept(student, var(5)),
            ],
        )
        .unwrap();
        let q2 = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Concept(student, var(0)),
                OntoAtom::Role(studies, var(0), var(2)),
            ],
        )
        .unwrap();
        assert_eq!(q1.canonical(), q2.canonical());
        // Canonical dedups repeated atoms.
        let q3 = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Concept(student, var(0)),
                OntoAtom::Concept(student, var(0)),
            ],
        )
        .unwrap();
        assert_eq!(q3.canonical().num_atoms(), 1);
    }

    #[test]
    fn canonical_distinguishes_different_queries() {
        let (_, student, studies) = vocab();
        let q1 = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(student, var(0))]).unwrap();
        let q2 = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(studies, var(0), var(1))],
        )
        .unwrap();
        assert_ne!(q1.canonical(), q2.canonical());
        // Join structure matters: studies(x,y),studies(y,z) != studies(x,y),studies(z,w)
        let chain = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Role(studies, var(0), var(1)),
                OntoAtom::Role(studies, var(1), var(2)),
            ],
        )
        .unwrap();
        let fork = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Role(studies, var(0), var(1)),
                OntoAtom::Role(studies, var(2), var(3)),
            ],
        )
        .unwrap();
        assert_ne!(chain.canonical(), fork.canonical());
    }

    /// The rename + sort + dedup pass as it was written with a hash
    /// map, iterated to a fixed point with no shortcut.
    fn canonical_by_hash_map(q: &OntoCq) -> OntoCq {
        let pass = |q: &OntoCq| {
            let mut rename: FxHashMap<VarId, VarId> = FxHashMap::default();
            let mut get = |v: VarId| {
                let n = rename.len() as u32;
                *rename.entry(v).or_insert(VarId(n))
            };
            let head: Vec<VarId> = q.head().iter().map(|&v| get(v)).collect();
            let mut map = |t: Term| match t {
                Term::Var(v) => Term::Var(get(v)),
                c => c,
            };
            let mut body: Vec<OntoAtom> = q
                .body()
                .iter()
                .map(|a| match *a {
                    OntoAtom::Concept(c, t) => OntoAtom::Concept(c, map(t)),
                    OntoAtom::Role(r, t1, t2) => {
                        let t1 = map(t1);
                        OntoAtom::Role(r, t1, map(t2))
                    }
                })
                .collect();
            body.sort_by_key(atom_sort_key);
            body.dedup();
            OntoCq { head, body }
        };
        let mut cur = pass(q);
        for _ in 0..8 {
            let next = pass(&cur);
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }

    #[test]
    fn canonical_matches_the_hash_map_renaming_and_is_canonical_its_fixed_point() {
        use rand::{Rng, SeedableRng};
        let mut v = OntoVocab::new();
        let concepts = [v.concept("A"), v.concept("B")];
        let roles = [v.role("r"), v.role("s")];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..2_000 {
            let term = |rng: &mut rand::rngs::StdRng| {
                if rng.gen_range(0..5u32) == 0 {
                    Term::Const(obx_srcdb::Const(obx_util::Symbol(rng.gen_range(0..2u32))))
                } else {
                    var(rng.gen_range(0..5u32))
                }
            };
            let body: Vec<OntoAtom> = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    if rng.gen_range(0..2u32) == 0 {
                        OntoAtom::Concept(concepts[rng.gen_range(0..2usize)], term(&mut rng))
                    } else {
                        let r = roles[rng.gen_range(0..2usize)];
                        let s = term(&mut rng);
                        OntoAtom::Role(r, s, term(&mut rng))
                    }
                })
                .collect();
            let head: Vec<VarId> = body
                .iter()
                .flat_map(OntoAtom::terms)
                .find_map(|t| match t {
                    Term::Var(v) => Some(v),
                    Term::Const(_) => None,
                })
                .into_iter()
                .collect();
            let q = OntoCq::new(head, body).unwrap();
            let canon = q.canonical();
            assert_eq!(canon, canonical_by_hash_map(&q), "{q:?}");
            assert_eq!(q.is_canonical(), q.canon_pass() == q, "{q:?}");
        }
    }

    #[test]
    fn ucq_dedups_up_to_renaming() {
        let (_, student, _) = vocab();
        let mut u = OntoUcq::empty();
        let q1 = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(student, var(0))]).unwrap();
        let q2 = OntoCq::new(vec![VarId(7)], vec![OntoAtom::Concept(student, var(7))]).unwrap();
        assert!(u.push(q1));
        assert!(!u.push(q2));
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn substitution_and_max_var() {
        let (_, _, studies) = vocab();
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(studies, var(0), var(4))],
        )
        .unwrap();
        assert_eq!(q.max_var(), Some(4));
        let mut subst = FxHashMap::default();
        subst.insert(VarId(4), Term::Var(VarId(0)));
        let q2 = q.substitute_body(&subst);
        assert_eq!(q2.body()[0], OntoAtom::Role(studies, var(0), var(0)));
    }

    #[test]
    fn render_is_stable() {
        let (v, student, studies) = vocab();
        let mut consts = ConstPool::new();
        let rome = consts.intern("Rome");
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Concept(student, var(0)),
                OntoAtom::Role(studies, var(0), Term::Const(rome)),
            ],
        )
        .unwrap();
        assert_eq!(
            q.render(&v, &consts),
            "q(x0) :- Student(x0), studies(x0, \"Rome\")"
        );
    }
}
