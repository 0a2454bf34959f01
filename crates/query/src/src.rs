//! CQs and UCQs over the source schema (n-ary relational atoms).
//!
//! These are the queries that are ultimately *evaluated*: mapping
//! unfolding turns an ontology UCQ into a source UCQ, and the evaluator in
//! [`crate::eval`] runs source CQs over a database [`obx_srcdb::View`].

use crate::onto::QueryError;
use crate::term::{Term, VarId};
use obx_srcdb::{ConstPool, RelId, Schema};
use obx_util::FxHashMap;
use std::cmp::Ordering;

/// An atom over the source schema.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SrcAtom {
    /// The relation.
    pub rel: RelId,
    /// Argument terms (length = declared arity; checked by the parser and
    /// by evaluation entry points).
    pub args: Box<[Term]>,
}

impl SrcAtom {
    /// Builds an atom.
    pub fn new(rel: RelId, args: impl IntoIterator<Item = Term>) -> Self {
        Self {
            rel,
            args: args.into_iter().collect(),
        }
    }

    /// Applies a substitution to every term.
    pub fn substitute(&self, subst: &FxHashMap<VarId, Term>) -> SrcAtom {
        SrcAtom {
            rel: self.rel,
            args: self
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => subst.get(&v).copied().unwrap_or(t),
                    c => c,
                })
                .collect(),
        }
    }

    /// Renders like `ENR(x0, "Math", x1)`.
    pub fn render(&self, schema: &Schema, consts: &ConstPool) -> String {
        let mut s = String::from(schema.name(self.rel));
        s.push('(');
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match t {
                Term::Var(v) => s.push_str(&format!("x{}", v.0)),
                Term::Const(c) => s.push_str(&format!("\"{}\"", consts.resolve(*c))),
            }
        }
        s.push(')');
        s
    }
}

/// A conjunctive query over the source schema. It is ordered field by
/// field (head, then body), so sorting a union's disjuncts gives a key
/// that ignores their order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SrcCq {
    head: Vec<VarId>,
    body: Vec<SrcAtom>,
}

impl SrcCq {
    /// Builds a CQ, enforcing safety and a non-empty body.
    pub fn new(head: Vec<VarId>, body: Vec<SrcAtom>) -> Result<Self, QueryError> {
        if body.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        for &h in &head {
            if !body.iter().any(|a| a.args.contains(&Term::Var(h))) {
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
    pub fn body(&self) -> &[SrcAtom] {
        &self.body
    }

    /// Arity of the query.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Number of body atoms.
    pub fn num_atoms(&self) -> usize {
        self.body.len()
    }

    /// Largest variable index used anywhere in the query.
    pub fn max_var(&self) -> Option<u32> {
        let mut max: Option<u32> = None;
        let mut upd = |v: VarId| max = Some(max.map_or(v.0, |m| m.max(v.0)));
        for &h in &self.head {
            upd(h);
        }
        for a in &self.body {
            for &t in a.args.iter() {
                if let Term::Var(v) = t {
                    upd(v);
                }
            }
        }
        max
    }

    /// Canonical variant (same contract as [`crate::OntoCq::canonical`]):
    /// a sound dedup key, invariant under most renamings/atom orders.
    /// Rename + sort + dedup passes run until one changes nothing; a pass
    /// whose output already numbers its variables in first-occurrence
    /// order is known to be that fixed point without running another.
    pub fn canonical(&self) -> SrcCq {
        let mut cur = self.canon_pass();
        for _ in 0..8 {
            if cur.numbered_in_order() {
                break;
            }
            let next = cur.canon_pass();
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }

    /// Whether the variables are `x0, x1, …` in order of first
    /// occurrence (head, then body left to right). Then a rename pass is
    /// the identity, and on a sorted, deduplicated body the whole pass is.
    fn numbered_in_order(&self) -> bool {
        let mut next = 0u32;
        let vars = self.head.iter().copied().chain(
            self.body
                .iter()
                .flat_map(|a| a.args.iter().filter_map(|t| t.as_var())),
        );
        for v in vars {
            if v.0 == next {
                next += 1;
            } else if v.0 > next {
                return false;
            }
        }
        true
    }

    fn canon_pass(&self) -> SrcCq {
        // Queries hold a handful of variables, so a scanned list beats a
        // hash map here.
        let mut rename: Vec<(VarId, VarId)> = Vec::new();
        let mut get = |v: VarId| -> VarId {
            match rename.iter().find(|&&(old, _)| old == v) {
                Some(&(_, new)) => new,
                None => {
                    let new = VarId(rename.len() as u32);
                    rename.push((v, new));
                    new
                }
            }
        };
        let head: Vec<VarId> = self.head.iter().map(|&v| get(v)).collect();
        let mut body: Vec<SrcAtom> = self
            .body
            .iter()
            .map(|a| SrcAtom {
                rel: a.rel,
                args: a
                    .args
                    .iter()
                    .map(|&t| match t {
                        Term::Var(v) => Term::Var(get(v)),
                        c => c,
                    })
                    .collect(),
            })
            .collect();
        body.sort_by(canon_order);
        body.dedup();
        SrcCq { head, body }
    }

    /// Renders like `q(x0) :- ENR(x0, x1, x2), LOC(x2, "Rome")`.
    pub fn render(&self, schema: &Schema, consts: &ConstPool) -> String {
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
            s.push_str(&a.render(schema, consts));
        }
        s
    }
}

fn key(t: Term) -> (u8, u32) {
    match t {
        Term::Var(v) => (0, v.0),
        Term::Const(c) => (1, c.0 .0),
    }
}

/// The body order of [`SrcCq::canonical`]: relation first, then the
/// arguments lexicographically by [`key`] (variables before constants).
/// It compares the key iterators in place, with no allocation.
fn canon_order(a: &SrcAtom, b: &SrcAtom) -> Ordering {
    a.rel.cmp(&b.rel).then_with(|| {
        a.args
            .iter()
            .map(|&t| key(t))
            .cmp(b.args.iter().map(|&t| key(t)))
    })
}

/// A union of source CQs (disjuncts canonicalized and deduplicated).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SrcUcq {
    disjuncts: Vec<SrcCq>,
}

impl SrcUcq {
    /// An empty union (unsatisfiable).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single-disjunct union.
    pub fn from_cq(cq: SrcCq) -> Self {
        let mut u = Self::default();
        u.push(cq);
        u
    }

    /// Adds a disjunct; returns whether it was new.
    pub fn push(&mut self, cq: SrcCq) -> bool {
        let canon = cq.canonical();
        if self.disjuncts.contains(&canon) {
            false
        } else {
            self.disjuncts.push(canon);
            true
        }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[SrcCq] {
        &self.disjuncts
    }

    /// Keeps the disjuncts `f` accepts, in order.
    pub fn retain(&mut self, f: impl FnMut(&SrcCq) -> bool) {
        self.disjuncts.retain(f);
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Whether the union is empty.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }
}

impl FromIterator<SrcCq> for SrcUcq {
    fn from_iter<T: IntoIterator<Item = SrcCq>>(iter: T) -> Self {
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
    use obx_srcdb::Schema;
    use proptest::prelude::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.declare("ENR", 3).unwrap();
        s.declare("LOC", 2).unwrap();
        s
    }

    #[test]
    fn safety() {
        let s = schema();
        let enr = s.rel("ENR").unwrap();
        assert!(SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(enr, [var(0), var(1), var(2)])]
        )
        .is_ok());
        assert!(SrcCq::new(
            vec![VarId(9)],
            vec![SrcAtom::new(enr, [var(0), var(1), var(2)])]
        )
        .is_err());
        assert!(SrcCq::new(vec![], vec![]).is_err());
    }

    #[test]
    fn canonical_renaming_invariance() {
        let s = schema();
        let enr = s.rel("ENR").unwrap();
        let loc = s.rel("LOC").unwrap();
        let q1 = SrcCq::new(
            vec![VarId(3)],
            vec![
                SrcAtom::new(enr, [var(3), var(7), var(8)]),
                SrcAtom::new(loc, [var(8), var(9)]),
            ],
        )
        .unwrap();
        let q2 = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(enr, [var(0), var(1), var(2)]),
                SrcAtom::new(loc, [var(2), var(4)]),
            ],
        )
        .unwrap();
        assert_eq!(q1.canonical(), q2.canonical());
    }

    #[test]
    fn ucq_dedup_and_render() {
        let s = schema();
        let mut pool = ConstPool::new();
        let rome = pool.intern("Rome");
        let loc = s.rel("LOC").unwrap();
        let cq = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(loc, [var(0), Term::Const(rome)])],
        )
        .unwrap();
        let mut u = SrcUcq::empty();
        assert!(u.push(cq.clone()));
        assert!(!u.push(cq.clone()));
        assert_eq!(u.len(), 1);
        assert_eq!(cq.render(&s, &pool), "q(x0) :- LOC(x0, \"Rome\")");
    }

    /// Random atoms over a two-relation schema: small variable and
    /// constant ranges, so equal prefixes and ties are common.
    fn random_atom(rng: &mut impl rand::Rng) -> SrcAtom {
        let rel = RelId(rng.gen_range(0..2));
        let arity = rng.gen_range(1..4);
        SrcAtom::new(
            rel,
            (0..arity).map(|_| {
                if rng.gen_bool(0.5) {
                    var(rng.gen_range(0..3))
                } else {
                    Term::Const(obx_srcdb::Const(obx_util::Symbol(rng.gen_range(0..3))))
                }
            }),
        )
    }

    proptest! {
        /// The in-place canonical order is the order the canonicalizer
        /// used before it stopped allocating: `(rel, Vec<key>)`
        /// lexicographic. Equal orders give byte-identical canonical
        /// forms.
        #[test]
        fn canon_order_equals_the_allocating_order(seed in 0u64..100_000, n in 1usize..8) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let atoms: Vec<SrcAtom> = (0..n).map(|_| random_atom(&mut rng)).collect();
            let old = |a: &SrcAtom, b: &SrcAtom| {
                (a.rel, a.args.iter().map(|&t| key(t)).collect::<Vec<_>>())
                    .cmp(&(b.rel, b.args.iter().map(|&t| key(t)).collect::<Vec<_>>()))
            };
            for a in &atoms {
                for b in &atoms {
                    prop_assert_eq!(canon_order(a, b), old(a, b), "{:?} vs {:?}", a, b);
                }
            }
            let (mut ours, mut theirs) = (atoms.clone(), atoms);
            ours.sort_by(canon_order);
            theirs.sort_by(old);
            prop_assert_eq!(ours, theirs);
        }
    }

    /// The canonicalizer before it skipped its last pass: a hash-map
    /// rename per pass, and passes until one changes nothing.
    fn reference_canonical(q: &SrcCq) -> SrcCq {
        let pass = |q: &SrcCq| {
            let mut rename: FxHashMap<VarId, VarId> = FxHashMap::default();
            let mut get = |v: VarId| {
                let n = rename.len() as u32;
                *rename.entry(v).or_insert(VarId(n))
            };
            let head: Vec<VarId> = q.head.iter().map(|&v| get(v)).collect();
            let mut body: Vec<SrcAtom> = q
                .body
                .iter()
                .map(|a| {
                    SrcAtom::new(
                        a.rel,
                        a.args.iter().map(|&t| match t {
                            Term::Var(v) => Term::Var(get(v)),
                            c => c,
                        }),
                    )
                })
                .collect();
            body.sort_by(canon_order);
            body.dedup();
            SrcCq { head, body }
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

    proptest! {
        /// Skipping the pass that would find nothing to change gives the
        /// same canonical form.
        #[test]
        fn canonical_equals_the_every_pass_reference(seed in 0u64..100_000, n in 1usize..6) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let body: Vec<SrcAtom> = (0..n)
                .map(|_| {
                    // Spread variable ids so renaming has work to do.
                    let a = random_atom(&mut rng);
                    let off: u32 = rng.gen_range(0..5);
                    SrcAtom::new(a.rel, a.args.iter().map(|&t| match t {
                        Term::Var(v) => var(v.0 * 3 + off),
                        c => c,
                    }))
                })
                .collect();
            let vars: Vec<VarId> = body
                .iter()
                .flat_map(|a| a.args.iter().filter_map(|t| t.as_var()))
                .collect();
            let head: Vec<VarId> = if vars.is_empty() {
                Vec::new()
            } else {
                (0..rng.gen_range(0..3)).map(|_| vars[rng.gen_range(0..vars.len())]).collect()
            };
            let q = SrcCq::new(head, body).unwrap();
            prop_assert_eq!(q.canonical(), reference_canonical(&q));
        }
    }

    #[test]
    fn substitute_and_max_var() {
        let s = schema();
        let loc = s.rel("LOC").unwrap();
        let a = SrcAtom::new(loc, [var(1), var(6)]);
        let mut sub = FxHashMap::default();
        sub.insert(VarId(6), Term::Var(VarId(1)));
        assert_eq!(a.substitute(&sub).args[1], var(1));
        let q = SrcCq::new(vec![VarId(1)], vec![a]).unwrap();
        assert_eq!(q.max_var(), Some(6));
    }
}
