//! CQ/UCQ containment.
//!
//! `q1 ⊑ q2` (every answer of `q1` is an answer of `q2`, on every database)
//! holds iff there is a homomorphism from `q2` into `q1` that maps the
//! i-th head term of `q2` to the i-th head term of `q1` (Chandra & Merlin).
//! UCQ containment reduces to: every disjunct of the left union is
//! contained in *some* disjunct of the right union (Sagiv & Yannakakis).
//!
//! Containment is used by the explanation search to prune
//! equivalent-or-weaker candidate queries, and by tests to validate
//! PerfectRef output.

use crate::onto::{OntoAtom, OntoCq, OntoUcq, QueryError};
use crate::rewrite::RewriteError;
use crate::src::{SrcAtom, SrcCq, SrcUcq};
use crate::term::{Term, VarId};
use obx_srcdb::RelId;
use obx_util::{FxHashMap, Interrupt};

/// Tries to extend the homomorphism `h` (from `from`'s variables to `into`'s
/// terms) so that every remaining atom of `from` lands on some atom of
/// `into`.
fn extend(
    from_atoms: &[SrcAtom],
    into_atoms: &[SrcAtom],
    idx: usize,
    h: &mut FxHashMap<VarId, Term>,
) -> bool {
    let Some(atom) = from_atoms.get(idx) else {
        return true;
    };
    'cands: for target in into_atoms {
        if target.rel != atom.rel || target.args.len() != atom.args.len() {
            continue;
        }
        // Try to unify this atom with the target, extending h.
        let mut trail: Vec<VarId> = Vec::new();
        for (&t_from, &t_into) in atom.args.iter().zip(target.args.iter()) {
            let ok = match t_from {
                Term::Const(c) => t_into == Term::Const(c),
                Term::Var(v) => match h.get(&v) {
                    Some(&mapped) => mapped == t_into,
                    None => {
                        h.insert(v, t_into);
                        trail.push(v);
                        true
                    }
                },
            };
            if !ok {
                for v in trail.drain(..) {
                    h.remove(&v);
                }
                continue 'cands;
            }
        }
        if extend(from_atoms, into_atoms, idx + 1, h) {
            return true;
        }
        for v in trail {
            h.remove(&v);
        }
    }
    false
}

/// Whether there is a head-preserving homomorphism from `from` into `into`.
fn homomorphism(from: &SrcCq, into: &SrcCq) -> bool {
    if from.arity() != into.arity() {
        return false;
    }
    let mut h: FxHashMap<VarId, Term> = FxHashMap::default();
    // Head condition: h(from.head[i]) = into.head[i].
    for (&vf, &vi) in from.head().iter().zip(into.head().iter()) {
        match h.get(&vf) {
            Some(&mapped) => {
                if mapped != Term::Var(vi) {
                    return false;
                }
            }
            None => {
                h.insert(vf, Term::Var(vi));
            }
        }
    }
    extend(from.body(), into.body(), 0, &mut h)
}

/// CQ containment: `q1 ⊑ q2`.
pub fn cq_contained(q1: &SrcCq, q2: &SrcCq) -> bool {
    homomorphism(q2, q1)
}

/// UCQ containment: `u1 ⊑ u2`.
pub fn ucq_contained(u1: &SrcUcq, u2: &SrcUcq) -> bool {
    u1.disjuncts()
        .iter()
        .all(|d1| u2.disjuncts().iter().any(|d2| cq_contained(d1, d2)))
}

/// Drops each disjunct of `ucq` contained in another one; of mutually
/// contained disjuncts the earliest stays. Returns how many were dropped.
/// The union keeps its answers on every database. The pair test is
/// quadratic, so `interrupt` is polled once per disjunct; when it fires
/// the call fails with the transient [`RewriteError::Interrupted`] and
/// leaves `ucq` as it was.
pub fn minimize_ucq(ucq: &mut SrcUcq, interrupt: &Interrupt) -> Result<usize, RewriteError> {
    let d = ucq.disjuncts();
    if d.len() < 2 {
        return Ok(0);
    }
    let mut keep = vec![true; d.len()];
    for i in 0..d.len() {
        if interrupt.is_triggered() {
            return Err(RewriteError::Interrupted);
        }
        keep[i] = !(0..d.len()).any(|j| {
            j != i
                && keep[j]
                && cq_contained(&d[i], &d[j])
                && (j < i || !cq_contained(&d[j], &d[i]))
        });
    }
    let dropped = keep.iter().filter(|&&k| !k).count();
    if dropped > 0 {
        let mut kept = keep.iter();
        ucq.retain(|_| kept.next().copied().unwrap_or(true));
    }
    Ok(dropped)
}

/// Whether two CQs are equivalent (mutual containment).
pub fn cq_equivalent(q1: &SrcCq, q2: &SrcCq) -> bool {
    cq_contained(q1, q2) && cq_contained(q2, q1)
}

/// Encodes an ontology CQ as a pseudo-source CQ over synthetic relation
/// ids (concepts on even ids, roles on odd ids), for reuse of the
/// homomorphism machinery. Only valid for containment checks between
/// queries over the *same* vocabulary — never evaluate the result.
///
/// The encoding keeps every variable of every atom, so a safe ontology CQ
/// always encodes to a safe source CQ; the `Result` only forwards
/// [`SrcCq::new`]'s check.
pub fn onto_to_pseudo_src(cq: &OntoCq) -> Result<SrcCq, QueryError> {
    let body = cq
        .body()
        .iter()
        .map(|a| match *a {
            OntoAtom::Concept(c, t) => SrcAtom::new(RelId(c.0 .0 * 2), [t]),
            OntoAtom::Role(r, t1, t2) => SrcAtom::new(RelId(r.0 .0 * 2 + 1), [t1, t2]),
        })
        .collect();
    SrcCq::new(cq.head().to_vec(), body)
}

/// CQ containment for ontology queries (no TBox; for TBox-aware containment
/// rewrite the right-hand side with [`crate::rewrite::perfect_ref`] first).
pub fn onto_cq_contained(q1: &OntoCq, q2: &OntoCq) -> bool {
    match (onto_to_pseudo_src(q1), onto_to_pseudo_src(q2)) {
        (Ok(p1), Ok(p2)) => cq_contained(&p1, &p2),
        // Unreachable for safe CQs; "not contained" is the sound answer.
        _ => false,
    }
}

/// UCQ containment for ontology queries (no TBox).
pub fn onto_ucq_contained(u1: &OntoUcq, u2: &OntoUcq) -> bool {
    u1.disjuncts()
        .iter()
        .all(|d1| u2.disjuncts().iter().any(|d2| onto_cq_contained(d1, d2)))
}

/// Computes the **core** of a CQ by greedy redundancy removal: an atom is
/// dropped when the query without it is still contained in the original
/// (dropping can only generalize, so mutual containment ⇔ equivalence).
/// The result is an equivalent query with no redundant atom — minimal in
/// the number of atoms among equivalent subqueries, which directly
/// improves the paper's parsimony criterion δ5 without changing any
/// match.
pub fn minimize_cq(cq: &SrcCq) -> SrcCq {
    let mut current = cq.clone();
    loop {
        let mut dropped = false;
        for i in 0..current.body().len() {
            if current.body().len() == 1 {
                break;
            }
            let mut body = current.body().to_vec();
            body.remove(i);
            let Ok(candidate) = SrcCq::new(current.head().to_vec(), body) else {
                continue; // dropping would unbind a head variable
            };
            // candidate ⊒ current always; equivalence iff candidate ⊑ current.
            if cq_contained(&candidate, &current) {
                current = candidate;
                dropped = true;
                break;
            }
        }
        if !dropped {
            return current;
        }
    }
}

/// [`minimize_cq`] for ontology CQs (via the pseudo-source encoding).
pub fn minimize_onto_cq(cq: &OntoCq) -> OntoCq {
    let mut current = cq.clone();
    loop {
        let mut dropped = false;
        for i in 0..current.body().len() {
            if current.body().len() == 1 {
                break;
            }
            let mut body = current.body().to_vec();
            body.remove(i);
            let Ok(candidate) = OntoCq::new(current.head().to_vec(), body) else {
                continue;
            };
            if onto_cq_contained(&candidate, &current) {
                current = candidate;
                dropped = true;
                break;
            }
        }
        if !dropped {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::var;
    use obx_srcdb::Schema;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.declare("R", 2).unwrap();
        s.declare("A", 1).unwrap();
        s
    }

    fn r(s: &Schema) -> RelId {
        s.rel("R").unwrap()
    }

    #[test]
    fn adding_atoms_restricts() {
        let s = schema();
        let a = s.rel("A").unwrap();
        // q1(x) :- R(x,y), A(x)   ⊑   q2(x) :- R(x,y)
        let q1 = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(r(&s), [var(0), var(1)]),
                SrcAtom::new(a, [var(0)]),
            ],
        )
        .unwrap();
        let q2 = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r(&s), [var(0), var(1)])]).unwrap();
        assert!(cq_contained(&q1, &q2));
        assert!(!cq_contained(&q2, &q1));
        assert!(!cq_equivalent(&q1, &q2));
    }

    #[test]
    fn chain_contained_in_single_edge() {
        let s = schema();
        // q1(x) :- R(x,y), R(y,z)  ⊑  q2(x) :- R(x,w)
        let q1 = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(r(&s), [var(0), var(1)]),
                SrcAtom::new(r(&s), [var(1), var(2)]),
            ],
        )
        .unwrap();
        let q2 = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r(&s), [var(0), var(3)])]).unwrap();
        assert!(cq_contained(&q1, &q2));
        assert!(!cq_contained(&q2, &q1));
    }

    #[test]
    fn redundant_atom_gives_equivalence() {
        let s = schema();
        // q1(x) :- R(x,y)  ≡  q2(x) :- R(x,y), R(x,z)
        let q1 = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r(&s), [var(0), var(1)])]).unwrap();
        let q2 = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(r(&s), [var(0), var(1)]),
                SrcAtom::new(r(&s), [var(0), var(2)]),
            ],
        )
        .unwrap();
        assert!(cq_equivalent(&q1, &q2));
    }

    #[test]
    fn constants_must_match() {
        let s = schema();
        let mut pool = obx_srcdb::ConstPool::new();
        let rome = pool.intern("Rome");
        let milan = pool.intern("Milan");
        let q_rome = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(r(&s), [var(0), Term::Const(rome)])],
        )
        .unwrap();
        let q_milan = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(r(&s), [var(0), Term::Const(milan)])],
        )
        .unwrap();
        let q_any =
            SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r(&s), [var(0), var(1)])]).unwrap();
        assert!(cq_contained(&q_rome, &q_any));
        assert!(!cq_contained(&q_any, &q_rome));
        assert!(!cq_contained(&q_rome, &q_milan));
    }

    #[test]
    fn head_positions_matter() {
        let s = schema();
        // q1(x,y) :- R(x,y) vs q2(x,y) :- R(y,x): incomparable.
        let q1 = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(r(&s), [var(0), var(1)])],
        )
        .unwrap();
        let q2 = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(r(&s), [var(1), var(0)])],
        )
        .unwrap();
        assert!(!cq_contained(&q1, &q2));
        assert!(!cq_contained(&q2, &q1));
        assert!(cq_contained(&q1, &q1));
    }

    #[test]
    fn arity_mismatch_is_never_contained() {
        let s = schema();
        let q1 = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r(&s), [var(0), var(1)])]).unwrap();
        let q2 = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(r(&s), [var(0), var(1)])],
        )
        .unwrap();
        assert!(!cq_contained(&q1, &q2));
    }

    #[test]
    fn ucq_containment() {
        let s = schema();
        let mut pool = obx_srcdb::ConstPool::new();
        let rome = pool.intern("Rome");
        let q_rome = SrcCq::new(
            vec![VarId(0)],
            vec![SrcAtom::new(r(&s), [var(0), Term::Const(rome)])],
        )
        .unwrap();
        let q_any =
            SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(r(&s), [var(0), var(1)])]).unwrap();
        let u_small = SrcUcq::from_cq(q_rome.clone());
        let u_big: SrcUcq = [q_rome, q_any].into_iter().collect();
        assert!(ucq_contained(&u_small, &u_big));
        assert!(!ucq_contained(&u_big, &u_small));
        // Empty union is contained in everything.
        assert!(ucq_contained(&SrcUcq::empty(), &u_small));
    }

    #[test]
    fn minimize_drops_redundant_atoms_only() {
        let s = schema();
        let a = s.rel("A").unwrap();
        // q(x) :- R(x,y), R(x,z), A(x): R(x,z) is redundant.
        let q = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(r(&s), [var(0), var(1)]),
                SrcAtom::new(r(&s), [var(0), var(2)]),
                SrcAtom::new(a, [var(0)]),
            ],
        )
        .unwrap();
        let core = minimize_cq(&q);
        assert_eq!(core.num_atoms(), 2);
        assert!(cq_equivalent(&q, &core));
        // A genuinely constraining chain loses nothing: R(x,y), R(y,z) has
        // no homomorphism into R(x,y) alone.
        let chain = SrcCq::new(
            vec![VarId(0)],
            vec![
                SrcAtom::new(r(&s), [var(0), var(1)]),
                SrcAtom::new(r(&s), [var(1), var(2)]),
            ],
        )
        .unwrap();
        assert_eq!(minimize_cq(&chain).num_atoms(), 2);
        // Head safety survives: the only atom binding the head stays.
        let single = SrcCq::new(vec![VarId(0)], vec![SrcAtom::new(a, [var(0)])]).unwrap();
        assert_eq!(minimize_cq(&single).num_atoms(), 1);
    }

    #[test]
    fn minimize_onto_cq_collapses_duplicated_patterns() {
        let mut vocab = obx_ontology::OntoVocab::new();
        let studies = vocab.role("studies");
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Role(studies, var(0), var(1)),
                OntoAtom::Role(studies, var(0), var(2)),
                OntoAtom::Role(studies, var(3), var(1)),
            ],
        )
        .unwrap();
        let core = minimize_onto_cq(&q);
        assert_eq!(core.num_atoms(), 1);
        assert!(onto_cq_contained(&q, &core) && onto_cq_contained(&core, &q));
    }

    #[test]
    fn onto_containment_via_pseudo_encoding() {
        let mut vocab = obx_ontology::OntoVocab::new();
        let student = vocab.concept("Student");
        let studies = vocab.role("studies");
        let q1 = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Concept(student, var(0)),
                OntoAtom::Role(studies, var(0), var(1)),
            ],
        )
        .unwrap();
        let q2 = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(studies, var(0), var(1))],
        )
        .unwrap();
        assert!(onto_cq_contained(&q1, &q2));
        assert!(!onto_cq_contained(&q2, &q1));
        let u1 = OntoUcq::from_cq(q1);
        let u2 = OntoUcq::from_cq(q2);
        assert!(onto_ucq_contained(&u1, &u2));
        assert!(!onto_ucq_contained(&u2, &u1));
    }
}
