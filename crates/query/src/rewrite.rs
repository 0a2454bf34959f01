//! **PerfectRef** — first-order rewriting of UCQs w.r.t. a DL-Lite_R TBox.
//!
//! This is the algorithm of Calvanese, De Giacomo, Lembo, Lenzerini &
//! Rosati, *Tractable Reasoning and Efficient Query Answering in
//! Description Logics: The DL-Lite Family* (JAR 2007) — the engine behind
//! every OBDM platform in the paper's lineage. Given a UCQ `q` over the
//! ontology and the positive inclusions (PIs) of a TBox `T`, it produces a
//! UCQ `q'` such that for every ABox `A`:
//!
//! ```text
//! cert(q, T, A)  =  eval(q', A)
//! ```
//!
//! i.e. all TBox reasoning is compiled into the query, and certain answers
//! reduce to plain evaluation. The two rule kinds:
//!
//! * **(a) atom rewriting** — if a PI `I` is *applicable* to an atom `g`,
//!   replace `g` with `gr(g, I)` (the atom that `I` would use to derive
//!   `g`). Applicability depends on *boundness*: a variable is unbound if
//!   it occurs exactly once in the query and not in the head.
//! * **(b) reduce** — unify two body atoms with their most general unifier;
//!   this can turn bound variables into unbound ones and unlock further
//!   (a)-steps.
//!
//! **Known deviation.** Our CQ heads hold variables only, so a reduce step
//! whose mgu would map an *answer variable to a constant* is skipped. Such
//! steps can only matter for queries that join an answer variable with a
//! constant through two unifiable atoms — none of our workloads (nor the
//! paper's examples) need it, and the rewrite-vs-materialize cross-check
//! property tests in `obx-obdm` guard the equivalence on random scenarios.

use crate::onto::{OntoAtom, OntoCq, OntoUcq};
use crate::term::{Term, VarId};
use obx_ontology::{Axiom, BasicConcept, ConceptRhs, Role, RoleRhs, TBox};
use obx_util::{FxHashMap, FxHashSet, GuardKind, GuardTrip};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::LazyLock;

/// Process-wide count of admitted rewrite disjuncts, across every rewrite
/// of the process (the per-run counts live on the `rewrite` span).
static REWRITE_DISJUNCTS: LazyLock<&'static obx_util::obs::Counter> =
    LazyLock::new(|| obx_util::obs::counter("obx.rewrite.disjuncts"));

/// Resource limits for the rewriting.
#[derive(Debug, Clone, Copy)]
pub struct RewriteBudget {
    /// Maximum number of distinct CQs generated (including the inputs).
    pub max_disjuncts: usize,
}

impl Default for RewriteBudget {
    fn default() -> Self {
        Self {
            max_disjuncts: 20_000,
        }
    }
}

/// Rewriting failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The rewriting produced more CQs than allowed.
    BudgetExceeded {
        /// The limit that was hit.
        max_disjuncts: usize,
    },
    /// The caller's [`Interrupt`](obx_util::Interrupt) fired (deadline or
    /// cancellation) before the rewriting reached a fixed point. Unlike
    /// [`RewriteError::BudgetExceeded`] this is not a property of the
    /// query — retrying with a fresh interrupt may succeed — so callers
    /// must not cache it as a permanent failure.
    Interrupted,
    /// The run's [`ResourceGuard`](obx_util::ResourceGuard) tripped — this
    /// or an earlier rewrite pushed a cumulative counter over its limit.
    /// Like [`RewriteError::Interrupted`] this is *transient* (a property
    /// of the run, not of the query): callers skip the candidate and must
    /// not memoize the failure.
    ResourceLimit(GuardTrip),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::BudgetExceeded { max_disjuncts } => {
                write!(f, "rewriting exceeded {max_disjuncts} disjuncts")
            }
            RewriteError::Interrupted => write!(f, "rewriting interrupted"),
            RewriteError::ResourceLimit(trip) => {
                write!(f, "rewriting stopped by resource guard: {trip}")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Is the term unbound in `cq` (a variable occurring once, not in the head)?
fn unbound(cq: &OntoCq, occ: &FxHashMap<VarId, usize>, t: Term) -> bool {
    match t {
        Term::Const(_) => false,
        Term::Var(v) => !cq.is_bound(v, occ),
    }
}

/// Builds the role atom for role expression `role` applied to `(a, b)`.
fn role_atom(role: Role, a: Term, b: Term) -> OntoAtom {
    if role.inverse {
        OntoAtom::Role(role.id, b, a)
    } else {
        OntoAtom::Role(role.id, a, b)
    }
}

/// `gr(subject, B)` — the atom stating `subject ∈ B`, with a fresh variable
/// for the existential witness when `B` is `∃R`.
fn gr_concept(subject: Term, lhs: BasicConcept, fresh: &mut u32) -> OntoAtom {
    match lhs {
        BasicConcept::Atomic(a) => OntoAtom::Concept(a, subject),
        BasicConcept::Exists(role) => {
            let w = Term::Var(VarId(*fresh));
            *fresh += 1;
            role_atom(role, subject, w)
        }
    }
}

/// All single-step (a)-rewritings of atom `g` in `cq` under PI `pi`.
fn rewrite_atom(
    cq: &OntoCq,
    occ: &FxHashMap<VarId, usize>,
    g: &OntoAtom,
    pi: &Axiom,
    fresh: &mut u32,
) -> Option<OntoAtom> {
    match (*g, pi) {
        // g = A(x), PI = B ⊑ A.
        (OntoAtom::Concept(a, x), Axiom::ConceptIncl(lhs, ConceptRhs::Basic(rhs))) => {
            if *rhs == BasicConcept::Atomic(a) {
                Some(gr_concept(x, *lhs, fresh))
            } else {
                None
            }
        }
        // g = R(x1, x2).
        (OntoAtom::Role(r, x1, x2), Axiom::ConceptIncl(lhs, ConceptRhs::Basic(rhs))) => {
            // PI = B ⊑ ∃R applicable when x2 is unbound.
            if *rhs == BasicConcept::Exists(Role::direct(r)) && unbound(cq, occ, x2) {
                return Some(gr_concept(x1, *lhs, fresh));
            }
            // PI = B ⊑ ∃R⁻ applicable when x1 is unbound.
            if *rhs == BasicConcept::Exists(Role::inv(r)) && unbound(cq, occ, x1) {
                return Some(gr_concept(x2, *lhs, fresh));
            }
            None
        }
        // g = R(x1, x2), PI = S ⊑ R (role inclusion, possibly with inverses).
        (OntoAtom::Role(r, x1, x2), Axiom::RoleIncl(lhs, RoleRhs::Role(rhs))) => {
            if rhs.id != r {
                return None;
            }
            let (a, b) = if rhs.inverse { (x2, x1) } else { (x1, x2) };
            Some(role_atom(*lhs, a, b))
        }
        _ => None,
    }
}

/// Resolves a term through the substitution being built by unification.
fn walk(subst: &FxHashMap<VarId, Term>, mut t: Term) -> Term {
    while let Term::Var(v) = t {
        match subst.get(&v) {
            Some(&next) => t = next,
            None => break,
        }
    }
    t
}

fn unify_terms(subst: &mut FxHashMap<VarId, Term>, t1: Term, t2: Term) -> bool {
    let t1 = walk(subst, t1);
    let t2 = walk(subst, t2);
    match (t1, t2) {
        (Term::Const(a), Term::Const(b)) => a == b,
        (Term::Var(v), other) | (other, Term::Var(v)) => {
            if Term::Var(v) != other {
                subst.insert(v, other);
            }
            true
        }
    }
}

/// Most general unifier of two atoms, if they unify.
fn unify_atoms(a1: &OntoAtom, a2: &OntoAtom) -> Option<FxHashMap<VarId, Term>> {
    let mut subst = FxHashMap::default();
    let ok = match (*a1, *a2) {
        (OntoAtom::Concept(c1, t1), OntoAtom::Concept(c2, t2)) => {
            c1 == c2 && unify_terms(&mut subst, t1, t2)
        }
        (OntoAtom::Role(r1, s1, o1), OntoAtom::Role(r2, s2, o2)) => {
            r1 == r2 && unify_terms(&mut subst, s1, s2) && unify_terms(&mut subst, o1, o2)
        }
        _ => false,
    };
    if ok {
        Some(subst)
    } else {
        None
    }
}

/// Applies a unifier to the whole query; returns `None` when an answer
/// variable would become a constant (see module docs).
fn apply_mgu(cq: &OntoCq, subst: &FxHashMap<VarId, Term>) -> Option<OntoCq> {
    let mut head = Vec::with_capacity(cq.head().len());
    for &h in cq.head() {
        match walk(subst, Term::Var(h)) {
            Term::Var(v) => head.push(v),
            Term::Const(_) => return None,
        }
    }
    let body: Vec<OntoAtom> = cq
        .body()
        .iter()
        .map(|a| {
            let map = |t: Term| walk(subst, t);
            match *a {
                OntoAtom::Concept(c, t) => OntoAtom::Concept(c, map(t)),
                OntoAtom::Role(r, t1, t2) => OntoAtom::Role(r, map(t1), map(t2)),
            }
        })
        .collect();
    // Head stays safe: substitution maps head vars to vars occurring in the
    // body image, so `OntoCq::new` accepts it.
    OntoCq::new(head, body).ok()
}

/// Computes the perfect rewriting of `ucq` w.r.t. the positive inclusions
/// of `tbox`. See the module documentation.
pub fn perfect_ref(
    ucq: &OntoUcq,
    tbox: &TBox,
    budget: RewriteBudget,
) -> Result<OntoUcq, RewriteError> {
    perfect_ref_interruptible(ucq, tbox, budget, &obx_util::Interrupt::none())
}

/// [`perfect_ref`] with a cooperative stop signal: the worklist loop polls
/// `interrupt` once per popped CQ and returns [`RewriteError::Interrupted`]
/// when it fires, so one pathological rewrite cannot pin a deadline-bound
/// search. The inert interrupt makes this identical to [`perfect_ref`].
pub fn perfect_ref_interruptible(
    ucq: &OntoUcq,
    tbox: &TBox,
    budget: RewriteBudget,
    interrupt: &obx_util::Interrupt,
) -> Result<OntoUcq, RewriteError> {
    // Observability wrapper: one `rewrite` span per invocation carrying
    // the disjunct counters; the inner function is the actual algorithm.
    let mut sp = obx_util::span!(interrupt.recorder(), "rewrite");
    let attempts = Cell::new(0u64);
    let admitted = Cell::new(0u64);
    let minimized_away = Cell::new(0u64);
    let result = perfect_ref_inner(
        ucq,
        tbox,
        budget,
        interrupt,
        &attempts,
        &admitted,
        &minimized_away,
    );
    sp.count("attempts", attempts.get());
    sp.count("disjuncts", admitted.get());
    sp.count("deduped", attempts.get().saturating_sub(admitted.get()));
    sp.count("minimized_away", minimized_away.get());
    if matches!(result, Err(RewriteError::ResourceLimit(_))) {
        sp.count("guard_clipped", 1);
    }
    REWRITE_DISJUNCTS.add(admitted.get());
    result
}

#[allow(clippy::too_many_arguments)]
fn perfect_ref_inner(
    ucq: &OntoUcq,
    tbox: &TBox,
    budget: RewriteBudget,
    interrupt: &obx_util::Interrupt,
    attempts: &Cell<u64>,
    admitted: &Cell<u64>,
    minimized_away: &Cell<u64>,
) -> Result<OntoUcq, RewriteError> {
    let pis: Vec<&Axiom> = tbox.positive_inclusions().collect();
    // The reduce step exists solely to turn bound variables unbound so
    // that PIs of the form `B ⊑ ∃R` become applicable (their
    // applicability is the only boundness-dependent condition). When the
    // TBox has no such PI, every reduce result is a homomorphic image of
    // its parent — subsumed, hence redundant for UCQ semantics — and can
    // be skipped wholesale. This turns PerfectRef from exponential to
    // linear on large queries over hierarchy-only TBoxes (the common case
    // in the explanation search's bottom-up seeds).
    let needs_reduce = tbox.has_existential_rhs();
    let mut seen: FxHashSet<OntoCq> = FxHashSet::default();
    let mut queue: VecDeque<OntoCq> = VecDeque::new();
    let mut out: Vec<OntoCq> = Vec::new();

    let admit = |cq: OntoCq,
                 seen: &mut FxHashSet<OntoCq>,
                 queue: &mut VecDeque<OntoCq>,
                 out: &mut Vec<OntoCq>|
     -> Result<(), RewriteError> {
        attempts.set(attempts.get() + 1);
        let canon = cq.canonical();
        if seen.insert(canon.clone()) {
            admitted.set(admitted.get() + 1);
            if seen.len() > budget.max_disjuncts {
                return Err(RewriteError::BudgetExceeded {
                    max_disjuncts: budget.max_disjuncts,
                });
            }
            // Charge the run-wide resource guard per admitted disjunct: the
            // counter is cumulative across every rewrite of the run, so a
            // blown-up query space fails here (transiently) instead of
            // exhausting memory.
            if let Some(guard) = interrupt.guard() {
                let approx_bytes =
                    std::mem::size_of_val(canon.body()) + std::mem::size_of_val(canon.head());
                if !guard.charge(GuardKind::RewriteDisjuncts, 1, approx_bytes) {
                    let trip = guard.trip().unwrap_or(GuardTrip {
                        kind: GuardKind::RewriteDisjuncts,
                        limit: 0,
                        observed: 0,
                    });
                    return Err(RewriteError::ResourceLimit(trip));
                }
            }
            queue.push_back(canon.clone());
            out.push(canon);
        }
        Ok(())
    };

    for cq in ucq.disjuncts() {
        admit(cq.clone(), &mut seen, &mut queue, &mut out)?;
    }

    while let Some(cq) = queue.pop_front() {
        if interrupt.is_triggered() {
            return Err(RewriteError::Interrupted);
        }
        let occ = cq.occurrences();
        let mut fresh = cq.max_var().map_or(0, |m| m + 1);
        // (a) atom rewriting.
        for (i, g) in cq.body().iter().enumerate() {
            for pi in &pis {
                if let Some(new_atom) = rewrite_atom(&cq, &occ, g, pi, &mut fresh) {
                    let mut body = cq.body().to_vec();
                    body[i] = new_atom;
                    let q2 = cq.with_body(body);
                    admit(q2, &mut seen, &mut queue, &mut out)?;
                }
            }
        }
        // (b) reduce.
        if !needs_reduce {
            continue;
        }
        for i in 0..cq.body().len() {
            for j in (i + 1)..cq.body().len() {
                if let Some(mgu) = unify_atoms(&cq.body()[i], &cq.body()[j]) {
                    if mgu.is_empty() {
                        continue; // identical atoms; canonical() already dedups
                    }
                    if let Some(q2) = apply_mgu(&cq, &mgu) {
                        admit(q2, &mut seen, &mut queue, &mut out)?;
                    }
                }
            }
        }
    }

    let before = out.len();
    out = minimize(out);
    minimized_away.set((before - out.len()) as u64);
    let mut result = OntoUcq::empty();
    for cq in out {
        result.push(cq);
    }
    Ok(result)
}

/// Drops disjuncts strictly subsumed by another disjunct.
fn minimize(disjuncts: Vec<OntoCq>) -> Vec<OntoCq> {
    use crate::containment::onto_cq_contained;
    let mut keep: Vec<bool> = vec![true; disjuncts.len()];
    for i in 0..disjuncts.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..disjuncts.len() {
            if i == j || !keep[j] {
                continue;
            }
            // Drop i if i ⊑ j (j already covers i's answers). Of two
            // mutually contained disjuncts the earlier one is dropped when
            // its turn comes, so the later one stays.
            if onto_cq_contained(&disjuncts[i], &disjuncts[j])
                && !(j < i && onto_cq_contained(&disjuncts[j], &disjuncts[i]))
            {
                keep[i] = false;
                break;
            }
        }
    }
    disjuncts
        .into_iter()
        .zip(keep)
        .filter_map(|(d, k)| k.then_some(d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::var;
    use obx_ontology::parse_tbox;

    fn rewrite_one(tbox: &TBox, cq: OntoCq) -> OntoUcq {
        perfect_ref(&OntoUcq::from_cq(cq), tbox, RewriteBudget::default()).unwrap()
    }

    #[test]
    fn role_inclusion_rewrites_role_atom() {
        // The paper's Example 3.6 ontology: studies ⊑ likes.
        let tbox = parse_tbox("role studies likes\nstudies < likes").unwrap();
        let likes = tbox.vocab().get_role("likes").unwrap();
        let studies = tbox.vocab().get_role("studies").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Role(likes, var(0), var(1))]).unwrap();
        let rewritten = rewrite_one(&tbox, q);
        assert_eq!(rewritten.len(), 2);
        let has_studies = rewritten.disjuncts().iter().any(|d| {
            d.body()
                .iter()
                .any(|a| matches!(a, OntoAtom::Role(r, _, _) if *r == studies))
        });
        assert!(has_studies);
    }

    #[test]
    fn concept_hierarchy_rewrites_concept_atom() {
        let tbox = parse_tbox("concept Student Person\nStudent < Person").unwrap();
        let person = tbox.vocab().get_concept("Person").unwrap();
        let student = tbox.vocab().get_concept("Student").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(person, var(0))]).unwrap();
        let rewritten = rewrite_one(&tbox, q);
        assert_eq!(rewritten.len(), 2);
        assert!(rewritten.disjuncts().iter().any(|d| {
            d.body()
                .iter()
                .any(|a| matches!(a, OntoAtom::Concept(c, _) if *c == student))
        }));
    }

    #[test]
    fn exists_rewriting_requires_unbound_witness() {
        // ∃teaches ⊑ Professor and Professor(x) asked: rewrites to
        // teaches(x, fresh).
        let tbox =
            parse_tbox("concept Professor\nrole teaches\nexists(teaches) < Professor").unwrap();
        let prof = tbox.vocab().get_concept("Professor").unwrap();
        let teaches = tbox.vocab().get_role("teaches").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(prof, var(0))]).unwrap();
        let rewritten = rewrite_one(&tbox, q);
        assert!(rewritten.disjuncts().iter().any(|d| {
            d.body().iter().any(
                |a| matches!(a, OntoAtom::Role(r, Term::Var(_), Term::Var(_)) if *r == teaches),
            )
        }));

        // Conversely: Person ⊑ ∃teaches lets teaches(x, y) with unbound y be
        // rewritten to Person(x)…
        let tbox2 = parse_tbox("concept Person\nrole teaches\nPerson < exists(teaches)").unwrap();
        let person2 = tbox2.vocab().get_concept("Person").unwrap();
        let teaches2 = tbox2.vocab().get_role("teaches").unwrap();
        let q_unbound = OntoCq::new(
            vec![VarId(0)],
            vec![OntoAtom::Role(teaches2, var(0), var(1))],
        )
        .unwrap();
        let rw = rewrite_one(&tbox2, q_unbound);
        assert!(rw.disjuncts().iter().any(|d| {
            d.body()
                .iter()
                .any(|a| matches!(a, OntoAtom::Concept(c, _) if *c == person2))
        }));

        // …but not when y is bound (appears in the head).
        let q_bound = OntoCq::new(
            vec![VarId(0), VarId(1)],
            vec![OntoAtom::Role(teaches2, var(0), var(1))],
        )
        .unwrap();
        let rw_bound = rewrite_one(&tbox2, q_bound);
        assert_eq!(rw_bound.len(), 1, "no rewriting applicable to bound atom");
    }

    #[test]
    fn inverse_role_inclusion() {
        // supervises ⊑ knows⁻ : knows(x,y) should rewrite to supervises(y,x).
        let tbox = parse_tbox("role supervises knows\nsupervises < inv(knows)").unwrap();
        let knows = tbox.vocab().get_role("knows").unwrap();
        let supervises = tbox.vocab().get_role("supervises").unwrap();
        let q = OntoCq::new(
            vec![VarId(0), VarId(1)],
            vec![OntoAtom::Role(knows, var(0), var(1))],
        )
        .unwrap();
        let rewritten = rewrite_one(&tbox, q);
        // Expect a disjunct supervises(x1, x0) (canonicalized as (x1, x0)
        // with head (x0, x1) — check structurally).
        let found = rewritten.disjuncts().iter().any(|d| {
            d.body().iter().any(|a| match a {
                OntoAtom::Role(r, Term::Var(s), Term::Var(o)) => {
                    *r == supervises && *s == d.head()[1] && *o == d.head()[0]
                }
                _ => false,
            })
        });
        assert!(found, "missing inverse rewriting: {rewritten:?}");
    }

    #[test]
    fn chain_of_inclusions_composes() {
        let tbox = parse_tbox("concept A B C\nA < B\nB < C").unwrap();
        let c = tbox.vocab().get_concept("C").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(c, var(0))]).unwrap();
        let rewritten = rewrite_one(&tbox, q);
        // C(x) ∪ B(x) ∪ A(x).
        assert_eq!(rewritten.len(), 3);
    }

    #[test]
    fn reduce_step_unlocks_rewriting() {
        // Classic example needing reduce: q(x) :- teaches(x,y), teaches(z,y)
        // with Professor ⊑ ∃teaches. Unifying the two atoms makes y unbound
        // (x=z), unlocking Professor(x).
        let tbox =
            parse_tbox("concept Professor\nrole teaches\nProfessor < exists(teaches)").unwrap();
        let prof = tbox.vocab().get_concept("Professor").unwrap();
        let teaches = tbox.vocab().get_role("teaches").unwrap();
        let q = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Role(teaches, var(0), var(1)),
                OntoAtom::Role(teaches, var(2), var(1)),
            ],
        )
        .unwrap();
        let rewritten = rewrite_one(&tbox, q);
        assert!(
            rewritten.disjuncts().iter().any(|d| {
                d.body().len() == 1 && matches!(d.body()[0], OntoAtom::Concept(c, _) if c == prof)
            }),
            "reduce+rewrite should yield Professor(x): {rewritten:?}"
        );
    }

    #[test]
    fn empty_tbox_is_identity() {
        let tbox = parse_tbox("concept A\nrole r").unwrap();
        let a = tbox.vocab().get_concept("A").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(a, var(0))]).unwrap();
        let rewritten = rewrite_one(&tbox, q.clone());
        assert_eq!(rewritten.len(), 1);
        assert_eq!(rewritten.disjuncts()[0], q.canonical());
    }

    #[test]
    fn budget_is_enforced() {
        // A deep chain makes many disjuncts; a budget of 2 must trip.
        let tbox = parse_tbox("concept A B C D\nA < B\nB < C\nC < D").unwrap();
        let d = tbox.vocab().get_concept("D").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(d, var(0))]).unwrap();
        let err = perfect_ref(
            &OntoUcq::from_cq(q),
            &tbox,
            RewriteBudget { max_disjuncts: 2 },
        )
        .unwrap_err();
        assert_eq!(err, RewriteError::BudgetExceeded { max_disjuncts: 2 });
    }

    #[test]
    fn resource_guard_trips_transiently() {
        use obx_util::{GuardLimits, Interrupt, ResourceGuard};
        use std::sync::Arc;
        let tbox = parse_tbox("concept A B C D\nA < B\nB < C\nC < D").unwrap();
        let d = tbox.vocab().get_concept("D").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(d, var(0))]).unwrap();
        let guard = Arc::new(ResourceGuard::new(
            GuardLimits::unlimited().with_max_rewrite_disjuncts(2),
        ));
        let interrupt = Interrupt::none().with_guard(Arc::clone(&guard));
        let err = perfect_ref_interruptible(
            &OntoUcq::from_cq(q.clone()),
            &tbox,
            RewriteBudget::default(),
            &interrupt,
        )
        .unwrap_err();
        assert!(
            matches!(err, RewriteError::ResourceLimit(t) if t.kind == GuardKind::RewriteDisjuncts),
            "{err:?}"
        );
        assert!(guard.is_tripped());
        // The counter is cumulative: even a tiny follow-up rewrite now
        // fails, so skipped candidates stay skipped for the whole run.
        let err2 = perfect_ref_interruptible(
            &OntoUcq::from_cq(q),
            &tbox,
            RewriteBudget::default(),
            &interrupt,
        )
        .unwrap_err();
        assert!(matches!(err2, RewriteError::ResourceLimit(_)));
    }

    #[test]
    fn minimization_drops_subsumed_disjuncts() {
        // Rewriting Person(x) with Student ⊑ Person gives Person ∪ Student;
        // neither subsumes the other, so both stay. But a UCQ that already
        // contains a redundant specialisation gets pruned.
        let tbox = parse_tbox("concept Person Student\nStudent < Person").unwrap();
        let person = tbox.vocab().get_concept("Person").unwrap();
        let student = tbox.vocab().get_concept("Student").unwrap();
        let broad = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(person, var(0))]).unwrap();
        let narrow = OntoCq::new(
            vec![VarId(0)],
            vec![
                OntoAtom::Concept(person, var(0)),
                OntoAtom::Concept(student, var(0)),
            ],
        )
        .unwrap();
        let mut ucq = OntoUcq::empty();
        ucq.push(broad);
        ucq.push(narrow);
        let rewritten = perfect_ref(&ucq, &tbox, RewriteBudget::default()).unwrap();
        // narrow ⊑ broad, so after minimization no disjunct contains both a
        // Person and a Student atom.
        assert!(rewritten.disjuncts().iter().all(|d| d.body().len() == 1));
    }

    #[test]
    fn functionality_and_negative_axioms_are_ignored_by_rewriting() {
        let tbox = parse_tbox("concept A B\nrole r\nA < not B\nfunct r\nA < B").unwrap();
        let b = tbox.vocab().get_concept("B").unwrap();
        let q = OntoCq::new(vec![VarId(0)], vec![OntoAtom::Concept(b, var(0))]).unwrap();
        let rewritten = rewrite_one(&tbox, q);
        assert_eq!(rewritten.len(), 2); // B ∪ A, nothing from `not`/funct.
    }
}
