//! The rewriting engine: compile once, evaluate anywhere.
//!
//! `CompiledQuery` packages an ontology query compiled to a source UCQ, so
//! that the (expensive) compilation happens once per candidate query while
//! the (cheap) evaluation runs once per classified tuple and border — the
//! access pattern of the explanation framework, where one candidate is
//! matched against |λ⁺| + |λ⁻| borders (Definition 3.4).
//!
//! A spec compiles on one of two routes, chosen by its TBox alone:
//!
//! * **Saturated** (no `B ⊑ ∃R` inclusion): condense the CQ, unfold it
//!   once over the spec's saturated mapping
//!   ([`obx_mapping::MappingIndex::saturated`]), and drop every source
//!   disjunct contained in another.
//! * **PerfectRef** (some `B ⊑ ∃R`): PerfectRef over the TBox, then plain
//!   unfolding through the mapping.

use crate::spec::{ObdmError, ObdmSpec};
use obx_mapping::{unfold, unfold_cq, MappingIndex, UnfoldError};
use obx_ontology::{BasicConcept, Reasoner, Role};
use obx_query::{
    eval, minimize_ucq, perfect_ref_interruptible, OntoAtom, OntoCq, OntoUcq, RewriteError, SrcUcq,
};
use obx_srcdb::{Const, View};
use obx_util::{FxHashSet, GuardKind, GuardTrip, Interrupt};
use std::borrow::Cow;

/// An ontology UCQ compiled to a source UCQ.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    src: SrcUcq,
}

impl CompiledQuery {
    /// Compiles `ucq` on the spec's route (module docs).
    pub fn compile(spec: &ObdmSpec, ucq: &OntoUcq) -> Result<Self, ObdmError> {
        Self::compile_interruptible(spec, ucq, &Interrupt::none())
    }

    /// [`CompiledQuery::compile`] with a cooperative stop signal. On
    /// trigger, fails with `RewriteError::Interrupted` — a *transient*
    /// error that callers must not memoize as a property of the query.
    pub fn compile_interruptible(
        spec: &ObdmSpec,
        ucq: &OntoUcq,
        interrupt: &Interrupt,
    ) -> Result<Self, ObdmError> {
        let src = match spec.saturated_mapping() {
            Some(index) => compile_saturated(spec, index, ucq.disjuncts(), interrupt)?,
            None => compile_perfect_ref(spec, ucq, interrupt)?,
        };
        Ok(Self { src })
    }

    /// [`CompiledQuery::compile_interruptible`] for one CQ. The saturated
    /// route compiles it in place; the PerfectRef route wraps it as a
    /// one-disjunct UCQ.
    pub fn compile_cq_interruptible(
        spec: &ObdmSpec,
        cq: &OntoCq,
        interrupt: &Interrupt,
    ) -> Result<Self, ObdmError> {
        let src = match spec.saturated_mapping() {
            Some(index) => compile_saturated(spec, index, std::slice::from_ref(cq), interrupt)?,
            None => compile_perfect_ref(spec, &OntoUcq::from_cq(cq.clone()), interrupt)?,
        };
        Ok(Self { src })
    }

    /// The source-level UCQ.
    pub fn src(&self) -> &SrcUcq {
        &self.src
    }

    /// The source-level UCQ, by value.
    pub fn into_src(self) -> SrcUcq {
        self.src
    }

    /// Number of source disjuncts.
    pub fn src_disjuncts(&self) -> usize {
        self.src.len()
    }

    /// Whether the query can return no answer on any database (no source
    /// disjunct survived unfolding).
    pub fn is_unsatisfiable_at_sources(&self) -> bool {
        self.src.is_empty()
    }

    /// All certain answers over `view`.
    pub fn answers(&self, view: View<'_>) -> FxHashSet<Box<[Const]>> {
        eval::answers_ucq(view, &self.src)
    }

    /// Certain membership of `tuple` over `view` (goal-directed; this is
    /// the J-match primitive of Definition 3.4 when `view` is a border).
    pub fn member(&self, view: View<'_>, tuple: &[Const]) -> bool {
        eval::satisfies_ucq(view, &self.src, tuple)
    }

    /// Evidence for a certain membership: the source atoms grounding the
    /// first matching source disjunct, plus that disjunct (so callers can
    /// render which rewriting/unfolding route justified the answer).
    /// `None` when the tuple is not a certain answer over `view`.
    pub fn evidence<'a>(
        &'a self,
        view: View<'_>,
        tuple: &[Const],
    ) -> Option<(&'a obx_query::SrcCq, Vec<obx_srcdb::AtomId>)> {
        let (i, atoms) = eval::witness_ucq(view, &self.src, tuple)?;
        Some((&self.src.disjuncts()[i], atoms))
    }
}

/// The PerfectRef route: rewrite over the TBox, then unfold through the
/// mapping's own heads.
fn compile_perfect_ref(
    spec: &ObdmSpec,
    ucq: &OntoUcq,
    interrupt: &Interrupt,
) -> Result<SrcUcq, ObdmError> {
    let rewritten = perfect_ref_interruptible(ucq, spec.tbox(), spec.rewrite_budget, interrupt)?;
    let mut sp = obx_util::span!(interrupt.recorder(), "unfold");
    let src = unfold(spec.mapping(), &rewritten, spec.unfold_max)?;
    sp.count("src_disjuncts", src.len() as u64);
    Ok(src)
}

/// The saturated route: condense each CQ, unfold it over the saturated
/// mapping, and drop the source disjuncts contained in others. The
/// rewrite budget, the unfold budget and the run's `RewriteDisjuncts`
/// guard all count distinct emitted source disjuncts. The interrupt is
/// polled per emitted disjunct and per disjunct of the minimization.
fn compile_saturated(
    spec: &ObdmSpec,
    index: &MappingIndex,
    cqs: &[OntoCq],
    interrupt: &Interrupt,
) -> Result<SrcUcq, ObdmError> {
    if interrupt.is_triggered() {
        return Err(RewriteError::Interrupted.into());
    }
    let mut sp = obx_util::span!(interrupt.recorder(), "unfold");
    let max_rewrite = spec.rewrite_budget.max_disjuncts;
    let mut src = SrcUcq::empty();
    let mut condensed = 0;
    for cq in cqs {
        let small = condense(cq, spec.reasoner());
        condensed += cq.body().len() - small.body().len();
        unfold_cq(spec.mapping(), index, &small, |q| {
            // A blown-up unfolding emits disjuncts for as long as the
            // run lets it, so each one polls the interrupt.
            if interrupt.is_triggered() {
                return Err(RewriteError::Interrupted.into());
            }
            let approx_bytes = std::mem::size_of_val(q.body()) + std::mem::size_of_val(q.head());
            if !src.push(q) {
                return Ok(());
            }
            if src.len() > max_rewrite {
                return Err(ObdmError::Rewrite(RewriteError::BudgetExceeded {
                    max_disjuncts: max_rewrite,
                }));
            }
            if src.len() > spec.unfold_max {
                return Err(ObdmError::Unfold(UnfoldError::BudgetExceeded {
                    max_disjuncts: spec.unfold_max,
                }));
            }
            // The guard's counter is cumulative across the run, so a
            // blown-up query space fails here (transiently) instead of
            // exhausting memory.
            if let Some(guard) = interrupt.guard() {
                if !guard.charge(GuardKind::RewriteDisjuncts, 1, approx_bytes) {
                    let trip = guard.trip().unwrap_or(GuardTrip {
                        kind: GuardKind::RewriteDisjuncts,
                        limit: 0,
                        observed: 0,
                    });
                    return Err(ObdmError::Rewrite(RewriteError::ResourceLimit(trip)));
                }
            }
            Ok(())
        })?;
    }
    let minimized_away = minimize_ucq(&mut src, interrupt)?;
    sp.count("src_disjuncts", src.len() as u64);
    sp.count("condensed", condensed as u64);
    sp.count("minimized_away", minimized_away as u64);
    Ok(src)
}

/// Drops each atom of `cq` that another of its atoms implies under the
/// TBox; of two atoms that imply each other the earlier stays. The result
/// has the same certain answers: what is dropped holds wherever what
/// stays holds. `likes(x, y), studies(x, y)` with `studies ⊑ likes`
/// condenses to `studies(x, y)`, which is what PerfectRef's minimization
/// leaves too, so both routes give the candidate the same source query.
/// Bodies over 64 atoms are returned as they are.
fn condense<'q>(cq: &'q OntoCq, reasoner: &Reasoner) -> Cow<'q, OntoCq> {
    let body = cq.body();
    if body.len() < 2 || body.len() > 64 {
        return Cow::Borrowed(cq);
    }
    let mut kept = u64::MAX >> (64 - body.len());
    for (i, &a) in body.iter().enumerate() {
        let dropped = body.iter().enumerate().any(|(j, &b)| {
            j != i
                && kept & (1 << j) != 0
                && implies(reasoner, b, a)
                && (j < i || !implies(reasoner, a, b))
        });
        if dropped {
            kept &= !(1 << i);
        }
    }
    if kept.count_ones() as usize == body.len() {
        return Cow::Borrowed(cq);
    }
    let atoms = body
        .iter()
        .enumerate()
        .filter(|&(i, _)| kept & (1 << i) != 0)
        .map(|(_, &a)| a)
        .collect();
    // The atoms that stay hold every term of the dropped ones, so the
    // head stays safe and this cannot fail.
    OntoCq::new(cq.head().to_vec(), atoms).map_or(Cow::Borrowed(cq), Cow::Owned)
}

/// Whether atom `a` implies atom `b` in every model of the TBox: `b`'s
/// predicate subsumes `a`'s over the same terms, with an inverse role
/// swapping them, or `b` is a concept atom on a term of role atom `a`
/// whose domain (range) it subsumes.
fn implies(reasoner: &Reasoner, a: OntoAtom, b: OntoAtom) -> bool {
    match (a, b) {
        (OntoAtom::Concept(c, s), OntoAtom::Concept(d, t)) => {
            s == t && reasoner.subsumes(BasicConcept::Atomic(c), BasicConcept::Atomic(d))
        }
        (OntoAtom::Role(p, s1, o1), OntoAtom::Role(q, s2, o2)) => {
            (s1 == s2 && o1 == o2 && reasoner.role_subsumes(Role::direct(p), Role::direct(q)))
                || (s1 == o2 && o1 == s2 && reasoner.role_subsumes(Role::direct(p), Role::inv(q)))
        }
        (OntoAtom::Role(p, s, o), OntoAtom::Concept(d, t)) => {
            (s == t && reasoner.subsumes(BasicConcept::exists(p), BasicConcept::Atomic(d)))
                || (o == t
                    && reasoner.subsumes(BasicConcept::exists_inv(p), BasicConcept::Atomic(d)))
        }
        (OntoAtom::Concept(..), OntoAtom::Role(..)) => false,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::example_3_6_system;
    use obx_query::parse_onto_ucq;
    use obx_srcdb::border;

    #[test]
    fn compiled_query_reports_pipeline_sizes() {
        let mut sys = example_3_6_system();
        let q3 = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let compiled = sys.spec().compile(&q3).unwrap();
        // likes is unmapped: its one source disjunct is the studies
        // assertion's body, ENR(x, "Science", z).
        assert_eq!(compiled.src_disjuncts(), 1);
        assert!(!compiled.is_unsatisfiable_at_sources());
        let rendered = compiled.src().disjuncts()[0].render(sys.schema(), sys.db().consts());
        assert_eq!(rendered, r#"q(x0) :- ENR(x0, "Science", x1)"#);
        // Two CQs of one UCQ unfold into one union: studies(x, "Math")
        // adds its own disjunct.
        let both = sys
            .parse_query("q(x) :- likes(x, \"Science\")\nq(x) :- studies(x, \"Math\")")
            .unwrap();
        assert_eq!(sys.spec().compile(&both).unwrap().src_disjuncts(), 2);
    }

    #[test]
    fn condensation_gives_implied_atoms_the_same_source_query() {
        let mut sys = example_3_6_system();
        assert!(sys.spec().saturated_mapping().is_some());
        let both = sys.parse_cq("q(x) :- likes(x, y), studies(x, y)").unwrap();
        let one = sys.parse_cq("q(x) :- studies(x, y)").unwrap();
        let both = sys.spec().compile_cq(&both).unwrap();
        let one = sys.spec().compile_cq(&one).unwrap();
        assert_eq!(both.src(), one.src());
        assert_eq!(one.src_disjuncts(), 1);
    }

    #[test]
    fn unmapped_predicate_compiles_to_unsatisfiable() {
        let mut sys = example_3_6_system();
        let q = sys.parse_query("q(x, y) :- likes(x, y)").unwrap();
        // likes(x,y) rewrites to studies(x,y) which is mapped, so *this*
        // one is satisfiable…
        let compiled = sys.spec().compile(&q).unwrap();
        assert!(!compiled.is_unsatisfiable_at_sources());
        // …whereas locatedIn ∘ likes in one atom cannot come from anywhere:
        let tbox2 = obx_ontology::parse_tbox("role ghost").unwrap();
        let spec2 = crate::spec::ObdmSpec::new(tbox2, obx_mapping::Mapping::new());
        let mut consts = obx_srcdb::ConstPool::new();
        let q2 = parse_onto_ucq(spec2.tbox().vocab(), &mut consts, "q(x) :- ghost(x, y)").unwrap();
        let compiled2 = spec2.compile(&q2).unwrap();
        assert!(compiled2.is_unsatisfiable_at_sources());
        assert!(compiled2.answers(View::full(sys.db())).is_empty());
    }

    #[test]
    fn member_over_borders_reproduces_j_matching() {
        // q1 J-matches B_{A10,1} but not B_{E25,1} (paper, Example 3.6).
        let mut sys = example_3_6_system();
        let q1 = sys
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .unwrap();
        let compiled = sys.spec().compile(&q1).unwrap();
        let a10 = sys.db().consts().get("A10").unwrap();
        let e25 = sys.db().consts().get("E25").unwrap();
        let b_a10 = border(sys.db(), &[a10], 1);
        let b_e25 = border(sys.db(), &[e25], 1);
        assert!(compiled.member(View::masked(sys.db(), &b_a10), &[a10]));
        assert!(!compiled.member(View::masked(sys.db(), &b_e25), &[e25]));
        // And over the full database E25 *is* an answer (see obx-mapping).
        assert!(compiled.member(View::full(sys.db()), &[e25]));
    }
}
