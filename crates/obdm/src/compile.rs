//! The rewriting engine: compile once, evaluate anywhere.
//!
//! `CompiledQuery` packages the result of `PerfectRef + unfold` so that the
//! (expensive) compilation happens once per candidate query while the
//! (cheap) evaluation runs once per classified tuple and border — the
//! access pattern of the explanation framework, where one candidate is
//! matched against |λ⁺| + |λ⁻| borders (Definition 3.4).

use crate::spec::{ObdmError, ObdmSpec};
use obx_mapping::unfold;
use obx_query::{eval, perfect_ref_interruptible, OntoUcq, SrcUcq};
use obx_srcdb::{Const, View};
use obx_util::FxHashSet;

/// An ontology UCQ compiled to a source UCQ.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    src: SrcUcq,
    rewritten_disjuncts: usize,
}

impl CompiledQuery {
    /// Runs the `PerfectRef → unfold` pipeline.
    pub fn compile(spec: &ObdmSpec, ucq: &OntoUcq) -> Result<Self, ObdmError> {
        Self::compile_interruptible(spec, ucq, &obx_util::Interrupt::none())
    }

    /// [`CompiledQuery::compile`] with a cooperative stop signal threaded
    /// into PerfectRef (the unbounded-ish stage of the pipeline). On
    /// trigger, fails with `RewriteError::Interrupted` — a *transient*
    /// error that callers must not memoize as a property of the query.
    pub fn compile_interruptible(
        spec: &ObdmSpec,
        ucq: &OntoUcq,
        interrupt: &obx_util::Interrupt,
    ) -> Result<Self, ObdmError> {
        let rewritten =
            perfect_ref_interruptible(ucq, spec.tbox(), spec.rewrite_budget, interrupt)?;
        let src = {
            let mut sp = obx_util::span!(interrupt.recorder(), "unfold");
            let src = unfold(spec.mapping(), &rewritten, spec.unfold_max)?;
            sp.count("src_disjuncts", src.len() as u64);
            src
        };
        Ok(Self {
            src,
            rewritten_disjuncts: rewritten.len(),
        })
    }

    /// The source-level UCQ.
    pub fn src(&self) -> &SrcUcq {
        &self.src
    }

    /// Number of disjuncts after PerfectRef (before unfolding) — reported
    /// by the rewriting-scaling experiment (E7).
    pub fn rewritten_disjuncts(&self) -> usize {
        self.rewritten_disjuncts
    }

    /// Number of source disjuncts after unfolding.
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
        // likes(x, "Science") ∪ studies(x, "Science") after PerfectRef…
        assert_eq!(compiled.rewritten_disjuncts(), 2);
        // …but only the studies disjunct unfolds (likes is unmapped).
        assert_eq!(compiled.src_disjuncts(), 1);
        assert!(!compiled.is_unsatisfiable_at_sources());
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
