//! OBDM specification and system types.

use crate::chase::ChaseConfig;
use crate::compile::CompiledQuery;
use obx_mapping::{virtual_abox, Mapping, MappingIndex, UnfoldError};
use obx_ontology::{Reasoner, TBox};
use obx_query::{OntoUcq, RewriteBudget, RewriteError};
use obx_srcdb::{Const, Database, Schema, View};
use obx_util::FxHashSet;
use std::fmt;

/// Errors surfaced by certain-answer computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObdmError {
    /// Rewriting exceeded its budget, was interrupted, or tripped the
    /// run's resource guard.
    Rewrite(RewriteError),
    /// Unfolding exceeded its budget.
    Unfold(UnfoldError),
    /// The system's schema does not match the database's schema.
    SchemaMismatch {
        /// Explanation of the mismatch.
        detail: String,
    },
    /// A per-label input (e.g. a parent query's match bitset) is shaped
    /// for a different set of labelled tuples than the one being scored.
    LabelShape {
        /// Explanation of the mismatch.
        detail: String,
    },
}

impl fmt::Display for ObdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObdmError::Rewrite(e) => write!(f, "rewriting failed: {e}"),
            ObdmError::Unfold(e) => write!(f, "unfolding failed: {e}"),
            ObdmError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            ObdmError::LabelShape { detail } => write!(f, "label shape mismatch: {detail}"),
        }
    }
}

impl std::error::Error for ObdmError {}

impl ObdmError {
    /// Whether this error was caused by the *run's* budget — a deadline or
    /// cancellation firing mid-compilation, or the run's resource guard
    /// tripping — rather than by the query itself. Transient errors must
    /// not be cached as permanent compile failures — a retry with a fresh
    /// interrupt (or a fresh guard) may well succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ObdmError::Rewrite(RewriteError::Interrupted)
                | ObdmError::Rewrite(RewriteError::ResourceLimit(_))
        )
    }
}

impl From<RewriteError> for ObdmError {
    fn from(e: RewriteError) -> Self {
        ObdmError::Rewrite(e)
    }
}

impl From<UnfoldError> for ObdmError {
    fn from(e: UnfoldError) -> Self {
        ObdmError::Unfold(e)
    }
}

/// The intensional level `J = ⟨O, S, M⟩`, with the ontology's reasoning
/// tables precomputed, and the mapping saturated with them when the
/// ontology allows it.
pub struct ObdmSpec {
    tbox: TBox,
    reasoner: Reasoner,
    mapping: Mapping,
    /// The mapping saturated with the TBox's closures; `None` when the
    /// TBox has a `B ⊑ ∃R` inclusion and queries compile through
    /// PerfectRef.
    saturated: Option<MappingIndex>,
    /// Compile budget. On the PerfectRef route `max_disjuncts` caps the
    /// CQs PerfectRef generates; on the saturated route it caps the
    /// distinct source disjuncts one compilation emits.
    pub rewrite_budget: RewriteBudget,
    /// Maximum source disjuncts produced by unfolding.
    pub unfold_max: usize,
}

impl ObdmSpec {
    /// Builds a specification: precomputes the reasoner and, when the
    /// TBox has no `B ⊑ ∃R` inclusion, the saturated mapping. A spec is
    /// immutable after this, so both are shared by every query it
    /// compiles.
    pub fn new(tbox: TBox, mapping: Mapping) -> Self {
        let reasoner = Reasoner::build(&tbox);
        let saturated =
            (!tbox.has_existential_rhs()).then(|| MappingIndex::saturated(&mapping, &reasoner));
        Self {
            tbox,
            reasoner,
            mapping,
            saturated,
            rewrite_budget: RewriteBudget::default(),
            unfold_max: 100_000,
        }
    }

    /// The ontology `O`.
    pub fn tbox(&self) -> &TBox {
        &self.tbox
    }

    /// The precomputed reasoning tables for `O`.
    pub fn reasoner(&self) -> &Reasoner {
        &self.reasoner
    }

    /// The mapping `M`.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The mapping saturated with the TBox, or `None` when queries compile
    /// through PerfectRef (the TBox has a `B ⊑ ∃R` inclusion).
    pub fn saturated_mapping(&self) -> Option<&MappingIndex> {
        self.saturated.as_ref()
    }

    /// Compiles an ontology UCQ into a directly evaluable source UCQ (see
    /// [`crate::compile`] for the two routes). The compiled query can be
    /// evaluated over any view of any database with this schema.
    pub fn compile(&self, ucq: &OntoUcq) -> Result<CompiledQuery, ObdmError> {
        CompiledQuery::compile(self, ucq)
    }

    /// Compiles a single ontology CQ. This is the unit of memoization in
    /// `obx-core`'s scoring engine: compilation distributes over a UCQ's
    /// disjuncts, so any union can be assembled from per-CQ compilations.
    pub fn compile_cq(&self, cq: &obx_query::OntoCq) -> Result<CompiledQuery, ObdmError> {
        self.compile_cq_interruptible(cq, &obx_util::Interrupt::none())
    }

    /// [`ObdmSpec::compile`] with a cooperative stop signal.
    pub fn compile_interruptible(
        &self,
        ucq: &OntoUcq,
        interrupt: &obx_util::Interrupt,
    ) -> Result<CompiledQuery, ObdmError> {
        CompiledQuery::compile_interruptible(self, ucq, interrupt)
    }

    /// [`ObdmSpec::compile_cq`] with a cooperative stop signal.
    pub fn compile_cq_interruptible(
        &self,
        cq: &obx_query::OntoCq,
        interrupt: &obx_util::Interrupt,
    ) -> Result<CompiledQuery, ObdmError> {
        CompiledQuery::compile_cq_interruptible(self, cq, interrupt)
    }
}

impl fmt::Debug for ObdmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObdmSpec")
            .field("tbox_axioms", &self.tbox.len())
            .field("mapping_assertions", &self.mapping.len())
            .finish()
    }
}

/// The full system `Σ = ⟨J, D⟩`.
pub struct ObdmSystem {
    spec: ObdmSpec,
    db: Database,
}

impl ObdmSystem {
    /// Assembles a system. The database's schema is authoritative; callers
    /// build the mapping against it, so no separate schema copy is kept.
    pub fn new(spec: ObdmSpec, db: Database) -> Self {
        Self { spec, db }
    }

    /// The specification `J`.
    pub fn spec(&self) -> &ObdmSpec {
        &self.spec
    }

    /// Mutable access to the specification (e.g. to tighten the rewrite
    /// and unfold budgets).
    pub fn spec_mut(&mut self) -> &mut ObdmSpec {
        &mut self.spec
    }

    /// The source database `D`.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the database (e.g. to intern query constants).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The source schema `S`.
    pub fn schema(&self) -> &Schema {
        self.db.schema()
    }

    /// Parses an ontology UCQ against this system's vocabulary, interning
    /// query constants into the database's pool (split borrow of the two
    /// fields, which callers cannot express from outside).
    pub fn parse_query(&mut self, text: &str) -> Result<OntoUcq, obx_query::QueryParseError> {
        let (_, consts) = self.db.schema_and_consts_mut();
        obx_query::parse_onto_ucq(self.spec.tbox().vocab(), consts, text)
    }

    /// Parses a single ontology CQ (wrapped as a one-disjunct UCQ parser
    /// would, but returning the CQ itself).
    pub fn parse_cq(
        &mut self,
        text: &str,
    ) -> Result<obx_query::OntoCq, obx_query::QueryParseError> {
        let (_, consts) = self.db.schema_and_consts_mut();
        obx_query::parse_onto_cq(self.spec.tbox().vocab(), consts, text)
    }

    /// Certain answers of `ucq` over the full database, via the rewriting
    /// engine.
    pub fn certain_answers(&self, ucq: &OntoUcq) -> Result<FxHashSet<Box<[Const]>>, ObdmError> {
        let compiled = self.spec.compile(ucq)?;
        Ok(compiled.answers(View::full(&self.db)))
    }

    /// Certain membership test (`t ∈ cert(q, J, D)`), via the rewriting
    /// engine, over an arbitrary view (e.g. a border — Definition 3.4).
    pub fn certain_member(
        &self,
        ucq: &OntoUcq,
        view: View<'_>,
        tuple: &[Const],
    ) -> Result<bool, ObdmError> {
        let compiled = self.spec.compile(ucq)?;
        Ok(compiled.member(view, tuple))
    }

    /// Certain answers via the **materialization engine** (virtual ABox +
    /// chase + evaluation, answers with nulls dropped). Exists to
    /// cross-check the rewriting engine; `config` bounds the chase.
    pub fn certain_answers_materialized(
        &self,
        ucq: &OntoUcq,
        view: View<'_>,
        config: ChaseConfig,
    ) -> FxHashSet<Box<[Const]>> {
        self.certain_answers_materialized_interruptible(
            ucq,
            view,
            config,
            &obx_util::Interrupt::none(),
        )
    }

    /// [`ObdmSystem::certain_answers_materialized`] with a cooperative stop
    /// signal threaded into the chase (which also records its `chase` span
    /// when the interrupt carries a recorder). Profiled explain runs use
    /// this as their audit oracle.
    pub fn certain_answers_materialized_interruptible(
        &self,
        ucq: &OntoUcq,
        view: View<'_>,
        config: ChaseConfig,
        interrupt: &obx_util::Interrupt,
    ) -> FxHashSet<Box<[Const]>> {
        let abox = virtual_abox(self.spec.mapping(), view);
        let materialized = crate::chase::chase_abox_interruptible(
            self.spec.tbox(),
            self.spec.reasoner(),
            &abox,
            config,
            interrupt,
        );
        materialized.answers(ucq)
    }

    /// Checks the consistency of the system: materializes the virtual ABox
    /// and validates it against the TBox's negative inclusions and
    /// functionality assertions. Returns the violations (empty = the
    /// system is consistent).
    pub fn check_consistency(&self) -> Vec<obx_ontology::AboxViolation<Const>> {
        let abox = virtual_abox(self.spec.mapping(), View::full(&self.db));
        abox.check_consistency(self.spec.reasoner())
    }
}

impl fmt::Debug for ObdmSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObdmSystem")
            .field("spec", &self.spec)
            .field("db_atoms", &self.db.len())
            .finish()
    }
}

/// The fixture used across the workspace: the OBDM system of the paper's
/// Example 3.6 (students, courses, universities, cities), exposed here so
/// integration tests, examples, and benches all build the very same system.
// The paper's fixed text parses; a test pins every piece of it.
#[allow(clippy::expect_used)]
pub fn example_3_6_system() -> ObdmSystem {
    let schema = obx_srcdb::parse_schema("STUD/1 LOC/2 ENR/3").expect("static schema");
    let mut db = obx_srcdb::parse_database(
        schema,
        "STUD(A10)\nSTUD(B80)\nSTUD(C12)\nSTUD(D50)\nSTUD(E25)\n\
         LOC(Sap, Rome)\nLOC(TV, Rome)\nLOC(Pol, Milan)\n\
         ENR(A10, Math, TV)\nENR(B80, Math, Sap)\nENR(C12, Science, Norm)\n\
         ENR(D50, Science, TV)\nENR(E25, Math, Pol)",
    )
    .expect("static facts");
    let tbox = obx_ontology::parse_tbox("role studies likes taughtIn locatedIn\nstudies < likes")
        .expect("static tbox");
    let (schema_ref, consts) = db.schema_and_consts_mut();
    let mapping = obx_mapping::parse_mapping(
        schema_ref,
        tbox.vocab(),
        consts,
        "ENR(x, y, z) ~> studies(x, y)\n\
         ENR(x, y, z) ~> taughtIn(y, z)\n\
         LOC(x, y) ~> locatedIn(x, y)",
    )
    .expect("static mapping");
    ObdmSystem::new(ObdmSpec::new(tbox, mapping), db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(sys: &ObdmSystem, ans: &FxHashSet<Box<[Const]>>) -> Vec<String> {
        let mut v: Vec<String> = ans
            .iter()
            .map(|t| sys.db().consts().resolve(t[0]).to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn q2_certain_answers_use_the_mapping() {
        let mut sys = example_3_6_system();
        let q2 = sys.parse_query(r#"q(x) :- studies(x, "Math")"#).unwrap();
        let ans = sys.certain_answers(&q2).unwrap();
        assert_eq!(names(&sys, &ans), vec!["A10", "B80", "E25"]);
    }

    #[test]
    fn q3_needs_the_role_inclusion() {
        // likes(x, "Science") has no direct mapping; only studies ⊑ likes
        // makes C12 and D50 certain answers. This is the paper's central
        // inference.
        let mut sys = example_3_6_system();
        let q3 = sys.parse_query(r#"q(x) :- likes(x, "Science")"#).unwrap();
        let ans = sys.certain_answers(&q3).unwrap();
        assert_eq!(names(&sys, &ans), vec!["C12", "D50"]);
    }

    #[test]
    fn engines_agree_on_the_example() {
        let mut sys = example_3_6_system();
        for q in [
            r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#,
            r#"q(x) :- studies(x, "Math")"#,
            r#"q(x) :- likes(x, "Science")"#,
            r#"q(x) :- likes(x, y)"#,
            r#"q(x, y) :- taughtIn(x, y)"#,
        ] {
            let ucq = sys.parse_query(q).unwrap();
            let rewriting = sys.certain_answers(&ucq).unwrap();
            let materialized = sys.certain_answers_materialized(
                &ucq,
                View::full(sys.db()),
                ChaseConfig::for_ucq(&ucq),
            );
            assert_eq!(rewriting, materialized, "engines disagree on `{q}`");
        }
    }

    #[test]
    fn consistency_of_the_example_system() {
        let sys = example_3_6_system();
        assert!(sys.check_consistency().is_empty());
    }

    #[test]
    fn inconsistent_system_is_reported() {
        // Add Math ⊑ ¬Science-style disjointness at the level of subjects:
        // declare concepts via mappings and make them disjoint.
        let schema = obx_srcdb::parse_schema("T/2").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "T(a, b)").unwrap();
        let tbox = obx_ontology::parse_tbox("concept A B\nA < not B").unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping = obx_mapping::parse_mapping(
            schema_ref,
            tbox.vocab(),
            consts,
            "T(x, y) ~> A(x)\nT(x, y) ~> B(x)",
        )
        .unwrap();
        let sys = ObdmSystem::new(ObdmSpec::new(tbox, mapping), db);
        assert!(!sys.check_consistency().is_empty());
    }
}
