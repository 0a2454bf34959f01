//! GAV mapping assertions.

use obx_ontology::OntoVocab;
use obx_query::{OntoAtom, QueryError, SrcCq, Term, VarId};
use obx_srcdb::{ConstPool, Schema};
use std::fmt;

/// Errors constructing a mapping assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A head variable does not occur in the body.
    UnboundHeadVar(VarId),
    /// The body has no atom.
    EmptyBody,
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::UnboundHeadVar(v) => {
                write!(
                    f,
                    "mapping head uses variable x{} not bound by the body",
                    v.0
                )
            }
            MappingError::EmptyBody => write!(f, "mapping body has no atom"),
        }
    }
}

impl std::error::Error for MappingError {}

/// One sound GAV assertion `body(x̄) ⇝ head(x̄)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingAssertion {
    body: SrcCq,
    head: OntoAtom,
    /// The body re-headed onto the head's distinct variables.
    projection: SrcCq,
}

impl MappingAssertion {
    /// Builds an assertion, checking that every head variable is bound by
    /// the body.
    pub fn new(body: SrcCq, head: OntoAtom) -> Result<Self, MappingError> {
        let mut head_vars: Vec<VarId> = head.terms().filter_map(Term::as_var).collect();
        head_vars.dedup();
        let projection = SrcCq::new(head_vars, body.body().to_vec()).map_err(|e| match e {
            QueryError::UnsafeHead(v) => MappingError::UnboundHeadVar(v),
            // `body` is a CQ, so its body is not empty.
            QueryError::EmptyBody => MappingError::EmptyBody,
        })?;
        Ok(Self {
            body,
            head,
            projection,
        })
    }

    /// The source-side CQ.
    pub fn body(&self) -> &SrcCq {
        &self.body
    }

    /// The ontology-side atom template.
    pub fn head(&self) -> &OntoAtom {
        &self.head
    }

    /// The body re-headed onto the head's distinct variables, in head
    /// order: its answers are the rows the head is instantiated with.
    pub fn projection(&self) -> &SrcCq {
        &self.projection
    }

    /// Renders like `ENR(x0, x1, x2) ~> studies(x0, x1)`.
    pub fn render(&self, schema: &Schema, vocab: &OntoVocab, consts: &ConstPool) -> String {
        let body = self
            .body
            .body()
            .iter()
            .map(|a| a.render(schema, consts))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{} ~> {}", body, self.head.render(vocab, consts))
    }
}

/// The mapping `M`: an ordered set of assertions.
#[derive(Debug, Clone, Default)]
pub struct Mapping {
    assertions: Vec<MappingAssertion>,
}

impl Mapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an assertion.
    pub fn add(&mut self, assertion: MappingAssertion) {
        if !self.assertions.contains(&assertion) {
            self.assertions.push(assertion);
        }
    }

    /// All assertions.
    pub fn assertions(&self) -> &[MappingAssertion] {
        &self.assertions
    }

    /// Number of assertions.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Renders one assertion per line.
    pub fn render(&self, schema: &Schema, vocab: &OntoVocab, consts: &ConstPool) -> String {
        let mut s = String::new();
        for a in &self.assertions {
            s.push_str(&a.render(schema, vocab, consts));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_ontology::parse_tbox;
    use obx_query::SrcAtom;
    use obx_srcdb::parse_schema;

    #[test]
    fn head_vars_must_be_bound() {
        let schema = parse_schema("ENR/3").unwrap();
        let tbox = parse_tbox("role studies").unwrap();
        let enr = schema.rel("ENR").unwrap();
        let studies = tbox.vocab().get_role("studies").unwrap();
        let body = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(
                enr,
                [
                    Term::Var(VarId(0)),
                    Term::Var(VarId(1)),
                    Term::Var(VarId(2)),
                ],
            )],
        )
        .unwrap();
        let ok = MappingAssertion::new(
            body.clone(),
            OntoAtom::Role(studies, Term::Var(VarId(0)), Term::Var(VarId(1))),
        );
        assert!(ok.is_ok());
        let bad = MappingAssertion::new(
            body,
            OntoAtom::Role(studies, Term::Var(VarId(0)), Term::Var(VarId(9))),
        );
        assert_eq!(bad.unwrap_err(), MappingError::UnboundHeadVar(VarId(9)));
    }

    #[test]
    fn mapping_dedups_and_renders() {
        let schema = parse_schema("ENR/3").unwrap();
        let tbox = parse_tbox("role studies").unwrap();
        let mut consts = ConstPool::new();
        let enr = schema.rel("ENR").unwrap();
        let studies = tbox.vocab().get_role("studies").unwrap();
        let body = SrcCq::new(
            vec![VarId(0), VarId(1)],
            vec![SrcAtom::new(
                enr,
                [
                    Term::Var(VarId(0)),
                    Term::Var(VarId(1)),
                    Term::Var(VarId(2)),
                ],
            )],
        )
        .unwrap();
        let a = MappingAssertion::new(
            body,
            OntoAtom::Role(studies, Term::Var(VarId(0)), Term::Var(VarId(1))),
        )
        .unwrap();
        let mut m = Mapping::new();
        m.add(a.clone());
        m.add(a);
        assert_eq!(m.len(), 1);
        let rendered = m.render(&schema, tbox.vocab(), &consts);
        assert_eq!(rendered, "ENR(x0, x1, x2) ~> studies(x0, x1)\n");
        let _ = &mut consts;
    }
}
