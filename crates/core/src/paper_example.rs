//! The paper's worked example, packaged end to end.
//!
//! Everything the paper states about Examples 3.6 and 3.8 — the OBDM
//! system, λ, the three candidate queries, the two `Z` instantiations, the
//! J-match matrix, and the scores — is constructed here and checked
//! against the printed values by the integration suite and rendered as
//! tables E2/E3 by the bench harness.

use crate::explain::{ExplainError, ExplainTask, Explanation, SearchLimits};
use crate::labels::Labels;
use crate::matcher::PreparedLabels;
use crate::score::Scoring;
use obx_obdm::{example_3_6_system, ObdmError, ObdmSystem};
use obx_query::OntoUcq;

/// The fully-assembled Example 3.6/3.8 scenario.
pub struct PaperExample {
    /// Σ = ⟨J, D⟩ from Example 3.6.
    pub system: ObdmSystem,
    /// λ: A10, B80, C12, D50 positive; E25 negative.
    pub labels: Labels,
    /// `q1(x) ← studies(x,y) ∧ taughtIn(y,z) ∧ locatedIn(z,"Rome")`.
    pub q1: OntoUcq,
    /// `q2(x) ← studies(x,"Math")`.
    pub q2: OntoUcq,
    /// `q3(x) ← likes(x,"Science")`.
    pub q3: OntoUcq,
}

/// The radius used throughout the example (`r = 1`).
pub const PAPER_RADIUS: usize = 1;

impl PaperExample {
    /// Builds the scenario.
    // The labels and queries are fixed text over the fixed Example 3.6
    // system, so parsing them cannot fail; `paper_reproduction` builds
    // this on every run.
    #[allow(clippy::expect_used)]
    pub fn new() -> Self {
        let mut system = example_3_6_system();
        let labels = Labels::parse(system.db_mut(), "+ A10\n+ B80\n+ C12\n+ D50\n- E25")
            .expect("static labels");
        let q1 = system
            .parse_query(r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#)
            .expect("static q1");
        let q2 = system
            .parse_query(r#"q(x) :- studies(x, "Math")"#)
            .expect("static q2");
        let q3 = system
            .parse_query(r#"q(x) :- likes(x, "Science")"#)
            .expect("static q3");
        Self {
            system,
            labels,
            q1,
            q2,
            q3,
        }
    }

    /// The three queries with their paper names.
    pub fn queries(&self) -> [(&'static str, &OntoUcq); 3] {
        [("q1", &self.q1), ("q2", &self.q2), ("q3", &self.q3)]
    }

    /// Borders of every labelled tuple at the example's radius.
    pub fn prepared(&self) -> PreparedLabels<'_> {
        PreparedLabels::new(&self.system, &self.labels, PAPER_RADIUS)
    }

    /// The J-match matrix of Example 3.6: for each query, which labelled
    /// students match. Row format: `(query, matched student names)`.
    pub fn match_matrix(&self) -> Result<Vec<(&'static str, Vec<String>)>, ObdmError> {
        let prepared = self.prepared();
        let mut rows = Vec::new();
        for (name, q) in self.queries() {
            let compiled = self.system.spec().compile(q)?;
            let mut matched: Vec<String> = prepared
                .pos()
                .iter()
                .chain(prepared.neg().iter())
                .filter(|(t, b)| prepared.matches(&compiled, t, b))
                .map(|(t, _)| self.system.db().consts().resolve(t[0]).to_owned())
                .collect();
            matched.sort();
            rows.push((name, matched));
        }
        Ok(rows)
    }

    /// Z1 (α = β = γ = 1).
    pub fn z1(&self) -> Scoring {
        Scoring::paper_weighted(1.0, 1.0, 1.0)
    }

    /// Z2 (α = 3, β = γ = 1).
    pub fn z2(&self) -> Scoring {
        Scoring::paper_weighted(3.0, 1.0, 1.0)
    }

    /// Scores all three queries under a scoring; rows `(name, explanation)`.
    pub fn scores(
        &self,
        scoring: &Scoring,
    ) -> Result<Vec<(&'static str, Explanation)>, ExplainError> {
        let task = ExplainTask::new(
            &self.system,
            &self.labels,
            PAPER_RADIUS,
            scoring,
            SearchLimits::default(),
        )?;
        self.queries()
            .into_iter()
            .map(|(name, q)| Ok((name, task.score_ucq(q)?)))
            .collect()
    }
}

impl Default for PaperExample {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_3_6_match_matrix() {
        let ex = PaperExample::new();
        let matrix = ex.match_matrix().unwrap();
        assert_eq!(
            matrix,
            vec![
                ("q1", vec!["A10".into(), "B80".into(), "D50".into()]),
                ("q2", vec!["A10".into(), "B80".into(), "E25".into()]),
                ("q3", vec!["C12".into(), "D50".into()]),
            ]
        );
    }

    #[test]
    fn example_3_8_winners() {
        let ex = PaperExample::new();
        let z1 = ex.scores(&ex.z1()).unwrap();
        let by_name = |rows: &[(&str, Explanation)], n: &str| -> f64 {
            rows.iter().find(|(name, _)| *name == n).unwrap().1.score
        };
        // Z1: 0.694 / 0.5 / 0.833 → q3 wins.
        assert!((by_name(&z1, "q1") - 0.69444).abs() < 1e-4);
        assert!((by_name(&z1, "q2") - 0.5).abs() < 1e-12);
        assert!((by_name(&z1, "q3") - 0.83333).abs() < 1e-4);
        // Z2: 0.716 / 0.5 / 0.7 → q1 wins.
        let z2 = ex.scores(&ex.z2()).unwrap();
        assert!((by_name(&z2, "q1") - 0.71666).abs() < 1e-4);
        assert!((by_name(&z2, "q2") - 0.5).abs() < 1e-12);
        assert!((by_name(&z2, "q3") - 0.7).abs() < 1e-12);
    }
}
