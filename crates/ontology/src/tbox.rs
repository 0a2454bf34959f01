//! TBox axioms and the TBox container.

use crate::expr::{BasicConcept, ConceptRhs, Role, RoleRhs};
use crate::vocab::OntoVocab;

/// A DL-Lite_R axiom (plus DL-Lite_A functionality).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axiom {
    /// `B ⊑ C` — concept inclusion (positive when `C` is basic, negative
    /// when `C` is `¬B'`).
    ConceptIncl(BasicConcept, ConceptRhs),
    /// `R ⊑ E` — role inclusion (positive or negative).
    RoleIncl(Role, RoleRhs),
    /// `(funct R)` — role functionality (DL-Lite_A).
    Funct(Role),
}

impl Axiom {
    /// Whether this is a *positive inclusion* (the only kind PerfectRef and
    /// the chase use).
    pub fn is_positive(&self) -> bool {
        matches!(
            self,
            Axiom::ConceptIncl(_, ConceptRhs::Basic(_)) | Axiom::RoleIncl(_, RoleRhs::Role(_))
        )
    }

    /// Renders like `Student < Person` / `studies < not teaches` / `funct r`.
    pub fn render(&self, vocab: &OntoVocab) -> String {
        match self {
            Axiom::ConceptIncl(lhs, rhs) => {
                format!("{} < {}", lhs.render(vocab), rhs.render(vocab))
            }
            Axiom::RoleIncl(lhs, rhs) => format!("{} < {}", lhs.render(vocab), rhs.render(vocab)),
            Axiom::Funct(r) => format!("funct {}", r.render(vocab)),
        }
    }
}

/// The intensional level `O`: a vocabulary plus a set of axioms.
#[derive(Default, Debug)]
pub struct TBox {
    vocab: OntoVocab,
    axioms: Vec<Axiom>,
}

impl TBox {
    /// Creates an empty TBox with an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a TBox over an existing vocabulary.
    pub fn with_vocab(vocab: OntoVocab) -> Self {
        Self {
            vocab,
            axioms: Vec::new(),
        }
    }

    /// The vocabulary (read access).
    pub fn vocab(&self) -> &OntoVocab {
        &self.vocab
    }

    /// The vocabulary (declaration access).
    pub fn vocab_mut(&mut self) -> &mut OntoVocab {
        &mut self.vocab
    }

    /// Adds an axiom (duplicates are kept out).
    pub fn add(&mut self, axiom: Axiom) {
        if !self.axioms.contains(&axiom) {
            self.axioms.push(axiom);
        }
    }

    /// Convenience: positive concept inclusion `lhs ⊑ rhs`.
    pub fn concept_incl(&mut self, lhs: BasicConcept, rhs: BasicConcept) {
        self.add(Axiom::ConceptIncl(lhs, ConceptRhs::Basic(rhs)));
    }

    /// Convenience: disjointness `lhs ⊑ ¬rhs`.
    pub fn concept_disjoint(&mut self, lhs: BasicConcept, rhs: BasicConcept) {
        self.add(Axiom::ConceptIncl(lhs, ConceptRhs::Neg(rhs)));
    }

    /// Convenience: positive role inclusion `lhs ⊑ rhs`.
    pub fn role_incl(&mut self, lhs: Role, rhs: Role) {
        self.add(Axiom::RoleIncl(lhs, RoleRhs::Role(rhs)));
    }

    /// Convenience: role disjointness `lhs ⊑ ¬rhs`.
    pub fn role_disjoint(&mut self, lhs: Role, rhs: Role) {
        self.add(Axiom::RoleIncl(lhs, RoleRhs::Neg(rhs)));
    }

    /// Convenience: functionality assertion.
    pub fn funct(&mut self, r: Role) {
        self.add(Axiom::Funct(r));
    }

    /// All axioms, in insertion order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// Only the positive inclusions (used by rewriting and the chase).
    pub fn positive_inclusions(&self) -> impl Iterator<Item = &Axiom> {
        self.axioms.iter().filter(|a| a.is_positive())
    }

    /// Whether some positive inclusion has an existential on its right,
    /// `B ⊑ ∃R`. Only such an axiom invents individuals: without one,
    /// every consequence of the TBox over an ABox is an atom over the
    /// ABox's own individuals. PerfectRef needs its reduce step exactly
    /// then, and a mapping can be saturated with the TBox exactly when
    /// not.
    pub fn has_existential_rhs(&self) -> bool {
        self.axioms.iter().any(|ax| {
            matches!(
                ax,
                Axiom::ConceptIncl(_, ConceptRhs::Basic(BasicConcept::Exists(_)))
            )
        })
    }

    /// Number of axioms.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// Whether the TBox has no axioms (a "flat schema", §2).
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    /// Renders all axioms, one per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for a in &self.axioms {
            s.push_str(&a.render(&self.vocab));
            s.push('\n');
        }
        s
    }

    /// All basic concepts over the declared vocabulary:
    /// every atomic concept plus `∃R`/`∃R⁻` for every role. This is the
    /// (finite) node set of the subsumption closure.
    pub fn all_basic_concepts(&self) -> Vec<BasicConcept> {
        let mut out: Vec<BasicConcept> =
            self.vocab.concept_ids().map(BasicConcept::Atomic).collect();
        for r in self.vocab.role_ids() {
            out.push(BasicConcept::exists(r));
            out.push(BasicConcept::exists_inv(r));
        }
        out
    }

    /// All role expressions over the declared vocabulary (`R` and `R⁻`).
    pub fn all_roles(&self) -> Vec<Role> {
        let mut out = Vec::with_capacity(self.vocab.num_roles() * 2);
        for r in self.vocab.role_ids() {
            out.push(Role::direct(r));
            out.push(Role::inv(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_deduplicates() {
        let mut t = TBox::new();
        let a = BasicConcept::Atomic(t.vocab_mut().concept("A"));
        let b = BasicConcept::Atomic(t.vocab_mut().concept("B"));
        t.concept_incl(a, b);
        t.concept_incl(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn positive_inclusion_filter() {
        let mut t = TBox::new();
        let a = BasicConcept::Atomic(t.vocab_mut().concept("A"));
        let b = BasicConcept::Atomic(t.vocab_mut().concept("B"));
        let r = Role::direct(t.vocab_mut().role("r"));
        t.concept_incl(a, b);
        t.concept_disjoint(a, b);
        t.funct(r);
        assert_eq!(t.positive_inclusions().count(), 1);
        assert!(Axiom::ConceptIncl(a, ConceptRhs::Basic(b)).is_positive());
        assert!(!Axiom::Funct(r).is_positive());
    }

    #[test]
    fn existential_rhs_is_only_a_positive_exists_on_the_right() {
        let mut t = TBox::new();
        let a = BasicConcept::Atomic(t.vocab_mut().concept("A"));
        let r = Role::direct(t.vocab_mut().role("r"));
        t.concept_incl(BasicConcept::Exists(r), a);
        t.concept_disjoint(a, BasicConcept::Exists(r.inverted()));
        assert!(!t.has_existential_rhs(), "∃ on the left or under ¬");
        t.concept_incl(a, BasicConcept::Exists(r.inverted()));
        assert!(t.has_existential_rhs());
    }

    #[test]
    fn basic_concept_universe_counts() {
        let mut t = TBox::new();
        t.vocab_mut().concept("A");
        t.vocab_mut().concept("B");
        t.vocab_mut().role("r");
        assert_eq!(t.all_basic_concepts().len(), 2 + 2);
        assert_eq!(t.all_roles().len(), 2);
    }

    #[test]
    fn render_produces_parseable_lines() {
        let mut t = TBox::new();
        let stu = BasicConcept::Atomic(t.vocab_mut().concept("Student"));
        let r = Role::direct(t.vocab_mut().role("studies"));
        let likes = Role::direct(t.vocab_mut().role("likes"));
        t.concept_incl(stu, BasicConcept::Exists(r));
        t.role_incl(r, likes);
        t.funct(likes);
        let s = t.render();
        assert!(s.contains("Student < exists(studies)"));
        assert!(s.contains("studies < likes"));
        assert!(s.contains("funct likes"));
    }
}
