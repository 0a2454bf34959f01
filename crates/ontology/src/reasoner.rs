//! Saturation-based TBox reasoning for DL-Lite_R.
//!
//! The reasoner precomputes, once per TBox:
//!
//! * the reflexive–transitive **subsumption closure** over role expressions
//!   (`R ⊑* S`, closed under inverses: `R ⊑ S ⟹ R⁻ ⊑ S⁻`);
//! * the reflexive–transitive subsumption closure over **basic concepts**,
//!   where role subsumption induces `∃R ⊑ ∃S`;
//! * the **disjointness closure** for concepts and roles (a negative
//!   inclusion `B ⊑ ¬B'` propagates down both subsumption cones);
//! * the set of **unsatisfiable** basic concepts (`B` disjoint from itself).
//!
//! These are the classical polynomial DL-Lite TBox services; every
//! downstream component (instance checking, ABox consistency, the chase,
//! the hierarchy-climbing generalization operator in the explanation
//! search) queries this structure.

use crate::expr::{BasicConcept, ConceptRhs, Role, RoleRhs};
use crate::tbox::{Axiom, TBox};
use obx_util::fixpoint::saturate;
use obx_util::{FxHashMap, FxHashSet};

/// Precomputed reasoning tables for one TBox.
#[derive(Debug)]
pub struct Reasoner {
    /// `concept_subs[B]` = all `S` with `B ⊑* S` (includes `B`).
    concept_subs: FxHashMap<BasicConcept, FxHashSet<BasicConcept>>,
    /// `role_subs[R]` = all `S` with `R ⊑* S` (includes `R`).
    role_subs: FxHashMap<Role, FxHashSet<Role>>,
    /// Symmetric concept disjointness (both orientations stored).
    concept_disj: FxHashSet<(BasicConcept, BasicConcept)>,
    /// Symmetric role disjointness (both orientations stored).
    role_disj: FxHashSet<(Role, Role)>,
    /// Basic concepts that can have no instance in any model.
    unsat: FxHashSet<BasicConcept>,
    /// Functional role expressions (as asserted).
    functional: FxHashSet<Role>,
}

// Each round adds at least one edge to some node's reachable set or
// stops, and a set can grow at most `nodes.len()` times, so the closure
// settles within the `nodes.len() + 2` rounds it is given: the budget
// error cannot happen.
#[allow(clippy::expect_used)]
fn transitive_closure<T: Copy + Eq + std::hash::Hash>(
    nodes: &[T],
    edges: &FxHashMap<T, Vec<T>>,
) -> FxHashMap<T, FxHashSet<T>> {
    // subs[x] = {y | x ->* y}, reflexive. Saturated by rounds; the node and
    // edge counts are both O(|TBox|), so this is at worst cubic on tiny
    // inputs and in practice converges in hierarchy-depth rounds.
    let mut subs: FxHashMap<T, FxHashSet<T>> = nodes
        .iter()
        .map(|&n| (n, std::iter::once(n).collect::<FxHashSet<T>>()))
        .collect();
    let budget = nodes.len() + 2;
    saturate("subsumption closure", budget, &mut subs, |subs| {
        let mut changed = false;
        for &n in nodes {
            // successors of everything currently reachable from n
            let reach: Vec<T> = subs[&n].iter().copied().collect();
            let mut add: Vec<T> = Vec::new();
            for m in reach {
                if let Some(next) = edges.get(&m) {
                    for &t in next {
                        if !subs[&n].contains(&t) {
                            add.push(t);
                        }
                    }
                }
            }
            if let Some(entry) = subs.get_mut(&n) {
                for t in add {
                    changed |= entry.insert(t);
                }
            }
        }
        changed
    })
    .expect("closure over a finite graph terminates");
    subs
}

impl Reasoner {
    /// Builds the reasoning tables for `tbox`.
    pub fn build(tbox: &TBox) -> Self {
        let roles = tbox.all_roles();
        let concepts = tbox.all_basic_concepts();

        // --- role subsumption ---
        let mut role_edges: FxHashMap<Role, Vec<Role>> = FxHashMap::default();
        for ax in tbox.axioms() {
            if let Axiom::RoleIncl(lhs, RoleRhs::Role(rhs)) = ax {
                role_edges.entry(*lhs).or_default().push(*rhs);
                role_edges
                    .entry(lhs.inverted())
                    .or_default()
                    .push(rhs.inverted());
            }
        }
        let role_subs = transitive_closure(&roles, &role_edges);

        // --- concept subsumption (role closure induces ∃R ⊑ ∃S) ---
        let mut concept_edges: FxHashMap<BasicConcept, Vec<BasicConcept>> = FxHashMap::default();
        for ax in tbox.axioms() {
            if let Axiom::ConceptIncl(lhs, ConceptRhs::Basic(rhs)) = ax {
                concept_edges.entry(*lhs).or_default().push(*rhs);
            }
        }
        for (r, sups) in &role_subs {
            for s in sups {
                if r != s {
                    concept_edges
                        .entry(BasicConcept::Exists(*r))
                        .or_default()
                        .push(BasicConcept::Exists(*s));
                }
            }
        }
        let concept_subs = transitive_closure(&concepts, &concept_edges);

        // --- disjointness closures ---
        // Asserted (symmetric) seeds.
        let mut concept_seeds: Vec<(BasicConcept, BasicConcept)> = Vec::new();
        let mut role_seeds: Vec<(Role, Role)> = Vec::new();
        for ax in tbox.axioms() {
            match ax {
                Axiom::ConceptIncl(lhs, ConceptRhs::Neg(rhs)) => {
                    concept_seeds.push((*lhs, *rhs));
                }
                Axiom::RoleIncl(lhs, RoleRhs::Neg(rhs)) => {
                    role_seeds.push((*lhs, *rhs));
                    role_seeds.push((lhs.inverted(), rhs.inverted()));
                }
                _ => {}
            }
        }
        // Propagate down the subsumption cones: if B1 ⊑* B and B2 ⊑* B' and
        // disj(B, B'), then disj(B1, B2).
        let mut concept_disj: FxHashSet<(BasicConcept, BasicConcept)> = FxHashSet::default();
        for &(b, bp) in &concept_seeds {
            for &c1 in &concepts {
                if !concept_subs[&c1].contains(&b) {
                    continue;
                }
                for &c2 in &concepts {
                    if concept_subs[&c2].contains(&bp) {
                        concept_disj.insert((c1, c2));
                        concept_disj.insert((c2, c1));
                    }
                }
            }
        }
        let mut role_disj: FxHashSet<(Role, Role)> = FxHashSet::default();
        for &(r, rp) in &role_seeds {
            for &s1 in &roles {
                if !role_subs[&s1].contains(&r) {
                    continue;
                }
                for &s2 in &roles {
                    if role_subs[&s2].contains(&rp) {
                        role_disj.insert((s1, s2));
                        role_disj.insert((s2, s1));
                    }
                }
            }
        }
        // Disjoint roles make their existentials disjoint.
        for &(r, s) in role_disj.iter().collect::<Vec<_>>() {
            concept_disj.insert((BasicConcept::Exists(r), BasicConcept::Exists(s)));
            concept_disj.insert((
                BasicConcept::Exists(r.inverted()),
                BasicConcept::Exists(s.inverted()),
            ));
        }

        let unsat: FxHashSet<BasicConcept> = concepts
            .iter()
            .copied()
            .filter(|&b| concept_disj.contains(&(b, b)))
            .collect();

        let functional: FxHashSet<Role> = tbox
            .axioms()
            .iter()
            .filter_map(|ax| match ax {
                Axiom::Funct(r) => Some(*r),
                _ => None,
            })
            .collect();

        Self {
            concept_subs,
            role_subs,
            concept_disj,
            role_disj,
            unsat,
            functional,
        }
    }

    /// `sub ⊑* sup` for basic concepts. Concepts not in the vocabulary only
    /// subsume themselves.
    pub fn subsumes(&self, sub: BasicConcept, sup: BasicConcept) -> bool {
        sub == sup
            || self
                .concept_subs
                .get(&sub)
                .is_some_and(|s| s.contains(&sup))
    }

    /// All subsumers of `b` (including `b`).
    pub fn subsumers(&self, b: BasicConcept) -> impl Iterator<Item = BasicConcept> + '_ {
        self.concept_subs
            .get(&b)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// All subsumees of `b` (including `b`). O(|vocabulary|).
    pub fn subsumees(&self, b: BasicConcept) -> Vec<BasicConcept> {
        self.concept_subs
            .iter()
            .filter(|(_, sups)| sups.contains(&b))
            .map(|(&c, _)| c)
            .collect()
    }

    /// `sub ⊑* sup` for role expressions.
    pub fn role_subsumes(&self, sub: Role, sup: Role) -> bool {
        sub == sup || self.role_subs.get(&sub).is_some_and(|s| s.contains(&sup))
    }

    /// All role subsumers of `r` (including `r`).
    pub fn role_subsumers(&self, r: Role) -> impl Iterator<Item = Role> + '_ {
        self.role_subs
            .get(&r)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// All role subsumees of `r` (including `r`).
    pub fn role_subsumees(&self, r: Role) -> Vec<Role> {
        self.role_subs
            .iter()
            .filter(|(_, sups)| sups.contains(&r))
            .map(|(&s, _)| s)
            .collect()
    }

    /// Whether two basic concepts are equivalent (mutual subsumption).
    pub fn equivalent(&self, a: BasicConcept, b: BasicConcept) -> bool {
        self.subsumes(a, b) && self.subsumes(b, a)
    }

    /// Whether `b1` and `b2` are derived disjoint.
    pub fn disjoint(&self, b1: BasicConcept, b2: BasicConcept) -> bool {
        self.concept_disj.contains(&(b1, b2))
    }

    /// Whether two role expressions are derived disjoint.
    pub fn roles_disjoint(&self, r1: Role, r2: Role) -> bool {
        self.role_disj.contains(&(r1, r2))
    }

    /// Whether `b` is unsatisfiable w.r.t. the TBox.
    pub fn is_unsat(&self, b: BasicConcept) -> bool {
        self.unsat.contains(&b)
    }

    /// Whether the TBox itself derives some unsatisfiable basic concept.
    pub fn has_unsat_concept(&self) -> bool {
        !self.unsat.is_empty()
    }

    /// Whether `r` is asserted functional.
    pub fn is_functional(&self, r: Role) -> bool {
        self.functional.contains(&r)
    }

    /// Asserted functional roles.
    pub fn functional_roles(&self) -> impl Iterator<Item = Role> + '_ {
        self.functional.iter().copied()
    }

    /// Direct (Hasse) subsumers of `b`: strict subsumers `S` with no strict
    /// intermediate `T` (`b ⊏ T ⊏ S`). Equivalent concepts are skipped.
    /// Used by the explanation search to generalize one step at a time.
    pub fn direct_subsumers(&self, b: BasicConcept) -> Vec<BasicConcept> {
        let strict: Vec<BasicConcept> = self
            .subsumers(b)
            .filter(|&s| !self.equivalent(s, b))
            .collect();
        strict
            .iter()
            .copied()
            .filter(|&s| {
                !strict
                    .iter()
                    .any(|&t| t != s && !self.equivalent(t, s) && self.subsumes(t, s))
            })
            .collect()
    }

    /// Direct (Hasse) role subsumers of `r`.
    pub fn direct_role_subsumers(&self, r: Role) -> Vec<Role> {
        let strict: Vec<Role> = self
            .role_subsumers(r)
            .filter(|&s| !(self.role_subsumes(s, r) && self.role_subsumes(r, s)))
            .collect();
        strict
            .iter()
            .copied()
            .filter(|&s| {
                !strict.iter().any(|&t| {
                    t != s
                        && !(self.role_subsumes(t, s) && self.role_subsumes(s, t))
                        && self.role_subsumes(t, s)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::OntoVocab;

    /// TBox: Student ⊑ Person, Person ⊑ Agent, ∃teaches ⊑ Professor,
    /// Professor ⊑ Person, studies ⊑ likes, Student ⊑ ¬Course.
    fn sample() -> (TBox, ReasonerFixture) {
        let mut vocab = OntoVocab::new();
        let student = BasicConcept::Atomic(vocab.concept("Student"));
        let person = BasicConcept::Atomic(vocab.concept("Person"));
        let agent = BasicConcept::Atomic(vocab.concept("Agent"));
        let professor = BasicConcept::Atomic(vocab.concept("Professor"));
        let course = BasicConcept::Atomic(vocab.concept("Course"));
        let teaches = Role::direct(vocab.role("teaches"));
        let studies = Role::direct(vocab.role("studies"));
        let likes = Role::direct(vocab.role("likes"));
        let mut tbox = TBox::with_vocab(vocab);
        tbox.concept_incl(student, person);
        tbox.concept_incl(person, agent);
        tbox.concept_incl(BasicConcept::Exists(teaches), professor);
        tbox.concept_incl(professor, person);
        tbox.role_incl(studies, likes);
        tbox.concept_disjoint(student, course);
        let fixture = ReasonerFixture {
            student,
            person,
            agent,
            professor,
            course,
            teaches,
            studies,
            likes,
        };
        (tbox, fixture)
    }

    struct ReasonerFixture {
        student: BasicConcept,
        person: BasicConcept,
        agent: BasicConcept,
        professor: BasicConcept,
        course: BasicConcept,
        teaches: Role,
        studies: Role,
        likes: Role,
    }

    #[test]
    fn transitive_concept_subsumption() {
        let (tbox, f) = sample();
        let r = Reasoner::build(&tbox);
        assert!(r.subsumes(f.student, f.person));
        assert!(r.subsumes(f.student, f.agent));
        assert!(r.subsumes(f.student, f.student));
        assert!(!r.subsumes(f.person, f.student));
        // ∃teaches ⊑ Professor ⊑ Person ⊑ Agent
        assert!(r.subsumes(BasicConcept::Exists(f.teaches), f.agent));
    }

    #[test]
    fn role_inclusion_closes_under_inverse_and_induces_exists() {
        let (tbox, f) = sample();
        let r = Reasoner::build(&tbox);
        assert!(r.role_subsumes(f.studies, f.likes));
        assert!(r.role_subsumes(f.studies.inverted(), f.likes.inverted()));
        assert!(!r.role_subsumes(f.likes, f.studies));
        assert!(r.subsumes(
            BasicConcept::Exists(f.studies),
            BasicConcept::Exists(f.likes)
        ));
        assert!(r.subsumes(
            BasicConcept::Exists(f.studies.inverted()),
            BasicConcept::Exists(f.likes.inverted())
        ));
    }

    #[test]
    fn disjointness_propagates_down_subsumption() {
        let (mut tbox, f) = sample();
        // PhDStudent ⊑ Student; disjointness Student ⊑ ¬Course must reach it.
        let phd = BasicConcept::Atomic(tbox.vocab_mut().concept("PhDStudent"));
        tbox.concept_incl(phd, f.student);
        let r = Reasoner::build(&tbox);
        assert!(r.disjoint(f.student, f.course));
        assert!(r.disjoint(f.course, f.student));
        assert!(r.disjoint(phd, f.course));
        assert!(!r.disjoint(f.person, f.course));
        assert!(!r.has_unsat_concept());
    }

    #[test]
    fn unsatisfiable_concept_detected() {
        let (mut tbox, f) = sample();
        // Weird ⊑ Student and Weird ⊑ Course makes Weird unsatisfiable.
        let weird = BasicConcept::Atomic(tbox.vocab_mut().concept("Weird"));
        tbox.concept_incl(weird, f.student);
        tbox.concept_incl(weird, f.course);
        let r = Reasoner::build(&tbox);
        assert!(r.is_unsat(weird));
        assert!(!r.is_unsat(f.student));
        assert!(r.has_unsat_concept());
    }

    #[test]
    fn role_disjointness_and_exists_interaction() {
        let (mut tbox, f) = sample();
        tbox.role_disjoint(f.teaches, f.studies);
        let r = Reasoner::build(&tbox);
        assert!(r.roles_disjoint(f.teaches, f.studies));
        assert!(r.roles_disjoint(f.studies, f.teaches));
        assert!(r.roles_disjoint(f.teaches.inverted(), f.studies.inverted()));
        assert!(r.disjoint(
            BasicConcept::Exists(f.teaches),
            BasicConcept::Exists(f.studies)
        ));
        // studies ⊑ likes, so teaches is also disjoint from... nothing more:
        // disjointness propagates down, not up.
        assert!(!r.roles_disjoint(f.teaches, f.likes));
    }

    #[test]
    fn functionality_is_recorded() {
        let (mut tbox, f) = sample();
        tbox.funct(f.likes);
        let r = Reasoner::build(&tbox);
        assert!(r.is_functional(f.likes));
        assert!(!r.is_functional(f.studies));
        assert_eq!(r.functional_roles().count(), 1);
    }

    #[test]
    fn direct_subsumers_skip_transitive_hops() {
        let (tbox, f) = sample();
        let r = Reasoner::build(&tbox);
        let ds = r.direct_subsumers(f.student);
        assert!(ds.contains(&f.person));
        assert!(!ds.contains(&f.agent), "Agent is 2 hops up");
        // Top-level concept: no subsumers.
        assert!(r.direct_subsumers(f.agent).is_empty());
    }

    #[test]
    fn direct_role_subsumers() {
        let (mut tbox, f) = sample();
        let adores = Role::direct(tbox.vocab_mut().role("adores"));
        tbox.role_incl(f.studies, adores);
        tbox.role_incl(adores, f.likes);
        let r = Reasoner::build(&tbox);
        let ds = r.direct_role_subsumers(f.studies);
        assert!(ds.contains(&adores));
        assert!(!ds.contains(&f.likes));
    }

    #[test]
    fn subsumees_inverse_of_subsumers() {
        let (tbox, f) = sample();
        let r = Reasoner::build(&tbox);
        let subs = r.subsumees(f.person);
        assert!(subs.contains(&f.student));
        assert!(subs.contains(&f.professor));
        assert!(subs.contains(&BasicConcept::Exists(f.teaches)));
        assert!(!subs.contains(&f.agent));
    }

    #[test]
    fn equivalence_via_cycle() {
        let mut tbox = TBox::new();
        let a = BasicConcept::Atomic(tbox.vocab_mut().concept("A"));
        let b = BasicConcept::Atomic(tbox.vocab_mut().concept("B"));
        tbox.concept_incl(a, b);
        tbox.concept_incl(b, a);
        let r = Reasoner::build(&tbox);
        assert!(r.equivalent(a, b));
        // Hasse diagram of an equivalence cycle has no strict edges.
        assert!(r.direct_subsumers(a).is_empty());
    }

    #[test]
    fn empty_tbox_reasoner_is_trivial() {
        let tbox = TBox::new();
        let r = Reasoner::build(&tbox);
        assert!(!r.has_unsat_concept());
        let mut vocab = OntoVocab::new();
        let foreign = BasicConcept::Atomic(vocab.concept("X"));
        // Foreign concepts only subsume themselves and are never disjoint.
        assert!(r.subsumes(foreign, foreign));
        assert!(!r.disjoint(foreign, foreign));
    }
}
