//! Query unfolding: ontology CQ → source UCQ through a GAV mapping.
//!
//! Unfolding replaces every ontology atom with the body of a mapping
//! assertion that yields it (all combinations — GAV unfolding is a
//! cartesian product of per-atom choices). The result evaluates directly
//! over the source database.
//!
//! Which assertions yield an atom is a [`MappingIndex`]:
//!
//! * [`MappingIndex::plain`] files each assertion under its own head
//!   predicate. [`unfold`] uses it after PerfectRef has compiled the TBox
//!   into the query: the classical pipeline `rewrite → unfold → evaluate`.
//! * [`MappingIndex::saturated`] files each assertion under every
//!   predicate it yields under the TBox's closures: a T-mapping
//!   (Rodríguez-Muro, Kontchakov & Zakharyaschev, ISWC 2013). Unfolding a
//!   query over it gives its certain answers without PerfectRef, as long
//!   as the TBox has no `B ⊑ ∃R` inclusion
//!   ([`obx_ontology::TBox::has_existential_rhs`]): then the TBox only
//!   derives atoms over individuals the mapping already retrieves.
//!
//! Both run the same depth-first search ([`unfold_cq`]). It binds
//! variables in one array and undoes them from a trail on backtracking,
//! so a branch costs no copy of the substitution.

use crate::assertion::Mapping;
use obx_ontology::{BasicConcept, Reasoner, Role};
use obx_query::{OntoAtom, OntoCq, OntoUcq, SrcAtom, SrcCq, SrcUcq, Term, VarId};
use std::fmt;

/// Unfolding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnfoldError {
    /// The cartesian product of assertion choices grew beyond the budget.
    BudgetExceeded {
        /// The limit that was hit.
        max_disjuncts: usize,
    },
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::BudgetExceeded { max_disjuncts } => {
                write!(f, "unfolding exceeded {max_disjuncts} disjuncts")
            }
        }
    }
}

impl std::error::Error for UnfoldError {}

/// One way an assertion yields atoms of a predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    /// Position of the assertion in its mapping.
    assertion: u32,
    /// The yielded atom's arguments, over the assertion's variables. A
    /// concept atom uses the first.
    args: [Term; 2],
    /// One more than the assertion's largest variable: the block of fresh
    /// variables one use of the assertion takes.
    width: u32,
}

/// A mapping's assertions filed by the ontology predicate they yield.
/// Each predicate's entries are in mapping order, so the disjuncts of an
/// unfolding come out in the same order on every run.
///
/// The index refers to assertions by position: unfold only with the
/// mapping it was built from.
#[derive(Debug, Clone, Default)]
pub struct MappingIndex {
    concepts: Vec<Vec<Entry>>,
    roles: Vec<Vec<Entry>>,
}

impl MappingIndex {
    /// Files each assertion under the predicate of its own head.
    pub fn plain(mapping: &Mapping) -> Self {
        Self::build(mapping, |head, file| file(head))
    }

    /// Files each assertion under every predicate it yields under
    /// `reasoner`'s closures, and under its own:
    ///
    /// * a concept head `A(t)` under each atomic subsumer of `A`;
    /// * a role head `P(t1, t2)` under each role subsumer of `P`, with the
    ///   arguments swapped for an inverse one;
    /// * a role head `P(t1, t2)` also under each atomic subsumer of `∃P`
    ///   (yielding `A(t1)`) and of `∃P⁻` (yielding `A(t2)`).
    ///
    /// Unfolding over this index gives certain answers only when the
    /// reasoner's TBox has no `B ⊑ ∃R` inclusion (module docs).
    pub fn saturated(mapping: &Mapping, reasoner: &Reasoner) -> Self {
        Self::build(mapping, |head, file| {
            // The reasoner knows only the TBox's vocabulary, so the own
            // predicate is filed whatever its closures say.
            file(head);
            match head {
                OntoAtom::Concept(c, t) => {
                    for sup in reasoner.subsumers(BasicConcept::Atomic(c)) {
                        if let BasicConcept::Atomic(a) = sup {
                            file(OntoAtom::Concept(a, t));
                        }
                    }
                }
                OntoAtom::Role(p, t1, t2) => {
                    for sup in reasoner.role_subsumers(Role::direct(p)) {
                        file(if sup.inverse {
                            OntoAtom::Role(sup.id, t2, t1)
                        } else {
                            OntoAtom::Role(sup.id, t1, t2)
                        });
                    }
                    for (domain, t) in [
                        (BasicConcept::exists(p), t1),
                        (BasicConcept::exists_inv(p), t2),
                    ] {
                        for sup in reasoner.subsumers(domain) {
                            if let BasicConcept::Atomic(a) = sup {
                                file(OntoAtom::Concept(a, t));
                            }
                        }
                    }
                }
            }
        })
    }

    /// Runs `yields` on each assertion's head and files the assertion
    /// under every atom it reports.
    fn build(mapping: &Mapping, yields: impl Fn(OntoAtom, &mut dyn FnMut(OntoAtom))) -> Self {
        let mut index = Self::default();
        for (i, assertion) in mapping.assertions().iter().enumerate() {
            let head = *assertion.head();
            let width = assertion
                .body()
                .max_var()
                .max(head.terms().filter_map(Term::as_var).map(|v| v.0).max())
                .map_or(1, |m| m + 1);
            yields(head, &mut |atom| {
                let (list, args) = match atom {
                    OntoAtom::Concept(c, t) => (slot(&mut index.concepts, c.0 .0), [t, t]),
                    OntoAtom::Role(r, t1, t2) => (slot(&mut index.roles, r.0 .0), [t1, t2]),
                };
                list.push(Entry {
                    assertion: i as u32,
                    args,
                    width,
                });
            });
        }
        // Entries arrive grouped by assertion; within one assertion the
        // reasoner's sets come in hash order, so sort by arguments too and
        // drop an atom yielded twice.
        for list in index.concepts.iter_mut().chain(index.roles.iter_mut()) {
            list.sort_unstable_by_key(|e| (e.assertion, e.args));
            list.dedup();
        }
        index
    }

    /// The entries that can yield `atom`.
    fn entries(&self, atom: &OntoAtom) -> &[Entry] {
        let (lists, id) = match *atom {
            OntoAtom::Concept(c, _) => (&self.concepts, c.0 .0),
            OntoAtom::Role(r, _, _) => (&self.roles, r.0 .0),
        };
        lists.get(id as usize).map_or(&[], Vec::as_slice)
    }
}

/// The list for predicate `id`, growing `lists` to hold it.
fn slot(lists: &mut Vec<Vec<Entry>>, id: u32) -> &mut Vec<Entry> {
    let i = id as usize;
    if lists.len() <= i {
        lists.resize_with(i + 1, Vec::new);
    }
    &mut lists[i]
}

/// Renames every variable of `t` by adding `offset`.
fn shift(t: Term, offset: u32) -> Term {
    match t {
        Term::Var(v) => Term::Var(VarId(v.0 + offset)),
        c => c,
    }
}

/// The search state of one CQ's unfolding.
struct Search<'a> {
    mapping: &'a Mapping,
    index: &'a MappingIndex,
    cq: &'a OntoCq,
    /// `bind[v]` is what variable `v` is bound to, if anything.
    bind: Vec<Option<Term>>,
    /// Variables bound so far, in binding order.
    trail: Vec<u32>,
    /// The assertion chosen for each atom so far, with its variable offset.
    chosen: Vec<(u32, u32)>,
}

impl Search<'_> {
    fn walk(&self, mut t: Term) -> Term {
        while let Term::Var(v) = t {
            match self.bind.get(v.0 as usize).copied().flatten() {
                Some(next) => t = next,
                None => break,
            }
        }
        t
    }

    fn unify(&mut self, t1: Term, t2: Term) -> bool {
        match (self.walk(t1), self.walk(t2)) {
            (Term::Const(a), Term::Const(b)) => a == b,
            (Term::Var(v), other) | (other, Term::Var(v)) => {
                if Term::Var(v) != other {
                    self.bind[v.0 as usize] = Some(other);
                    self.trail.push(v.0);
                }
                true
            }
        }
    }

    fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.bind[v as usize] = None;
        }
    }

    fn dfs<E>(
        &mut self,
        atom_idx: usize,
        fresh: u32,
        emit: &mut impl FnMut(SrcCq) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(&qa) = self.cq.body().get(atom_idx) else {
            return match self.resolve() {
                Some(q) => emit(q),
                None => Ok(()),
            };
        };
        let index = self.index;
        for e in index.entries(&qa) {
            // Rename the assertion apart, then unify its yielded atom
            // with `qa`.
            let offset = fresh;
            let end = (offset + e.width) as usize;
            if self.bind.len() < end {
                self.bind.resize(end, None);
            }
            let mark = self.trail.len();
            let unified = match qa {
                OntoAtom::Concept(_, t) => self.unify(t, shift(e.args[0], offset)),
                OntoAtom::Role(_, t1, t2) => {
                    self.unify(t1, shift(e.args[0], offset))
                        && self.unify(t2, shift(e.args[1], offset))
                }
            };
            if unified {
                self.chosen.push((e.assertion, offset));
                let res = self.dfs(atom_idx + 1, offset + e.width, emit);
                self.chosen.pop();
                res?;
            }
            self.undo(mark);
        }
        Ok(())
    }

    /// The source CQ of the current choices, or `None` when an answer
    /// variable ended up bound to a constant (not expressible in our CQ
    /// heads; such a combination is dropped — see crate docs).
    fn resolve(&self) -> Option<SrcCq> {
        let mut head = Vec::with_capacity(self.cq.head().len());
        for &h in self.cq.head() {
            match self.walk(Term::Var(h)) {
                Term::Var(v) => head.push(v),
                Term::Const(_) => return None,
            }
        }
        let mut body = Vec::new();
        for &(a, offset) in &self.chosen {
            let assertion = self.mapping.assertions().get(a as usize)?;
            for atom in assertion.body().body() {
                body.push(SrcAtom::new(
                    atom.rel,
                    atom.args.iter().map(|&t| self.walk(shift(t, offset))),
                ));
            }
        }
        SrcCq::new(head, body).ok()
    }
}

/// Unfolds one ontology CQ over `index`, which must be built from
/// `mapping`, handing each source disjunct to `emit` in search order.
/// An error from `emit` stops the search and is returned. A CQ with an
/// atom no assertion yields emits nothing.
pub fn unfold_cq<E>(
    mapping: &Mapping,
    index: &MappingIndex,
    cq: &OntoCq,
    mut emit: impl FnMut(SrcCq) -> Result<(), E>,
) -> Result<(), E> {
    if cq.body().iter().any(|a| index.entries(a).is_empty()) {
        return Ok(());
    }
    let fresh = cq.max_var().map_or(0, |m| m + 1);
    let mut search = Search {
        mapping,
        index,
        cq,
        bind: vec![None; fresh as usize],
        trail: Vec::new(),
        chosen: Vec::with_capacity(cq.body().len()),
    };
    search.dfs(0, fresh, &mut emit)
}

/// Unfolds an ontology UCQ into a source UCQ through `mapping`'s own
/// assertion heads (PerfectRef has already compiled the TBox into the
/// query). Disjuncts with an atom no assertion can produce are dropped
/// (they retrieve nothing from a sound mapping). `max_disjuncts` bounds
/// the output size.
pub fn unfold(
    mapping: &Mapping,
    ucq: &OntoUcq,
    max_disjuncts: usize,
) -> Result<SrcUcq, UnfoldError> {
    let index = MappingIndex::plain(mapping);
    let mut out = SrcUcq::empty();
    for cq in ucq.disjuncts() {
        unfold_cq(mapping, &index, cq, |q| {
            out.push(q);
            if out.len() > max_disjuncts {
                return Err(UnfoldError::BudgetExceeded { max_disjuncts });
            }
            Ok(())
        })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_mapping;
    use obx_ontology::parse_tbox;
    use obx_query::{eval, parse_onto_cq};
    use obx_srcdb::{parse_database, parse_schema, View};

    fn fixture() -> (obx_srcdb::Database, obx_ontology::TBox, Mapping) {
        let schema = parse_schema("STUD/1 LOC/2 ENR/3").unwrap();
        let mut db = parse_database(
            schema,
            "STUD(A10)\nLOC(TV, Rome)\nENR(A10, Math, TV)\nENR(E25, Math, Pol)\nLOC(Pol, Milan)",
        )
        .unwrap();
        let tbox =
            parse_tbox("concept Student\nrole studies taughtIn locatedIn likes\nstudies < likes")
                .unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(
            schema,
            tbox.vocab(),
            consts,
            r#"
            STUD(x) ~> Student(x)
            ENR(x, y, z) ~> studies(x, y)
            ENR(x, y, z) ~> taughtIn(y, z)
            LOC(x, y) ~> locatedIn(x, y)
            "#,
        )
        .unwrap();
        (db, tbox, mapping)
    }

    #[test]
    fn single_atom_unfolds_to_assertion_body() {
        let (mut db, tbox, mapping) = fixture();
        let q = {
            let consts = db.consts_mut();
            parse_onto_cq(tbox.vocab(), consts, "q(x) :- studies(x, y)").unwrap()
        };
        let src = unfold(&mapping, &OntoUcq::from_cq(q), 1000).unwrap();
        assert_eq!(src.len(), 1);
        let ans = eval::answers_ucq(View::full(&db), &src);
        assert_eq!(ans.len(), 2); // A10 and E25 study something
    }

    #[test]
    fn join_across_assertions() {
        let (mut db, tbox, mapping) = fixture();
        let q = {
            let consts = db.consts_mut();
            parse_onto_cq(
                tbox.vocab(),
                consts,
                r#"q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, "Rome")"#,
            )
            .unwrap()
        };
        let src = unfold(&mapping, &OntoUcq::from_cq(q), 1000).unwrap();
        assert_eq!(src.len(), 1);
        let ans = eval::answers_ucq(View::full(&db), &src);
        let mut names: Vec<&str> = ans.iter().map(|t| db.consts().resolve(t[0])).collect();
        names.sort_unstable();
        // Over the FULL database both qualify: E25 studies Math, Math is
        // (also) taught at TV, and TV is in Rome. The paper separates E25
        // from A10 only because matching happens per-tuple inside the
        // border (Definition 3.4) — that restriction lives in `obx-core`,
        // not here.
        assert_eq!(names, vec!["A10", "E25"]);
    }

    #[test]
    fn atom_without_assertion_drops_disjunct() {
        let (mut db, tbox, mapping) = fixture();
        // `likes` has no mapping assertion (it is only reachable via
        // rewriting into `studies`), so unfolding the unrewritten query
        // yields an empty UCQ.
        let q = {
            let consts = db.consts_mut();
            parse_onto_cq(tbox.vocab(), consts, "q(x) :- likes(x, y)").unwrap()
        };
        let src = unfold(&mapping, &OntoUcq::from_cq(q), 1000).unwrap();
        assert!(src.is_empty());
    }

    #[test]
    fn multiple_assertions_for_one_predicate_multiply_disjuncts() {
        let schema = parse_schema("R/2 S/2").unwrap();
        let mut db = parse_database(schema, "R(a, b)\nS(c, d)").unwrap();
        let tbox = parse_tbox("role p").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(
            schema,
            tbox.vocab(),
            consts,
            "R(x, y) ~> p(x, y)\nS(x, y) ~> p(x, y)",
        )
        .unwrap();
        let q = parse_onto_cq(tbox.vocab(), db.consts_mut(), "q(x) :- p(x, y), p(y, z)").unwrap();
        let src = unfold(&mapping, &OntoUcq::from_cq(q), 1000).unwrap();
        assert_eq!(src.len(), 4, "2 choices × 2 atoms");
    }

    #[test]
    fn constant_in_assertion_head_binds_query_variable() {
        let schema = parse_schema("R/1").unwrap();
        let mut db = parse_database(schema, "R(a)").unwrap();
        let tbox = parse_tbox("role r").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping =
            parse_mapping(schema, tbox.vocab(), consts, r#"R(x) ~> r(x, "home")"#).unwrap();
        // q(x) :- r(x, y): y unifies with "home".
        let q = parse_onto_cq(tbox.vocab(), db.consts_mut(), "q(x) :- r(x, y)").unwrap();
        let src = unfold(&mapping, &OntoUcq::from_cq(q), 1000).unwrap();
        assert_eq!(src.len(), 1);
        let ans = eval::answers_ucq(View::full(&db), &src);
        assert_eq!(ans.len(), 1);
        // But an *answer* variable cannot be bound to a constant: dropped.
        let q2 = parse_onto_cq(tbox.vocab(), db.consts_mut(), "q(x, y) :- r(x, y)").unwrap();
        let src2 = unfold(&mapping, &OntoUcq::from_cq(q2), 1000).unwrap();
        assert!(src2.is_empty());
        // A mismatching constant in the query also drops the disjunct.
        let q3 = parse_onto_cq(
            tbox.vocab(),
            db.consts_mut(),
            r#"q(x) :- r(x, "elsewhere")"#,
        )
        .unwrap();
        let src3 = unfold(&mapping, &OntoUcq::from_cq(q3), 1000).unwrap();
        assert!(src3.is_empty());
        // While the matching constant keeps it.
        let q4 = parse_onto_cq(tbox.vocab(), db.consts_mut(), r#"q(x) :- r(x, "home")"#).unwrap();
        let src4 = unfold(&mapping, &OntoUcq::from_cq(q4), 1000).unwrap();
        assert_eq!(src4.len(), 1);
    }

    #[test]
    fn budget_is_enforced() {
        let schema = parse_schema("R/2 S/2").unwrap();
        let mut db = parse_database(schema, "R(a, b)").unwrap();
        let tbox = parse_tbox("role p").unwrap();
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(
            schema,
            tbox.vocab(),
            consts,
            "R(x, y) ~> p(x, y)\nS(x, y) ~> p(x, y)",
        )
        .unwrap();
        let q = parse_onto_cq(
            tbox.vocab(),
            db.consts_mut(),
            "q(x) :- p(x, a), p(a, b), p(b, c)",
        )
        .unwrap();
        let err = unfold(&mapping, &OntoUcq::from_cq(q), 3).unwrap_err();
        assert_eq!(err, UnfoldError::BudgetExceeded { max_disjuncts: 3 });
    }

    #[test]
    fn saturated_index_files_assertions_under_their_subsumers() {
        // knows ⊑ inv(known_by), ∃knows ⊑ Person, ∃inv(knows) ⊑ Person.
        let schema = parse_schema("K/2 P/1").unwrap();
        let mut db = parse_database(schema, "K(a, b)\nP(c)").unwrap();
        let tbox = parse_tbox(
            "concept Person\nrole knows known_by\n\
             knows < inv(known_by)\nexists(knows) < Person\nexists(inv(knows)) < Person",
        )
        .unwrap();
        let reasoner = obx_ontology::Reasoner::build(&tbox);
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(
            schema,
            tbox.vocab(),
            consts,
            "P(x) ~> Person(x)\nK(x, y) ~> knows(x, y)",
        )
        .unwrap();
        let index = MappingIndex::saturated(&mapping, &reasoner);
        let compile = |db: &mut obx_srcdb::Database, text: &str| {
            let q = parse_onto_cq(tbox.vocab(), db.consts_mut(), text).unwrap();
            let mut out = SrcUcq::empty();
            unfold_cq(&mapping, &index, &q, |d| {
                out.push(d);
                Ok::<_, ()>(())
            })
            .unwrap();
            out
        };
        // The inverse swaps the arguments: known_by(y, x) comes from K(x, y).
        let known_by = compile(&mut db, "q(x, y) :- known_by(y, x)");
        assert_eq!(known_by.len(), 1);
        assert_eq!(eval::answers_ucq(View::full(&db), &known_by).len(), 1);
        // Person: its own assertion first, then both ends of K, in mapping
        // order.
        let person = compile(&mut db, "q(x) :- Person(x)");
        let rendered: Vec<String> = person
            .disjuncts()
            .iter()
            .map(|d| d.render(db.schema(), db.consts()))
            .collect();
        assert_eq!(
            rendered,
            ["q(x0) :- P(x0)", "q(x0) :- K(x0, x1)", "q(x0) :- K(x1, x0)"]
        );
        assert_eq!(eval::answers_ucq(View::full(&db), &person).len(), 3);
    }

    #[test]
    fn saturated_index_keeps_predicates_the_reasoner_does_not_know() {
        // A reasoner built from an empty TBox has no tables for `p`, yet
        // its assertion must still unfold `p`.
        let schema = parse_schema("R/2").unwrap();
        let mut db = parse_database(schema, "R(a, b)").unwrap();
        let tbox = parse_tbox("role p").unwrap();
        let reasoner = obx_ontology::Reasoner::build(&obx_ontology::TBox::new());
        let (schema, consts) = db.schema_and_consts_mut();
        let mapping = parse_mapping(schema, tbox.vocab(), consts, "R(x, y) ~> p(x, y)").unwrap();
        let index = MappingIndex::saturated(&mapping, &reasoner);
        let q = parse_onto_cq(tbox.vocab(), db.consts_mut(), "q(x) :- p(x, y)").unwrap();
        let mut n = 0;
        unfold_cq(&mapping, &index, &q, |_| {
            n += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(n, 1);
    }
}
