//! The materialization engine: virtual ABox + restricted chase.
//!
//! DL-Lite's canonical model is built by *chasing* the ABox with the
//! TBox's positive inclusions, inventing labelled nulls as existential
//! witnesses (`Person ⊑ ∃hasParent` gives every parent-less person a null
//! parent). The canonical model can be infinite, but a UCQ with at most
//! `k` atoms can only "see" null chains of bounded length, so a chase
//! truncated at null depth `k + 1` yields exactly the certain answers for
//! that query (answers mentioning nulls are discarded).
//!
//! This engine is asymptotically worse than rewriting (it materializes
//! per view) — it exists as an *independent oracle*: the property tests
//! in the integration suite compare both engines on random scenarios,
//! which is the strongest correctness guard either implementation has.

use obx_ontology::{ABox, BasicConcept, Reasoner, Role, TBox};
use obx_query::{OntoAtom, OntoCq, OntoUcq, SrcAtom, SrcCq, Term};
use obx_srcdb::{Const, Database, Schema, View};
use obx_util::{FxHashMap, FxHashSet};

/// An individual of the chased ABox: a source constant or a labelled null.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Ind {
    /// A real constant from `dom(D)`.
    C(Const),
    /// A labelled null invented as an existential witness.
    Null(u32),
}

/// Bounds for the restricted chase.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Nulls deeper than this are not generated (depth of a constant is 0;
    /// a null's depth is its generator's depth + 1).
    pub max_null_depth: usize,
    /// Hard cap on generated assertions (safety valve).
    pub max_facts: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        Self {
            max_null_depth: 4,
            max_facts: 1_000_000,
        }
    }
}

impl ChaseConfig {
    /// A depth sufficient for the certain answers of `ucq`: one more than
    /// the largest disjunct body.
    pub fn for_ucq(ucq: &OntoUcq) -> Self {
        let k = ucq
            .disjuncts()
            .iter()
            .map(OntoCq::num_atoms)
            .max()
            .unwrap_or(0);
        Self {
            max_null_depth: k + 1,
            ..Self::default()
        }
    }
}

/// Runs the restricted chase of `abox` under the positive inclusions of
/// `tbox` and packages the result for evaluation.
pub fn chase_abox(
    tbox: &TBox,
    reasoner: &Reasoner,
    abox: &ABox<Const>,
    config: ChaseConfig,
) -> MaterializedAbox {
    chase_abox_interruptible(tbox, reasoner, abox, config, &obx_util::Interrupt::none())
}

/// [`chase_abox`] with a cooperative stop signal, polled once per
/// saturation round. If `interrupt` fires the chase stops early and the
/// partially materialized ABox is returned — sound for the *positive*
/// direction (everything derived is entailed) but possibly incomplete,
/// which is the contract anytime callers accept.
///
/// When the interrupt carries a [`ResourceGuard`](obx_util::ResourceGuard),
/// each saturation round charges the guard with the facts it generated;
/// a tripped guard truncates the chase the same sound-but-incomplete way.
pub fn chase_abox_interruptible(
    tbox: &TBox,
    reasoner: &Reasoner,
    abox: &ABox<Const>,
    config: ChaseConfig,
    interrupt: &obx_util::Interrupt,
) -> MaterializedAbox {
    let mut sp = obx_util::span!(interrupt.recorder(), "chase");
    let mut chased: ABox<Ind> = ABox::new();
    for (c, i) in abox.concept_assertions() {
        chased.assert_concept(c, Ind::C(i));
    }
    for (r, s, o) in abox.role_assertions() {
        chased.assert_role(r, Ind::C(s), Ind::C(o));
    }

    // Approximate per-fact footprint for the guard's allocation counter.
    const FACT_BYTES: usize = std::mem::size_of::<(obx_ontology::RoleId, Ind, Ind)>();
    let charge = |delta: usize| -> bool {
        match interrupt.guard() {
            Some(g) => g.charge(obx_util::GuardKind::ChaseFacts, delta, delta * FACT_BYTES),
            None => true,
        }
    };
    if !charge(chased.len()) {
        return MaterializedAbox::build(tbox, &chased);
    }
    let mut last_len = chased.len();

    let mut depth: FxHashMap<Ind, usize> = FxHashMap::default();
    let mut next_null = 0u32;

    // Saturation loop. Each round closes concept/role memberships under
    // the reasoner's (already transitive) subsumption tables, so only the
    // null-creating existential rules genuinely iterate — at most
    // `max_null_depth` productive rounds, plus one to detect quiescence.
    loop {
        if interrupt.is_triggered() {
            break;
        }
        sp.count("rounds", 1);
        let mut changed = false;

        // Role subsumption: p(s, o) and p ⊑* q gives q-assertions.
        let roles: Vec<(obx_ontology::RoleId, Ind, Ind)> = chased.role_assertions().collect();
        for (p, s, o) in &roles {
            for sup in reasoner.role_subsumers(Role::direct(*p)) {
                let added = if sup.inverse {
                    chased.assert_role(sup.id, *o, *s)
                } else {
                    chased.assert_role(sup.id, *s, *o)
                };
                changed |= added;
            }
        }

        // Concept subsumption + existential witnesses.
        let inds: Vec<Ind> = chased.individuals().into_iter().collect();
        for &x in &inds {
            let memberships = chased.derived_memberships(reasoner, x);
            for b in memberships {
                match b {
                    BasicConcept::Atomic(a) => {
                        changed |= chased.assert_concept(a, x);
                    }
                    BasicConcept::Exists(role) => {
                        if has_successor(&chased, x, role) {
                            continue;
                        }
                        let d = depth.get(&x).copied().unwrap_or(0);
                        if d >= config.max_null_depth {
                            continue;
                        }
                        let null = Ind::Null(next_null);
                        next_null += 1;
                        depth.insert(null, d + 1);
                        let added = if role.inverse {
                            chased.assert_role(role.id, null, x)
                        } else {
                            chased.assert_role(role.id, x, null)
                        };
                        changed |= added;
                    }
                }
            }
            if chased.len() > config.max_facts {
                break;
            }
        }

        if !changed || chased.len() > config.max_facts {
            break;
        }
        // Charge this round's new facts to the resource guard; a trip
        // truncates the chase (sound, possibly incomplete).
        if !charge(chased.len().saturating_sub(last_len)) {
            break;
        }
        last_len = chased.len();
    }

    sp.count("facts", chased.len() as u64);
    sp.count("nulls", u64::from(next_null));
    CHASE_FACTS.add(chased.len() as u64);
    MaterializedAbox::build(tbox, &chased)
}

/// Process-wide count of chased facts (per-run counts live on the `chase`
/// span).
static CHASE_FACTS: std::sync::LazyLock<&'static obx_util::obs::Counter> =
    std::sync::LazyLock::new(|| obx_util::obs::counter("obx.chase.facts"));

fn has_successor(abox: &ABox<Ind>, x: Ind, role: Role) -> bool {
    // x has an R-successor iff some assertion role.id(x, _) (direct) or
    // role.id(_, x) (inverse) exists.
    abox.role_assertions()
        .any(|(p, s, o)| p == role.id && if role.inverse { o == x } else { s == x })
}

/// A chased ABox converted into an ordinary indexed [`Database`] over a
/// synthetic schema (one unary relation per concept, one binary per role),
/// so the standard CQ evaluator runs on it.
pub struct MaterializedAbox {
    db: Database,
    concept_rel: FxHashMap<obx_ontology::ConceptId, obx_srcdb::RelId>,
    role_rel: FxHashMap<obx_ontology::RoleId, obx_srcdb::RelId>,
    /// Original constant → database constant.
    to_db: FxHashMap<Const, Const>,
    /// Database constant → original individual (None for nulls).
    from_db: FxHashMap<Const, Option<Const>>,
}

impl MaterializedAbox {
    // The synthetic schema cannot reject what is declared and inserted
    // here: relation names are `c:`/`r:` plus a vocabulary name, unique
    // because vocabulary names are, and every fact has its relation's
    // arity (one individual per concept, two per role).
    #[allow(clippy::expect_used)]
    fn build(tbox: &TBox, chased: &ABox<Ind>) -> Self {
        let mut schema = Schema::new();
        let mut concept_rel = FxHashMap::default();
        let mut role_rel = FxHashMap::default();
        for c in tbox.vocab().concept_ids() {
            let rel = schema
                .declare(&format!("c:{}", tbox.vocab().concept_name(c)), 1)
                .expect("unique synthetic names");
            concept_rel.insert(c, rel);
        }
        for r in tbox.vocab().role_ids() {
            let rel = schema
                .declare(&format!("r:{}", tbox.vocab().role_name(r)), 2)
                .expect("unique synthetic names");
            role_rel.insert(r, rel);
        }
        let mut db = Database::new(schema);
        let mut to_db: FxHashMap<Const, Const> = FxHashMap::default();
        let mut from_db: FxHashMap<Const, Option<Const>> = FxHashMap::default();
        let mut ind_const = |ind: Ind, db: &mut Database| -> Const {
            let name = match ind {
                Ind::C(c) => format!("c{}", c.0 .0),
                Ind::Null(n) => format!("n{n}"),
            };
            let nc = db.constant(&name);
            match ind {
                Ind::C(c) => {
                    to_db.insert(c, nc);
                    from_db.insert(nc, Some(c));
                }
                Ind::Null(_) => {
                    from_db.insert(nc, None);
                }
            }
            nc
        };
        let mut facts: Vec<(obx_srcdb::RelId, Vec<Ind>)> = Vec::new();
        for (c, i) in chased.concept_assertions() {
            facts.push((concept_rel[&c], vec![i]));
        }
        for (r, s, o) in chased.role_assertions() {
            facts.push((role_rel[&r], vec![s, o]));
        }
        for (rel, inds) in facts {
            let args: Vec<Const> = inds.into_iter().map(|i| ind_const(i, &mut db)).collect();
            db.insert(obx_srcdb::Atom::new(rel, args))
                .expect("synthetic arity is correct");
        }
        Self {
            db,
            concept_rel,
            role_rel,
            to_db,
            from_db,
        }
    }

    /// Number of facts after the chase.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the chased ABox is empty.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Translates an ontology CQ to a CQ over the synthetic schema.
    /// Returns `None` when the query mentions a constant that does not
    /// occur in the chased ABox (such a disjunct has no answers).
    fn translate(&self, cq: &OntoCq) -> Option<SrcCq> {
        let term = |t: Term| -> Option<Term> {
            match t {
                Term::Var(v) => Some(Term::Var(v)),
                Term::Const(c) => self.to_db.get(&c).map(|&nc| Term::Const(nc)),
            }
        };
        let mut body = Vec::with_capacity(cq.num_atoms());
        for atom in cq.body() {
            let a = match *atom {
                OntoAtom::Concept(c, t) => SrcAtom::new(self.concept_rel[&c], [term(t)?]),
                OntoAtom::Role(r, t1, t2) => {
                    SrcAtom::new(self.role_rel[&r], [term(t1)?, term(t2)?])
                }
            };
            body.push(a);
        }
        SrcCq::new(cq.head().to_vec(), body).ok()
    }

    /// Certain answers of `ucq` over the chased ABox: evaluate each
    /// disjunct and keep the tuples made of real constants only.
    pub fn answers(&self, ucq: &OntoUcq) -> FxHashSet<Box<[Const]>> {
        let mut out: FxHashSet<Box<[Const]>> = FxHashSet::default();
        for cq in ucq.disjuncts() {
            let Some(src) = self.translate(cq) else {
                continue;
            };
            'tuples: for t in obx_query::eval::answers(View::full(&self.db), &src) {
                let mut mapped = Vec::with_capacity(t.len());
                for c in t.iter() {
                    match self.from_db.get(c) {
                        Some(Some(orig)) => mapped.push(*orig),
                        _ => continue 'tuples, // null in the answer
                    }
                }
                out.insert(mapped.into_boxed_slice());
            }
        }
        out
    }

    /// Membership check for one tuple (of original constants).
    pub fn member(&self, ucq: &OntoUcq, tuple: &[Const]) -> bool {
        let mapped: Option<Vec<Const>> = tuple.iter().map(|c| self.to_db.get(c).copied()).collect();
        let Some(mapped) = mapped else {
            return false;
        };
        ucq.disjuncts().iter().any(|cq| {
            self.translate(cq)
                .is_some_and(|src| obx_query::eval::satisfies(View::full(&self.db), &src, &mapped))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_mapping::virtual_abox;
    use obx_query::parse_onto_ucq;

    /// TBox with an existential: Student ⊑ ∃enrolledIn, ∃enrolledIn⁻ ⊑
    /// Course. Mapped from a single unary table.
    fn existential_fixture() -> (
        obx_srcdb::Database,
        obx_ontology::TBox,
        obx_mapping::Mapping,
    ) {
        let schema = obx_srcdb::parse_schema("S/1").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "S(alice)").unwrap();
        let tbox = obx_ontology::parse_tbox(
            "concept Student Course\nrole enrolledIn\n\
             Student < exists(enrolledIn)\nexists(inv(enrolledIn)) < Course",
        )
        .unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping =
            obx_mapping::parse_mapping(schema_ref, tbox.vocab(), consts, "S(x) ~> Student(x)")
                .unwrap();
        (db, tbox, mapping)
    }

    #[test]
    fn chase_invents_witnesses_and_answers_drop_nulls() {
        let (db, tbox, mapping) = existential_fixture();
        let reasoner = Reasoner::build(&tbox);
        let abox = virtual_abox(&mapping, View::full(&db));
        let chased = chase_abox(&tbox, &reasoner, &abox, ChaseConfig::default());
        // Facts: Student(alice), enrolledIn(alice, n0), Course(n0) — plus
        // the derived ∃-memberships are not stored as facts.
        assert!(chased.len() >= 3);

        let mut consts = obx_srcdb::ConstPool::new();
        let alice = db.consts().get("alice").unwrap();
        let _ = &mut consts;
        // q(x) :- enrolledIn(x, y): alice qualifies via the null witness.
        let mut pool2 = obx_srcdb::ConstPool::new();
        let q = parse_onto_ucq(tbox.vocab(), &mut pool2, "q(x) :- enrolledIn(x, y)").unwrap();
        let ans = chased.answers(&q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![alice].into_boxed_slice()));
        assert!(chased.member(&q, &[alice]));
        // q(x, y) :- enrolledIn(x, y): the only witness is a null — no
        // certain answer.
        let q2 = parse_onto_ucq(tbox.vocab(), &mut pool2, "q(x, y) :- enrolledIn(x, y)").unwrap();
        assert!(chased.answers(&q2).is_empty());
    }

    #[test]
    fn chase_depth_zero_invents_nothing() {
        let (db, tbox, mapping) = existential_fixture();
        let reasoner = Reasoner::build(&tbox);
        let abox = virtual_abox(&mapping, View::full(&db));
        let chased = chase_abox(
            &tbox,
            &reasoner,
            &abox,
            ChaseConfig {
                max_null_depth: 0,
                max_facts: 1000,
            },
        );
        let mut pool = obx_srcdb::ConstPool::new();
        let q = parse_onto_ucq(tbox.vocab(), &mut pool, "q(x) :- enrolledIn(x, y)").unwrap();
        assert!(chased.answers(&q).is_empty(), "no witness at depth 0");
    }

    #[test]
    fn restricted_chase_reuses_existing_successors() {
        // alice already has an enrolment: no null should be created.
        let schema = obx_srcdb::parse_schema("S/1 E/2").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "S(alice)\nE(alice, math)").unwrap();
        let tbox = obx_ontology::parse_tbox(
            "concept Student\nrole enrolledIn\nStudent < exists(enrolledIn)",
        )
        .unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping = obx_mapping::parse_mapping(
            schema_ref,
            tbox.vocab(),
            consts,
            "S(x) ~> Student(x)\nE(x, y) ~> enrolledIn(x, y)",
        )
        .unwrap();
        let reasoner = Reasoner::build(&tbox);
        let abox = virtual_abox(&mapping, View::full(&db));
        let chased = chase_abox(&tbox, &reasoner, &abox, ChaseConfig::default());
        let mut pool = obx_srcdb::ConstPool::new();
        let q = parse_onto_ucq(tbox.vocab(), &mut pool, "q(x, y) :- enrolledIn(x, y)").unwrap();
        let ans = chased.answers(&q);
        // Exactly the real pair — no null-extended pairs.
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn chase_config_for_ucq_scales_with_query_size() {
        let tbox = obx_ontology::parse_tbox("role r").unwrap();
        let mut pool = obx_srcdb::ConstPool::new();
        let q =
            parse_onto_ucq(tbox.vocab(), &mut pool, "q(x) :- r(x, y), r(y, z), r(z, w)").unwrap();
        assert_eq!(ChaseConfig::for_ucq(&q).max_null_depth, 4);
    }

    #[test]
    fn resource_guard_truncates_the_chase() {
        use obx_util::{GuardKind, GuardLimits, Interrupt, ResourceGuard};
        use std::sync::Arc;
        // Infinite-model fixture: without a depth/guard limit this chain
        // would grow to max_null_depth; a 2-fact guard stops it early.
        let schema = obx_srcdb::parse_schema("P/1").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "P(eve)").unwrap();
        let tbox = obx_ontology::parse_tbox(
            "concept Person\nrole hasParent\n\
             Person < exists(hasParent)\nexists(inv(hasParent)) < Person",
        )
        .unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping =
            obx_mapping::parse_mapping(schema_ref, tbox.vocab(), consts, "P(x) ~> Person(x)")
                .unwrap();
        let reasoner = Reasoner::build(&tbox);
        let abox = virtual_abox(&mapping, View::full(&db));
        let guard = Arc::new(ResourceGuard::new(
            GuardLimits::unlimited().with_max_chase_facts(2),
        ));
        let interrupt = Interrupt::none().with_guard(Arc::clone(&guard));
        let chased = chase_abox_interruptible(
            &tbox,
            &reasoner,
            &abox,
            ChaseConfig {
                max_null_depth: 50,
                max_facts: 1_000_000,
            },
            &interrupt,
        );
        let unguarded = chase_abox(
            &tbox,
            &reasoner,
            &abox,
            ChaseConfig {
                max_null_depth: 50,
                max_facts: 1_000_000,
            },
        );
        assert!(guard.is_tripped());
        assert_eq!(guard.trip().unwrap().kind, GuardKind::ChaseFacts);
        assert!(
            chased.len() < unguarded.len(),
            "guarded chase truncates: {} vs {}",
            chased.len(),
            unguarded.len()
        );
        // Sound: the guarded chase still only contains entailed facts, so
        // membership answers it does give agree with the full chase.
        let mut pool = obx_srcdb::ConstPool::new();
        let eve = db.consts().get("eve").unwrap();
        let q = parse_onto_ucq(tbox.vocab(), &mut pool, "q(x) :- Person(x)").unwrap();
        assert!(chased.member(&q, &[eve]));
    }

    #[test]
    fn infinite_canonical_model_is_truncated() {
        // Person ⊑ ∃hasParent, ∃hasParent⁻ ⊑ Person: infinite chain.
        let schema = obx_srcdb::parse_schema("P/1").unwrap();
        let mut db = obx_srcdb::parse_database(schema, "P(eve)").unwrap();
        let tbox = obx_ontology::parse_tbox(
            "concept Person\nrole hasParent\n\
             Person < exists(hasParent)\nexists(inv(hasParent)) < Person",
        )
        .unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        let mapping =
            obx_mapping::parse_mapping(schema_ref, tbox.vocab(), consts, "P(x) ~> Person(x)")
                .unwrap();
        let reasoner = Reasoner::build(&tbox);
        let abox = virtual_abox(&mapping, View::full(&db));
        let chased = chase_abox(
            &tbox,
            &reasoner,
            &abox,
            ChaseConfig {
                max_null_depth: 3,
                max_facts: 10_000,
            },
        );
        // Chain of exactly 3 nulls: Person + 3×(hasParent + Person).
        let mut pool = obx_srcdb::ConstPool::new();
        let eve = db.consts().get("eve").unwrap();
        let q = parse_onto_ucq(
            tbox.vocab(),
            &mut pool,
            "q(x) :- hasParent(x, y), hasParent(y, z)",
        )
        .unwrap();
        assert!(chased.member(&q, &[eve]), "2-hop ancestor chain certain");
    }
}
