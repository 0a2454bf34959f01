//! Million-atom scaled power-law generator.
//!
//! The [`crate::skewed`] family demonstrates hub adversarial structure at
//! workbench sizes (10²–10⁴ atoms); this module scales the same shape to
//! the data-layer stress range, 10⁶–10⁷ atoms, by generating straight
//! into a pre-sized [`Database`] with raw interned ids — no per-fact name
//! formatting or lookup on the hot path:
//!
//! * every constant name is formatted and interned exactly once, into a
//!   pool pre-sized via [`obx_srcdb::ConstPool::with_capacity`];
//! * atoms are built from `Const` ids and inserted into a database
//!   pre-sized via [`Database::with_capacity`], so the dedup table and
//!   posting arena never rehash or relocate mid-generation;
//! * labels are derived from the generation structure itself (a student
//!   is positive iff some enrolment lands in the target city) instead of
//!   evaluating the planted query over the full database, and only the
//!   first [`ScaleParams::label_cap`] students are labelled — at 10⁷
//!   atoms a fully-labelled λ would dwarf every scoring budget.
//!
//! Generation is seed-deterministic: the same [`ScaleParams`] always
//! produce the same database, atom order, constant ids, and labels.

use crate::scenario::Scenario;
use obx_core::labels::Labels;
use obx_mapping::parse_mapping;
use obx_obdm::{ObdmSpec, ObdmSystem};
use obx_ontology::parse_tbox;
use obx_srcdb::{parse_schema, Atom, Const, ConstPool, Database, RelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::skewed::Zipf;

/// Parameters for [`scale_scenario`].
#[derive(Debug, Clone, Copy)]
pub struct ScaleParams {
    /// Approximate total atom count to generate (10⁶–10⁷ in the scale
    /// bench). The generator derives the student population from this:
    /// each student contributes one `STUD` fact plus 1–2 `ENR` facts.
    pub n_atoms: usize,
    /// Number of subjects (hub curriculum = first quarter, as in
    /// [`crate::skewed`]).
    pub n_subjects: usize,
    /// Number of universities (Zipf-distributed popularity).
    pub n_universities: usize,
    /// Number of cities.
    pub n_cities: usize,
    /// Zipf exponent for university popularity.
    pub alpha: f64,
    /// How many students receive labels (positives and negatives mixed in
    /// generation order). Labelling is capped because scoring cost is
    /// linear in |λ|, not in the database size.
    pub label_cap: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScaleParams {
    fn default() -> Self {
        Self {
            n_atoms: 1_000_000,
            n_subjects: 64,
            n_universities: 1000,
            n_cities: 10,
            alpha: 1.2,
            label_cap: 200,
            seed: 42,
        }
    }
}

/// Generates the scaled power-law scenario. See the [module docs](self).
pub fn scale_scenario(params: ScaleParams) -> Scenario {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let schema = parse_schema("STUD/1 LOC/2 ENR/3").expect("generated schema is well-formed");
    let stud_rel = schema.rel("STUD").expect("declared");
    let loc_rel = schema.rel("LOC").expect("declared");
    let enr_rel = schema.rel("ENR").expect("declared");

    // Each student contributes 1 STUD + 1.5 ENR facts on average; LOC
    // adds one fact per university.
    let n_students =
        ((params.n_atoms.saturating_sub(params.n_universities)) as f64 / 2.5).max(1.0) as usize;
    let est_atoms = params.n_universities + n_students * 3;
    let est_consts = n_students + params.n_subjects + params.n_universities + params.n_cities;
    let mut db = Database::with_capacity(schema, est_atoms, est_consts);

    // Intern every constant exactly once, up front.
    let intern_family = |pool: &mut ConstPool, prefix: &str, n: usize| -> Vec<Const> {
        (0..n)
            .map(|i| pool.intern(&format!("{prefix}{i}")))
            .collect()
    };
    let unis = intern_family(db.consts_mut(), "uni", params.n_universities);
    let cities = intern_family(db.consts_mut(), "city", params.n_cities);
    let subjects = intern_family(db.consts_mut(), "subj", params.n_subjects);
    let students = intern_family(db.consts_mut(), "s", n_students);

    let insert = |db: &mut Database, rel: RelId, args: &[Const]| {
        db.insert(Atom::new(rel, args.iter().copied()))
            .expect("generated atoms fit the schema");
    };

    // Cities rotate starting at city0, so the rank-0 hub university sits
    // in the target city (positively discriminative, as in `skewed`).
    for (u, &uni) in unis.iter().enumerate() {
        insert(&mut db, loc_rel, &[uni, cities[u % params.n_cities]]);
    }

    let uni_dist = Zipf::new(params.n_universities, params.alpha);
    let hub_subjects = (params.n_subjects / 4).clamp(1, params.n_subjects);
    let tail_subjects = params.n_subjects - hub_subjects;

    let mut labels = Labels::new();
    for (s, &stud) in students.iter().enumerate() {
        insert(&mut db, stud_rel, &[stud]);
        let n_enr = 1 + rng.gen_range(0..2);
        let mut in_target_city = false;
        for _ in 0..n_enr {
            let uni = uni_dist.sample(&mut rng);
            in_target_city |= uni % params.n_cities == 0;
            let subject = if uni == 0 || tail_subjects == 0 {
                subjects[rng.gen_range(0..hub_subjects)]
            } else {
                subjects[hub_subjects + rng.gen_range(0..tail_subjects)]
            };
            insert(&mut db, enr_rel, &[stud, subject, unis[uni]]);
        }
        if s < params.label_cap {
            let t: obx_srcdb::Tuple = vec![stud].into_boxed_slice();
            // Positive iff some enrolment is at a target-city university —
            // exactly the planted query's certain answers (every student
            // has its full enrolment record in D, so the ontology adds no
            // extra target-city memberships).
            if in_target_city {
                labels.add_pos(t).expect("uniform arity");
            } else {
                labels.add_neg(t).expect("uniform arity");
            }
        }
    }

    let tbox = parse_tbox(
        "concept Student\nrole studies likes taughtIn locatedIn enrolledAt\nstudies < likes",
    )
    .expect("generated tbox is well-formed");
    let mapping_src = "STUD(x) ~> Student(x)\n\
         ENR(x, y, z) ~> studies(x, y)\n\
         ENR(x, y, z) ~> taughtIn(y, z)\n\
         ENR(x, y, z) ~> enrolledAt(x, z)\n\
         LOC(x, y) ~> locatedIn(x, y)";
    let (schema_ref, consts) = db.schema_and_consts_mut();
    let mapping = parse_mapping(schema_ref, tbox.vocab(), consts, mapping_src)
        .expect("generated mapping is well-formed");
    let mut system = ObdmSystem::new(ObdmSpec::new(tbox, mapping), db);
    let truth = system
        .parse_query(r#"q(x) :- enrolledAt(x, z), locatedIn(z, "city0")"#)
        .expect("static ground truth");
    Scenario {
        system,
        labels,
        ground_truth: Some(truth),
        description: format!("scale({params:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_srcdb::borders;
    use obx_util::Interrupt;

    fn small() -> ScaleParams {
        ScaleParams {
            n_atoms: 4000,
            n_universities: 40,
            label_cap: 50,
            ..ScaleParams::default()
        }
    }

    #[test]
    fn generation_is_deterministic_and_near_the_atom_target() {
        let a = scale_scenario(small());
        let b = scale_scenario(small());
        assert_eq!(a.system.db().len(), b.system.db().len());
        assert_eq!(a.system.db().render(), b.system.db().render());
        assert_eq!(a.labels.pos().len(), b.labels.pos().len());
        let atoms = a.system.db().len();
        assert!(
            (3200..=4800).contains(&atoms),
            "atom count {atoms} far from the 4000 target"
        );
    }

    #[test]
    fn labels_match_the_planted_query() {
        let s = scale_scenario(small());
        let truth = s.ground_truth.as_ref().unwrap();
        let answers = s.system.certain_answers(truth).unwrap();
        assert!(!s.labels.pos().is_empty());
        assert!(!s.labels.neg().is_empty());
        for t in s.labels.pos() {
            assert!(answers.contains(t), "positive not in certain answers");
        }
        for t in s.labels.neg() {
            assert!(!answers.contains(t), "negative in certain answers");
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let s = scale_scenario(small());
        let db = s.system.db();
        let enr = db.schema().rel("ENR").unwrap();
        let degree = |u: usize| -> usize {
            db.consts()
                .get(&format!("uni{u}"))
                .map_or(0, |c| db.count_with(enr, 2, c))
        };
        let hub = degree(0);
        let tail: usize = (20..40).map(degree).sum();
        assert!(hub > tail / 4, "hub {hub} not dominant over tail {tail}");
    }

    /// The batched border call `PreparedLabels` makes must give the same
    /// set and layer sizes for every tuple as one single-tuple call on
    /// generated scenarios, whose hubs force large frontiers and shared
    /// balls.
    #[test]
    fn batched_borders_are_byte_identical_on_generated_scenarios() {
        for scenario in [
            scale_scenario(small()),
            crate::skewed::skewed_scenario(crate::skewed::SkewedParams::default()),
            crate::university::university_scenario(Default::default()),
        ] {
            let db = scenario.system.db();
            let mut tuples: Vec<_> = scenario.labels.pos().iter().take(3).cloned().collect();
            tuples.extend(scenario.labels.neg().iter().take(2).cloned());
            for radius in 0..3 {
                let batch = borders(
                    db,
                    tuples.iter().map(|t| &t[..]),
                    radius,
                    &Interrupt::none(),
                );
                assert_eq!(batch.len(), tuples.len());
                for (tuple, got) in tuples.iter().zip(&batch) {
                    let fresh = borders(db, [&tuple[..]], radius, &Interrupt::none());
                    assert_eq!(
                        got, &fresh[0],
                        "set and layer sizes in {} r={radius}",
                        scenario.description
                    );
                }
            }
        }
    }
}
