//! A power-law (skewed) variant of the university scenario.
//!
//! Same schema, ontology, mapping, and planted classifier as
//! [`crate::university`], but with the degree profile of real entity
//! graphs: enrolment targets are drawn from a Zipf distribution, so with
//! `alpha ≳ 1` the first university becomes a *hub* mentioned by a large
//! constant fraction of all `ENR` facts. This is the worst case for join
//! evaluation driven by per-constant index slices — any evaluator that
//! scans a hub constant's full slice inside a border-sized view pays
//! O(hub degree) where O(border) suffices. The evaluator bench
//! (`BENCH_eval.json`) times join evaluation on this family next to the
//! uniform one.
//!
//! Two structural choices make the hub adversarial rather than merely
//! big:
//!
//! * **The hub sits in the target city** (cities are assigned
//!   `u % n_cities`, so the rank-0 hub `uni0` lands in `city0`): the hub
//!   constant is strongly *positively* discriminative, so search
//!   strategies embed it as a constant in candidate queries. The
//!   negative class stays inhabited through the tail universities of the
//!   other cities.
//! * **Curricula are university-specific** (the hub teaches the first
//!   few subjects exclusively; tail universities share the rest, as in
//!   real institutional data where course catalogues are local): a
//!   student not enrolled at the hub has *no* hub-mentioning fact within
//!   any bounded border, so membership checks guarded by the hub
//!   constant are refuted over tail borders. An evaluator that scans
//!   index slices must read the hub's entire slice to conclude that.

use crate::scenario::{label_by_query, Scenario};
use obx_mapping::parse_mapping;
use obx_obdm::{ObdmSpec, ObdmSystem};
use obx_ontology::parse_tbox;
use obx_srcdb::{parse_schema, Database, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`skewed_scenario`].
#[derive(Debug, Clone, Copy)]
pub struct SkewedParams {
    /// Number of students (each with 1–2 enrolments).
    pub n_students: usize,
    /// Number of subjects. The first quarter (at least one) form the hub
    /// university's exclusive curriculum; tail universities draw
    /// uniformly from the rest (see the module docs).
    pub n_subjects: usize,
    /// Number of universities (Zipf-distributed popularity).
    pub n_universities: usize,
    /// Number of cities.
    pub n_cities: usize,
    /// Zipf exponent: rank `k` gets weight `1/(k+1)^alpha`. `0.0` is the
    /// uniform distribution; `1.5` gives the first rank roughly half of
    /// all mass over ten ranks.
    pub alpha: f64,
    /// Probability of flipping a label.
    pub label_noise: f64,
    /// Number of *registrar record kinds* (`0` disables the extension —
    /// the default — leaving the scenario exactly as before).
    ///
    /// When positive, the target city's registrar enters the data: every
    /// enrolment at a `city0` university files a registration record
    /// (`registered(student, office)`) — hub enrolments at `office0`,
    /// tail `city0` enrolments at `office1` — and the city keeps a
    /// resident-student index (`CityRecord`). `office0` has digitised all
    /// `n_registrar_kinds` kind-specific records (`rk0(student, office)`,
    /// …), `office1` none. This plants a *wide role hierarchy*
    /// (`rk_i < registered`) whose constant-bound atoms grade sharply by
    /// office: the admissible-bound pruner can prove every `office1` kind
    /// refinement dominated and skip it unscored, which is what the
    /// search bench's skewed pruning variant measures.
    pub n_registrar_kinds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkewedParams {
    fn default() -> Self {
        Self {
            n_students: 120,
            n_subjects: 8,
            n_universities: 10,
            n_cities: 3,
            alpha: 1.5,
            label_noise: 0.0,
            n_registrar_kinds: 0,
            seed: 42,
        }
    }
}

/// A Zipf sampler over ranks `0..n`: rank `k` has weight `1/(k+1)^alpha`.
/// Sampling inverts the cumulative weight table with a binary search on a
/// uniform draw — no special functions, so it runs on the vendored `rand`
/// shim.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is not finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(alpha.is_finite(), "Zipf exponent must be finite");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    /// Draws a rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().unwrap_or(&1.0);
        let u = rng.gen_range(0.0..total);
        // First rank whose cumulative weight exceeds the draw.
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// Generates the skewed university scenario.
pub fn skewed_scenario(params: SkewedParams) -> Scenario {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let kinds = params.n_registrar_kinds;
    let mut schema_src = String::from("STUD/1 LOC/2 ENR/3");
    if kinds > 0 {
        schema_src.push_str(" REG/2 CREC/1");
        for k in 0..kinds {
            schema_src.push_str(&format!(" RK{k}/2"));
        }
    }
    let schema = parse_schema(&schema_src).expect("generated schema is well-formed");
    let mut db = Database::new(schema);

    // Cities rotate starting at city0 so the rank-0 hub university is
    // inside the target city (see the module docs).
    for u in 0..params.n_universities {
        let city = u % params.n_cities;
        db.insert_named("LOC", &[&format!("uni{u}"), &format!("city{city}")])
            .expect("facts fit schema");
    }

    let uni_dist = Zipf::new(params.n_universities, params.alpha);
    // University-specific curricula: the hub teaches the first
    // `hub_subjects` exclusively, tail universities share the rest (or
    // everything, if there is no room for a split). Tail borders then
    // contain no hub-mentioning facts at all — see the module docs.
    let hub_subjects = (params.n_subjects / 4).clamp(1, params.n_subjects);
    let tail_subjects = params.n_subjects - hub_subjects;
    let mut pool: Vec<Tuple> = Vec::with_capacity(params.n_students);
    for s in 0..params.n_students {
        let name = format!("stud{s}");
        db.insert_named("STUD", &[&name]).expect("fits schema");
        let n_enr = 1 + rng.gen_range(0..2);
        for _ in 0..n_enr {
            let uni = uni_dist.sample(&mut rng);
            let subject = if uni == 0 || tail_subjects == 0 {
                rng.gen_range(0..hub_subjects)
            } else {
                hub_subjects + rng.gen_range(0..tail_subjects)
            };
            db.insert_named(
                "ENR",
                &[&name, &format!("subj{subject}"), &format!("uni{uni}")],
            )
            .expect("fits schema");
            // Registrar extension: every city0 enrolment files a
            // registration record; only the hub's office has the
            // kind-specific records digitised (duplicate rows dedup).
            if kinds > 0 && uni % params.n_cities == 0 {
                db.insert_named("CREC", &[&name]).expect("fits schema");
                let office = if uni == 0 { "office0" } else { "office1" };
                db.insert_named("REG", &[&name, office])
                    .expect("fits schema");
                if uni == 0 {
                    for k in 0..kinds {
                        db.insert_named(&format!("RK{k}"), &[&name, office])
                            .expect("fits schema");
                    }
                }
            }
        }
        pool.push(vec![db.consts().get(&name).expect("interned")].into_boxed_slice());
    }

    let mut tbox_src = String::from("concept Student");
    if kinds > 0 {
        tbox_src.push_str(" CityRecord");
    }
    tbox_src.push_str("\nrole studies likes taughtIn locatedIn enrolledAt");
    if kinds > 0 {
        tbox_src.push_str(" registered");
        for k in 0..kinds {
            tbox_src.push_str(&format!(" rk{k}"));
        }
    }
    tbox_src.push_str("\nstudies < likes");
    for k in 0..kinds {
        tbox_src.push_str(&format!("\nrk{k} < registered"));
    }
    let tbox = parse_tbox(&tbox_src).expect("generated tbox is well-formed");
    let mut mapping_src = String::from(
        "STUD(x) ~> Student(x)\n\
         ENR(x, y, z) ~> studies(x, y)\n\
         ENR(x, y, z) ~> taughtIn(y, z)\n\
         ENR(x, y, z) ~> enrolledAt(x, z)\n\
         LOC(x, y) ~> locatedIn(x, y)",
    );
    if kinds > 0 {
        mapping_src.push_str("\nCREC(x) ~> CityRecord(x)\nREG(x, y) ~> registered(x, y)");
        for k in 0..kinds {
            mapping_src.push_str(&format!("\nRK{k}(x, y) ~> rk{k}(x, y)"));
        }
    }
    let (schema_ref, consts) = db.schema_and_consts_mut();
    let mapping = parse_mapping(schema_ref, tbox.vocab(), consts, &mapping_src)
        .expect("generated mapping is well-formed");
    let mut system = ObdmSystem::new(ObdmSpec::new(tbox, mapping), db);

    let truth = system
        .parse_query(r#"q(x) :- enrolledAt(x, z), locatedIn(z, "city0")"#)
        .expect("static ground truth");
    let labels = label_by_query(&system, &truth, &pool, params.label_noise, &mut rng)
        .expect("labelling cannot exceed budgets");
    Scenario {
        system,
        labels,
        ground_truth: Some(truth),
        description: format!("skewed({params:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = skewed_scenario(SkewedParams::default());
        let b = skewed_scenario(SkewedParams::default());
        assert_eq!(a.system.db().len(), b.system.db().len());
        assert_eq!(a.labels.pos().len(), b.labels.pos().len());
        assert_eq!(a.labels.neg().len(), b.labels.neg().len());
    }

    #[test]
    fn every_student_is_labelled_and_both_classes_inhabited() {
        let s = skewed_scenario(SkewedParams::default());
        assert_eq!(s.labels.len(), 120);
        assert_eq!(s.labels.arity(), Some(1));
        assert!(!s.labels.pos().is_empty(), "no positive students generated");
        assert!(!s.labels.neg().is_empty(), "no negative students generated");
    }

    #[test]
    fn labels_match_ground_truth_without_noise() {
        let s = skewed_scenario(SkewedParams::default());
        let truth = s.ground_truth.as_ref().unwrap();
        let answers = s.system.certain_answers(truth).unwrap();
        for t in s.labels.pos() {
            assert!(answers.contains(t));
        }
        for t in s.labels.neg() {
            assert!(!answers.contains(t));
        }
    }

    #[test]
    fn degree_distribution_is_actually_skewed() {
        let s = skewed_scenario(SkewedParams::default());
        let db = s.system.db();
        let enr = db.schema().rel("ENR").unwrap();
        let degree = |u: usize| -> usize {
            db.consts()
                .get(&format!("uni{u}"))
                .map_or(0, |c| db.count_with(enr, 2, c))
        };
        let hub = degree(0);
        let tail: usize = (5..10).map(degree).sum();
        // The hub's slice dwarfs the whole tail half of the universities.
        assert!(
            hub >= 2 * tail.max(1),
            "hub degree {hub} not dominant over tail {tail}"
        );
        // And the hub sits in the target city, so it is positively
        // discriminative and search strategies will mention it by name
        // (see the module docs).
        let loc = db.schema().rel("LOC").unwrap();
        let city0 = db.consts().get("city0").unwrap();
        let uni0 = db.consts().get("uni0").unwrap();
        let in_city0 = db
            .atoms_with(loc, 1, city0)
            .iter()
            .any(|&id| db.atom(id).args[0] == uni0);
        assert!(in_city0, "hub university must be in the target city");
    }

    #[test]
    fn hub_curriculum_is_exclusive() {
        let s = skewed_scenario(SkewedParams::default());
        let db = s.system.db();
        let enr = db.schema().rel("ENR").unwrap();
        let uni0 = db.consts().get("uni0").unwrap();
        let hub_subjects = 8 / 4;
        for &id in db.atoms_with(enr, 2, uni0) {
            let subj = db.atom(id).args[1];
            let rank =
                (0..hub_subjects).find(|k| db.consts().get(&format!("subj{k}")) == Some(subj));
            assert!(rank.is_some(), "hub teaches only its own curriculum");
        }
        // And no tail university teaches a hub subject, so a student not
        // at the hub has no hub-mentioning fact within any border.
        for k in 0..hub_subjects {
            let subj = db.consts().get(&format!("subj{k}")).unwrap();
            for &id in db.atoms_with(enr, 1, subj) {
                assert_eq!(
                    db.atom(id).args[2],
                    uni0,
                    "hub subjects must be taught only at the hub"
                );
            }
        }
    }

    #[test]
    fn registrar_extension_grades_offices_and_defaults_off() {
        // Default: the extension is absent — no REG relation, no
        // registered role, byte-for-byte the pre-extension scenario.
        let plain = skewed_scenario(SkewedParams::default());
        assert!(plain.system.db().schema().rel("REG").is_err());
        assert!(plain.system.db().consts().get("office0").is_none());

        let s = skewed_scenario(SkewedParams {
            n_registrar_kinds: 3,
            ..SkewedParams::default()
        });
        let db = s.system.db();
        let reg = db.schema().rel("REG").unwrap();
        let office0 = db.consts().get("office0").unwrap();
        let office1 = db.consts().get("office1").unwrap();
        // Both offices are inhabited: the hub files at office0, the
        // city0 tail universities at office1.
        let hub_regs = db.count_with(reg, 1, office0);
        let tail_regs = db.count_with(reg, 1, office1);
        assert!(hub_regs > 0, "hub registrations missing");
        assert!(tail_regs > 0, "tail registrations missing");
        assert!(
            hub_regs > tail_regs,
            "the hub office must dominate ({hub_regs} vs {tail_regs})"
        );
        // Kind-specific records are digitised only at the hub office,
        // and every kind mirrors the full hub registration slice.
        for k in 0..3 {
            let rk = db.schema().rel(&format!("RK{k}")).unwrap();
            assert_eq!(db.count_with(rk, 1, office0), hub_regs);
            assert_eq!(db.count_with(rk, 1, office1), 0);
        }
        // Every registered student carries a city resident record, and
        // registration is exactly the positive class (city0 enrolment).
        let crec = db.schema().rel("CREC").unwrap();
        let registered: std::collections::BTreeSet<_> = db
            .atoms_with(reg, 1, office0)
            .iter()
            .chain(db.atoms_with(reg, 1, office1))
            .map(|&id| db.atom(id).args[0])
            .collect();
        let recorded: std::collections::BTreeSet<_> = db
            .atoms_of(crec)
            .iter()
            .map(|&id| db.atom(id).args[0])
            .collect();
        assert_eq!(registered, recorded);
        let positives: std::collections::BTreeSet<_> =
            s.labels.pos().iter().map(|t| t[0]).collect();
        assert_eq!(registered, positives);
    }

    #[test]
    fn zipf_is_uniform_at_alpha_zero_and_skewed_above() {
        let mut rng = StdRng::seed_from_u64(7);
        let z = Zipf::new(4, 0.0);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "uniform draw off: {counts:?}");
        }
        let z = Zipf::new(4, 2.0);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 2 * counts[1], "alpha=2 not skewed: {counts:?}");
        assert!(counts[1] > counts[3], "tail not decreasing: {counts:?}");
    }

    #[test]
    fn scenario_system_is_consistent() {
        let s = skewed_scenario(SkewedParams {
            n_students: 30,
            ..SkewedParams::default()
        });
        assert!(s.system.check_consistency().is_empty());
    }
}
