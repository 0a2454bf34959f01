//! Equivalence of `PreparedLabels::relevant_constants` (dense stamp-array
//! tally over bitset borders) with a naive hash-set tally, on the paper,
//! university, skewed and random scenarios.

use obx_core::matcher::PreparedLabels;
use obx_core::paper_example::PaperExample;
use obx_core::Labels;
use obx_datagen::{
    random_scenario, skewed_scenario, university_scenario, RandomParams, SkewedParams,
    UniversityParams,
};
use obx_obdm::ObdmSystem;
use obx_srcdb::Const;
use obx_util::{FxHashMap, FxHashSet};

/// The full ranking by the definition: a constant scores +1 per positive
/// border and −1 per negative border it occurs in, constants of labelled
/// tuples excluded; (score desc, constant asc). Zero-score ties included.
fn naive_ranking(prepared: &PreparedLabels<'_>) -> Vec<Const> {
    let db = prepared.system().db();
    let labelled: FxHashSet<Const> = prepared
        .pos()
        .iter()
        .chain(prepared.neg())
        .flat_map(|(t, _)| t.iter().copied())
        .collect();
    let mut score: FxHashMap<Const, i64> = FxHashMap::default();
    for (set, weight) in [(prepared.pos(), 1), (prepared.neg(), -1)] {
        for (_, border) in set {
            let present: FxHashSet<Const> = border
                .iter()
                .flat_map(|id| db.atom(id).args.iter().copied())
                .filter(|c| !labelled.contains(c))
                .collect();
            for c in present {
                *score.entry(c).or_insert(0) += weight;
            }
        }
    }
    let mut pairs: Vec<(Const, i64)> = score.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.into_iter().map(|(c, _)| c).collect()
}

fn check(name: &str, system: &ObdmSystem, labels: &Labels) {
    for radius in 0..=2 {
        let prepared = PreparedLabels::new(system, labels, radius);
        let want = naive_ranking(&prepared);
        assert_eq!(
            prepared.relevant_constants(usize::MAX),
            want,
            "{name}: full ranking diverges at radius {radius}"
        );
        let cap = want.len() / 2;
        assert_eq!(
            prepared.relevant_constants(cap),
            want[..cap],
            "{name}: capped ranking diverges at radius {radius}"
        );
    }
}

#[test]
fn paper_scenario_tally_matches_naive() {
    let ex = PaperExample::new();
    check("paper", &ex.system, &ex.labels);
}

#[test]
fn university_scenario_tally_matches_naive() {
    let s = university_scenario(UniversityParams::default());
    check("university", &s.system, &s.labels);
}

#[test]
fn skewed_scenario_tally_matches_naive() {
    let s = skewed_scenario(SkewedParams::default());
    check("skewed", &s.system, &s.labels);
}

#[test]
fn random_scenarios_tally_matches_naive() {
    for seed in 0..8 {
        let s = random_scenario(RandomParams {
            seed,
            ..RandomParams::default()
        });
        check(&format!("random seed {seed}"), &s.system, &s.labels);
    }
}
