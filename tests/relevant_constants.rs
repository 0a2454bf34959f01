//! Equivalence of `PreparedLabels::relevant_constants` (dense stamp-array
//! tally over bitset borders, ranked once and cached on the shared
//! `LabelBorders`) with a naive hash-set tally, on the paper, university,
//! skewed and random scenarios.

use obx_core::budget::SearchBudget;
use obx_core::matcher::PreparedLabels;
use obx_core::paper_example::PaperExample;
use obx_core::{ExplainTask, Labels, Scoring, SearchLimits};
use obx_datagen::{
    random_scenario, skewed_scenario, university_scenario, RandomParams, SkewedParams,
    UniversityParams,
};
use obx_obdm::ObdmSystem;
use obx_srcdb::Const;
use obx_util::{FxHashMap, FxHashSet};
use std::sync::Arc;

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
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    for radius in 0..=2 {
        let prepared = PreparedLabels::new(system, labels, radius);
        let want = naive_ranking(&prepared);
        let n = want.len();
        // The first call (cap 0) builds and caches the whole ranking;
        // every cap after it reads a prefix of the cached one.
        let caps = [0, 1, 4, 8, n / 2, n, usize::MAX];
        let prefix = |cap: usize| &want[..cap.min(n)];
        for cap in caps {
            assert_eq!(
                prepared.relevant_constants(cap),
                prefix(cap),
                "{name}: cap {cap} diverges at radius {radius}"
            );
        }
        // A fresh prepare, capped first at 8, ranks the same.
        let fresh = PreparedLabels::new(system, labels, radius);
        assert_eq!(fresh.relevant_constants(8), prefix(8), "{name}: fresh");
        assert_eq!(fresh.relevant_constants(usize::MAX), want, "{name}: fresh");
        // Cloned into a second task, on another thread, the borders and
        // their ranking are shared, not rebuilt.
        let task = ExplainTask::from_prepared(
            prepared.clone(),
            &scoring,
            SearchLimits::default(),
            SearchBudget::unlimited(),
        )
        .unwrap()
        .with_limits(SearchLimits::default());
        assert!(Arc::ptr_eq(task.prepared().borders(), prepared.borders()));
        std::thread::scope(|s| {
            s.spawn(|| {
                for cap in caps {
                    assert_eq!(
                        task.prepared().relevant_constants(cap),
                        prefix(cap),
                        "{name}: cloned task, cap {cap}, radius {radius}"
                    );
                }
            });
        });
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

/// Three campuses, each one connected component, so at radius 2 every
/// student of a campus has the same border (the whole campus). The
/// campuses' positive and negative students net +2, 0 and −2 on their
/// shared border; a country constant sits in all three borders.
#[test]
fn shared_borders_with_mixed_net_weights_match_naive() {
    let mut system = obx_obdm::example_3_6_system();
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for (campus, (n_pos, n_neg)) in [("P", (3, 1)), ("Z", (2, 2)), ("N", (1, 3))] {
        let (subj, uni, city) = (
            format!("Subj{campus}"),
            format!("Uni{campus}"),
            format!("City{campus}"),
        );
        let db = system.db_mut();
        db.insert_named("LOC", &[&uni, &city]).unwrap();
        db.insert_named("LOC", &[&city, "Italy"]).unwrap();
        for i in 0..n_pos + n_neg {
            let student = format!("S{campus}{i}");
            db.insert_named("STUD", &[&student]).unwrap();
            db.insert_named("ENR", &[&student, &subj, &uni]).unwrap();
            let tuple: obx_srcdb::Tuple = Box::new([db.consts().get(&student).unwrap()]);
            if i < n_pos {
                pos.push(tuple);
            } else {
                neg.push(tuple);
            }
        }
    }
    let labels = Labels::from_tuples(pos, neg).unwrap();
    check("three campuses", &system, &labels);

    let prepared = PreparedLabels::new(&system, &labels, 2);
    let mut distinct: Vec<*const obx_srcdb::AtomSet> = prepared
        .pos()
        .iter()
        .chain(prepared.neg())
        .map(|(_, b)| std::sync::Arc::as_ptr(b))
        .collect();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 3, "one shared border per campus");
    let db = system.db();
    let ranking = prepared.relevant_constants(usize::MAX);
    let at = |name: &str| {
        let c = db.consts().get(name).unwrap();
        ranking.iter().position(|&r| r == c).unwrap()
    };
    assert!(at("SubjP") < at("SubjZ") && at("SubjZ") < at("SubjN"));
    assert!(at("Italy") < at("SubjN"), "+2 + 0 − 2 nets to 0");
}
