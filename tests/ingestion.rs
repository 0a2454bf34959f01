//! Malformed-input fuzz harness: the committed corpus under
//! `tests/corpus/ingestion/` exercises every hand-written parser and the
//! best-effort scenario loader with truncated, mistyped, duplicated, and
//! non-UTF-8 input. The contract (see `DESIGN.md`, "Admission control &
//! resource guards"):
//!
//! * malformed input produces **structured diagnostics** — never a panic,
//!   and never a silent half-parse: every corpus file yields at least one
//!   diagnostic with the code family of its artifact kind;
//! * diagnostics carry usable positions (line ≥ 1 for in-file problems);
//! * well-formed artifacts round-trip: `parse → render → parse` is the
//!   identity on databases (property-tested);
//! * resource-guarded explanation runs degrade to ranked best-so-far
//!   results ([`Termination::Degraded`]) instead of aborting, and every
//!   reported result is sound against an unguarded reference.

use obx_core::budget::{SearchBudget, Termination};
use obx_core::explain::{ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::scenario::load_dir_checked;
use obx_core::score::Scoring;
use obx_core::strategies::BeamSearch;
use obx_core::validate_scenario;
use obx_obdm::example_3_6_system;
use obx_srcdb::{parse_database, parse_schema, Database, Schema};
use obx_util::{Diagnostics, GuardKind, GuardLimits};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// The paper's five labelled students.
const PAPER_LABELS: &str = "+ A10\n+ B80\n+ C12\n+ D50\n- E25";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/ingestion")
}

fn paper_schema() -> Schema {
    parse_schema("STUD/1 LOC/2 ENR/3").unwrap()
}

/// Parses one flat corpus file with the diagnostic parser matching its
/// filename prefix, against the paper scenario's context where one is
/// needed (data needs a schema, mappings need schema + vocabulary, labels
/// need a constant pool).
fn diagnose(name: &str, text: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if name.starts_with("schema_") {
        obx_srcdb::parse_schema_diag(text, name, &mut diags);
    } else if name.starts_with("data_") {
        obx_srcdb::parse_database_diag(paper_schema(), text, name, &mut diags);
    } else if name.starts_with("onto_") {
        obx_ontology::parse_tbox_diag(text, name, &mut diags);
    } else if name.starts_with("map_") {
        let mut db = Database::new(paper_schema());
        let tbox =
            obx_ontology::parse_tbox("role studies likes taughtIn locatedIn\nstudies < likes")
                .unwrap();
        let (schema_ref, consts) = db.schema_and_consts_mut();
        obx_mapping::parse_mapping_diag(schema_ref, tbox.vocab(), consts, text, name, &mut diags);
    } else if name.starts_with("labels_") {
        let mut sys = example_3_6_system();
        Labels::parse_diag(sys.db_mut(), text, name, &mut diags);
    } else {
        panic!("corpus file {name} has no parser prefix");
    }
    diags
}

/// The diagnostic each corpus file is *named after* — the specific code
/// its defect must surface (other codes may accompany it).
fn expected_code(stem: &str) -> &'static str {
    match stem {
        "schema_missing_slash" => "OBX101",
        "schema_empty_name" => "OBX102",
        "schema_bad_arity" => "OBX103",
        "schema_duplicate" => "OBX104",
        "schema_zero_arity" => "OBX105",
        "schema_pathological_10k" => "OBX101",
        "data_bad_syntax" => "OBX111",
        "data_empty_arg" => "OBX112",
        "data_unknown_relation" => "OBX113",
        "data_wrong_arity" => "OBX114",
        "data_truncated" => "OBX111",
        "onto_undeclared" => "OBX121",
        "onto_redeclared" => "OBX122",
        "onto_bad_axiom" => "OBX123",
        "onto_mixed_kinds" => "OBX124",
        "map_no_arrow" => "OBX131",
        "map_bad_body" => "OBX132",
        "map_bad_head" => "OBX133",
        "map_unbound_head_var" => "OBX134",
        "labels_bad_sign" => "OBX151",
        "labels_mixed_arity" => "OBX152",
        "labels_conflict" => "OBX153",
        "labels_duplicate" => "OBX155",
        other => panic!("corpus file {other} missing from the expectation table"),
    }
}

#[test]
fn every_corpus_file_yields_structured_diagnostics() {
    let mut seen = 0usize;
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if !path.is_file() {
            continue; // scenario directories have their own tests below
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let stem = name.trim_end_matches(".obx");
        let text = std::fs::read_to_string(&path).unwrap();
        let diags = diagnose(&name, &text);
        seen += 1;
        assert!(
            !diags.is_empty(),
            "{name}: malformed input produced no diagnostics"
        );
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&expected_code(stem)),
            "{name}: expected {} among {codes:?}",
            expected_code(stem)
        );
        // Every parser-level diagnostic is positioned inside the file.
        for d in diags.iter() {
            assert!(d.line >= 1, "{name}: unpositioned diagnostic {d:?}");
            assert_eq!(d.file, name);
        }
    }
    assert!(seen >= 20, "corpus shrank to {seen} flat files");
}

#[test]
fn pathological_10k_line_file_is_fully_reported() {
    let path = corpus_dir().join("schema_pathological_10k.obx");
    let text = std::fs::read_to_string(path).unwrap();
    let diags = diagnose("schema_pathological_10k.obx", &text);
    // One diagnostic per broken declaration: nothing dropped, no panic,
    // no quadratic blow-up (this test times out if accumulation is not
    // linear).
    assert_eq!(diags.len(), 10_000);
    assert!(diags.iter().all(|d| d.code == "OBX101"));
}

#[test]
fn missing_scenario_files_are_reported_per_file() {
    let checked = load_dir_checked(&corpus_dir().join("scenario_missing_files"));
    assert!(checked.scenario.is_none());
    let codes: Vec<&str> = checked.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes.iter().filter(|c| **c == "OBX001").count(),
        4,
        "{codes:?}"
    );
}

#[test]
fn non_utf8_garbage_is_a_diagnostic_not_a_crash() {
    let checked = load_dir_checked(&corpus_dir().join("scenario_non_utf8"));
    assert!(checked.scenario.is_none());
    let bad: Vec<_> = checked
        .diagnostics
        .iter()
        .filter(|d| d.code == "OBX002")
        .collect();
    assert_eq!(bad.len(), 1, "{:?}", checked.diagnostics);
    assert_eq!(bad[0].file, "data.obx");
    assert_eq!(bad[0].line, 3, "line = valid prefix's newline count + 1");
}

#[test]
fn multi_error_scenario_reports_problems_in_every_file() {
    let checked = load_dir_checked(&corpus_dir().join("scenario_multi_error"));
    // All five files are readable, so a best-effort scenario assembles —
    // but the diagnostics make clear it is not admissible.
    assert!(checked.scenario.is_some());
    assert!(checked.diagnostics.has_errors());
    for file in obx_core::scenario::SCENARIO_FILES {
        assert!(
            checked.diagnostics.iter().any(|d| d.file == file),
            "no diagnostic for {file}: {:?}",
            checked.diagnostics
        );
    }
}

#[test]
fn semantic_validation_runs_on_syntactically_clean_scenarios() {
    let mut checked = load_dir_checked(&corpus_dir().join("scenario_semantic"));
    assert!(
        !checked.diagnostics.has_errors(),
        "corpus dir should be syntactically clean: {:?}",
        checked.diagnostics
    );
    let scenario = checked.scenario.as_ref().unwrap();
    validate_scenario(&scenario.system, &scenario.labels, &mut checked.diagnostics);
    let codes: Vec<&str> = checked.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"OBX201"), "Ghost ∉ dom(D): {codes:?}");
    assert!(codes.contains(&"OBX202"), "Orphan unreachable: {codes:?}");
    assert!(codes.contains(&"OBX203"), "SPARE unused: {codes:?}");
}

// ---------------------------------------------------------------------------
// Resource-guarded explanation runs: degrade, never abort.
// ---------------------------------------------------------------------------

fn guarded_report(
    limits: GuardLimits,
) -> (
    obx_core::explain::ExplainReport,
    Option<obx_util::GuardTrip>,
) {
    let mut sys = example_3_6_system();
    let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
    let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
    let task = ExplainTask::new_with_budget(
        &sys,
        &labels,
        1,
        &scoring,
        SearchLimits::default(),
        SearchBudget::unlimited().with_guard_limits(limits),
    )
    .unwrap();
    let report = BeamSearch.explain_with_status(&task).unwrap();
    let trip = task.budget().guard_trip();
    (report, trip)
}

#[test]
fn each_guard_degrades_to_ranked_best_so_far() {
    // The rewriting engine and border BFS are the explain path's two
    // blow-up kernels; the chase guard is exercised below through the
    // materialization cross-check engine, where the chase actually runs.
    let cases = [
        (
            GuardLimits::unlimited().with_max_rewrite_disjuncts(6),
            GuardKind::RewriteDisjuncts,
        ),
        (
            GuardLimits::unlimited().with_max_border_atoms(4),
            GuardKind::BorderAtoms,
        ),
    ];
    for (limits, kind) in cases {
        let (report, trip) = guarded_report(limits);
        let trip = trip.unwrap_or_else(|| panic!("{kind:?}: guard never tripped"));
        assert_eq!(trip.kind, kind);
        assert!(
            matches!(report.termination, Termination::Degraded { .. }),
            "{kind:?}: {:?}",
            report.termination
        );
        assert!(
            !report.explanations.is_empty(),
            "{kind:?}: degraded run lost its best-so-far results"
        );
        // The ranking is still a ranking.
        for w in report.explanations.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12, "{kind:?}: unsorted");
        }
    }
}

#[test]
fn chase_guard_flows_from_budget_to_kernel_and_back() {
    // The chase runs in the materialization cross-check engine, not the
    // rewriting-based explain path — so its guard is exercised through the
    // budget → interrupt → kernel plumbing on an infinite-model fixture.
    let schema = obx_srcdb::parse_schema("P/1").unwrap();
    let mut db = obx_srcdb::parse_database(schema, "P(eve)").unwrap();
    let tbox = obx_ontology::parse_tbox(
        "concept Person\nrole hasParent\n\
         Person < exists(hasParent)\nexists(inv(hasParent)) < Person",
    )
    .unwrap();
    let (schema_ref, consts) = db.schema_and_consts_mut();
    let mapping =
        obx_mapping::parse_mapping(schema_ref, tbox.vocab(), consts, "P(x) ~> Person(x)").unwrap();
    let reasoner = obx_ontology::Reasoner::build(&tbox);
    let abox = obx_mapping::virtual_abox(&mapping, obx_srcdb::View::full(&db));
    let budget = SearchBudget::unlimited()
        .with_guard_limits(GuardLimits::unlimited().with_max_chase_facts(3));
    let chased = obx_obdm::chase_abox_interruptible(
        &tbox,
        &reasoner,
        &abox,
        obx_obdm::ChaseConfig {
            max_null_depth: 50,
            max_facts: 1_000_000,
        },
        &budget.interrupt(),
    );
    assert!(chased.len() <= 4, "chase kept growing: {}", chased.len());
    let trip = budget.guard_trip().expect("guard tripped");
    assert_eq!(trip.kind, GuardKind::ChaseFacts);
    // The loop keeps running, but the run's final report is degraded.
    assert_eq!(budget.stop_reason(0), None);
    assert_eq!(
        Termination::from_run(budget.final_stop(0), 0),
        Termination::Degraded { quarantined: 0 }
    );
}

#[test]
fn zero_limits_still_terminate_gracefully() {
    // The most hostile configuration: every kernel degrades immediately.
    // The run may find nothing, but it must neither panic nor error.
    let limits = GuardLimits::unlimited()
        .with_max_rewrite_disjuncts(0)
        .with_max_chase_facts(0)
        .with_max_border_atoms(0);
    let (report, trip) = guarded_report(limits);
    assert!(trip.is_some());
    assert!(matches!(report.termination, Termination::Degraded { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// parse → render → parse is the identity on databases: rendering a
    /// parsed database and re-parsing it reproduces the same atoms in the
    /// same order (and the same schema).
    #[test]
    fn database_render_parse_roundtrip(
        seed in 0u64..10_000,
        n_consts in 1usize..15,
        n_atoms in 0usize..40,
    ) {
        let mut schema = Schema::new();
        for (name, arity) in [("R", 2), ("S", 1), ("T", 3)] {
            schema.declare(name, arity).unwrap();
        }
        let mut db = Database::new(schema);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n_atoms {
            let (rel, arity) = [("R", 2), ("S", 1), ("T", 3)][rng.gen_range(0usize..3)];
            let args: Vec<String> =
                (0..arity).map(|_| format!("c{}", rng.gen_range(0..n_consts))).collect();
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            db.insert_named(rel, &refs).unwrap();
        }
        let schema_text: Vec<String> = db
            .schema()
            .rel_ids()
            .map(|id| format!("{}/{}", db.schema().name(id), db.schema().arity(id)))
            .collect();
        let rendered = db.render();
        let schema2 = parse_schema(&schema_text.join(" ")).unwrap();
        let db2 = parse_database(schema2, &rendered).unwrap();
        prop_assert_eq!(db2.len(), db.len());
        prop_assert_eq!(db2.render(), rendered);
    }

    /// Rewrite-guarded runs are *exactly* sound: the trip makes later
    /// candidates transiently unreachable but never truncates a reported
    /// one, so re-scoring every reported explanation on a fresh unguarded
    /// task reproduces its Z-score to machine precision.
    #[test]
    fn rewrite_guarded_results_rescore_exactly(cap in 1usize..30) {
        let (report, _) =
            guarded_report(GuardLimits::unlimited().with_max_rewrite_disjuncts(cap));
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let reference =
            ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        for e in &report.explanations {
            let fresh = reference.score_ucq(&e.query).unwrap();
            prop_assert!(
                (fresh.score - e.score).abs() < 1e-12,
                "guarded result mis-scored: reported {} vs fresh {}",
                e.score,
                fresh.score
            );
        }
    }

    /// Border-truncation-guarded runs are sound in the subset sense:
    /// truncated borders can only *lose* matches, so every reported match
    /// count is a lower bound on the unguarded one.
    #[test]
    fn truncation_guarded_results_are_lower_bounds(cap in 1usize..30) {
        let (report, _) =
            guarded_report(GuardLimits::unlimited().with_max_border_atoms(cap));
        let mut sys = example_3_6_system();
        let labels = Labels::parse(sys.db_mut(), PAPER_LABELS).unwrap();
        let scoring = Scoring::paper_weighted(1.0, 1.0, 1.0);
        let reference =
            ExplainTask::new(&sys, &labels, 1, &scoring, SearchLimits::default()).unwrap();
        for e in &report.explanations {
            let fresh = reference.score_ucq(&e.query).unwrap();
            prop_assert!(
                e.stats.pos_matched <= fresh.stats.pos_matched,
                "truncation invented a positive match: {} > {}",
                e.stats.pos_matched,
                fresh.stats.pos_matched
            );
            prop_assert!(
                e.stats.neg_matched <= fresh.stats.neg_matched,
                "truncation invented a negative match: {} > {}",
                e.stats.neg_matched,
                fresh.stats.neg_matched
            );
        }
    }
}
