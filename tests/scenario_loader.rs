//! The one scenario reader: a mount serves exactly the scenario
//! `load_dir` assembles, and `load_dir` refuses with the code of the first
//! error `obx validate` reports in load order.

use obx_core::scenario::{
    build_snapshot, load_dir, write_paper_example, write_scenario_dir, LoadedScenario,
    SCENARIO_FILES, SNAPSHOT_FILE,
};
use obx_core::service::validate_dir;
use obx_datagen::{university_scenario, UniversityParams};
use obx_serve::snapshot::load_epoch;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obx-loader-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/ingestion")
}

/// The data, labels and mapping of a scenario, each rendered as text.
fn renders(s: &LoadedScenario) -> [String; 3] {
    let db = s.system.db();
    [
        db.render(),
        s.labels.render_file(db.consts()),
        s.system
            .spec()
            .mapping()
            .render(db.schema(), s.system.spec().tbox().vocab(), db.consts()),
    ]
}

fn assert_mount_matches_load(dir: &Path, what: &str) {
    let loaded = load_dir(dir).unwrap_or_else(|e| panic!("{what}: {e}"));
    let epoch = load_epoch(dir, 1).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(renders(&epoch.scenario), renders(&loaded), "{what}");
}

#[test]
fn a_mount_serves_the_scenario_load_dir_assembles() {
    let paper = scratch_dir("paper");
    write_paper_example(&paper).unwrap();
    assert_mount_matches_load(&paper, "paper example");

    let uni = scratch_dir("uni");
    let sc = university_scenario(UniversityParams {
        n_students: 60,
        seed: 1,
        ..UniversityParams::default()
    });
    write_scenario_dir(&uni, &sc.system, &sc.labels).unwrap();
    assert_mount_matches_load(&uni, "datagen scenario");

    build_snapshot(&uni).unwrap();
    assert!(uni.join(SNAPSHOT_FILE).exists());
    assert_mount_matches_load(&uni, "datagen scenario with a snapshot");

    for dir in [paper, uni] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `(code, file, line, col)` of every error header in `obx validate` text
/// (`error[OBX111] data.obx:3:1: message`).
fn validate_errors(text: &str) -> Vec<(String, String, usize, usize)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("error["))
        .map(|rest| {
            let (code, rest) = rest.split_once("] ").unwrap();
            let (loc, _msg) = rest.split_once(": ").unwrap();
            let mut parts = loc.split(':');
            let file = parts.next().unwrap().to_owned();
            let mut num = || parts.next().map_or(0, |n| n.parse().unwrap());
            let (line, col) = (num(), num());
            (code.to_owned(), file, line, col)
        })
        .collect()
}

fn load_rank(file: &str) -> usize {
    SCENARIO_FILES
        .iter()
        .position(|f| *f == file)
        .map_or(0, |i| i + 1)
}

#[test]
fn load_dir_refuses_with_the_first_error_validate_reports() {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(dirs.len() >= 4, "{dirs:?}");
    for dir in dirs {
        let validation = validate_dir(&dir);
        assert_eq!(validation.exit_code, 1, "{}", validation.stdout);
        let errors = validate_errors(&validation.stdout);
        // `load_dir` reads and parses; the OBX2xx checks need the
        // assembled scenario and refuse only the mount.
        let first_load_error = errors
            .iter()
            .filter(|(code, ..)| !code.starts_with("OBX2"))
            .min_by_key(|(_, file, line, col)| (load_rank(file), *line, *col));
        match (first_load_error, load_dir(&dir)) {
            (Some((code, file, line, col)), Err(err)) => {
                let d = &err.diagnostic;
                assert_eq!(
                    (d.code, &d.file, d.line, d.col),
                    (code.as_str(), file, *line, *col),
                    "{}",
                    dir.display()
                );
                assert!(err.to_string().starts_with(file.as_str()), "{err}");
                assert!(err.to_string().contains(code.as_str()), "{err}");
            }
            (None, Ok(_)) => assert!(
                errors.iter().any(|(code, ..)| code.starts_with("OBX2")),
                "{}",
                validation.stdout
            ),
            (want, got) => panic!("{}: want {want:?}, got {got:?}", dir.display()),
        }
        let refused = load_epoch(&dir, 1).unwrap_err();
        assert_eq!(refused, validation.stdout, "{}", dir.display());
    }
}

#[test]
fn obx_explain_on_a_broken_dir_names_the_file_and_code() {
    let dir = scratch_dir("cli-broken");
    write_paper_example(&dir).unwrap();
    let mut data = std::fs::read_to_string(dir.join("data.obx")).unwrap();
    data.push_str("LOC(Sap\n");
    std::fs::write(dir.join("data.obx"), data).unwrap();
    let first = validate_errors(&validate_dir(&dir).stdout)
        .into_iter()
        .next()
        .unwrap();
    assert_eq!((first.0.as_str(), first.1.as_str()), ("OBX111", "data.obx"));
    let args: Vec<String> = ["explain", dir.to_str().unwrap()]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let err = obx_cli::run(&args).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    let msg = err.to_string();
    assert!(msg.contains("data.obx:14:1: OBX111: "), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}
