//! Loading and saving scenario directories.
//!
//! Two loaders: [`load_dir`] stops at the first problem (the engine path —
//! a scenario that parses is a scenario that runs), and [`load_dir_checked`]
//! reads everything best-effort, collecting every problem as a structured
//! [`Diagnostic`](obx_util::Diagnostic) for `obx validate`.
//!
//! This module lives in `obx-core` (historically it was CLI-only) so that
//! every front end — the one-shot `obx` binary and the long-lived
//! `obx serve` snapshot store — loads scenarios through one code path.

use crate::labels::Labels;
use obx_mapping::{parse_mapping, parse_mapping_diag};
use obx_obdm::{ObdmSpec, ObdmSystem};
use obx_ontology::{parse_tbox, parse_tbox_diag};
use obx_srcdb::{parse_database, parse_database_diag, parse_schema, parse_schema_diag};
use obx_util::{Diagnostic, Diagnostics};
use std::fmt;
use std::path::Path;

/// The five artifact files of a scenario directory, in load order.
pub const SCENARIO_FILES: [&str; 5] = [
    "schema.obx",
    "data.obx",
    "ontology.obx",
    "mapping.obx",
    "labels.obx",
];

/// Optional binary data snapshot (`obx snapshot build`) sitting next to
/// the text artifacts. When present, valid, and fresh it replaces the
/// `schema.obx` + `data.obx` parse in both loaders.
pub const SNAPSHOT_FILE: &str = "data.obxsnap";

/// A scenario loaded from disk: the system plus λ.
#[derive(Debug)]
pub struct LoadedScenario {
    /// Σ = ⟨J, D⟩.
    pub system: ObdmSystem,
    /// λ.
    pub labels: Labels,
}

/// Errors loading a scenario directory.
#[derive(Debug)]
pub enum LoadError {
    /// A file was missing or unreadable.
    Io {
        /// The file involved.
        file: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file failed to parse.
    Parse {
        /// The file involved.
        file: String,
        /// The parser's message.
        msg: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { file, source } => write!(f, "{file}: {source}"),
            LoadError::Parse { file, msg } => write!(f, "{file}: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn read(dir: &Path, file: &str) -> Result<String, LoadError> {
    std::fs::read_to_string(dir.join(file)).map_err(|source| LoadError::Io {
        file: file.to_owned(),
        source,
    })
}

fn parse_err(file: &str, msg: impl ToString) -> LoadError {
    LoadError::Parse {
        file: file.to_owned(),
        msg: msg.to_string(),
    }
}

/// Outcome of probing `dir` for a usable [`SNAPSHOT_FILE`].
enum SnapProbe {
    /// No snapshot file — parse the text artifacts.
    Absent,
    /// A snapshot exists but its recorded source sizes no longer match
    /// `schema.obx` / `data.obx`, or it was written by a different
    /// format version — silently fall back to the text parse (the
    /// snapshot is a cache; staleness and version drift are not errors).
    Stale,
    /// The file exists but is not a valid snapshot (bad magic, checksum,
    /// truncation, inconsistent payload) — a hard `OBX003`.
    Corrupt(String),
    /// Valid and fresh: the rebuilt data layer.
    Ready(Box<obx_srcdb::Database>),
}

fn probe_snapshot(dir: &Path) -> SnapProbe {
    let snap = match obx_srcdb::read_snapshot(&dir.join(SNAPSHOT_FILE)) {
        Ok(s) => s,
        Err(obx_srcdb::SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            return SnapProbe::Absent;
        }
        Err(obx_srcdb::SnapshotError::Io(e)) => {
            return SnapProbe::Corrupt(format!("cannot read snapshot: {e}"));
        }
        Err(obx_srcdb::SnapshotError::Version(_)) => return SnapProbe::Stale,
        Err(obx_srcdb::SnapshotError::Corrupt(msg)) => return SnapProbe::Corrupt(msg),
    };
    let fresh = |file: &str, want: u64| {
        std::fs::metadata(dir.join(file))
            .map(|m| m.len() == want)
            .unwrap_or(false)
    };
    if !fresh("schema.obx", snap.schema_src_len) || !fresh("data.obx", snap.data_src_len) {
        return SnapProbe::Stale;
    }
    SnapProbe::Ready(Box::new(snap.db))
}

/// Builds (or rebuilds) [`SNAPSHOT_FILE`] in `dir` from its text
/// artifacts, returning `(atoms, constants, snapshot bytes)`. This is
/// `obx snapshot build`'s engine.
pub fn build_snapshot(dir: &Path) -> Result<(usize, usize, u64), LoadError> {
    let schema_txt = read(dir, "schema.obx")?;
    let data_txt = read(dir, "data.obx")?;
    let schema = parse_schema(&schema_txt).map_err(|e| parse_err("schema.obx", e))?;
    let db = parse_database(schema, &data_txt).map_err(|e| parse_err("data.obx", e))?;
    let bytes = obx_srcdb::write_snapshot(
        &dir.join(SNAPSHOT_FILE),
        &db,
        schema_txt.len() as u64,
        data_txt.len() as u64,
    )
    .map_err(|source| LoadError::Io {
        file: SNAPSHOT_FILE.to_owned(),
        source,
    })?;
    Ok((db.len(), db.consts().len(), bytes))
}

/// Loads `schema.obx`, `data.obx`, `ontology.obx`, `mapping.obx`,
/// `labels.obx` from `dir` and assembles the system. A valid, fresh
/// [`SNAPSHOT_FILE`] short-circuits the `schema.obx`/`data.obx` parse;
/// a corrupt one is rejected (`OBX003`) rather than silently ignored.
pub fn load_dir(dir: &Path) -> Result<LoadedScenario, LoadError> {
    let mut db = match probe_snapshot(dir) {
        SnapProbe::Ready(db) => *db,
        SnapProbe::Corrupt(msg) => {
            return Err(parse_err(SNAPSHOT_FILE, format!("OBX003: {msg}")));
        }
        SnapProbe::Absent | SnapProbe::Stale => {
            let schema =
                parse_schema(&read(dir, "schema.obx")?).map_err(|e| parse_err("schema.obx", e))?;
            parse_database(schema, &read(dir, "data.obx")?).map_err(|e| parse_err("data.obx", e))?
        }
    };
    let tbox = parse_tbox(&read(dir, "ontology.obx")?).map_err(|e| parse_err("ontology.obx", e))?;
    let mapping = {
        let (schema_ref, consts) = db.schema_and_consts_mut();
        parse_mapping(schema_ref, tbox.vocab(), consts, &read(dir, "mapping.obx")?)
            .map_err(|e| parse_err("mapping.obx", e))?
    };
    let labels = Labels::parse(&mut db, &read(dir, "labels.obx")?)
        .map_err(|e| parse_err("labels.obx", e))?;
    Ok(LoadedScenario {
        system: ObdmSystem::new(ObdmSpec::new(tbox, mapping), db),
        labels,
    })
}

/// Result of a best-effort [`load_dir_checked`]: every problem found, the
/// raw sources (for caret rendering), and — when all five files were at
/// least readable — the scenario assembled from whatever parsed.
#[derive(Debug)]
pub struct CheckedLoad {
    /// The assembled scenario (built best-effort from the artifacts that
    /// parsed), or `None` when a file was unreadable.
    pub scenario: Option<LoadedScenario>,
    /// Every diagnostic, sorted by file/position with errors first.
    pub diagnostics: Diagnostics,
    /// `(file name, contents)` for each readable UTF-8 source file.
    pub sources: Vec<(String, String)>,
}

impl CheckedLoad {
    /// The source text of `file`, if it was readable.
    pub fn source_of(&self, file: &str) -> Option<&str> {
        self.sources
            .iter()
            .find(|(name, _)| name == file)
            .map(|(_, text)| text.as_str())
    }
}

/// Reads one artifact file, reporting unreadable (`OBX001`) and non-UTF-8
/// (`OBX002`) files as diagnostics instead of errors.
fn read_checked(dir: &Path, file: &str, diags: &mut Diagnostics) -> Option<String> {
    let bytes = match std::fs::read(dir.join(file)) {
        Ok(b) => b,
        Err(e) => {
            diags.push(
                Diagnostic::error(file, 0, 0, "OBX001", format!("cannot read file: {e}"))
                    .with_hint("a scenario directory needs all five .obx files"),
            );
            return None;
        }
    };
    match String::from_utf8(bytes) {
        Ok(s) => Some(s),
        Err(e) => {
            let valid = e.utf8_error().valid_up_to();
            let line = e.as_bytes()[..valid]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                + 1;
            diags.push(
                Diagnostic::error(
                    file,
                    line,
                    0,
                    "OBX002",
                    format!("file is not valid UTF-8 (first bad byte at offset {valid})"),
                )
                .with_hint("scenario files are plain UTF-8 text"),
            );
            None
        }
    }
}

/// Best-effort load of a scenario directory: reads and parses all five
/// artifacts, collecting *every* problem (io `OBX00x`, parse `OBX1xx`) in
/// one pass instead of stopping at the first. The scenario is assembled
/// from whatever parsed whenever all five files were readable — callers
/// decide, via [`Diagnostics::has_errors`], whether to trust it.
pub fn load_dir_checked(dir: &Path) -> CheckedLoad {
    let mut diags = Diagnostics::new();
    let mut sources: Vec<(String, String)> = Vec::new();

    // Snapshot fast path: a valid, fresh binary snapshot stands in for
    // `schema.obx` + `data.obx` (their text is neither read nor
    // re-checked — the snapshot was built from sources that parsed). A
    // corrupt snapshot is a hard diagnostic; the text artifacts are then
    // checked as usual so one bad cache file cannot hide real problems.
    let snap_db = match probe_snapshot(dir) {
        SnapProbe::Ready(db) => Some(*db),
        SnapProbe::Corrupt(msg) => {
            diags.push(
                Diagnostic::error(
                    SNAPSHOT_FILE,
                    0,
                    0,
                    "OBX003",
                    format!("invalid data snapshot: {msg}"),
                )
                .with_hint(
                    "rebuild it with `obx snapshot build` or delete it to use the text artifacts",
                ),
            );
            None
        }
        SnapProbe::Absent | SnapProbe::Stale => None,
    };

    // One text per entry of `SCENARIO_FILES`, in its order: a fixed
    // array, so the five names below bind without a length check.
    let [schema_txt, data_txt, onto_txt, map_txt, labels_txt] = SCENARIO_FILES.map(|file| {
        if snap_db.is_some() && (file == "schema.obx" || file == "data.obx") {
            return None;
        }
        let text = read_checked(dir, file, &mut diags);
        if let Some(t) = &text {
            sources.push((file.to_owned(), t.clone()));
        }
        text
    });

    let have_data_layer = snap_db.is_some() || (schema_txt.is_some() && data_txt.is_some());
    let all_readable = have_data_layer
        && [&onto_txt, &map_txt, &labels_txt]
            .iter()
            .all(|t| t.is_some());

    // Artifacts whose prerequisite file was unreadable are not parsed —
    // checking data against an empty stand-in schema would drown the real
    // problem (the unreadable schema) in spurious unknown-relation errors.
    let data_input = if schema_txt.is_some() {
        data_txt.as_deref().unwrap_or("")
    } else {
        ""
    };
    let map_input = if (snap_db.is_some() || schema_txt.is_some()) && onto_txt.is_some() {
        map_txt.as_deref().unwrap_or("")
    } else {
        ""
    };

    let mut db = if let Some(db) = snap_db {
        db
    } else {
        let schema = parse_schema_diag(
            schema_txt.as_deref().unwrap_or(""),
            "schema.obx",
            &mut diags,
        );
        parse_database_diag(schema, data_input, "data.obx", &mut diags)
    };
    let tbox = parse_tbox_diag(
        onto_txt.as_deref().unwrap_or(""),
        "ontology.obx",
        &mut diags,
    );
    let mapping = {
        let (schema_ref, consts) = db.schema_and_consts_mut();
        parse_mapping_diag(
            schema_ref,
            tbox.vocab(),
            consts,
            map_input,
            "mapping.obx",
            &mut diags,
        )
    };
    let labels = Labels::parse_diag(
        &mut db,
        labels_txt.as_deref().unwrap_or(""),
        "labels.obx",
        &mut diags,
    );

    let scenario = all_readable.then(|| LoadedScenario {
        system: ObdmSystem::new(ObdmSpec::new(tbox, mapping), db),
        labels,
    });
    diags.sort();
    CheckedLoad {
        scenario,
        diagnostics: diags,
        sources,
    }
}

/// Writes the paper's Example 3.6/3.8 scenario into `dir` (`obx init`).
pub fn write_paper_example(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let files: [(&str, &str); 5] = [
        ("schema.obx", "STUD/1 LOC/2 ENR/3\n"),
        (
            "data.obx",
            "STUD(A10).\nSTUD(B80).\nSTUD(C12).\nSTUD(D50).\nSTUD(E25).\n\
             LOC(Sap, Rome).\nLOC(TV, Rome).\nLOC(Pol, Milan).\n\
             ENR(A10, Math, TV).\nENR(B80, Math, Sap).\nENR(C12, Science, Norm).\n\
             ENR(D50, Science, TV).\nENR(E25, Math, Pol).\n",
        ),
        (
            "ontology.obx",
            "role studies likes taughtIn locatedIn\nstudies < likes\n",
        ),
        (
            "mapping.obx",
            "ENR(x, y, z) ~> studies(x, y)\nENR(x, y, z) ~> taughtIn(y, z)\n\
             LOC(x, y) ~> locatedIn(x, y)\n",
        ),
        ("labels.obx", "+ A10\n+ B80\n+ C12\n+ D50\n- E25\n"),
    ];
    for (name, contents) in files {
        std::fs::write(dir.join(name), contents)?;
    }
    Ok(())
}

/// Writes an in-memory scenario (e.g. one produced by `obx-datagen`) into
/// `dir` as the five artifact files, in the formats [`load_dir`] reads
/// back. Round-trips: the benches use this to serve generated scenarios
/// from disk exactly as a user-authored directory would be.
pub fn write_scenario_dir(dir: &Path, system: &ObdmSystem, labels: &Labels) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let db = system.db();
    let schema = db.schema();
    let mut schema_txt = String::new();
    for rel in schema.rel_ids() {
        if !schema_txt.is_empty() {
            schema_txt.push(' ');
        }
        schema_txt.push_str(&format!("{}/{}", schema.name(rel), schema.arity(rel)));
    }
    schema_txt.push('\n');
    let tbox = system.spec().tbox();
    // ontology.obx needs the vocabulary declarations up front — axioms
    // alone do not mention concepts/roles that only appear in the mapping.
    let mut onto_txt = String::new();
    let vocab = tbox.vocab();
    if vocab.num_concepts() > 0 {
        onto_txt.push_str("concept");
        for c in vocab.concept_ids() {
            onto_txt.push(' ');
            onto_txt.push_str(vocab.concept_name(c));
        }
        onto_txt.push('\n');
    }
    if vocab.num_roles() > 0 {
        onto_txt.push_str("role");
        for r in vocab.role_ids() {
            onto_txt.push(' ');
            onto_txt.push_str(vocab.role_name(r));
        }
        onto_txt.push('\n');
    }
    onto_txt.push_str(&tbox.render());
    let files: [(&str, String); 5] = [
        ("schema.obx", schema_txt),
        ("data.obx", db.render()),
        ("ontology.obx", onto_txt),
        (
            "mapping.obx",
            system
                .spec()
                .mapping()
                .render(schema, tbox.vocab(), db.consts()),
        ),
        ("labels.obx", labels.render_file(db.consts())),
    ];
    for (name, contents) in files {
        std::fs::write(dir.join(name), contents)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("obx-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn init_then_load_roundtrips_the_paper_example() {
        let dir = tmpdir("roundtrip");
        write_paper_example(&dir).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.system.db().len(), 13);
        assert_eq!(loaded.labels.pos().len(), 4);
        assert_eq!(loaded.labels.neg().len(), 1);
        assert_eq!(loaded.system.spec().tbox().len(), 1);
        assert_eq!(loaded.system.spec().mapping().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_scenario_dir_roundtrips_labels_in_file_format() {
        // Regression: labels used to be written with the diagnostics
        // renderer (`+ <A10>`), which the parser interns as brand-new
        // `<A10>` constants — every label then fails OBX201 validation.
        let dir = tmpdir("scenario-roundtrip");
        let src = tmpdir("scenario-src");
        write_paper_example(&src).unwrap();
        let loaded = load_dir(&src).unwrap();
        write_scenario_dir(&dir, &loaded.system, &loaded.labels).unwrap();
        let labels_txt = std::fs::read_to_string(dir.join("labels.obx")).unwrap();
        assert!(
            !labels_txt.contains('<'),
            "labels.obx must use the parseable format: {labels_txt}"
        );
        let again = load_dir(&dir).unwrap();
        assert_eq!(again.labels.pos().len(), loaded.labels.pos().len());
        assert_eq!(again.labels.neg().len(), loaded.labels.neg().len());
        assert_eq!(
            again.labels.render_file(again.system.db().consts()),
            loaded.labels.render_file(loaded.system.db().consts())
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&src).unwrap();
    }

    #[test]
    fn snapshot_fast_path_loads_identically_to_text() {
        let dir = tmpdir("snap-fast");
        write_paper_example(&dir).unwrap();
        let text_loaded = load_dir(&dir).unwrap();
        let (atoms, consts, bytes) = build_snapshot(&dir).unwrap();
        assert_eq!(atoms, 13);
        assert!(consts > 0 && bytes > 0);
        assert!(dir.join(SNAPSHOT_FILE).exists());
        let snap_loaded = load_dir(&dir).unwrap();
        // Same atoms in the same order, same constant ids, same labels —
        // downstream explanations are therefore byte-identical.
        assert_eq!(
            snap_loaded.system.db().render(),
            text_loaded.system.db().render()
        );
        assert_eq!(
            snap_loaded
                .labels
                .render_file(snap_loaded.system.db().consts()),
            text_loaded
                .labels
                .render_file(text_loaded.system.db().consts())
        );
        // The checked loader takes the same fast path and stays clean.
        let checked = load_dir_checked(&dir);
        assert!(!checked.diagnostics.has_errors());
        let scen = checked.scenario.unwrap();
        assert_eq!(scen.system.db().render(), text_loaded.system.db().render());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_rejected_with_obx003() {
        let dir = tmpdir("snap-corrupt");
        write_paper_example(&dir).unwrap();
        build_snapshot(&dir).unwrap();
        // Flip a payload byte (past the 24-byte header).
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("OBX003"), "{err}");
        let checked = load_dir_checked(&dir);
        assert!(checked
            .diagnostics
            .iter()
            .any(|d| d.code == "OBX003" && d.file == SNAPSHOT_FILE));
        // The checked loader still assembles the scenario from text.
        assert!(checked.scenario.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_snapshot_falls_back_to_the_text_artifacts() {
        let dir = tmpdir("snap-stale");
        write_paper_example(&dir).unwrap();
        build_snapshot(&dir).unwrap();
        // Grow data.obx: the recorded source size no longer matches.
        let data = dir.join("data.obx");
        let mut txt = std::fs::read_to_string(&data).unwrap();
        txt.push_str("STUD(Z99).\n");
        std::fs::write(&data, &txt).unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.system.db().len(), 14, "stale snapshot was used");
        let checked = load_dir_checked(&dir);
        assert!(!checked.diagnostics.has_errors());
        assert_eq!(checked.scenario.unwrap().system.db().len(), 14);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(matches!(err, LoadError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_syntax_is_a_parse_error_naming_the_file() {
        let dir = tmpdir("badsyntax");
        write_paper_example(&dir).unwrap();
        std::fs::write(dir.join("ontology.obx"), "role r\nr << s\n").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(err.to_string().starts_with("ontology.obx:"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
