//! Loading and saving scenario directories.
//!
//! One reader: [`load_dir_checked`] reads and parses all five artifacts
//! best-effort, collecting every problem as a structured
//! [`Diagnostic`](obx_util::Diagnostic) for `obx validate`. [`load_dir`]
//! is that load refused on its first error in load order (the snapshot,
//! then [`SCENARIO_FILES`] order, then line and column) — the engine
//! path: a scenario that loads is a scenario that runs, and a
//! [`LoadError`] carries the same OBX code `obx validate` reports first.
//! [`build_snapshot`] reads `schema.obx` and `data.obx` through the same
//! reader.
//!
//! This module lives in `obx-core` (historically it was CLI-only) so that
//! every front end — the one-shot `obx` binary and the long-lived
//! `obx serve` snapshot store — loads scenarios through one code path.

use crate::labels::Labels;
use obx_mapping::parse_mapping_diag;
use obx_obdm::{ObdmSpec, ObdmSystem};
use obx_ontology::parse_tbox_diag;
use obx_srcdb::{parse_database_diag, parse_schema_diag};
use obx_util::{Diagnostic, Diagnostics, Severity};
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
/// `schema.obx` + `data.obx` parse.
pub const SNAPSHOT_FILE: &str = "data.obxsnap";

/// A scenario loaded from disk: the system plus λ.
#[derive(Debug)]
pub struct LoadedScenario {
    /// Σ = ⟨J, D⟩.
    pub system: ObdmSystem,
    /// λ.
    pub labels: Labels,
}

/// Why [`load_dir`] refused a scenario directory: the first error of its
/// checked load in load order — file, position, OBX code and message.
#[derive(Debug, Clone)]
pub struct LoadError {
    /// The refusing diagnostic (`OBX00x` I/O, `OBX1xx` parse).
    pub diagnostic: Box<Diagnostic>,
}

impl fmt::Display for LoadError {
    /// `file[:line[:col]]: CODE: message`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.diagnostic;
        write!(f, "{}", d.file)?;
        if d.line > 0 {
            write!(f, ":{}", d.line)?;
            if d.col > 0 {
                write!(f, ":{}", d.col)?;
            }
        }
        write!(f, ": {}: {}", d.code, d.msg)
    }
}

impl std::error::Error for LoadError {}

impl From<Diagnostic> for LoadError {
    fn from(d: Diagnostic) -> Self {
        LoadError {
            diagnostic: Box::new(d),
        }
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
/// `obx snapshot build`'s engine. The text artifacts are read with the
/// existing snapshot ignored (so a corrupt one can be rebuilt) and must
/// load as [`load_dir`] would.
pub fn build_snapshot(dir: &Path) -> Result<(usize, usize, u64), LoadError> {
    let checked = read_dir(dir, false);
    let src_len = |file| checked.source_of(file).map_or(0, |t| t.len() as u64);
    let (schema_len, data_len) = (src_len("schema.obx"), src_len("data.obx"));
    let scenario = checked.into_scenario()?;
    let db = scenario.system.db();
    let bytes = obx_srcdb::write_snapshot(&dir.join(SNAPSHOT_FILE), db, schema_len, data_len)
        .map_err(|e| {
            Diagnostic::error(
                SNAPSHOT_FILE,
                0,
                0,
                "OBX001",
                format!("cannot write file: {e}"),
            )
        })?;
    Ok((db.len(), db.consts().len(), bytes))
}

/// Loads `schema.obx`, `data.obx`, `ontology.obx`, `mapping.obx`,
/// `labels.obx` from `dir` and assembles the system: [`load_dir_checked`]
/// refused on its first error in load order. A valid, fresh
/// [`SNAPSHOT_FILE`] short-circuits the `schema.obx`/`data.obx` parse;
/// a corrupt one is rejected (`OBX003`) rather than silently ignored.
/// Warnings do not refuse.
pub fn load_dir(dir: &Path) -> Result<LoadedScenario, LoadError> {
    load_dir_checked(dir).into_scenario()
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

    /// The first error in load order: [`SNAPSHOT_FILE`], then
    /// [`SCENARIO_FILES`] order, then line and column.
    fn first_error(&self) -> Option<&Diagnostic> {
        let rank = |file: &str| {
            SCENARIO_FILES
                .iter()
                .position(|f| *f == file)
                .map_or(0, |i| i + 1)
        };
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .min_by_key(|d| (rank(&d.file), d.line, d.col))
    }

    /// The assembled scenario, or the [`LoadError`] of the first error.
    fn into_scenario(self) -> Result<LoadedScenario, LoadError> {
        if let Some(d) = self.first_error() {
            return Err(d.clone().into());
        }
        // Every unreadable file leaves an error, so an error-free load
        // from `load_dir_checked` always assembled its scenario.
        self.scenario.ok_or_else(|| {
            Diagnostic::error(
                SCENARIO_FILES[0],
                0,
                0,
                "OBX001",
                "scenario could not be assembled",
            )
            .into()
        })
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
    read_dir(dir, true)
}

/// The one reader of a scenario directory: the snapshot probe (when
/// `use_snapshot`) plus the five artifact texts, parsed best-effort.
fn read_dir(dir: &Path, use_snapshot: bool) -> CheckedLoad {
    let mut diags = Diagnostics::new();

    // Snapshot fast path: a valid, fresh binary snapshot stands in for
    // `schema.obx` + `data.obx` (their text is neither read nor
    // re-checked — the snapshot was built from sources that parsed). A
    // corrupt snapshot is a hard diagnostic; the text artifacts are then
    // checked as usual so one bad cache file cannot hide real problems.
    let probe = if use_snapshot {
        probe_snapshot(dir)
    } else {
        SnapProbe::Absent
    };
    let snap_db = match probe {
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
    let texts = SCENARIO_FILES.map(|file| {
        if snap_db.is_some() && (file == "schema.obx" || file == "data.obx") {
            return None;
        }
        read_checked(dir, file, &mut diags)
    });
    let [schema_txt, data_txt, onto_txt, map_txt, labels_txt] =
        texts.each_ref().map(Option::as_deref);

    let have_data_layer = snap_db.is_some() || (schema_txt.is_some() && data_txt.is_some());
    let all_readable =
        have_data_layer && onto_txt.is_some() && map_txt.is_some() && labels_txt.is_some();

    // Artifacts whose prerequisite file was unreadable are not parsed —
    // checking data against an empty stand-in schema would drown the real
    // problem (the unreadable schema) in spurious unknown-relation errors.
    let data_input = if schema_txt.is_some() {
        data_txt.unwrap_or("")
    } else {
        ""
    };
    let map_input = if (snap_db.is_some() || schema_txt.is_some()) && onto_txt.is_some() {
        map_txt.unwrap_or("")
    } else {
        ""
    };

    let mut db = if let Some(db) = snap_db {
        db
    } else {
        let schema = parse_schema_diag(schema_txt.unwrap_or(""), "schema.obx", &mut diags);
        parse_database_diag(schema, data_input, "data.obx", &mut diags)
    };
    let tbox = parse_tbox_diag(onto_txt.unwrap_or(""), "ontology.obx", &mut diags);
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
    let labels = Labels::parse_diag(&mut db, labels_txt.unwrap_or(""), "labels.obx", &mut diags);

    let scenario = all_readable.then(|| LoadedScenario {
        system: ObdmSystem::new(ObdmSpec::new(tbox, mapping), db),
        labels,
    });
    diags.sort();
    // The texts move into `sources`; nothing above kept a copy.
    let sources = SCENARIO_FILES
        .iter()
        .zip(texts)
        .filter_map(|(file, text)| Some(((*file).to_owned(), text?)))
        .collect();
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
        assert_eq!(err.diagnostic.code, "OBX001", "{err}");
        assert_eq!(err.diagnostic.file, "schema.obx", "{err}");
        assert!(err.to_string().starts_with("schema.obx: OBX001: "), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refusal_follows_load_order_not_file_name_order() {
        // `labels.obx` sorts before `ontology.obx`, but the ontology loads
        // first, so its error is the one that refuses.
        let dir = tmpdir("load-order");
        write_paper_example(&dir).unwrap();
        std::fs::write(dir.join("ontology.obx"), "role r\nr << s\n").unwrap();
        std::fs::write(dir.join("labels.obx"), "? A10\n").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert_eq!(err.diagnostic.file, "ontology.obx", "{err}");
        assert_eq!(err.diagnostic.line, 2, "{err}");
        // Warnings never refuse: a duplicate label is collapsed.
        write_paper_example(&dir).unwrap();
        std::fs::write(dir.join("labels.obx"), "+ A10\n+ A10\n- E25\n").unwrap();
        assert_eq!(load_dir(&dir).unwrap().labels.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_snapshot_rebuilds_a_corrupt_snapshot() {
        let dir = tmpdir("snap-rebuild");
        write_paper_example(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"not a snapshot").unwrap();
        assert_eq!(load_dir(&dir).unwrap_err().diagnostic.code, "OBX003");
        build_snapshot(&dir).unwrap();
        assert_eq!(load_dir(&dir).unwrap().system.db().len(), 13);
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
