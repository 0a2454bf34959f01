//! Epoch snapshots: the server's immutable view of a scenario.
//!
//! A long-lived service cannot re-read a scenario directory per request
//! (slow, and worse: racy — a half-written reload would be visible
//! mid-request). Instead the directory is loaded **once** into an
//! immutable [`Epoch`] behind an `Arc`; requests pin the epoch they
//! started on and keep it alive until they finish, while a reload swaps
//! the owning tenant's current pointer atomically. Two requests may
//! therefore run on *different* epochs concurrently — each is internally
//! consistent, and each response names its epoch so a client can audit
//! the answer against exactly the snapshot that produced it.
//!
//! Each epoch carries its own scenario — and with it its own `Interner`:
//! symbols are meaningful only inside one snapshot of one tenant and
//! never cross tenant boundaries.
//!
//! Validation output is captured at load time (`obx validate` text plus
//! exit code): serving `/validate` is then a pure memory read, and the
//! text is guaranteed to describe the pinned snapshot, not whatever the
//! directory holds *now*.
//!
//! The per-tenant epoch *chain* (current pointer, reload, quarantine,
//! breaker) lives in [`crate::tenants`].

use obx_core::scenario::LoadedScenario;
use obx_core::service::load_snapshot;
use std::path::Path;

/// One immutable snapshot of a scenario directory. Never mutated after
/// construction; shared by `Arc` across every request that pinned it.
#[derive(Debug)]
pub struct Epoch {
    /// Monotonically increasing snapshot id (1 = the boot snapshot).
    pub id: u64,
    /// The loaded scenario (system + labels), ready for task construction.
    pub scenario: LoadedScenario,
    /// The full `obx validate` text for the directory, captured at load.
    pub validate_text: String,
    /// The validate exit code (0 clean, 2 warnings) captured at load.
    pub validate_exit: i32,
    /// Wall-clock milliseconds the directory took to load and validate —
    /// the per-tenant load-time gauge surfaced by `GET /tenants` and,
    /// cumulatively, by `/metrics`.
    pub load_ms: u64,
}

/// Loads `dir` as epoch `id`, rejecting directories that do not load or
/// whose validation errors (exit 1). Warning-only directories (exit 2)
/// load fine and are served as degraded.
pub fn load_epoch(dir: &Path, id: u64) -> Result<Epoch, String> {
    let started = std::time::Instant::now();
    let snap = load_snapshot(dir)?;
    Ok(Epoch {
        id,
        scenario: snap.scenario,
        validate_text: snap.validate_text,
        validate_exit: snap.validate_exit,
        load_ms: started.elapsed().as_millis() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_core::scenario::write_paper_example;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("obx-serve-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn boot_epoch_captures_validation() {
        let dir = scratch_dir("boot");
        write_paper_example(&dir).unwrap();
        let epoch = load_epoch(&dir, 1).unwrap();
        assert_eq!(epoch.id, 1);
        // The paper example validates warning-only (an unused source
        // relation), exit 2 — captured verbatim at load time.
        assert_eq!(epoch.validate_exit, 2);
        assert!(
            epoch.validate_text.contains("0 error(s)"),
            "{}",
            epoch.validate_text
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_refuses_a_broken_directory() {
        let dir = scratch_dir("broken");
        // Empty dir: no scenario files at all.
        assert!(load_epoch(&dir, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
