//! Multi-tenant scenario hosting: the [`TenantStore`].
//!
//! One `obx serve` process hosts many named scenario directories
//! (*tenants*). Each tenant owns its own epoch chain — and therefore its
//! own `Interner` lifecycle: symbols never cross tenant boundaries — plus
//! the per-tenant robustness state:
//!
//! - **Quarantine** — a tenant whose directory no longer loads (e.g. a
//!   journal-recovered mount that was corrupted while the server was
//!   down) is kept *listed* but serves nothing: requests get a structured
//!   `OBX327` instead of the whole process refusing to boot. A later
//!   successful `/reload` lifts the quarantine.
//! - **Circuit breaker** — a tenant whose requests repeatedly panic
//!   (`OBX323`) or burn the full server time ceiling trips open: further
//!   requests shed immediately (`OBX325`) until the open window elapses,
//!   then a single half-open probe readmits traffic on success.
//! - **Reload backoff** — a tenant whose reloads keep failing backs off
//!   exponentially (`OBX328`) instead of hammering the disk.
//!
//! The mount set is **crash-safe**: when a journal path is configured,
//! every mount is recorded in a checksummed journal written via a
//! tmp-file and atomic rename, replayed at boot — `kill -9` loses no
//! mounts.
//! Journal entries that fail their checksum are skipped (counted in
//! `serve/journal_bad_lines`); entries whose directory fails to load
//! come back quarantined, not fatal.

use crate::snapshot::{load_epoch, Epoch};
use obx_util::hash::crc32;
use obx_util::obs;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// First line of every journal file; anything else is treated as a
/// corrupt journal (replayed as empty, never a boot failure).
const JOURNAL_HEADER: &str = "obx-tenants v1";

/// Per-tenant robustness knobs, shared by every tenant of one store.
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Consecutive request failures (panic / ceiling timeout) that trip
    /// the breaker open.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before a half-open probe.
    pub breaker_open_ms: u64,
    /// Base backoff after a failed reload (doubles per consecutive
    /// failure).
    pub reload_backoff_ms: u64,
    /// Backoff ceiling.
    pub reload_backoff_max_ms: u64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            breaker_threshold: 5,
            breaker_open_ms: 2_000,
            reload_backoff_ms: 500,
            reload_backoff_max_ms: 30_000,
        }
    }
}

/// A tenant's externally visible condition, in decreasing severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantStatus {
    /// No serveable snapshot: requests get `OBX327`.
    Quarantined,
    /// The circuit breaker is open (or probing): requests get `OBX325`.
    BreakerOpen,
    /// Serving, but the snapshot validated with warnings (exit 2).
    Degraded,
    /// Serving a clean snapshot.
    Serving,
}

impl fmt::Display for TenantStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantStatus::Quarantined => write!(f, "quarantined"),
            TenantStatus::BreakerOpen => write!(f, "breaker-open"),
            TenantStatus::Degraded => write!(f, "degraded"),
            TenantStatus::Serving => write!(f, "serving"),
        }
    }
}

/// Why a reload was refused or failed.
#[derive(Debug)]
pub enum ReloadError {
    /// Previous reloads failed; the tenant refuses to touch the disk
    /// again for the given duration (`OBX328`).
    BackingOff(Duration),
    /// The directory did not load; the current epoch (or quarantine)
    /// stays in place, and the *next* attempt backs off by the given
    /// duration (`OBX316`).
    Failed {
        /// The loader's diagnostics.
        msg: String,
        /// Backoff imposed on the next attempt.
        backoff: Duration,
    },
}

/// The breaker state machine. Failures are *consecutive*: any success
/// resets the count.
#[derive(Debug)]
enum BreakerState {
    Closed { fails: u32 },
    Open { until: Instant },
    HalfOpen { probing: bool },
}

/// Proof that the breaker admitted a request; returned to
/// [`Tenant::breaker_record`] so probe outcomes are attributed correctly.
#[derive(Debug)]
pub struct BreakerPass {
    probe: bool,
}

struct TenantCtl {
    breaker: BreakerState,
    reload_fails: u32,
    next_reload_at: Option<Instant>,
    /// Why the tenant serves nothing (set while `current` is `None`).
    quarantine: Option<String>,
}

/// One mounted scenario: its epoch chain plus robustness state. Shared
/// by `Arc`; all interior state is independently locked, so no tenant
/// operation ever blocks another tenant.
pub struct Tenant {
    name: String,
    dir: PathBuf,
    /// `None` = quarantined (no serveable snapshot).
    current: RwLock<Option<Arc<Epoch>>>,
    next_id: AtomicU64,
    /// Serializes reloads: two concurrent `/reload`s must not interleave
    /// their (load → swap) sequences, or an older snapshot could replace
    /// a newer one.
    reload_lock: Mutex<()>,
    ctl: Mutex<TenantCtl>,
    cfg: TenantConfig,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("dir", &self.dir)
            .field("status", &self.status())
            .field("epoch", &self.epoch_id())
            .finish_non_exhaustive()
    }
}

fn lock_ctl<'a>(m: &'a Mutex<TenantCtl>) -> std::sync::MutexGuard<'a, TenantCtl> {
    match m.lock() {
        Ok(g) => g,
        // Panics are caught per request upstream; the ctl block holds no
        // invariants a poisoned write could have left half-done.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Records a successfully installed epoch in `/metrics`: cumulative
/// scenario load time and load count per tenant. The *latest* load time
/// (the gauge reading) lives on the epoch itself and is surfaced by
/// `GET /tenants`; the cumulative pair here makes reload-time regressions
/// visible as a rising `load_ms_total / loads` average.
fn record_epoch_load(name: &str, epoch: &Epoch) {
    obs::counter_dyn(&format!("serve/tenant/{name}/load_ms_total")).add(epoch.load_ms);
    obs::counter_dyn(&format!("serve/tenant/{name}/loads")).add(1);
}

impl Tenant {
    fn new(name: String, dir: PathBuf, boot: Option<Arc<Epoch>>, cfg: TenantConfig) -> Self {
        if let Some(epoch) = &boot {
            record_epoch_load(&name, epoch);
        }
        let next = boot.as_ref().map_or(1, |e| e.id) + 1;
        Self {
            name,
            dir,
            current: RwLock::new(boot),
            next_id: AtomicU64::new(next),
            reload_lock: Mutex::new(()),
            ctl: Mutex::new(TenantCtl {
                breaker: BreakerState::Closed { fails: 0 },
                reload_fails: 0,
                next_reload_at: None,
                quarantine: None,
            }),
            cfg,
        }
    }

    /// The tenant's mount name (the wire `scenario` value).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario directory this tenant serves.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pins the current epoch, or `None` while quarantined. The returned
    /// `Arc` keeps the snapshot alive for as long as the caller holds it,
    /// reloads notwithstanding.
    pub fn current(&self) -> Option<Arc<Epoch>> {
        match self.current.read() {
            Ok(guard) => guard.clone(),
            // A poisoned lock only means a panic elsewhere while holding
            // it; the data (a swap-only pointer) is still consistent.
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The current epoch id (0 while quarantined).
    pub fn epoch_id(&self) -> u64 {
        self.current().map_or(0, |e| e.id)
    }

    /// Load time (ms) of the currently served epoch — the per-tenant
    /// load-time gauge. `None` while quarantined.
    pub fn load_ms(&self) -> Option<u64> {
        self.current().map(|e| e.load_ms)
    }

    /// Heap bytes of the current epoch's shared prepare (0 until its
    /// first complete explain). `None` while quarantined.
    pub fn prepared_bytes(&self) -> Option<usize> {
        self.current().map(|e| e.prepared.bytes())
    }

    /// Why the tenant is quarantined, when it is.
    pub fn quarantine_reason(&self) -> Option<String> {
        lock_ctl(&self.ctl).quarantine.clone()
    }

    /// The tenant's externally visible condition.
    pub fn status(&self) -> TenantStatus {
        let current = self.current();
        let ctl = lock_ctl(&self.ctl);
        if current.is_none() {
            return TenantStatus::Quarantined;
        }
        match ctl.breaker {
            BreakerState::Open { .. } | BreakerState::HalfOpen { .. } => TenantStatus::BreakerOpen,
            BreakerState::Closed { .. } => match current.map(|e| e.validate_exit) {
                Some(2) => TenantStatus::Degraded,
                _ => TenantStatus::Serving,
            },
        }
    }

    /// Re-reads the directory into a fresh epoch and swaps it in,
    /// lifting any quarantine and closing the breaker. On a load error
    /// the current epoch (or quarantine) stays untouched and the next
    /// attempt backs off exponentially — a bad reload can never take
    /// down a healthy tenant, and a *flapping* one cannot hammer the
    /// disk.
    pub fn reload(&self) -> Result<Arc<Epoch>, ReloadError> {
        {
            let ctl = lock_ctl(&self.ctl);
            if let Some(at) = ctl.next_reload_at {
                let now = Instant::now();
                if now < at {
                    return Err(ReloadError::BackingOff(at - now));
                }
            }
        }
        let _serialize = match self.reload_lock.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        match load_epoch(&self.dir, id) {
            Ok(epoch) => {
                let epoch = Arc::new(epoch);
                record_epoch_load(&self.name, &epoch);
                match self.current.write() {
                    Ok(mut guard) => *guard = Some(Arc::clone(&epoch)),
                    Err(poisoned) => *poisoned.into_inner() = Some(Arc::clone(&epoch)),
                }
                let mut ctl = lock_ctl(&self.ctl);
                ctl.quarantine = None;
                ctl.reload_fails = 0;
                ctl.next_reload_at = None;
                ctl.breaker = BreakerState::Closed { fails: 0 };
                Ok(epoch)
            }
            Err(msg) => {
                let mut ctl = lock_ctl(&self.ctl);
                ctl.reload_fails = ctl.reload_fails.saturating_add(1);
                let backoff = Duration::from_millis(
                    self.cfg
                        .reload_backoff_ms
                        .saturating_mul(1u64 << (ctl.reload_fails - 1).min(16))
                        .min(self.cfg.reload_backoff_max_ms),
                );
                ctl.next_reload_at = Some(Instant::now() + backoff);
                Err(ReloadError::Failed { msg, backoff })
            }
        }
    }

    /// Asks the breaker whether a request may proceed. `Err(retry_in)`
    /// means shed with `OBX325`; `Ok` passes are handed back to
    /// [`breaker_record`](Self::breaker_record) with the outcome. While
    /// half-open, exactly one probe is admitted at a time.
    pub fn breaker_admit(&self) -> Result<BreakerPass, Duration> {
        let mut ctl = lock_ctl(&self.ctl);
        match ctl.breaker {
            BreakerState::Closed { .. } => Ok(BreakerPass { probe: false }),
            BreakerState::Open { until } => {
                let now = Instant::now();
                if now < until {
                    Err(until - now)
                } else {
                    ctl.breaker = BreakerState::HalfOpen { probing: true };
                    Ok(BreakerPass { probe: true })
                }
            }
            BreakerState::HalfOpen { probing: false } => {
                ctl.breaker = BreakerState::HalfOpen { probing: true };
                Ok(BreakerPass { probe: true })
            }
            BreakerState::HalfOpen { probing: true } => {
                // A probe is already out; shed briefly rather than racing it.
                Err(Duration::from_millis(self.cfg.breaker_open_ms.max(2) / 2))
            }
        }
    }

    /// Returns an unused pass without recording an outcome — for
    /// requests shed *after* breaker admission (by the bulkhead gate).
    /// Hands a probe slot back so one shed probe cannot wedge the
    /// breaker half-open forever.
    pub fn breaker_abort(&self, pass: BreakerPass) {
        if !pass.probe {
            return;
        }
        let mut ctl = lock_ctl(&self.ctl);
        if let BreakerState::HalfOpen { probing: true } = ctl.breaker {
            ctl.breaker = BreakerState::HalfOpen { probing: false };
        }
    }

    /// Reports a request outcome to the breaker. A failure is a panic or
    /// a full-ceiling timeout (the caller decides); `failed` probes
    /// re-open the breaker for a fresh window, successful probes close
    /// it.
    pub fn breaker_record(&self, pass: BreakerPass, failed: bool) {
        let mut ctl = lock_ctl(&self.ctl);
        if failed {
            match ctl.breaker {
                BreakerState::Closed { fails } => {
                    let fails = fails + 1;
                    if fails >= self.cfg.breaker_threshold {
                        ctl.breaker = BreakerState::Open {
                            until: Instant::now() + Duration::from_millis(self.cfg.breaker_open_ms),
                        };
                        obs::counter_dyn(&format!("serve/tenant/{}/breaker_open", self.name))
                            .add(1);
                    } else {
                        ctl.breaker = BreakerState::Closed { fails };
                    }
                }
                BreakerState::HalfOpen { .. } if pass.probe => {
                    // The probe failed: straight back to open.
                    ctl.breaker = BreakerState::Open {
                        until: Instant::now() + Duration::from_millis(self.cfg.breaker_open_ms),
                    };
                    obs::counter_dyn(&format!("serve/tenant/{}/breaker_open", self.name)).add(1);
                }
                // Late results from before a trip carry no information.
                BreakerState::Open { .. } | BreakerState::HalfOpen { .. } => {}
            }
        } else {
            match ctl.breaker {
                BreakerState::Closed { .. } => ctl.breaker = BreakerState::Closed { fails: 0 },
                BreakerState::HalfOpen { .. } if pass.probe => {
                    ctl.breaker = BreakerState::Closed { fails: 0 };
                }
                BreakerState::Open { .. } | BreakerState::HalfOpen { .. } => {}
            }
        }
    }
}

/// A mount name is a wire identifier and a journal field: short, no
/// whitespace, no separators.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// The process-wide registry of mounted tenants plus the crash-safe
/// journal that lets a restarted server recover them.
#[derive(Debug)]
pub struct TenantStore {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    journal: Option<PathBuf>,
    /// Serializes journal rewrites (mounts are rare; a whole-file rewrite
    /// through a tmp file + atomic rename keeps the format trivially
    /// recoverable).
    journal_lock: Mutex<()>,
    cfg: TenantConfig,
}

impl TenantStore {
    /// Boots a store from explicit `mounts` plus (optionally) a journal.
    ///
    /// Boot semantics are deliberately asymmetric: an *explicitly*
    /// requested mount that fails refuses the boot (the operator asked
    /// for exactly this directory; silently skipping it would serve a
    /// lie), while a *journal-replayed* mount that fails comes back
    /// quarantined — after a crash the server must come up and say what
    /// is broken, not refuse to start because one tenant rotted.
    pub fn open(
        mounts: &[(String, PathBuf)],
        journal: Option<PathBuf>,
        cfg: TenantConfig,
    ) -> Result<Self, String> {
        let store = Self {
            tenants: RwLock::new(BTreeMap::new()),
            journal,
            journal_lock: Mutex::new(()),
            cfg,
        };
        for (name, dir) in mounts {
            if !valid_tenant_name(name) {
                return Err(format!(
                    "invalid scenario name `{name}` (use [A-Za-z0-9._-], at most 64 chars)"
                ));
            }
            let epoch = load_epoch(dir, 1).map_err(|e| format!("mount `{name}`: {e}"))?;
            store.insert(Tenant::new(
                name.clone(),
                dir.clone(),
                Some(Arc::new(epoch)),
                cfg,
            ))?;
        }
        if let Some(path) = store.journal.clone() {
            for (name, dir) in read_journal(&path) {
                if store.get(&name).is_some() {
                    continue; // explicit mount wins
                }
                let tenant = match load_epoch(&dir, 1) {
                    Ok(epoch) => Tenant::new(name, dir, Some(Arc::new(epoch)), cfg),
                    Err(msg) => {
                        obs::counter("serve/journal_quarantined").add(1);
                        let t = Tenant::new(name, dir, None, cfg);
                        lock_ctl(&t.ctl).quarantine = Some(msg);
                        t
                    }
                };
                store.insert(tenant)?;
            }
            store.write_journal()?;
        }
        Ok(store)
    }

    fn insert(&self, tenant: Tenant) -> Result<Arc<Tenant>, String> {
        let mut map = match self.tenants.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if map.contains_key(tenant.name()) {
            return Err(format!("scenario `{}` is already mounted", tenant.name()));
        }
        let tenant = Arc::new(tenant);
        map.insert(tenant.name().to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Mounts a new tenant at runtime: the directory must load (a broken
    /// runtime mount is rejected, *not* journaled), then the journal is
    /// rewritten so the mount survives a crash.
    pub fn mount(&self, name: &str, dir: &Path) -> Result<Arc<Tenant>, String> {
        if !valid_tenant_name(name) {
            return Err(format!(
                "invalid scenario name `{name}` (use [A-Za-z0-9._-], at most 64 chars)"
            ));
        }
        let dir_text = dir.to_string_lossy();
        if dir_text.contains('\t') || dir_text.contains('\n') {
            return Err("scenario directory paths may not contain tabs or newlines".to_owned());
        }
        let epoch = load_epoch(dir, 1).map_err(|e| format!("mount `{name}`: {e}"))?;
        let tenant = self.insert(Tenant::new(
            name.to_owned(),
            dir.to_path_buf(),
            Some(Arc::new(epoch)),
            self.cfg,
        ))?;
        self.write_journal()?;
        obs::counter("serve/mounts").add(1);
        Ok(tenant)
    }

    /// Looks up a tenant by name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        let map = match self.tenants.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.get(name).cloned()
    }

    /// Every mounted tenant, in name order.
    pub fn list(&self) -> Vec<Arc<Tenant>> {
        let map = match self.tenants.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.values().cloned().collect()
    }

    /// Number of mounted tenants.
    pub fn len(&self) -> usize {
        let map = match self.tenants.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.len()
    }

    /// Whether no tenant is mounted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves the wire `scenario` field to a tenant. A request that
    /// names no scenario routes to the sole tenant when exactly one is
    /// mounted (the single-tenant server needs no addressing); otherwise
    /// the name is required.
    pub fn resolve(&self, scenario: Option<&str>) -> Result<Arc<Tenant>, String> {
        match scenario {
            Some(name) => self
                .get(name)
                .ok_or_else(|| format!("no scenario named `{name}` is mounted")),
            None => {
                let all = self.list();
                match all.len() {
                    1 => all.into_iter().next().ok_or_else(|| {
                        "no scenario is mounted".to_owned() // unreachable
                    }),
                    0 => Err("no scenario is mounted".to_owned()),
                    n => Err(format!(
                        "{n} scenarios are mounted; the request must name one via `scenario`"
                    )),
                }
            }
        }
    }

    /// Rewrites the journal to the current mount set: tmp file, flush +
    /// fsync, atomic rename. Readers therefore see either the previous
    /// complete journal or the new complete journal, never a torn write.
    pub fn write_journal(&self) -> Result<(), String> {
        let Some(path) = &self.journal else {
            return Ok(());
        };
        let _serialize = match self.journal_lock.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut text = String::from(JOURNAL_HEADER);
        text.push('\n');
        for tenant in self.list() {
            let dir = tenant.dir().to_string_lossy();
            let payload = format!("{}\t{}", tenant.name(), dir);
            text.push_str(&format!("{:08x}\t{payload}\n", crc32(payload.as_bytes())));
        }
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| format!("journal: cannot create {}: {e}", tmp.display()))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("journal: cannot write {}: {e}", tmp.display()))?;
        drop(file);
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("journal: cannot publish {}: {e}", path.display()))?;
        obs::counter("serve/journal_writes").add(1);
        Ok(())
    }
}

/// Reads a journal, skipping anything that does not verify. A missing,
/// truncated, or header-less file yields an empty mount list — recovery
/// degrades, it never refuses.
fn read_journal(path: &Path) -> Vec<(String, PathBuf)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    if lines.next() != Some(JOURNAL_HEADER) {
        obs::counter("serve/journal_bad_lines").add(1);
        return Vec::new();
    }
    let mut out = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(crc_text), Some(name), Some(dir)) = (parts.next(), parts.next(), parts.next())
        else {
            obs::counter("serve/journal_bad_lines").add(1);
            continue;
        };
        let payload = format!("{name}\t{dir}");
        let ok = u32::from_str_radix(crc_text, 16)
            .map(|crc| crc == crc32(payload.as_bytes()))
            .unwrap_or(false);
        if !ok || !valid_tenant_name(name) {
            obs::counter("serve/journal_bad_lines").add(1);
            continue;
        }
        out.push((name.to_owned(), PathBuf::from(dir)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_core::scenario::write_paper_example;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("obx-serve-tenants-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn scenario_dir(tag: &str) -> PathBuf {
        let dir = scratch_dir(tag);
        write_paper_example(&dir).unwrap();
        dir
    }

    fn fast_cfg() -> TenantConfig {
        TenantConfig {
            breaker_threshold: 2,
            breaker_open_ms: 40,
            reload_backoff_ms: 50,
            reload_backoff_max_ms: 400,
        }
    }

    #[test]
    fn open_refuses_a_broken_explicit_mount() {
        let dir = scratch_dir("broken-mount"); // empty: not a scenario
        let err = TenantStore::open(
            &[("bad".to_owned(), dir.clone())],
            None,
            TenantConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("mount `bad`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_bumps_the_id_and_failed_reloads_keep_current_and_burn_ids() {
        let dir = scenario_dir("reload");
        let store = TenantStore::open(
            &[("t".to_owned(), dir.clone())],
            None,
            TenantConfig::default(),
        )
        .unwrap();
        let tenant = store.get("t").unwrap();
        let pinned = tenant.current().unwrap();
        assert_eq!(pinned.id, 1);
        assert_eq!(tenant.reload().unwrap().id, 2);
        // Old pins survive the swap.
        assert_eq!(pinned.validate_exit, 2);
        // Corrupt the directory: the reload fails, epoch 2 keeps serving.
        std::fs::write(dir.join("ontology.obx"), "role r\nr << s\n").unwrap();
        match tenant.reload().unwrap_err() {
            ReloadError::Failed { msg, .. } => assert!(!msg.is_empty()),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(tenant.epoch_id(), 2, "current epoch must be untouched");
        // Backoff: an immediate retry is refused without touching disk.
        match tenant.reload().unwrap_err() {
            ReloadError::BackingOff(d) => assert!(d > Duration::ZERO),
            other => panic!("expected BackingOff, got {other:?}"),
        }
        // After the backoff window a repaired directory reloads — and the
        // failed attempt burned id 3.
        std::thread::sleep(Duration::from_millis(600));
        write_paper_example(&dir).unwrap();
        assert_eq!(tenant.reload().unwrap().id, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_open_probe_recloses() {
        let dir = scenario_dir("breaker");
        let store = TenantStore::open(&[("t".to_owned(), dir.clone())], None, fast_cfg()).unwrap();
        let tenant = store.get("t").unwrap();
        // Two consecutive failures (threshold 2) trip it open.
        for _ in 0..2 {
            let pass = tenant.breaker_admit().unwrap();
            tenant.breaker_record(pass, true);
        }
        assert_eq!(tenant.status(), TenantStatus::BreakerOpen);
        let retry_in = tenant.breaker_admit().unwrap_err();
        assert!(retry_in > Duration::ZERO);
        // After the open window one probe is admitted; concurrent
        // requests still shed until it reports back.
        std::thread::sleep(Duration::from_millis(60));
        let probe = tenant.breaker_admit().unwrap();
        assert!(tenant.breaker_admit().is_err(), "only one probe at a time");
        tenant.breaker_record(probe, false);
        assert_ne!(tenant.status(), TenantStatus::BreakerOpen);
        // A failure now counts from zero again (success reset the chain).
        let pass = tenant.breaker_admit().unwrap();
        tenant.breaker_record(pass, true);
        assert_ne!(tenant.status(), TenantStatus::BreakerOpen);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let dir = scenario_dir("probe-fail");
        let store = TenantStore::open(&[("t".to_owned(), dir.clone())], None, fast_cfg()).unwrap();
        let tenant = store.get("t").unwrap();
        for _ in 0..2 {
            let pass = tenant.breaker_admit().unwrap();
            tenant.breaker_record(pass, true);
        }
        std::thread::sleep(Duration::from_millis(60));
        let probe = tenant.breaker_admit().unwrap();
        tenant.breaker_record(probe, true);
        assert_eq!(tenant.status(), TenantStatus::BreakerOpen);
        assert!(tenant.breaker_admit().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_round_trips_and_quarantines_rotten_entries() {
        let a = scenario_dir("journal-a");
        let b = scenario_dir("journal-b");
        let journal = scratch_dir("journal-file").join("tenants.journal");
        {
            let store = TenantStore::open(
                &[("a".to_owned(), a.clone()), ("b".to_owned(), b.clone())],
                Some(journal.clone()),
                TenantConfig::default(),
            )
            .unwrap();
            assert_eq!(store.len(), 2);
        }
        // Rot tenant b while "the server is down", then boot from the
        // journal alone: a serves, b is quarantined — never a boot failure.
        std::fs::write(b.join("ontology.obx"), "role r\nr << s\n").unwrap();
        let store = TenantStore::open(&[], Some(journal.clone()), TenantConfig::default()).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().status(), TenantStatus::Degraded);
        let bt = store.get("b").unwrap();
        assert_eq!(bt.status(), TenantStatus::Quarantined);
        assert!(bt.quarantine_reason().is_some());
        // Repair + reload lifts the quarantine.
        write_paper_example(&b).unwrap();
        bt.reload().unwrap();
        assert_ne!(bt.status(), TenantStatus::Quarantined);
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
    }

    #[test]
    fn corrupt_journal_lines_are_skipped_not_fatal() {
        let a = scenario_dir("journal-corrupt-a");
        let dir = scratch_dir("journal-corrupt");
        let journal = dir.join("tenants.journal");
        let good = format!("a\t{}", a.display());
        std::fs::write(
            &journal,
            format!(
                "{JOURNAL_HEADER}\n{:08x}\t{good}\ndeadbeef\tghost\t/nope\nnot a line\n",
                crc32(good.as_bytes())
            ),
        )
        .unwrap();
        let store = TenantStore::open(&[], Some(journal.clone()), TenantConfig::default()).unwrap();
        assert_eq!(store.len(), 1, "only the checksummed line survives");
        assert!(store.get("a").is_some());
        // A garbage header (e.g. truncated to binary junk) degrades to an
        // empty journal, still not a boot failure.
        std::fs::write(&journal, "\u{0}\u{1}garbage").unwrap();
        let store = TenantStore::open(&[], Some(journal), TenantConfig::default()).unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_routes_the_sole_tenant_and_rejects_unknown_names() {
        let a = scenario_dir("resolve-a");
        let store = TenantStore::open(
            &[("solo".to_owned(), a.clone())],
            None,
            TenantConfig::default(),
        )
        .unwrap();
        assert_eq!(store.resolve(None).unwrap().name(), "solo");
        assert_eq!(store.resolve(Some("solo")).unwrap().name(), "solo");
        assert!(store.resolve(Some("ghost")).is_err());
        // With a second tenant, anonymous routing becomes ambiguous.
        let b = scenario_dir("resolve-b");
        store.mount("duo", &b).unwrap();
        let err = store.resolve(None).unwrap_err();
        assert!(err.contains("must name one"), "{err}");
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn mount_validates_names_and_rejects_duplicates() {
        let a = scenario_dir("mount-a");
        let store = TenantStore::open(
            &[("a".to_owned(), a.clone())],
            None,
            TenantConfig::default(),
        )
        .unwrap();
        assert!(store.mount("bad name", &a).is_err());
        assert!(store.mount("", &a).is_err());
        let err = store.mount("a", &a).unwrap_err();
        assert!(err.contains("already mounted"), "{err}");
        let _ = std::fs::remove_dir_all(&a);
    }
}
