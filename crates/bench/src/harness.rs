//! The one bench harness: best-of timing and the one bench-file writer.
//!
//! Every `BENCH_*.json` bin times its repetitions through [`Best`] and
//! writes its file through [`Report`], so best-of-N, drift checks, host
//! facts (the host-speed [`kernel_us`] reading among them) and the file
//! location are decided here once. [`ranked`] is the search output the
//! drift and identity asserts compare.

use obx_core::explain::{ExplainReport, Explanation};
use obx_core::matcher::MatchStats;
use obx_obdm::ObdmSystem;
use obx_util::PipelineProfile;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Slots of the host-speed kernel's table: a few hundred KiB, inside one
/// core's L2 cache, so the kernel measures the core and not the memory
/// bus.
const KERNEL_SLOTS: u64 = 1 << 14;
/// Table updates per kernel pass.
const KERNEL_OPS: u64 = 1 << 19;
/// Kernel probes a report takes when it opens, and again when it closes.
/// None is taken between timed repetitions: a probe right before a ~1 ms
/// repetition slowed it by about a quarter.
const KERNEL_PROBES: usize = 5;

/// Every host-speed kernel reading this process has taken:
/// [`KERNEL_PROBES`] when a [`Report`] opens and when it finishes.
static KERNEL_LOG: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// One reading of the host-speed kernel, in microseconds: on the calling
/// thread, as the engine scores a batch, a fixed number of counter
/// updates into a hash table with a fixed hasher, timed after one
/// untimed pass that brings the table into cache. The kernel is
/// bench-harness code, so a change to the program never moves it; on a
/// shared host it slows down with the program whenever a neighbour takes
/// the core the bench runs on. `obx-ci` divides a fresh bench file's wall
/// times by the ratio of its `host_kernel_us` to the baseline's, which
/// tells a slow host from a slow change.
pub fn kernel_us() -> f64 {
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KERNEL_SLOTS as usize, Default::default());
    let mut pass = || {
        for i in 0..KERNEL_OPS {
            let slot = i.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) % KERNEL_SLOTS;
            *table.entry(slot).or_insert(0u64) ^= i;
        }
        std::hint::black_box(table.len());
    };
    pass();
    let t0 = Instant::now();
    pass();
    t0.elapsed().as_secs_f64() * 1e6
}

/// The lower quartile of `readings` (the `len / 4`-th smallest), `NaN`
/// for none.
fn lower_quartile(mut readings: Vec<f64>) -> f64 {
    readings.sort_by(f64::total_cmp);
    readings
        .get(readings.len() / 4)
        .copied()
        .unwrap_or(f64::NAN)
}

/// Takes `n` kernel readings into the process's log.
fn probe_kernel(n: usize) {
    let readings: Vec<f64> = (0..n).map(|_| kernel_us()).collect();
    kernel_log().extend(readings);
}

fn kernel_log() -> std::sync::MutexGuard<'static, Vec<f64>> {
    KERNEL_LOG.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A best-of-N accumulator: keeps the repetition with the lowest wall
/// time. Every repetition after the first is drift-checked against the
/// kept one by the caller's `drift(kept, fresh)`, which panics when two
/// repetitions disagree on something deterministic (nodes, ranked
/// output, membership bits). To interleave sides (full vs incremental,
/// one per mode), keep one `Best` per side and time them in turn.
pub struct Best<T, F> {
    kept: Option<(f64, T)>,
    drift: F,
}

impl<T, F: FnMut(&T, &T)> Best<T, F> {
    /// An empty accumulator with drift check `drift`.
    pub fn new(drift: F) -> Self {
        Best { kept: None, drift }
    }

    /// `reps` timed repetitions of `f`, drift-checked by `drift`.
    pub fn of(reps: usize, drift: F, mut f: impl FnMut() -> T) -> Self {
        let mut best = Best::new(drift);
        for _ in 0..reps {
            best.time(&mut f);
        }
        best
    }

    /// Times one repetition of `f` and offers it.
    pub fn time(&mut self, f: impl FnOnce() -> T) {
        let t0 = Instant::now();
        let run = f();
        self.offer(t0.elapsed().as_secs_f64() * 1e3, run);
    }

    fn offer(&mut self, wall_ms: f64, run: T) {
        match &mut self.kept {
            None => self.kept = Some((wall_ms, run)),
            Some(kept) => {
                (self.drift)(&kept.1, &run);
                if wall_ms < kept.0 {
                    *kept = (wall_ms, run);
                }
            }
        }
    }

    fn kept(&self) -> &(f64, T) {
        self.kept.as_ref().expect("Best: no repetition was timed")
    }

    /// The kept repetition's wall time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.kept().0
    }

    /// The kept repetition's output.
    pub fn run(&self) -> &T {
        &self.kept().1
    }

    /// The kept repetition's output, by value.
    pub fn into_run(self) -> T {
        self.kept.expect("Best: no repetition was timed").1
    }
}

/// The ranked output of `report` — each explanation's rendered query,
/// score bits and match stats — for drift and identity asserts.
pub fn ranked(report: &ExplainReport, sys: &ObdmSystem) -> Vec<(String, u64, MatchStats)> {
    let row = |e: &Explanation| (e.render(sys), e.score.to_bits(), e.stats);
    report.explanations.iter().map(row).collect()
}

/// One bench file: an ordered list of top-level JSON fields, opened by
/// `"bench"` and the host facts. `*_ms` wall times are written to 3
/// decimals; every other real keeps the precision its caller names.
pub struct Report {
    fields: Vec<(String, String)>,
}

/// The key of the host-speed reading among the host facts.
const KERNEL_KEY: &str = "host_kernel_us";

impl Report {
    /// A report for bench `bench`, stamped with the host facts: `cores`
    /// (available parallelism) and `host_kernel_us`, the
    /// lower quartile of the run's [`kernel_us`] readings — probes taken
    /// now and by [`Report::finish`], around the timed repetitions. A
    /// bench keeps each side's fastest repetition, which lands in the
    /// host's faster moments, so the lower quartile is the reading it is
    /// compared with (the single fastest reading tracked the kept wall
    /// times worst).
    pub fn new(bench: &str) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut report = Report { fields: Vec::new() };
        report.str("bench", bench).count("cores", cores as u64);
        probe_kernel(KERNEL_PROBES);
        report.stamp_kernel();
        report
    }

    /// Stamps `host_kernel_us` with the lower quartile of the readings
    /// logged so far.
    fn stamp_kernel(&mut self) {
        let readings = kernel_log().clone();
        self.set_kernel(lower_quartile(readings));
    }

    /// Sets `host_kernel_us`, in place when it is already stamped.
    fn set_kernel(&mut self, us: f64) {
        let value = format!("{us:.1}");
        match self.fields.iter_mut().find(|(k, _)| k == KERNEL_KEY) {
            Some(field) => field.1 = value,
            None => self.fields.push((KERNEL_KEY.to_owned(), value)),
        }
    }

    fn push(&mut self, key: String, value: String) -> &mut Self {
        assert!(self.fields.iter().all(|(k, _)| *k != key), "{key}: twice");
        self.fields.push((key, value));
        self
    }

    /// A wall time in milliseconds; `key` must end in `_ms`.
    pub fn ms(&mut self, key: impl Into<String>, ms: f64) -> &mut Self {
        let key = key.into();
        assert!(key.ends_with("_ms"), "{key}: must end in _ms");
        self.push(key, format!("{ms:.3}"))
    }

    /// Any other real, to `decimals` places; `key` must not end in `_ms`.
    pub fn real(&mut self, key: impl Into<String>, value: f64, decimals: usize) -> &mut Self {
        let key = key.into();
        assert!(!key.ends_with("_ms"), "{key}: a wall time, use ms");
        self.push(key, format!("{value:.decimals$}"))
    }

    /// A count.
    pub fn count(&mut self, key: impl Into<String>, n: u64) -> &mut Self {
        self.push(key.into(), n.to_string())
    }

    /// A boolean.
    pub fn flag(&mut self, key: impl Into<String>, b: bool) -> &mut Self {
        self.push(key.into(), b.to_string())
    }

    /// A string, JSON-escaped.
    pub fn str(&mut self, key: impl Into<String>, s: &str) -> &mut Self {
        self.push(key.into(), format!("\"{}\"", obx_serve::json::escape(s)))
    }

    /// The run's pipeline profile, embedded as the `"profile"` object.
    pub fn profile(&mut self, profile: &PipelineProfile) -> &mut Self {
        self.push("profile".to_owned(), profile.to_json())
    }

    /// The report as one line of JSON.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", obx_serve::json::escape(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Takes the closing kernel probes, restamps `host_kernel_us`, prints
    /// the report to stdout and
    /// writes it to `BENCH_<file>.json` at the workspace root, naming the
    /// path on stderr.
    pub fn finish(&mut self, file: &str) {
        probe_kernel(KERNEL_PROBES);
        self.stamp_kernel();
        let json = self.render();
        println!("{json}");
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{file}.json"));
        std::fs::write(&path, format!("{json}\n"))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "wrote {}",
            std::fs::canonicalize(&path).unwrap_or(path).display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obx_serve::json::{parse, Json};

    #[test]
    fn best_keeps_the_fastest_run_and_drift_checks_every_repetition() {
        let mut checks = Vec::new();
        {
            let mut best = Best::new(|kept: &u32, fresh: &u32| checks.push((*kept, *fresh)));
            best.offer(30.0, 1);
            best.offer(10.0, 2);
            best.offer(20.0, 3);
            assert_eq!((best.ms(), *best.run()), (10.0, 2));
        }
        assert_eq!(
            checks,
            [(1, 2), (2, 3)],
            "one check per repetition after the first"
        );
    }

    #[test]
    #[should_panic(expected = "drifted")]
    fn a_drifting_repetition_panics() {
        let mut best = Best::new(|kept: &u32, fresh: &u32| assert_eq!(kept, fresh, "drifted"));
        best.offer(1.0, 7);
        best.offer(2.0, 8);
    }

    #[test]
    fn best_of_times_every_repetition() {
        let mut reps = 0;
        let best = Best::of(
            4,
            |_: &(), _: &()| {},
            || {
                reps += 1;
            },
        );
        assert!(best.ms() >= 0.0);
        assert_eq!(reps, 4);
    }

    fn sample() -> Report {
        let mut r = Report::new("test");
        r.ms("a_ms", 1.23456)
            .real("rate", 0.5, 4)
            .count("n", 42)
            .flag("ok", true)
            .str("note", "say \"hi\"\nbye")
            .profile(&PipelineProfile::default());
        r
    }

    #[test]
    fn report_parses_in_order_with_host_facts_and_escaped_strings() {
        let json = sample().render();
        let Json::Obj(obj) = parse(&json).expect("report is valid JSON") else {
            panic!("report is not an object: {json}");
        };
        assert_eq!(obj["bench"], Json::Str("test".to_owned()));
        assert_eq!(obj["note"], Json::Str("say \"hi\"\nbye".to_owned()));
        assert_eq!(obj["ok"], Json::Bool(true));
        assert_eq!(obj["n"], Json::Num(42.0));
        assert!(matches!(obj["profile"], Json::Obj(_)));
        for fact in ["cores", "host_kernel_us"] {
            assert!(
                matches!(obj[fact], Json::Num(_)),
                "missing host fact {fact}"
            );
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(obj["cores"], Json::Num(cores as f64));
        let order = [
            "bench",
            "cores",
            "host_kernel_us",
            "a_ms",
            "rate",
            "n",
            "ok",
            "note",
            "profile",
        ];
        let at: Vec<usize> = order
            .iter()
            .map(|k| json.find(&format!("\"{k}\":")).expect("key present"))
            .collect();
        assert!(
            at.windows(2).all(|w| w[0] < w[1]),
            "insertion order: {json}"
        );
    }

    #[test]
    fn wall_times_have_three_decimals_and_other_reals_their_own() {
        let json = sample().render();
        assert!(json.contains("\"a_ms\":1.235,"), "{json}");
        assert!(json.contains("\"rate\":0.5000,"), "{json}");
        let mut r = Report::new("test");
        r.ms("b_ms", 7.0);
        assert!(r.render().ends_with("\"b_ms\":7.000}"));
    }

    #[test]
    fn the_kernel_reading_is_the_lower_quartile() {
        assert!(lower_quartile(Vec::new()).is_nan());
        assert_eq!(lower_quartile(vec![9.0]), 9.0);
        assert_eq!(lower_quartile(vec![4.0, 1.0, 3.0]), 1.0);
        assert_eq!(
            lower_quartile(vec![8.0, 2.0, 7.0, 5.0, 1.0, 6.0, 4.0, 3.0]),
            3.0
        );
    }

    #[test]
    fn the_kernel_reading_is_stamped_once_and_restamped_in_place() {
        let mut r = Report::new("test");
        let stamped = |r: &Report| -> Vec<String> {
            r.fields
                .iter()
                .filter(|(k, _)| k == KERNEL_KEY)
                .map(|(_, v)| v.clone())
                .collect()
        };
        let first: f64 = stamped(&r)[0].parse().expect("a number");
        assert!(first > 0.0 && first.is_finite());
        r.set_kernel(12.34);
        assert_eq!(stamped(&r), ["12.3"], "restamped, not pushed twice");
    }

    #[test]
    #[should_panic(expected = "wall: must end in _ms")]
    fn ms_rejects_a_key_without_the_suffix() {
        Report::new("test").ms("wall", 1.0);
    }

    #[test]
    #[should_panic(expected = "n: twice")]
    fn a_key_cannot_be_written_twice() {
        Report::new("test").count("n", 1).count("n", 2);
    }
}
