//! The workloads: which scenario is mounted, which requests the
//! closed-loop clients send, and how many.
//!
//! Every scenario is generated from the run's seed and written to disk
//! as a user-authored directory would be; the server only ever sees
//! that directory. Requests carry deterministic caps only (never
//! `timeout_ms`), so a run does the same work whatever the host's speed
//! and every served body can be checked against an in-process oracle.

use obx_core::scenario::write_scenario_dir;
use obx_datagen::{skewed_scenario, university_scenario, Scenario, SkewedParams, UniversityParams};
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 2] = ["uni-search", "hub-border"];

/// One mounted scenario and the requests the clients send to it.
pub struct Workload {
    pub name: &'static str,
    /// The tenant the scenario is mounted as; every request names it.
    pub tenant: &'static str,
    pub dir: PathBuf,
    /// The set-up phase's warm-up request: a single-atom search, so
    /// `setup_s` is mostly the mount and the borders, not the search.
    pub warmup: String,
    /// The load phase's requests, in cycle order.
    pub bodies: Vec<String>,
    /// Planned explains per second of `--seconds` on the reference host
    /// (see `README.md`). The run's explain count is fixed from it
    /// before the run starts, so it never depends on how fast this run
    /// happens to be.
    pub rate: f64,
}

impl Workload {
    /// The explains the load phase sends: whole request cycles, at
    /// least one.
    pub fn explains(&self, seconds: u64) -> usize {
        let cycle = self.bodies.len();
        let cycles = (seconds as f64 * self.rate / cycle as f64).round() as usize;
        cycles.max(1) * cycle
    }
}

/// An `/explain` body. `fields` is the request proper; `scenario` and
/// `client` only route it and do not change the response.
fn body(tenant: &str, fields: &str) -> String {
    format!(r#"{{"scenario": "{tenant}", "client": "{tenant}", "top": 3, {fields}}}"#)
}

fn write(dir: &Path, scenario: &Scenario) {
    write_scenario_dir(dir, &scenario.system, &scenario.labels)
        .unwrap_or_else(|e| panic!("write scenario to {}: {e}", dir.display()));
}

/// Generates the workload's scenario directory under `work` from
/// `seed`. Returns `None` for an unknown workload name.
pub fn build(name: &str, seed: u64, work: &Path) -> Option<Workload> {
    let workload =
        |name: &'static str, tenant: &'static str, warmup: &str, bodies: &[&str], rate| Workload {
            name,
            tenant,
            dir: work.join(tenant),
            warmup: body(tenant, warmup),
            bodies: bodies.iter().map(|f| body(tenant, f)).collect(),
            rate,
        };
    let w = match name {
        // Search-bound: radius-1 borders on a uniform 600-student
        // university are cheap and shared by every request, so ~95% of
        // a request is strategy, engine, rewriting and join evaluation.
        // The slow complete-mode beam is one fifth of the cycle, and a
        // run holds 20 cycles: the median falls inside the fast cluster,
        // and the tail, the eleventh-slowest of 100 explains, in the
        // middle of the 20 slow ones rather than at either edge.
        "uni-search" => {
            let w = workload(
                "uni-search",
                "uni",
                r#""radius": 1, "strategy": "beam", "max_atoms": 1"#,
                &[
                    r#""radius": 1, "strategy": "beam", "mode": "fscore""#,
                    r#""radius": 1, "strategy": "beam", "mode": "sound""#,
                    r#""radius": 1, "strategy": "greedy", "mode": "fscore""#,
                    r#""radius": 1, "strategy": "greedy", "mode": "sound""#,
                    r#""radius": 1, "strategy": "beam", "mode": "complete", "beam_width": 6"#,
                ],
                2.2,
            );
            write(
                &w.dir,
                &university_scenario(UniversityParams {
                    n_students: 600,
                    seed,
                    ..UniversityParams::default()
                }),
            );
            w
        }
        // Border-bound: radius-2 borders around Zipf hub constants, and
        // the relevant-constant tally over them, are ~90% of a request;
        // single-atom candidates keep the engine at a few percent. The
        // mirror image of `uni-search`.
        "hub-border" => {
            let w = workload(
                "hub-border",
                "hub",
                r#""radius": 2, "strategy": "beam", "max_atoms": 1"#,
                &[
                    r#""radius": 2, "strategy": "beam", "mode": "fscore", "max_atoms": 1"#,
                    r#""radius": 2, "strategy": "beam", "mode": "sound", "max_atoms": 1"#,
                ],
                2.2,
            );
            write(
                &w.dir,
                &skewed_scenario(SkewedParams {
                    n_students: 2000,
                    n_subjects: 16,
                    n_universities: 20,
                    alpha: 1.5,
                    seed,
                    ..SkewedParams::default()
                }),
            );
            w
        }
        _ => return None,
    };
    Some(w)
}
