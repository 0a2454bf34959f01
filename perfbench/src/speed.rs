//! Host speed: a fixed reference kernel, timed before every server start
//! and every explain, that puts a run's end-to-end times at the
//! reference host's speed.
//!
//! The benchmark host is shared. Its neighbours slow the program by up
//! to 2× for stretches from seconds to many minutes, so the same code
//! measured minutes apart reads up to twice as slow (see `README.md`,
//! "Host speed"). The kernel, upserts into a hash table that fits a
//! core's L2 cache, slows with the program at the same moments. A run's
//! slowdown is the median of its kernel times over [`REFERENCE_MS`],
//! and every end-to-end time is divided by it. The kernel is the
//! benchmark's own code: a change to the program never moves it.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Distinct keys of the kernel's table: ~1 MiB of buckets, inside a
/// core's 2 MiB L2 cache.
const KEYS: u64 = 1 << 15;
/// Upserts of the untimed pass that brings the table back into cache.
const WARM_OPS: u64 = 1 << 18;
/// Upserts of the timed pass.
const OPS: u64 = 1 << 20;

/// The kernel's time, in milliseconds, on the reference host (2 vCPUs)
/// in a quiet stretch: the median probe time of six uni-search runs.
pub const REFERENCE_MS: f64 = 13.8;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The reference kernel; one per thread that probes.
pub struct Kernel {
    table: Table,
}

impl Kernel {
    /// Allocates the table once, so no probe pays for page faults.
    pub fn new() -> Self {
        Self {
            table: Table::with_capacity_and_hasher(KEYS as usize, Default::default()),
        }
    }

    /// Runs the kernel and returns the timed pass's milliseconds. The
    /// table is emptied first and a fixed hasher fixes its layout, so
    /// every probe does the same work.
    pub fn time_ms(&mut self) -> f64 {
        self.table.clear();
        self.upserts(WARM_OPS);
        let started = Instant::now();
        self.upserts(OPS);
        started.elapsed().as_secs_f64() * 1e3
    }

    fn upserts(&mut self, ops: u64) {
        for i in 0..ops {
            *self
                .table
                .entry(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS)
                .or_insert(0) += i;
        }
        std::hint::black_box(self.table.values().sum::<u64>());
    }
}

/// A run's slowdown against the reference host: the median kernel time
/// over [`REFERENCE_MS`]; NaN without readings.
pub fn slowdown(readings_ms: &[f64]) -> f64 {
    median(readings_ms).map_or(f64::NAN, |m| m / REFERENCE_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_reading_over_the_reference() {
        let r = REFERENCE_MS;
        assert_eq!(slowdown(&[r, 3.0 * r, 2.0 * r]), 2.0);
        assert_eq!(slowdown(&[r * 0.5]), 0.5);
        assert!(slowdown(&[]).is_nan());
    }

    #[test]
    fn the_kernel_takes_time_and_keeps_its_table() {
        let mut kernel = Kernel::new();
        let buckets = kernel.table.capacity();
        assert!(kernel.time_ms() > 0.0);
        assert!(kernel.time_ms() > 0.0);
        assert_eq!(kernel.table.len(), KEYS as usize);
        assert_eq!(kernel.table.capacity(), buckets);
    }
}
