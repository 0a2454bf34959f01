//! The benchmark's pure pieces: order statistics, the `/proc` parsers,
//! and the rule that decides whether one served response counts.

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values on an even
/// count). `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples above it: the `(n - 10)`-th smallest of `n` samples. Returns
/// `(value, percentile)`, or `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist and no such percentile does.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(values);
    let rank = n - TAIL_BEYOND;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as f64;
    let q = |i: f64| {
        let j = ((i * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = i * m / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1.0), q(2.0), q(3.0)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel fixes at 100 per second on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// after it come `state` (field 3) … `utime` (14) and `stime` (15).
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// This process's user plus system CPU seconds, all threads included.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    cpu_seconds_from_stat(&stat).expect("parse /proc/self/stat")
}

/// The calling thread's user plus system CPU seconds.
pub fn thread_cpu_seconds() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/thread-self/stat").expect("read /proc/thread-self/stat");
    cpu_seconds_from_stat(&stat).expect("parse /proc/thread-self/stat")
}

/// Resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn rss_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// This process's resident set size in MiB, measured after the
/// allocator has handed free pages back to the kernel. Without the trim
/// the figure depends on how many per-thread arenas the server's
/// connection threads happened to touch, not on what the program keeps.
pub fn retained_rss_mib() -> f64 {
    // SAFETY: `malloc_trim` takes no pointers and only releases pages
    // that no live allocation uses; glibc serialises it with every
    // other allocator call.
    unsafe {
        malloc_trim(0);
    }
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    rss_mib_from_status(&status).expect("parse VmRSS")
}

/// Why a served explain did not count as a success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The connection or the HTTP exchange itself failed.
    Transport(String),
    /// The server answered with another status than 200.
    Status(u16),
    /// The response carried no `x-obx-exit: 0` (a degraded or partial run).
    Exit(Option<String>),
    /// The body differs from the in-process oracle.
    Mismatch,
}

/// Judges one `/explain` exchange against its oracle body. A success
/// needs status 200, `x-obx-exit: 0` and a body byte-identical to what
/// the program produces in process for the same request.
pub fn judge(
    status: u16,
    exit_header: Option<&str>,
    body: &[u8],
    oracle: &[u8],
) -> Result<(), Failure> {
    if status != 200 {
        return Err(Failure::Status(status));
    }
    if exit_header != Some("0") {
        return Err(Failure::Exit(exit_header.map(str::to_owned)));
    }
    if body != oracle {
        return Err(Failure::Mismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 of 40 samples at or below the value, 10 above it.
        assert_eq!(tail(&values), Some((30.0, 75.0)));
        let values: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(tail(&values), Some((1.0, 100.0 / 11.0)));
        assert_eq!(tail(&[1.0; 10]), None);
        let beyond = |v: &[f64]| {
            let (t, _) = tail(v).unwrap();
            v.iter().filter(|&&x| x > t).count()
        };
        let mixed: Vec<f64> = (0..65)
            .map(|i| {
                if i % 5 == 4 {
                    900.0 + i as f64
                } else {
                    400.0 + i as f64
                }
            })
            .collect();
        assert_eq!(beyond(&mixed), TAIL_BEYOND);
        // The slow fifth (13 samples) holds the tail value itself.
        assert!(tail(&mixed).unwrap().0 > 900.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn cpu_time_parser_counts_from_the_last_paren() {
        let stat = "4242 (we ird) name) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    250 75 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        assert_eq!(cpu_seconds_from_stat(stat), Some(3.25));
        assert_eq!(cpu_seconds_from_stat("4242 (x) S 1 2"), None);
        assert_eq!(cpu_seconds_from_stat("no parens at all"), None);
        let own = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(cpu_seconds_from_stat(&own).is_some());
    }

    #[test]
    fn rss_parser_reads_vmrss() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmRSS:\t    2048 kB\nThreads:\t3\n";
        assert_eq!(rss_mib_from_status(status), Some(2.0));
        assert_eq!(rss_mib_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn a_mismatched_body_is_a_failure() {
        let oracle = b"Z = 0.8333  [2/4+  0-]  q(x0) :- studies(x0, \"Science\")\n";
        assert_eq!(judge(200, Some("0"), oracle, oracle), Ok(()));
        let mut other = oracle.to_vec();
        other[4] = b'9';
        assert_eq!(
            judge(200, Some("0"), &other, oracle),
            Err(Failure::Mismatch)
        );
        assert_eq!(
            judge(200, Some("0"), &oracle[..10], oracle),
            Err(Failure::Mismatch)
        );
        assert_eq!(
            judge(200, Some("2"), oracle, oracle),
            Err(Failure::Exit(Some("2".to_owned())))
        );
        assert_eq!(judge(200, None, oracle, oracle), Err(Failure::Exit(None)));
        assert_eq!(
            judge(429, Some("0"), oracle, oracle),
            Err(Failure::Status(429))
        );
    }
}
