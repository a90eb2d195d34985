//! Process-level instruments: CPU time, peak resident set and CPU
//! steal, plus the order statistics the metrics are reported with.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("the benchmark uses getrusage, mallopt and /proc as laid out on 64-bit glibc Linux");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: user and system time, then fourteen
/// `long` counters this benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one malloc arena. With glibc's
/// default of one arena per thread (up to eight per core), the short-
/// lived server threads land on different arenas from run to run and
/// `VmHWM` comes out bimodal; with one arena it repeats. Call before any
/// thread is spawned.
pub fn single_malloc_arena() {
    // SAFETY: mallopt takes two plain integers and has no memory-safety
    // preconditions; M_ARENA_MAX is a parameter glibc defines.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "glibc accepts M_ARENA_MAX");
}

/// User plus system CPU time of the whole process — every thread, the
/// in-process server's included — at microsecond resolution.
pub fn process_cpu() -> Duration {
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut usage = Rusage {
        utime: zero(),
        stime: zero(),
        _counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux (the only target this file
    // compiles for), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad buffer");
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine-wide CPU ticks from `/proc/stat`: `(steal, busy)`, where
/// busy is every non-idle tick, steal included.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    if ticks.len() < 8 {
        return (0, 0);
    }
    let busy = ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6] + ticks[7];
    (ticks[7], busy)
}

/// The nearest-rank `q`-quantile of `values` (sorted in place). For
/// `q = 0.99` over `n` samples, `n − ⌈0.99·n⌉` samples lie beyond it.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "a quantile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}
