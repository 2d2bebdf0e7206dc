//! Host-speed reference: a frozen, benchmark-owned kernel timed in the same
//! run as the workload, so every timing can be expressed at a reference host
//! speed (`raw × REF_NOMINAL_US / measured burst`).
//!
//! The kernel is a 12×12 dense LU factorisation plus solve — the size of the
//! harvester's state space — written here rather than borrowed from
//! `harvsim-linalg`, so that no change to the program under test can move the
//! yardstick. Do not edit it: every recorded metric is scaled by it.

use std::hint::black_box;
use std::time::Instant;

const N: usize = 12;
/// LU factor + solve repetitions in one burst.
const BURST_ITERS: usize = 256;
/// Thread-CPU time of one burst on the reference host, in microseconds (a
/// 2-vCPU x86-64 VM, release build). Frozen: it only sets the scale of the
/// normalised metrics, never their run-to-run ratio.
pub const REF_NOMINAL_US: f64 = 200.0;

fn reference_matrix() -> [[f64; N]; N] {
    let mut a = [[0.0; N]; N];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, value) in row.iter_mut().enumerate() {
            let distance = (i as f64 - j as f64).abs();
            *value = 1.0 / (1.0 + distance) + 0.01 * ((i * 7 + j * 3) % 11) as f64;
            if i == j {
                *value += 2.5;
            }
        }
    }
    a
}

/// Gaussian elimination with partial pivoting, then back substitution; the
/// solution overwrites `b`. Indexed loops are the kernel's defined work.
#[allow(clippy::needless_range_loop)]
fn lu_solve(a: &mut [[f64; N]; N], b: &mut [f64; N]) {
    for k in 0..N {
        let pivot = (k..N)
            .max_by(|&p, &q| a[p][k].abs().total_cmp(&a[q][k].abs()))
            .expect("non-empty pivot range");
        a.swap(k, pivot);
        b.swap(k, pivot);
        let inv = 1.0 / a[k][k];
        for i in k + 1..N {
            let factor = a[i][k] * inv;
            a[i][k] = factor;
            for j in k + 1..N {
                a[i][j] -= factor * a[k][j];
            }
            b[i] -= factor * b[k];
        }
    }
    for i in (0..N).rev() {
        let mut acc = b[i];
        for j in i + 1..N {
            acc -= a[i][j] * b[j];
        }
        b[i] = acc / a[i][i];
    }
}

/// Runs one reference burst and returns its thread-CPU time in microseconds.
pub fn burst_us() -> f64 {
    let matrix = reference_matrix();
    let start = thread_cpu_ns();
    let mut checksum = 0.0;
    for iteration in 0..BURST_ITERS {
        let mut a = black_box(matrix);
        let mut b = black_box([1.0; N]);
        b[iteration % N] += 1.0;
        lu_solve(&mut a, &mut b);
        checksum += b[0];
    }
    black_box(checksum);
    (thread_cpu_ns() - start) as f64 / 1e3
}

/// CPU time consumed by the calling thread, in nanoseconds. On-CPU time
/// excludes run-queue waits, so a burst taken while the workload's own
/// threads occupy every core still measures host speed, not contention.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit fields
    // on 64-bit Linux, matching `Timespec`'s C layout) through a pointer to a
    // live, writable local, and reads nothing else.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "CLOCK_THREAD_CPUTIME_ID is always available on Linux");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// Fallback off Linux: wall time since first use.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Frozen reference for the storage device: one `fsync_probe_us` on the
/// reference host's disk, in microseconds.
pub const FSYNC_NOMINAL_US: f64 = 1000.0;

/// Disk reference probe: the durable-replace sequence a store write
/// performs — write 4 KiB to a temporary file, fsync it, rename it over
/// the previous copy, fsync the directory — timed in wall microseconds.
pub fn fsync_probe_us(dir: &std::path::Path) -> std::io::Result<f64> {
    use std::io::Write;
    let started = Instant::now();
    let temporary = dir.join("fsync-probe.tmp");
    let mut file = std::fs::File::create(&temporary)?;
    file.write_all(&[0x5a; 4096])?;
    file.sync_all()?;
    std::fs::rename(&temporary, dir.join("fsync-probe"))?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(started.elapsed().as_nanos() as f64 / 1e3)
}

/// A time-stamped series of reference measurements (CPU bursts or disk
/// probes). Timings taken between them are scaled by the median of the
/// measurements around them.
#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
    /// `(seconds since origin, measurement µs)`.
    bursts: Vec<(f64, f64)>,
}

impl HostClock {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A series sharing its time axis with another one.
    pub fn with_origin(origin: Instant) -> Self {
        HostClock { origin, bursts: Vec::new() }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `count` CPU bursts and records each; returns the index of the
    /// first.
    pub fn sample(&mut self, count: usize) -> usize {
        let first = self.bursts.len();
        for _ in 0..count {
            let us = burst_us();
            self.record(us);
        }
        first
    }

    /// Records one externally taken measurement.
    pub fn record(&mut self, us: f64) {
        let at = self.now_s();
        self.bursts.push((at, us));
    }

    /// Median burst over indices `from..to` (clamped to the recorded range).
    pub fn median_between(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.bursts.len());
        let from = from.min(to.saturating_sub(1));
        let window: Vec<f64> = self.bursts[from..to].iter().map(|&(_, us)| us).collect();
        crate::stats::median(&window)
    }

    /// Median burst taken within `[t0 - pad, t1 + pad]` seconds of the
    /// origin, falling back to the whole series when fewer than three
    /// bursts fall in that window.
    pub fn median_around(&self, t0: f64, t1: f64, pad: f64) -> f64 {
        let window: Vec<f64> = self
            .bursts
            .iter()
            .filter(|&&(at, _)| at >= t0 - pad && at <= t1 + pad)
            .map(|&(_, us)| us)
            .collect();
        if window.len() >= 3 {
            crate::stats::median(&window)
        } else {
            self.median_all()
        }
    }

    /// Measurements taken within `[t0, t1]` seconds of the origin.
    pub fn window(&self, t0: f64, t1: f64) -> Vec<f64> {
        self.bursts.iter().filter(|&&(at, _)| at >= t0 && at <= t1).map(|&(_, us)| us).collect()
    }

    fn median_all(&self) -> f64 {
        let all: Vec<f64> = self.bursts.iter().map(|&(_, us)| us).collect();
        crate::stats::median(&all)
    }

    pub fn all_us(&self) -> Vec<f64> {
        self.bursts.iter().map(|&(_, us)| us).collect()
    }

    /// Seconds since the clock's origin, for `median_around` windows.
    pub fn elapsed_s(&self) -> f64 {
        self.now_s()
    }
}

/// Scale factor that expresses a raw timing at the reference host speed.
pub fn factor(burst_us: f64) -> f64 {
    REF_NOMINAL_US / burst_us
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_solves_its_system() {
        let a = reference_matrix();
        let mut lu = a;
        let mut x = [1.0; N];
        x[3] += 1.0;
        let rhs = x;
        lu_solve(&mut lu, &mut x);
        for i in 0..N {
            let row: f64 = (0..N).map(|j| a[i][j] * x[j]).sum();
            assert!((row - rhs[i]).abs() < 1e-12, "row {i}: {row} vs {}", rhs[i]);
        }
    }

    #[test]
    fn bursts_take_measurable_time() {
        assert!(burst_us() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
