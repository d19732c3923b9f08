//! Clocks, memory and summary statistics shared by every workload.

use std::time::{Duration, Instant};

/// Nanoseconds of on-CPU time of the whole process, summed over all of its
/// threads (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). The workspace links
/// no libc, so on x86_64 Linux this is a raw syscall, in the style of
/// `fastbuf_bench::thread_cpu_ns`; elsewhere it returns `None`.
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: i64 = 228;
        const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
        let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
        let ret: i64;
        // SAFETY: clock_gettime writes exactly one `struct timespec` (two
        // i64 on x86_64 Linux) through the pointer, which points at `ts`,
        // live and writable for the whole call; the syscall clobbers only
        // rax, rcx and r11, all declared.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME => ret,
                in("rdi") CLOCK_PROCESS_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}

/// Process CPU time spent between two calls, falling back to wall time
/// where the process clock is unavailable.
#[derive(Clone, Copy, Debug)]
pub struct CpuTimer {
    cpu: Option<u64>,
    wall: Instant,
}

impl CpuTimer {
    /// Starts the timer.
    pub fn start() -> Self {
        CpuTimer {
            cpu: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// On-CPU time since [`CpuTimer::start`] (wall time off Linux/x86_64).
    pub fn elapsed(&self) -> Duration {
        match (self.cpu, process_cpu_ns()) {
            (Some(a), Some(b)) => Duration::from_nanos(b.saturating_sub(a)),
            _ => self.wall.elapsed(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One op's latency, stamped with when it started.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Start of the op, from the start of the timed window.
    pub at: Duration,
    /// Latency in milliseconds.
    pub ms: f64,
}

/// Slices of the timed window that latency percentiles are averaged over.
const WINDOWS: u32 = 10;

/// The `q`-quantile of the samples of each of [`WINDOWS`] equal slices of
/// the `span`-long timed window, averaged over the middle slices: the
/// fifth of slices with the lowest and the fifth with the highest values
/// are left out.
///
/// The speed of a shared host drifts over seconds. A percentile pooled
/// over the whole run then jumps to whichever speed the run spent most of
/// its time at; this average moves with the share of the run spent at
/// each, and a stall confined to a slice or two does not move it. On a
/// steady machine it agrees with the pooled percentile.
pub fn windowed_quantile(samples: &[Sample], span: Duration, q: f64) -> f64 {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS as usize];
    let width = span.as_secs_f64() / f64::from(WINDOWS);
    for s in samples {
        let k = (s.at.as_secs_f64() / width) as usize;
        slices[k.min(WINDOWS as usize - 1)].push(s.ms);
    }
    let mut per_slice: Vec<f64> = slices
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| quantile(v, q))
        .collect();
    per_slice.sort_by(f64::total_cmp);
    let trim = per_slice.len() / 5;
    mean(&per_slice[trim..per_slice.len() - trim])
}

/// Runs `op` closed-loop until `budget` has passed (at least once) and
/// returns each call's latency.
pub fn closed_loop(budget: Duration, mut op: impl FnMut()) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        op();
        samples.push(Sample {
            at: t - start,
            ms: ms(t.elapsed()),
        });
        if start.elapsed() >= budget {
            return samples;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_quantiles_average_the_slices() {
        let at = |s: f64| Duration::from_secs_f64(s);
        // Half the window at 1 ms per op (many ops), half at 3 ms (few).
        let mut samples: Vec<Sample> = (0..300)
            .map(|i| Sample {
                at: at(i as f64 * 5.0 / 300.0),
                ms: 1.0,
            })
            .collect();
        samples.extend((0..100).map(|i| Sample {
            at: at(5.0 + i as f64 * 5.0 / 100.0),
            ms: 3.0,
        }));
        let span = at(10.0);
        assert_eq!(windowed_quantile(&samples, span, 0.5), 2.0);
        let pooled: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        assert_eq!(median(&pooled), 1.0);
    }

    #[test]
    fn clocks_advance() {
        let t = CpuTimer::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(t.elapsed() > Duration::ZERO);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
