//! Load generation: the seeded generator, closed- and open-loop
//! pacing, and the process counters read at window edges.

use std::time::{Duration, Instant};

/// SplitMix64: deterministic and dependency-free; one stream per
/// (seed, round, client).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.next_f64()).ln() / rate)
    }
}

/// How long before a send is due the generator stops sleeping and
/// spins. A sleep overshoots by tens of microseconds; spinning all the
/// way would put a core's worth of generator into `cpu_us_per_op`.
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// Open-loop pacer: sends are due on a Poisson schedule fixed by the
/// seed, whether or not earlier ones have finished.
pub struct OpenLoop {
    rng: Rng,
    rate: f64,
    start: Instant,
    next_due: Duration,
    /// Wall time spent spinning; the generator's own CPU, subtracted
    /// from the process CPU the workload is charged.
    pub spun: Duration,
}

impl OpenLoop {
    pub fn new(rng: Rng, rate: f64) -> OpenLoop {
        OpenLoop {
            rng,
            rate,
            start: Instant::now(),
            next_due: Duration::ZERO,
            spun: Duration::ZERO,
        }
    }

    /// Wait for the next scheduled send; returns when it was *due*,
    /// which is what latency is measured from. `None` once the schedule
    /// passes `until`.
    pub fn next(&mut self, until: Instant) -> Option<Instant> {
        self.next_due += self.rng.exp_gap(self.rate);
        let due = self.start + self.next_due;
        if due >= until {
            return None;
        }
        let now = Instant::now();
        if due > now + SPIN_WINDOW {
            std::thread::sleep(due - now - SPIN_WINDOW);
        }
        let spin_from = Instant::now();
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        self.spun += spin_from.elapsed();
        Some(due)
    }
}

/// Restrict the calling thread, and every thread spawned from it
/// afterwards, to one of the CPUs it may run on; `None` when the
/// platform has no such call or refuses it.
///
/// Noise control for workloads that do not need two cores: on two
/// vCPUs the kernel keeps a chain of hand-overs on one core in some runs
/// and bounces each across cores in others — a wake-up of a halted vCPU
/// every time, priced by the hypervisor — and which it does holds for a
/// whole run, so no number of rounds averages it out (`fig3_tcp`:
/// 127 – 149 sets/s unpinned from run to run, 200 – 205 pinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // 1024 CPUs, the size of glibc's `cpu_set_t`.
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
        // bytes, which is what the call is told; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        // The highest allowed CPU: CPU 0 tends to serve the interrupts.
        let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of `bytes` bytes, only read.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (includes threads that have exited).
pub fn process_cpu_seconds() -> f64 {
    // Linux reports these in clock ticks; USER_HZ is 100 on every
    // architecture this runs on.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn process_counters_read() {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            std::hint::spin_loop();
        }
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
