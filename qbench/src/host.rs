//! Wall time with the hypervisor's steal taken out.
//!
//! On a shared virtual machine the host can hold a vCPU back while one of
//! the benchmark's threads is ready to run. Linux counts that time as
//! `steal` in `/proc/stat`, and how much of it a run gets drifts from one
//! run to the next: on a 2-vCPU Xeon guest, one run of `table1-quick`
//! lost 16 s of CPU time to steal and the next, just after it, lost 4 s.
//!
//! A [`Stopwatch`] scales the wall time of an interval by the share of the
//! machine's runnable CPU time that was served in it,
//! `busy / (busy + steal)`, both read from the aggregate line of
//! `/proc/stat` at its ends. Threads held back for `steal` would have run
//! for that long at the interval's own parallelism, so the scaled time is
//! what the interval would have taken had nothing been stolen. Idle vCPUs
//! accrue no steal, and nothing else runs while the benchmark does, so
//! both counts are the benchmark's own.
//!
//! Where `/proc/stat` cannot be read, or the interval saw no CPU time, the
//! wall time is returned unscaled.

use std::time::Instant;

/// Machine-wide CPU time, in clock ticks, summed over all CPUs.
#[derive(Debug, Clone, Copy)]
struct Ticks {
    busy: u64,
    steal: u64,
}

impl Ticks {
    /// The `cpu` line of `/proc/stat`: user, nice, system, idle, iowait,
    /// irq, softirq, steal, ... (guest time is already in user).
    fn read() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        if f.len() < 8 {
            return None;
        }
        Some(Ticks {
            busy: f[0] + f[1] + f[2] + f[5] + f[6],
            steal: f[7],
        })
    }
}

/// Times an interval in wall seconds with steal taken out.
pub struct Stopwatch {
    t0: Instant,
    ticks: Option<Ticks>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let ticks = Ticks::read();
        Stopwatch {
            t0: Instant::now(),
            ticks,
        }
    }

    /// Seconds since [`Stopwatch::start`], scaled by the served share of
    /// the runnable CPU time in between.
    pub fn elapsed(&self) -> f64 {
        let wall = self.t0.elapsed().as_secs_f64();
        wall * (1.0 - self.steal_frac())
    }

    /// Share of the runnable CPU time since [`Stopwatch::start`] that was
    /// stolen (0 where it cannot be read).
    pub fn steal_frac(&self) -> f64 {
        let (Some(a), Some(b)) = (self.ticks, Ticks::read()) else {
            return 0.0;
        };
        let busy = b.busy.saturating_sub(a.busy);
        let steal = b.steal.saturating_sub(a.steal);
        if busy == 0 {
            return 0.0;
        }
        steal as f64 / (busy + steal) as f64
    }
}
