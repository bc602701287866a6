//! A measured window: the ops it completed and the numbers computed from
//! them. Times are as measured; percentiles are over the whole window.

use crate::consts::BLOCK_MS;
use crate::stats;
use crate::sys;

#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When the op began; for an open-loop request, when it was due.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Failed, shed or refused: counts as attempted, has no latency.
    pub failed: bool,
}

#[derive(Debug, Default)]
pub struct Log {
    pub start_ns: u64,
    pub end_ns: u64,
    /// In completion order.
    pub ops: Vec<Op>,
    /// Process CPU nanoseconds between start and end.
    pub cpu_ns: u64,
    /// `VmHWM` when the first `min_ops` ops were done: the peak of set-up
    /// and a fixed amount of work, however many ops the window went on
    /// to complete.
    pub fixed_work_peak_rss_mib: f64,
}

/// Runs `op` in a closed loop on the calling thread for `seconds` (and at
/// least `min_ops`, the window's fixed work). `op` returns false when it
/// failed.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> bool) -> Log {
    let mut log = Log::default();
    let cpu0 = sys::process_cpu_ns();
    log.start_ns = sys::now_ns();
    let deadline = log.start_ns + (seconds * 1e9) as u64;
    let mut i = 0;
    let mut start_ns = log.start_ns;
    while start_ns < deadline || i < min_ops {
        let ok = op(i);
        let end_ns = sys::now_ns();
        log.ops.push(Op {
            start_ns,
            end_ns,
            failed: !ok,
        });
        start_ns = end_ns;
        i += 1;
        if i == min_ops.max(1) {
            // Some 30 µs, once, that the next op's latency carries.
            log.fixed_work_peak_rss_mib = sys::peak_rss_mib();
        }
    }
    log.end_ns = start_ns;
    log.cpu_ns = sys::process_cpu_ns() - cpu0;
    log
}

#[derive(Debug, Clone, Default)]
pub struct Throughput {
    /// Median over blocks of successful ops per second.
    pub ops_per_s: f64,
    /// Every block's value, kept in the result file.
    pub blocks: Vec<f64>,
}

/// Successful ops per second: the window is cut into blocks of at least
/// `BLOCK_MS`, each closed at an op's completion so that its length is
/// exact whatever an op takes, and the median over the blocks is reported.
/// A window shorter than one block is one block.
pub fn throughput(start_ns: u64, ops: &[Op]) -> Throughput {
    let mut blocks = Vec::new();
    let (mut block_start, mut done) = (start_ns, 0usize);
    for op in ops {
        done += !op.failed as usize;
        if op.end_ns.saturating_sub(block_start) >= BLOCK_MS * 1_000_000 {
            blocks.push(done as f64 * 1e9 / (op.end_ns - block_start) as f64);
            (block_start, done) = (op.end_ns, 0);
        }
    }
    if blocks.is_empty() {
        if let Some(last) = ops.last().filter(|l| l.end_ns > start_ns) {
            blocks.push(done as f64 * 1e9 / (last.end_ns - start_ns) as f64);
        }
    }
    Throughput {
        ops_per_s: stats::median(&mut blocks.clone()),
        blocks,
    }
}

#[derive(Debug, Clone, Default)]
pub struct Latency {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Successful ops the percentiles are taken over.
    pub samples: usize,
}

/// Latency percentiles of the window's successful ops.
pub fn latency(ops: &[Op]) -> Latency {
    let mut ms: Vec<f64> = ops
        .iter()
        .filter(|o| !o.failed)
        .map(|o| (o.end_ns - o.start_ns) as f64 / 1e6)
        .collect();
    let sorted = stats::sort(&mut ms);
    Latency {
        p50_ms: stats::percentile_sorted(sorted, 50.0),
        p95_ms: stats::percentile_sorted(sorted, 95.0),
        p99_ms: stats::percentile_sorted(sorted, 99.0),
        samples: sorted.len(),
    }
}

pub fn failed(ops: &[Op]) -> usize {
    ops.iter().filter(|o| o.failed).count()
}

/// CPU milliseconds per successful op.
pub fn cpu_ms_per_op(cpu_ns: u64, ops: &[Op]) -> f64 {
    cpu_ns as f64 / 1e6 / (ops.len() - failed(ops)).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> u64 {
        n * 1_000_000
    }

    fn ops_of(durations_ms: &[u64]) -> Vec<Op> {
        let mut t = 0;
        durations_ms
            .iter()
            .map(|&d| {
                let op = Op {
                    start_ns: t,
                    end_ns: t + ms(d),
                    failed: false,
                };
                t += ms(d);
                op
            })
            .collect()
    }

    #[test]
    fn blocks_close_at_op_boundaries_and_take_the_median() {
        // 400 ms ops: blocks close at 1.2 s (3 ops), 2.4, 3.6; then one
        // slow block: a 2.4 s op. Ten ops, four blocks.
        let mut d = vec![400; 9];
        d.push(2400);
        let th = throughput(0, &ops_of(&d));
        assert_eq!(th.blocks.len(), 4);
        assert!((th.blocks[0] - 2.5).abs() < 1e-9);
        assert!((th.blocks[3] - 1.0 / 2.4).abs() < 1e-9);
        assert!((th.ops_per_s - 2.5).abs() < 1e-9, "median of the blocks");
        // Shorter than a block: one block, the whole window.
        let th = throughput(0, &ops_of(&[100, 100]));
        assert_eq!(th.blocks, vec![10.0]);
        assert_eq!(throughput(0, &[]).ops_per_s, 0.0);
    }

    #[test]
    fn failed_ops_count_for_nothing() {
        let mut ops = ops_of(&[400, 400, 400]);
        ops[1].failed = true;
        let th = throughput(0, &ops);
        assert!((th.blocks[0] - 2.0 / 1.2).abs() < 1e-9);
        assert!((cpu_ms_per_op(ms(200), &ops) - 100.0).abs() < 1e-9);
        let lat = latency(&ops);
        assert_eq!(lat.samples, 2);
        assert!((lat.p50_ms - 400.0).abs() < 1e-9);
        assert_eq!(failed(&ops), 1);
    }

    #[test]
    fn latency_percentiles_are_over_the_whole_window() {
        // A fifth of the ops, all in one stretch, at twice the latency:
        // the p95 must show it.
        let mut d = vec![10; 100];
        d.extend(vec![20; 50]);
        d.extend(vec![10; 100]);
        let lat = latency(&ops_of(&d));
        assert_eq!(lat.samples, 250);
        assert!((lat.p50_ms - 10.0).abs() < 1e-9);
        assert!((lat.p95_ms - 20.0).abs() < 1e-9);
        assert_eq!(latency(&[]).samples, 0);
    }

    #[test]
    fn closed_loop_runs_for_the_time_and_the_minimum() {
        let mut calls = 0;
        let log = closed_loop(0.05, 7, |_| {
            calls += 1;
            let t = sys::now_ns();
            while sys::now_ns() - t < 1_000_000 {
                std::hint::spin_loop();
            }
            true
        });
        assert!(calls >= 7);
        assert_eq!(log.ops.len(), calls);
        assert!(log.end_ns - log.start_ns >= 50_000_000);
        assert!(log.ops.windows(2).all(|w| w[0].end_ns == w[1].start_ns));
        assert!(log.fixed_work_peak_rss_mib > 0.0);
        let log = closed_loop(0.0, 3, |i| i != 1);
        assert_eq!((log.ops.len(), failed(&log.ops)), (3, 1));
        assert!(log.fixed_work_peak_rss_mib > 0.0);
    }
}
