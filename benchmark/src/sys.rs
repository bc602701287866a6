//! What the benchmark asks of the operating system: a clock, CPU time and
//! peak memory, all from `std` and Linux `/proc`.

use std::fs;
use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at the top of `main`): the one
/// time base spans and op records share.
pub fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `utime + stime` of a `/proc/.../stat` line, in nanoseconds. The fields
/// count clock ticks; `USER_HZ` is 100 on every Linux this runs on, so a
/// tick is 10 ms — 0.1 % of the shortest window the benchmark measures.
fn stat_cpu_ns(path: &str) -> u64 {
    const TICK_NS: u64 = 10_000_000;
    let stat = fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    // The command name (field 2) may hold spaces; fields are counted from
    // the parenthesis that closes it: state is the 1st after, utime the
    // 12th, stime the 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{path}: no utime/stime field"))
    };
    (tick() + tick()) * TICK_NS
}

/// CPU nanoseconds of the whole process: all threads, exited ones
/// included (the trainer's workers live for one batch).
pub fn process_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/self/stat")
}

/// CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    stat_cpu_ns("/proc/thread-self/stat")
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_and_counters_move_forward() {
        let a = now_ns();
        let (thread0, process0) = (thread_cpu_ns(), process_cpu_ns());
        // Spin until this thread has been given 50 ms of CPU, however many
        // other tests share the machine.
        let mut x = 1u64;
        while thread_cpu_ns() - thread0 < 50_000_000 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(
            now_ns() - a >= 40_000_000,
            "CPU time cannot outrun the clock by more than a tick"
        );
        assert!(process_cpu_ns() - process0 >= 40_000_000);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
