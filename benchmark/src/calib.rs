//! The calibration reading: a fixed spin kernel timed before and after a
//! window. It changes nothing that is reported — every time is the time
//! measured — and only says how fast the machine was: the sandbox's
//! virtual CPUs run a quarter slower for seconds at a time, and a run
//! whose two readings differ by more than a tenth is marked `noisy`.

use crate::stats;
use crate::sys;

/// A dependent xorshift chain: no memory traffic, nothing to vectorise.
/// On the machine the baseline was measured on it takes 0.37 ms or
/// 0.46 ms, by the CPU's state, and rarely anything in between.
fn kernel_ns() -> u64 {
    let t0 = sys::now_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..250_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    sys::now_ns() - t0
}

/// Median of fifteen kernel runs, in milliseconds.
pub fn reading_ms() -> f64 {
    let mut ns: Vec<f64> = (0..15).map(|_| kernel_ns() as f64).collect();
    stats::median(&mut ns) / 1e6
}

/// The two readings around a window.
#[derive(Debug, Clone, Copy)]
pub struct Readings {
    pub before_ms: f64,
    pub after_ms: f64,
}

impl Readings {
    pub fn mean_ms(&self) -> f64 {
        (self.before_ms + self.after_ms) / 2.0
    }

    pub fn noisy(&self) -> bool {
        (self.before_ms - self.after_ms).abs() > 0.10 * self.before_ms.min(self.after_ms)
    }
}

/// Runs `window` between two readings.
pub fn around<T>(window: impl FnOnce() -> T) -> (T, Readings) {
    let before_ms = reading_ms();
    let out = window();
    let after_ms = reading_ms();
    (
        out,
        Readings {
            before_ms,
            after_ms,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_a_tenth_apart_is_noisy() {
        let (x, r) = around(|| 7);
        assert_eq!(x, 7);
        assert!(r.before_ms > 0.0 && r.after_ms > 0.0);
        let r = |before_ms, after_ms| Readings {
            before_ms,
            after_ms,
        };
        assert!(!r(0.300, 0.325).noisy());
        assert!(r(0.300, 0.335).noisy());
        assert!(r(0.380, 0.300).noisy());
        assert!((r(0.3, 0.4).mean_ms() - 0.35).abs() < 1e-12);
    }
}
