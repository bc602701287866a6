//! The workspace's property-test runner: the `proptest` surface its tests
//! use, with deterministic cases and greedy shrinking.
//!
//! * the `proptest! { #![proptest_config(...)] #[test] fn f(x in strat) {..} }`
//!   macro form;
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`;
//! * range strategies over integers and floats, tuple strategies,
//!   [`collection::vec`], and [`strategy::Just`].
//!
//! Each case is drawn from a stream seeded by the property's module path
//! and the attempt number alone, so a failure reproduces on every run. A
//! case fails when a `prop_assert!` fails or the body panics. The runner
//! then shrinks the inputs greedily — integers and floats toward their
//! range start, vectors by dropping halves, then single elements, then by
//! shrinking their elements, tuples one component at a time — for at most
//! a fixed number of body runs, and panics with the property's name, the
//! attempt, the failure message and both the original and the minimal
//! inputs. The original failure's panic message prints; the shrink runs'
//! do not.
//!
//! A dev-dependency only; it depends on `pathrank-rng` alone, so any
//! workspace crate's unit tests can use it.

#![warn(missing_docs)]

/// Test-runner configuration and failure plumbing.
pub mod test_runner {
    /// How many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases required.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's assumptions were not met; it is skipped, not failed.
        Reject(String),
        /// A property assertion failed.
        Fail(String),
    }

    /// Result type the generated test bodies return.
    pub type TestCaseResult = Result<(), TestCaseError>;
}

/// Value-generation strategies.
pub mod strategy {
    use std::fmt::Debug;

    use pathrank_rng::rngs::StdRng;
    use pathrank_rng::Rng;

    /// A recipe for generating values of `Self::Value`, and for simplifying
    /// a failing one.
    pub trait Strategy {
        /// The generated type.
        type Value: Clone + Debug;
        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
        /// Simpler values than `value` that this strategy could also have
        /// drawn, the most aggressive first; empty when `value` is minimal.
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value>;
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
        fn shrink(&self, _value: &T) -> Vec<T> {
            Vec::new()
        }
    }

    /// `value - d` for `d = value - start, (value - start) / 2, …, 1`: the
    /// range start first, then ever closer to `value`.
    fn shrink_int(start: i128, value: i128) -> impl Iterator<Item = i128> {
        std::iter::successors(Some(value - start).filter(|&d| d > 0), |&d| {
            Some(d / 2).filter(|&d| d > 0)
        })
        .map(move |d| value - d)
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut StdRng) -> $ty {
                    rng.gen_range(self.clone())
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_int(self.start as i128, *value as i128).map(|v| v as $ty).collect()
                }
            }
            impl Strategy for core::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut StdRng) -> $ty {
                    rng.gen_range(self.clone())
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_int(*self.start() as i128, *value as i128).map(|v| v as $ty).collect()
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The float counterpart of [`shrink_int`]: the range start, then
    /// `value - d` for `d` halving until it no longer moves `value`.
    macro_rules! shrink_float {
        ($ty:ty, $start:expr, $value:expr) => {{
            let (start, value): ($ty, $ty) = ($start, $value);
            let mut out = Vec::new();
            if start < value {
                out.push(start);
                let mut d = (value - start) / 2.0;
                while start < value - d && value - d < value {
                    out.push(value - d);
                    d /= 2.0;
                }
            }
            out
        }};
    }

    macro_rules! float_range_strategy {
        ($($ty:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut StdRng) -> $ty {
                    rng.gen_range(self.clone())
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_float!($ty, self.start, *value)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn sample(&self, rng: &mut StdRng) -> $ty {
                    rng.gen_range(self.clone())
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_float!($ty, *self.start(), *value)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for component in self.$idx.shrink(&value.$idx) {
                            let mut simpler = value.clone();
                            simpler.$idx = component;
                            out.push(simpler);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

/// Collection strategies (`collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use pathrank_rng::rngs::StdRng;
    use pathrank_rng::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: core::ops::Range<usize>,
    }

    /// A vector strategy: `size.start..size.end` elements of `elem`.
    pub fn vec<S: Strategy>(elem: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "vec strategy: empty size range");
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
        /// Without either half, then without one element (never below
        /// the minimum length), then with one element shrunk.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let n = value.len();
            let half = n / 2;
            let mut out = Vec::new();
            if half > 0 && n - half >= self.size.start {
                out.push(value[half..].to_vec());
                out.push(value[..n - half].to_vec());
            }
            if n > self.size.start {
                for i in 0..n {
                    let mut shorter = value.clone();
                    shorter.remove(i);
                    out.push(shorter);
                }
            }
            for (i, elem) in value.iter().enumerate() {
                for simpler in self.elem.shrink(elem) {
                    let mut v = value.clone();
                    v[i] = simpler;
                    out.push(v);
                }
            }
            out
        }
    }
}

#[doc(hidden)]
pub mod __rt {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Once;

    use pathrank_rng::rngs::StdRng;
    use pathrank_rng::SeedableRng;

    use crate::strategy::Strategy;
    use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};

    /// The most body runs one failing property spends on shrinking.
    const MAX_SHRINK_RUNS: u32 = 1024;

    /// Splits a per-test seed and case index into an rng stream.
    pub fn case_rng(test_name: &str, attempt: u64) -> StdRng {
        // FNV-1a over the test name keeps different properties on
        // different streams while staying fully deterministic.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Runs `body` on `config.cases` accepted cases of `strategy`, drawn
    /// from [`case_rng`]`(path, attempt)`; on the first failure, shrinks
    /// it and panics with the report. `path` is the property's module
    /// path and name; `describe` names each input.
    pub fn run<S: Strategy>(
        path: &str,
        config: ProptestConfig,
        strategy: S,
        describe: impl Fn(&S::Value) -> String,
        mut body: impl FnMut(S::Value) -> TestCaseResult,
    ) {
        let name = path.rsplit("::").next().expect("a path has a last segment");
        let mut passed: u32 = 0;
        let mut attempt: u64 = 0;
        // A rejection budget like real proptest's, so a too-strict
        // prop_assume! aborts loudly instead of spinning forever.
        let max_attempts = (config.cases as u64) * 16 + 1024;
        while passed < config.cases {
            attempt += 1;
            assert!(
                attempt <= max_attempts,
                "proptest {name}: too many rejected cases ({attempt} attempts, {passed} passed)",
            );
            let original = strategy.sample(&mut case_rng(path, attempt));
            match run_case(&mut body, original.clone()) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(msg)) => {
                    let (minimal, msg, runs) = shrink(&strategy, &mut body, original.clone(), msg);
                    panic!(
                        "proptest {name} failed at case {passed} (attempt {attempt}): {msg}\n\
                         minimal inputs (after {runs} shrink runs):{}\n\
                         original inputs:{}",
                        describe(&minimal),
                        describe(&original),
                    );
                }
            }
        }
    }

    thread_local! {
        /// Set while this thread reruns a failing body to shrink it.
        static SHRINKING: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether this thread is inside a shrink loop.
    pub(crate) fn is_shrinking() -> bool {
        SHRINKING.with(Cell::get)
    }

    /// Marks this thread as shrinking until dropped, unwinding included.
    /// The first guard installs, once per process, a panic hook that
    /// stays silent on a shrinking thread and defers to the previous
    /// hook everywhere else: a shrink reruns a panicking body up to
    /// [`MAX_SHRINK_RUNS`] times, while the original failure and other
    /// tests' panics still print.
    struct Shrinking;

    impl Shrinking {
        fn begin() -> Self {
            static QUIET_HOOK: Once = Once::new();
            QUIET_HOOK.call_once(|| {
                let previous = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    if !is_shrinking() {
                        previous(info);
                    }
                }));
            });
            SHRINKING.with(|s| s.set(true));
            Shrinking
        }
    }

    impl Drop for Shrinking {
        fn drop(&mut self) {
            SHRINKING.with(|s| s.set(false));
        }
    }

    /// One body run; a panic fails the case with the panic's message.
    fn run_case<V>(body: &mut impl FnMut(V) -> TestCaseResult, value: V) -> TestCaseResult {
        catch_unwind(AssertUnwindSafe(|| body(value))).unwrap_or_else(|payload| {
            let msg = match (
                payload.downcast_ref::<&str>(),
                payload.downcast_ref::<String>(),
            ) {
                (Some(s), _) => s.to_string(),
                (_, Some(s)) => s.clone(),
                _ => "non-string payload".to_string(),
            };
            Err(TestCaseError::Fail(format!("panicked: {msg}")))
        })
    }

    /// Greedy shrinking: adopts the first simpler candidate that still
    /// fails and starts over from it, until none fails or the run budget
    /// is spent. Returns the minimal value, its failure and the runs used.
    fn shrink<S: Strategy>(
        strategy: &S,
        body: &mut impl FnMut(S::Value) -> TestCaseResult,
        mut value: S::Value,
        mut msg: String,
    ) -> (S::Value, String, u32) {
        let _quiet = Shrinking::begin();
        let mut runs = 0;
        'simpler: loop {
            for candidate in strategy.shrink(&value) {
                if runs == MAX_SHRINK_RUNS {
                    break 'simpler;
                }
                runs += 1;
                if let Err(TestCaseError::Fail(m)) = run_case(body, candidate.clone()) {
                    (value, msg) = (candidate, m);
                    continue 'simpler;
                }
            }
            break;
        }
        (value, msg, runs)
    }
}

/// Asserts a property inside a `proptest!` body; failure fails the case
/// (with formatted context) instead of panicking immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Skips the current case (without failing) when its precondition is unmet.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Declares property tests. Supports the standard form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u32..10, v in collection::vec(0usize..5, 0..8)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::__rt::run(
                concat!(module_path!(), "::", stringify!($name)),
                $cfg,
                ($($strat,)+),
                |($($arg,)+)| format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}",)+),
                    $($arg,)+
                ),
                |($($arg,)+)| { $body ::core::result::Result::Ok(()) },
            );
        }
    )*};
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, f in -2.0f64..2.0, n in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!(n < 5);
        }

        #[test]
        fn tuples_and_vecs_compose(
            v in collection::vec((0usize..10, 0u32..100), 0..20),
        ) {
            prop_assert!(v.len() < 20);
            for (a, b) in &v {
                prop_assert!(*a < 10 && *b < 100, "bad element ({a}, {b})");
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn default_config_form_works(x in 0u32..7) {
            prop_assert!(x < 7);
        }
    }

    #[test]
    #[should_panic(expected = "proptest failing_property_inner failed")]
    fn failing_property_reports() {
        // The macro declares a plain fn here (no #[test]); calling it fires
        // the failure, which must panic with the property name and inputs.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn failing_property_inner(x in 0u32..4) {
                prop_assert!(x < 2, "x was {}", x);
            }
        }
        failing_property_inner();
    }

    /// The report a failing property panics with.
    fn report_of(property: fn()) -> String {
        let payload = std::panic::catch_unwind(property).expect_err("the property must fail");
        payload
            .downcast_ref::<String>()
            .expect("a formatted report")
            .clone()
    }

    /// The minimal inputs a report names, one `  name = value` per line.
    fn minimal_inputs(report: &str) -> &str {
        let (_, rest) = report
            .split_once("shrink runs):\n")
            .expect("minimal inputs");
        rest.split_once("\noriginal inputs:")
            .expect("original inputs")
            .0
    }

    #[test]
    fn integers_shrink_to_the_failure_boundary() {
        proptest! {
            fn at_least_a_thousand(x in 0u32..10_000) {
                prop_assert!(x < 1_000);
            }
        }
        let report = report_of(at_least_a_thousand);
        assert_eq!(minimal_inputs(&report), "  x = 1000", "{report}");
        assert!(report.contains("assertion failed: x < 1_000"), "{report}");
    }

    #[test]
    fn vectors_shrink_to_one_minimal_element() {
        proptest! {
            fn any_element_seven_or_more(v in collection::vec(0u32..100, 0..40)) {
                prop_assert!(v.iter().all(|&e| e < 7));
            }
        }
        let report = report_of(any_element_seven_or_more);
        assert_eq!(minimal_inputs(&report), "  v = [7]", "{report}");
    }

    #[test]
    fn panicking_bodies_report_their_inputs() {
        proptest! {
            fn plain_assert(x in 0u32..4) {
                assert!(x < 2);
            }
        }
        let report = report_of(plain_assert);
        assert_eq!(minimal_inputs(&report), "  x = 2", "{report}");
        assert!(
            report.contains("panicked: assertion failed: x < 2"),
            "{report}"
        );
        assert!(report.contains("original inputs:\n  x = "), "{report}");
    }

    thread_local! {
        /// `(runs outside, runs inside)` a shrink loop of `counted_panics`.
        static RUNS: std::cell::Cell<(u32, u32)> = const { std::cell::Cell::new((0, 0)) };
    }

    #[test]
    fn shrinking_is_flagged_only_inside_the_shrink_loop() {
        proptest! {
            fn counted_panics(x in 0u32..100) {
                RUNS.with(|r| {
                    let (outside, inside) = r.get();
                    r.set(if crate::__rt::is_shrinking() {
                        (outside, inside + 1)
                    } else {
                        (outside + 1, inside)
                    });
                });
                assert!(x < 10);
            }
        }
        let report = report_of(counted_panics);
        assert_eq!(minimal_inputs(&report), "  x = 10", "{report}");
        let (outside, inside) = RUNS.with(|r| r.get());
        assert!(outside >= 1 && inside >= 1, "{outside} / {inside} runs");
        assert!(
            !crate::__rt::is_shrinking(),
            "a shrink whose bodies panicked must clear the flag"
        );
    }

    /// FNV-1a over a value's little-endian bytes.
    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Each property's case stream and every strategy's draw, pinned in
    /// bits: a property runs exactly the cases it ran before the runner
    /// learned to shrink.
    #[test]
    fn case_streams_are_golden() {
        use pathrank_rng::RngCore;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for name in ["", "pathrank_core::metrics::proptests::prop", "x"] {
            for attempt in 1..=64u64 {
                let mut rng = crate::__rt::case_rng(name, attempt);
                fnv(&mut h, rng.next_u64());
                let strat = (
                    0u32..10_000,
                    -2.0f64..2.0,
                    collection::vec((0usize..10, 0.5f32..=1.5), 0..20),
                    -3i64..=3,
                    Just(9u8),
                );
                let (a, f, v, i, j) = strat.sample(&mut rng);
                fnv(&mut h, a as u64);
                fnv(&mut h, f.to_bits());
                fnv(&mut h, v.len() as u64);
                for (x, y) in v {
                    fnv(&mut h, x as u64);
                    fnv(&mut h, y.to_bits() as u64);
                }
                fnv(&mut h, i as u64);
                fnv(&mut h, j as u64);
            }
        }
        assert_eq!(h, 0x1bed_f066_39c5_baad, "case streams moved: {h:#018x}");
    }
}
