//! Offline shim for the `proptest` crate.
//!
//! Provides the subset the SPES property tests use: the [`proptest!`]
//! macro, range/tuple/collection strategies, `prop_map`, `any::<bool>()`,
//! and the `prop_assert*` / `prop_assume!` macros. Inputs are drawn from
//! a deterministic RNG seeded from the test name, so failures reproduce
//! exactly on re-run.
//!
//! Failing cases are **shrunk** before reporting: integer (and float)
//! strategies halve toward the range start, `Vec` strategies truncate
//! toward their minimum length and shrink elements in place, and tuples
//! shrink one component at a time ([`Strategy::shrink`]). The greedy
//! loop keeps any candidate that still fails, so the reported inputs are
//! a local minimum of the failure, not the first random hit. Strategies
//! without a meaningful simplification order (`prop_map`, `Just`) report
//! unshrunk. As in upstream proptest, generated values must implement
//! `Debug`, and (for the shrinking re-runs) `Clone`.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use rand::rngs::SmallRng;
use rand::{RngCore, SampleUniform, SeedableRng, StandardUniform};
use std::ops::{Range, RangeInclusive};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Outcome of one generated case, produced by the `prop_*` macros.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed: skip the case.
    Reject,
    /// `prop_assert*` failed: fail the test with this message.
    Fail(String),
}

/// The RNG driving input generation.
pub type TestRng = SmallRng;

/// Builds the deterministic RNG for a named test.
#[must_use]
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in test_name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(hash)
}

/// A generator of random values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Proposes simpler candidates for a failing `value`, simplest first.
    ///
    /// The runner keeps any candidate that still fails and calls `shrink`
    /// again on it, so one call only needs a few local steps (origin,
    /// halfway, one-off), not the whole chain. The default proposes
    /// nothing: strategies without a simplification order (`prop_map`,
    /// `Just`) report the failing value unshrunk.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Per-type simplification order used by the range and [`any`]
/// strategies: integers halve toward the origin, floats bisect, booleans
/// fall to `false`.
pub trait ShrinkStep: Copy {
    /// The simplest value of the type (`0`, `0.0`, `false`); the shrink
    /// target of [`any`], which has no range start to aim for.
    fn shrink_origin() -> Self;

    /// Candidates simpler than `value` on the path to `origin`, simplest
    /// first. Empty once `value` reaches `origin`.
    fn shrink_toward(origin: Self, value: Self) -> Vec<Self>;
}

macro_rules! impl_shrink_step_int {
    ($($t:ty),*) => {$(
        impl ShrinkStep for $t {
            fn shrink_origin() -> Self {
                0
            }

            fn shrink_toward(origin: Self, value: Self) -> Vec<Self> {
                if value == origin {
                    return Vec::new();
                }
                let mut out = vec![origin];
                let mid = origin.midpoint(value);
                if mid != origin && mid != value {
                    out.push(mid);
                }
                let step = if value > origin { value - 1 } else { value + 1 };
                if step != origin && out.last() != Some(&step) {
                    out.push(step);
                }
                out
            }
        }
    )*};
}
impl_shrink_step_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_shrink_step_float {
    ($($t:ty),*) => {$(
        impl ShrinkStep for $t {
            fn shrink_origin() -> Self {
                0.0
            }

            fn shrink_toward(origin: Self, value: Self) -> Vec<Self> {
                if !value.is_finite() || (value - origin).abs() < 1e-9 {
                    return Vec::new();
                }
                vec![origin, origin + (value - origin) / 2.0]
            }
        }
    )*};
}
impl_shrink_step_float!(f32, f64);

impl ShrinkStep for bool {
    fn shrink_origin() -> Self {
        false
    }

    fn shrink_toward(origin: Self, value: Self) -> Vec<Self> {
        if value && !origin {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: SampleUniform + ShrinkStep> Strategy for Range<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        rand::SampleRange::sample_from(self.clone(), rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(self.start, *value)
    }
}

impl<T: SampleUniform + ShrinkStep> Strategy for RangeInclusive<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        rand::SampleRange::sample_from(self.clone(), rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(*self.start(), *value)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The standard strategy of `T`, from [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Strategy over `T`'s standard distribution (`any::<bool>()` etc.).
#[must_use]
pub fn any<T: StandardUniform>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: StandardUniform + ShrinkStep> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        rng.next_u64(); // decorrelate consecutive `any` draws from ranges
        T::sample_standard(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(T::shrink_origin(), *value)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+)
        where
            $($t::Value: Clone),+
        {
            type Value = ($($t::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                // One component at a time; the greedy runner interleaves
                // the components by re-shrinking whichever candidate
                // stuck.
                let mut out = Vec::new();
                $(
                    for candidate in self.$n.shrink(&value.$n) {
                        let mut next = value.clone();
                        next.$n = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}
impl_strategy_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use rand::RngExt;
    use std::ops::{Range, RangeInclusive};

    /// Length specification of a collection strategy: a fixed size or a
    /// range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            Self {
                min: r.start,
                max: r.end.saturating_sub(1).max(r.start),
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: (*r.end()).max(*r.start()),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = if self.len.min >= self.len.max {
                self.len.min
            } else {
                rng.random_range(self.len.min..=self.len.max)
            };
            (0..n).map(|_| self.element.sample(rng)).collect()
        }

        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            // Truncation first (shortest prefix, halfway, drop-one), then
            // in-place element shrinks; lengths never fall below the
            // strategy's minimum, so candidates stay valid samples.
            let mut out = Vec::new();
            let len = value.len();
            let min = self.len.min;
            if len > min {
                out.push(value[..min].to_vec());
                let half = min + (len - min) / 2;
                if half > min && half < len {
                    out.push(value[..half].to_vec());
                }
                if len - 1 > min {
                    out.push(value[..len - 1].to_vec());
                }
            }
            for (i, element) in value.iter().enumerate() {
                for candidate in self.element.shrink(element) {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

pub mod prop {
    //! Namespace mirror: `prop::collection::vec(...)`.
    pub use super::collection;
}

pub mod prelude {
    //! The usual `use proptest::prelude::*` surface.
    pub use super::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        Any, Just, ProptestConfig, ShrinkStep, Strategy, TestCaseError,
    };
}

/// Outcome of one generated case after shrinking, returned by
/// [`run_case`].
#[doc(hidden)]
pub enum CaseOutcome<V> {
    /// The case passed or was rejected by `prop_assume!`.
    Pass,
    /// The case failed; `minimal` is the greedily shrunk counterexample.
    Failed {
        minimal: V,
        message: String,
        shrinks: u32,
    },
}

/// Samples one case and, on failure, drives the greedy shrink loop: keep
/// any simpler candidate that still fails, re-shrink from there, stop
/// when none do or the re-run budget runs out. Rejected candidates count
/// as passing, so `prop_assume!` filters survive shrinking. Used by
/// [`proptest!`]; a plain function so the case closure gets its argument
/// type from this signature.
#[doc(hidden)]
pub fn run_case<S: Strategy>(
    strategy: &S,
    rng: &mut TestRng,
    run: impl Fn(&S::Value) -> Result<(), TestCaseError>,
) -> CaseOutcome<S::Value> {
    let value = strategy.sample(rng);
    let msg = match run(&value) {
        Ok(()) | Err(TestCaseError::Reject) => return CaseOutcome::Pass,
        Err(TestCaseError::Fail(msg)) => msg,
    };
    let mut best = value;
    let mut best_msg = msg;
    let mut shrinks = 0u32;
    let mut budget = 256u32;
    loop {
        let mut progress = false;
        for candidate in strategy.shrink(&best) {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if let Err(TestCaseError::Fail(m)) = run(&candidate) {
                best = candidate;
                best_msg = m;
                shrinks += 1;
                progress = true;
                break;
            }
        }
        if !progress || budget == 0 {
            break;
        }
    }
    CaseOutcome::Failed {
        minimal: best,
        message: best_msg,
        shrinks,
    }
}

/// Defines deterministic property tests; see the crate docs for the
/// supported subset (greedy shrinking, no `#[test]` injection — write
/// the attribute yourself, as upstream proptest's examples do).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{@impl ($cfg); $($rest)*}
    };
    (@impl ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($param:pat_param in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            // All params fold into one tuple strategy so a failing draw
            // can be shrunk as a unit.
            let __strategy = ($(($strat),)*);
            for case in 0..config.cases {
                let __outcome = $crate::run_case(&__strategy, &mut rng, |__input| {
                    let ($($param,)*) = ::std::clone::Clone::clone(__input);
                    $body
                    ::std::result::Result::Ok(())
                });
                if let $crate::CaseOutcome::Failed {
                    minimal: __minimal,
                    message: __message,
                    shrinks: __shrinks,
                } = __outcome
                {
                    panic!(
                        "[{}] case {case}/{} failed: {}\n  inputs ({} shrinks): {} = {:?}",
                        stringify!($name),
                        config.cases,
                        __message,
                        __shrinks,
                        stringify!(($($param),*)),
                        &__minimal
                    )
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!{@impl ($crate::ProptestConfig::default()); $($rest)*}
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{} (left: {:?}, right: {:?})", format!($($fmt)+), l, r
        );
    }};
}

/// Fails the current case if both sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0u64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 5);
        }

        #[test]
        fn tuples_and_vecs(v in collection::vec((0u32..50, 1u32..4), 0..20)) {
            prop_assert!(v.len() < 20);
            for (a, b) in v {
                prop_assert!(a < 50 && (1..4).contains(&b), "bad pair ({a}, {b})");
            }
        }

        #[test]
        fn map_applies(doubled in (0u32..100).prop_map(|x| x * 2)) {
            prop_assert_eq!(doubled % 2, 0);
        }

        #[test]
        fn assume_skips(x in 0u32..10) {
            prop_assume!(x > 3);
            prop_assert!(x > 3);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(b in any::<bool>(), x in 0u32..7) {
            prop_assert_ne!(u32::from(b), 2);
            prop_assert!(x < 7);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = super::test_rng("t");
        let mut b = super::test_rng("t");
        let s = (0u32..1000, 0u64..9);
        assert_eq!(Strategy::sample(&s, &mut a), Strategy::sample(&s, &mut b));
    }

    #[test]
    #[should_panic(expected = "case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn inner(x in 0u32..2) {
                prop_assert!(x > 100, "x = {x}");
            }
        }
        inner();
    }

    #[test]
    fn failures_report_shrunk_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn inner(pair in (10u32..20, 30u64..40), flag in any::<bool>()) {
                prop_assert!(false, "forced failure");
            }
        }
        let panic = std::panic::catch_unwind(inner).expect_err("inner must fail");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        // An always-failing body shrinks every component to its minimum:
        // both range starts and `false`.
        assert!(
            msg.contains("(pair, flag) = ((10, 30), false)"),
            "inputs not fully shrunk: {msg}"
        );
    }

    #[test]
    fn integers_shrink_to_the_failure_boundary() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[allow(unused)]
            fn inner(x in 7u32..1000) {
                prop_assert!(x < 25, "x = {x}");
            }
        }
        let panic = std::panic::catch_unwind(inner).expect_err("inner must fail");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        // 25 is the smallest failing value; halving plus the decrement
        // step must land exactly on it, not merely near it.
        assert!(
            msg.contains("(x) = (25,)"),
            "not shrunk to the boundary: {msg}"
        );
    }

    #[test]
    fn vecs_shrink_by_truncation_and_element_shrinks() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[allow(unused)]
            fn inner(v in collection::vec(0u32..100, 0..30)) {
                prop_assert!(v.len() < 3, "len = {}", v.len());
            }
        }
        let panic = std::panic::catch_unwind(inner).expect_err("inner must fail");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        // Minimal counterexample: shortest failing length with every
        // element shrunk to the range start.
        assert!(msg.contains("(v) = ([0, 0, 0],)"), "not minimal: {msg}");
    }

    #[test]
    fn shrinking_respects_assume_filters() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[allow(unused)]
            fn inner(x in 0u32..1000) {
                prop_assume!(x >= 10);
                prop_assert!(x < 40, "x = {x}");
            }
        }
        let panic = std::panic::catch_unwind(inner).expect_err("inner must fail");
        let msg = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        // Candidates below the assume threshold are rejected, not
        // counted as failures, so the minimum stays in the valid region.
        assert!(
            msg.contains("(x) = (40,)"),
            "shrink crossed the assume filter: {msg}"
        );
    }
}
