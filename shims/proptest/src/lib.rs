//! Offline shim for the `proptest` crate.
//!
//! Implements the slice of proptest the workspace's property tests use:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map` / `prop_flat_map` /
//! `prop_filter` / `boxed`, integer-range and tuple and `Vec<BoxedStrategy>`
//! strategies, [`collection::vec`], [`any`], [`Just`], a small
//! regex-character-class string strategy, and the `prop_assert*` macros.
//!
//! Differences from upstream, deliberately accepted for an offline build:
//! - **No shrinking.** A failing case reports its case number and seed so it
//!   can be replayed (`PROPTEST_SEED`), but is not minimized.
//! - **Default case count is 64** (upstream: 256); override per test with
//!   `ProptestConfig::with_cases` or globally with `PROPTEST_CASES`.
//! - Generation is a plain seeded RNG walk; value distributions differ from
//!   upstream but cover the same domains.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG handed to strategies while generating one test case.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    pub fn seeded(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }
}

/// Why a test case failed; carried by `Err` results out of a case body.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        Self { cases }
    }
}

/// A generator of random values of one type.
///
/// Unlike upstream there is no value tree: `sample` directly produces a
/// value, and failing cases are not shrunk.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter {:?} rejected 10000 consecutive samples",
            self.whence
        );
    }
}

/// Type-erased strategy (`Strategy::boxed`).
pub struct BoxedStrategy<T> {
    inner: Box<dyn Strategy<Value = T>>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.inner.sample(rng)
    }
}

// Integer range strategies: `0u64..16`, `1u32..=64`, ...
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.below(span) as $t)
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.below(span + 1) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

// Tuples of strategies sample element-wise.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// A `Vec` of strategies samples each in order (used for per-dimension
/// coordinate strategies).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.sample(rng)).collect()
    }
}

/// Types with a canonical full-domain strategy, used by [`any`].
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for a type: `any::<u64>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection size specification accepted by [`collection::vec`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        Self {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// String strategies from regex-like patterns.
// ---------------------------------------------------------------------------

/// `&'static str` patterns act as string strategies. Supported syntax is the
/// subset the workspace uses: literal characters, `[...]` character classes
/// (with ranges and a literal trailing `-`), and the quantifiers `{n}`,
/// `{m,n}`, `?`, `+`, `*` (the unbounded ones are capped at 8 repeats).
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        sample_pattern(self, rng)
    }
}

fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom: a character class or a literal character.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated class in pattern {pattern:?}"));
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                    assert!(lo <= hi, "bad class range in pattern {pattern:?}");
                    for c in lo..=hi {
                        set.push(char::from_u32(c).unwrap());
                    }
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            i = close + 1;
            set
        } else {
            let c = if chars[i] == '\\' && i + 1 < chars.len() {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            i += 1;
            vec![c]
        };
        assert!(!alphabet.is_empty(), "empty class in pattern {pattern:?}");

        // Parse an optional quantifier.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unterminated quantifier in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((a, b)) => (
                    a.parse().expect("quantifier lower bound"),
                    b.parse().expect("quantifier upper bound"),
                ),
                None => {
                    let n: usize = body.parse().expect("quantifier count");
                    (n, n)
                }
            }
        } else if i < chars.len() && (chars[i] == '*' || chars[i] == '+' || chars[i] == '?') {
            let q = chars[i];
            i += 1;
            match q {
                '*' => (0, 8),
                '+' => (1, 8),
                _ => (0, 1),
            }
        } else {
            (1, 1)
        };

        let n = lo + rng.below((hi - lo + 1) as u64) as usize;
        for _ in 0..n {
            out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Test runner.
// ---------------------------------------------------------------------------

/// Run `config.cases` deterministic cases of one property. Called by the
/// [`proptest!`] expansion; not part of the public upstream API.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE_u64)
        ^ hash_name(name);
    for i in 0..config.cases {
        let seed = base
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::seeded(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("property {name} failed at case {i} (seed {seed:#x}): {e}"),
            Err(payload) => {
                eprintln!("property {name} panicked at case {i} (seed {seed:#x})");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, enough to decorrelate per-test streams.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Define property tests: `proptest! { #[test] fn p(x in strat) { ... } }`.
///
/// Bodies behave as in upstream proptest: they may `return Ok(());` early and
/// use the `prop_assert*` macros.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            #[allow(unreachable_code)]
            fn $name() {
                let __config = $cfg;
                let __strategy = ($($strat,)+);
                $crate::run_cases(__config, stringify!($name), |__rng| {
                    let ($($pat,)+) = $crate::Strategy::sample(&__strategy, __rng);
                    let __body = || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __body()
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg {}", args)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)` / `prop_assert_eq!(a, b, "msg {}", args)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = &$left;
        let __r = &$right;
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = &$left;
        let __r = &$right;
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// `prop_assert_ne!(a, b)`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = &$left;
        let __r = &$right;
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                __l, __r
            )));
        }
    }};
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };

    /// Mirror of upstream's `prelude::prop` module path (`prop::collection`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seeded(1);
        for _ in 0..500 {
            let v = Strategy::sample(&(3u64..7), &mut rng);
            assert!((3..7).contains(&v));
            let w = Strategy::sample(&(2u32..=4), &mut rng);
            assert!((2..=4).contains(&w));
        }
    }

    #[test]
    fn vec_and_tuple_composition() {
        let mut rng = TestRng::seeded(2);
        let strat = prop::collection::vec((0u64..16, 0u32..100), 1..=5);
        for _ in 0..100 {
            let v = Strategy::sample(&strat, &mut rng);
            assert!((1..=5).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 16 && b < 100);
            }
        }
    }

    #[test]
    fn boxed_and_vec_of_strategies() {
        let mut rng = TestRng::seeded(3);
        let cols: Vec<BoxedStrategy<u64>> = (1..=4u32).map(|b| (0u64..(1 << b)).boxed()).collect();
        let strat = (Just(vec![1u32, 2, 3, 4]), cols);
        let (widths, coords) = Strategy::sample(&strat, &mut rng);
        assert_eq!(widths, vec![1, 2, 3, 4]);
        assert_eq!(coords.len(), 4);
        for (i, &c) in coords.iter().enumerate() {
            assert!(c < (1 << (i as u32 + 1)));
        }
    }

    #[test]
    fn string_pattern_subset() {
        let mut rng = TestRng::seeded(4);
        for _ in 0..200 {
            let s = Strategy::sample(&"[a-z0-9-]{0,16}", &mut rng);
            assert!(s.len() <= 16);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
        let t = Strategy::sample(&"ab[0-1]{3}", &mut rng);
        assert!(t.starts_with("ab") && t.len() == 5);
    }

    #[test]
    fn filter_and_flat_map() {
        let mut rng = TestRng::seeded(5);
        let strat = prop::collection::vec(1u32..=4, 1..=4)
            .prop_filter("small sum", |w| w.iter().sum::<u32>() <= 6)
            .prop_flat_map(|w| (Just(w.len()), prop::collection::vec(0u64..4, w.len())));
        for _ in 0..100 {
            let (n, v) = Strategy::sample(&strat, &mut rng);
            assert_eq!(n, v.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: patterns, early return, assertion macros.
        #[test]
        fn macro_smoke((a, b) in (0u64..50, 0u64..50), flip in any::<bool>()) {
            prop_assert!(a < 50 && b < 50, "bounds {} {}", a, b);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, a + 1);
            if flip {
                return Ok(());
            }
            prop_assert!(a + b < 100);
        }
    }

    #[test]
    fn failing_property_panics_with_context() {
        let err = std::panic::catch_unwind(|| {
            crate::run_cases(ProptestConfig::with_cases(10), "always_fails", |rng| {
                let v = Strategy::sample(&(0u64..10), rng);
                if v < 100 {
                    Err(TestCaseError::fail("expected"))
                } else {
                    Ok(())
                }
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails") && msg.contains("expected"));
    }
}
