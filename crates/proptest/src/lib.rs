#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! In-tree, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the subset of the proptest 1.x API its property tests use: the
//! [`Strategy`] trait with `prop_map`, strategies for integer ranges,
//! tuples, [`Just`], [`any`], [`collection::vec`], [`option::of`], simple
//! string patterns, the [`prop_oneof!`] union, and the [`proptest!`] test
//! harness macro with [`ProptestConfig`].
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports the seed and case index;
//!   re-running is deterministic, so the failure reproduces exactly.
//! * **Panics instead of `TestCaseError`.** `prop_assert*` macros expand
//!   to the standard assertions.
//! * String strategies support only `[c1-c2...]{lo,hi}` character-class
//!   patterns (the one form used in this workspace) and literal strings.
//!
//! Case count can be overridden globally with `PROPTEST_CASES=n`.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Runner configuration accepted by `#![proptest_config(..)]`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Cases after applying the `PROPTEST_CASES` environment override.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The random source handed to strategies.
pub type TestRng = StdRng;

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generates with `self`, then with the strategy `f` builds from the
    /// value (dependent generation).
    fn prop_flat_map<U, S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy<Value = U>,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// A reference-counted, type-erased strategy (cloneable).
pub struct BoxedStrategy<V> {
    inner: Rc<dyn Strategy<Value = V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
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
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform strategy over every value of `T` (via the `rand` shim's
/// `Standard` distribution).
#[derive(Clone, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::sample(rng)
    }
}

/// `any::<T>()` — uniform values of `T`.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, G)
}

/// String pattern strategy: `"[c1-c2...]{lo,hi}"` generates strings of
/// `lo..=hi` characters drawn from the class; any other literal generates
/// itself verbatim.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        if let Some((chars, lo, hi)) = parse_class_pattern(self) {
            let len = rng.gen_range(lo..=hi);
            (0..len)
                .map(|_| chars[rng.gen_range(0..chars.len())])
                .collect()
        } else {
            (*self).to_string()
        }
    }
}

/// Parses `[a-z0_...]{lo,hi}` into (alphabet, lo, hi).
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let reps = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = reps.split_once(',')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    let mut chars = Vec::new();
    let cs: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            let (a, b) = (cs[i] as u32, cs[i + 2] as u32);
            for c in a..=b {
                chars.push(char::from_u32(c)?);
            }
            i += 3;
        } else {
            chars.push(cs[i]);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    Some((chars, lo, hi))
}

/// A uniform choice among same-valued strategies (backs [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over the given options (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            options: self.options.clone(),
        }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Sizes accepted by [`vec()`].
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, size)` — vectors of generated elements.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy for `Option<S::Value>` (3:1 Some:None, like upstream's
    /// default probability).
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `of(strategy)` — optional values.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Derives a stable 64-bit seed for a named property function.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a; stable across runs and platforms so failures reproduce.
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Makes a fresh deterministic RNG for case `case` of property `name`.
pub fn rng_for(name: &str, case: u32) -> TestRng {
    let mut seeder = TestRng::seed_from_u64(seed_for(name) ^ (u64::from(case) << 32));
    // Burn a few values so nearby seeds decorrelate.
    for _ in 0..4 {
        let _ = seeder.next_u64();
    }
    seeder
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::option;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Uniform choice among listed strategies, all generating the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `#[test] fn name(binding in strategy, ..)`
/// runs its body over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])+
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = config.effective_cases();
            for case in 0..cases {
                let mut rng = $crate::rng_for(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)*
                // Name the case so a panic message locates the input.
                let run = || $body;
                run();
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::collection::vec;
    use super::prelude::*;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = super::rng_for("t", 0);
        let s = (0u32..10).prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
    }

    #[test]
    fn union_hits_all_arms() {
        let mut rng = super::rng_for("u", 1);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = super::rng_for("v", 2);
        let s = vec(any::<u8>(), 3..7);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn string_pattern_generates_class_chars() {
        let mut rng = super::rng_for("s", 3);
        let s = "[ -~]{0,40}";
        for _ in 0..100 {
            let v = Strategy::generate(&s, &mut rng);
            assert!(v.len() <= 40);
            assert!(v.chars().all(|c| (' '..='~').contains(&c)), "{v:?}");
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let s = vec(any::<u64>(), 0..16);
        let a = s.generate(&mut super::rng_for("d", 7));
        let b = s.generate(&mut super::rng_for("d", 7));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u32..100, v in vec(any::<bool>(), 0..8)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
        }
    }
}
