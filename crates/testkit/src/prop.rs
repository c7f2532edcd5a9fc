//! A minimal property-testing harness: randomized inputs from composable
//! [`Strategy`] values, a per-property case budget, **seed reporting** on
//! failure, and greedy input shrinking for integers, floats and vectors.
//!
//! # Model
//!
//! A property is an ordinary function from a generated input to
//! `Result<(), String>`; panics inside the property (e.g. a failed
//! `assert_eq!` deep inside a rank closure) are caught and treated as
//! failures too. The runner derives one independent seed per case from a
//! master seed; when a case fails, the input is greedily shrunk and the
//! harness panics with the **case seed**, so the exact failing case can be
//! replayed in isolation:
//!
//! ```text
//! property 'tuned_bcast_correct' failed (case 17 of 48).
//!   rerun just this case with: TESTKIT_SEED=0x9a3c... cargo test ...
//! ```
//!
//! Setting the `TESTKIT_SEED` environment variable makes every `check` call
//! run exactly that one case — reproducing the failure deterministically
//! (the generators in [`crate::rng`] are pure functions of the seed).
//!
//! # Example (and proof of the replay contract)
//!
//! ```
//! use testkit::prop::{self, Strategy};
//!
//! // A property that is false for large values.
//! let prop = |v: &u64| if *v < 1000 { Ok(()) } else { Err(format!("{v} too big")) };
//!
//! let failure = prop::run(prop::Config::cases(64), &prop::any_u64(), &prop)
//!     .expect_err("property must fail");
//! // The reported seed replays the same failing case:
//! let replay = prop::run_seed(failure.seed, &prop::any_u64(), &prop)
//!     .expect_err("replay must fail again");
//! assert_eq!(replay.seed, failure.seed);
//! // ...and shrinking drove the input to the minimal counterexample.
//! assert_eq!(failure.input, "1000");
//! ```

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, SplitMix64, Xoshiro256StarStar};

/// Outcome type for properties: `Ok(())` passes, `Err(reason)` fails.
pub type PropResult = Result<(), String>;

/// How a property run is budgeted.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases to run.
    cases: u32,
    /// Upper bound on shrink attempts once a case fails.
    max_shrink_steps: u32,
}

impl Config {
    /// Config running `cases` random cases (with the default shrink budget).
    pub fn cases(cases: u32) -> Self {
        Self { cases, max_shrink_steps: 16_384 }
    }
}

/// A generator-plus-shrinker for values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value: Clone + Debug;

    /// Produce one random value.
    fn generate(&self, rng: &mut Xoshiro256StarStar) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. An empty vector
    /// means the value is fully shrunk.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value>;
}

/// A minimal counterexample, with everything needed to replay it.
#[derive(Debug)]
pub struct Failure {
    /// Case seed: `run_seed(seed, ...)` regenerates the original input.
    pub seed: u64,
    /// Which case (0-based) out of the budget failed.
    pub case: u32,
    /// `Debug` rendering of the *shrunk* failing input.
    pub input: String,
    /// The property's error message (or the caught panic payload).
    pub error: String,
}

/// Check a named property and panic with a replayable report on failure.
///
/// This is the entry point test functions use. `TESTKIT_SEED` (hex with
/// optional `0x` prefix, or decimal) overrides the whole run with a single
/// deterministic case.
pub fn check<S, P>(name: &str, config: Config, strategy: &S, property: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    let outcome = match seed_override() {
        Some(seed) => run_seed(seed, strategy, &property),
        None => run(config, strategy, &property),
    };
    if let Err(f) = outcome {
        panic!(
            "property '{name}' failed (case {case} of {cases}).\n  \
             rerun just this case with: TESTKIT_SEED={seed:#018x} cargo test {name}\n  \
             failing input (shrunk): {input}\n  \
             error: {error}",
            case = f.case,
            cases = config.cases,
            seed = f.seed,
            input = f.input,
            error = f.error,
        );
    }
}

/// Run the property over `config.cases` random cases; `Err` carries the
/// shrunk counterexample of the first failing case.
pub fn run<S, P>(config: Config, strategy: &S, property: &P) -> Result<(), Failure>
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    let mut seeder = SplitMix64::new(master_seed());
    for case in 0..config.cases {
        let case_seed = seeder.next_u64();
        run_case(case_seed, case, config.max_shrink_steps, strategy, property)?;
    }
    Ok(())
}

/// Run exactly one case from `seed` (the replay path).
pub fn run_seed<S, P>(seed: u64, strategy: &S, property: &P) -> Result<(), Failure>
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    run_case(seed, 0, Config::cases(1).max_shrink_steps, strategy, property)
}

fn run_case<S, P>(
    case_seed: u64,
    case: u32,
    max_shrink_steps: u32,
    strategy: &S,
    property: &P,
) -> Result<(), Failure>
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    let mut rng = Xoshiro256StarStar::new(case_seed);
    let value = strategy.generate(&mut rng);
    let Some(error) = fails(property, &value) else {
        return Ok(());
    };
    let (value, error) = shrink_failure(strategy, property, value, error, max_shrink_steps);
    Err(Failure { seed: case_seed, case, input: format!("{value:?}"), error })
}

/// Greedy shrink: repeatedly adopt the first candidate that still fails,
/// until no candidate fails or the step budget runs out.
fn shrink_failure<S, P>(
    strategy: &S,
    property: &P,
    mut value: S::Value,
    mut error: String,
    max_steps: u32,
) -> (S::Value, String)
where
    S: Strategy,
    P: Fn(&S::Value) -> PropResult,
{
    let mut steps = 0u32;
    'progress: loop {
        for candidate in strategy.shrink(&value) {
            if steps >= max_steps {
                break 'progress;
            }
            steps += 1;
            if let Some(e) = fails(property, &candidate) {
                value = candidate;
                error = e;
                continue 'progress;
            }
        }
        break;
    }
    (value, error)
}

/// `Some(message)` when the property fails on `value` (by `Err` or panic).
fn fails<V, P>(property: &P, value: &V) -> Option<String>
where
    P: Fn(&V) -> PropResult,
{
    match catch_unwind(AssertUnwindSafe(|| property(value))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_owned()
    }
}

fn seed_override() -> Option<u64> {
    let raw = std::env::var("TESTKIT_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("TESTKIT_SEED={raw:?} is not a decimal or 0x-hex u64"),
    }
}

/// Master seed for the whole run: fixed (deterministic CI) unless
/// `TESTKIT_MASTER_SEED` asks for a different exploration stream.
fn master_seed() -> u64 {
    match std::env::var("TESTKIT_MASTER_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => raw.parse(),
            }
            .unwrap_or_else(|_| panic!("TESTKIT_MASTER_SEED={raw:?} is not a u64"))
        }
        // No registry, no clock: a fixed master seed keeps CI deterministic;
        // vary it explicitly to explore fresh inputs.
        Err(_) => 0x5EED_CAFE_7E57_0001,
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Integer ranges `[lo, hi)`, shrinking toward `lo`.
macro_rules! int_range_strategy {
    ($name:ident, $fn_name:ident, $ty:ty, $gen:ident) => {
        /// Strategy for a half-open integer range, shrinking toward the low end.
        #[derive(Debug, Clone)]
        pub struct $name {
            lo: $ty,
            hi: $ty,
        }

        /// Uniform values in `range`, shrinking toward `range.start`.
        pub fn $fn_name(range: Range<$ty>) -> $name {
            assert!(range.start < range.end, "empty range {range:?}");
            $name { lo: range.start, hi: range.end }
        }

        impl Strategy for $name {
            type Value = $ty;

            fn generate(&self, rng: &mut Xoshiro256StarStar) -> $ty {
                rng.$gen(self.lo as _, self.hi as _) as $ty
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                let v = *value;
                let mut out = Vec::new();
                if v > self.lo {
                    // simplest first: the low end, then halving the distance,
                    // then the immediate predecessor
                    out.push(self.lo);
                    let mid = self.lo + (v - self.lo) / 2;
                    if mid != self.lo && mid != v {
                        out.push(mid);
                    }
                    if v - 1 != self.lo && (v - 1) != mid {
                        out.push(v - 1);
                    }
                }
                out
            }
        }
    };
}

int_range_strategy!(UsizeRange, usize_range, usize, gen_range_u64);
int_range_strategy!(U8Range, u8_range, u8, gen_range_u64);
int_range_strategy!(U32Range, u32_range, u32, gen_range_u64);
int_range_strategy!(U64Range, u64_range, u64, gen_range_u64);

/// Full-range `u64`, shrinking toward 0.
#[derive(Debug, Clone)]
pub struct AnyU64;

/// Any `u64`, shrinking toward 0.
pub fn any_u64() -> AnyU64 {
    AnyU64
}

impl Strategy for AnyU64 {
    type Value = u64;

    fn generate(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        rng.next_u64()
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out = Vec::new();
        if v > 0 {
            out.push(0);
            if v / 2 != 0 {
                out.push(v / 2);
            }
            if v - 1 != 0 && v - 1 != v / 2 {
                out.push(v - 1);
            }
        }
        out
    }
}

/// Full-range `u8`, shrinking toward 0.
#[derive(Debug, Clone)]
pub struct AnyU8;

/// Any `u8`, shrinking toward 0.
pub fn any_u8() -> AnyU8 {
    AnyU8
}

impl Strategy for AnyU8 {
    type Value = u8;

    fn generate(&self, rng: &mut Xoshiro256StarStar) -> u8 {
        rng.next_u64() as u8
    }

    fn shrink(&self, value: &u8) -> Vec<u8> {
        let v = *value;
        let mut out = Vec::new();
        if v > 0 {
            out.push(0);
            if v / 2 != 0 {
                out.push(v / 2);
            }
        }
        out
    }
}

/// Uniform `f64` in `[lo, hi)`, shrinking toward `lo`.
#[derive(Debug, Clone)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` values in `range`, shrinking toward `range.start`.
pub fn f64_range(range: Range<f64>) -> F64Range {
    assert!(range.start < range.end, "empty range {range:?}");
    F64Range { lo: range.start, hi: range.end }
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        rng.gen_range_f64(self.lo, self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let mut out = Vec::new();
        if v > self.lo {
            out.push(self.lo);
            let mid = self.lo + (v - self.lo) / 2.0;
            if mid > self.lo && mid < v {
                out.push(mid);
            }
        }
        out
    }
}

/// Coin flip, shrinking `true → false`.
#[derive(Debug, Clone)]
pub struct AnyBool;

/// Either boolean, shrinking toward `false`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut Xoshiro256StarStar) -> bool {
        rng.gen_bool()
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            vec![]
        }
    }
}

/// Vectors of values from an element strategy, with a random length drawn
/// from `[min_len, max_len)`.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

/// `Vec<S::Value>` with length in `len` and elements from `element`.
///
/// Shrinking first drops chunks of elements (halves, then quarters, …, then
/// single elements, never below the minimum length), then shrinks individual
/// elements in place — the classic list-shrinking order.
pub fn vec_of<S: Strategy>(element: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty length range {len:?}");
    VecOf { element, min_len: len.start, max_len: len.end }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Xoshiro256StarStar) -> Vec<S::Value> {
        let len = self.min_len + rng.gen_index(self.max_len - self.min_len);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // 1) remove chunks, biggest first
        let mut chunk = len.saturating_sub(self.min_len);
        while chunk >= 1 {
            let mut start = 0;
            while start + chunk <= len {
                if len - chunk >= self.min_len {
                    let mut shorter = Vec::with_capacity(len - chunk);
                    shorter.extend_from_slice(&value[..start]);
                    shorter.extend_from_slice(&value[start + chunk..]);
                    out.push(shorter);
                }
                start += chunk.max(1);
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // 2) shrink elements in place (first shrink candidate of each slot)
        for (i, v) in value.iter().enumerate() {
            for cand in self.element.shrink(v).into_iter().take(2) {
                let mut copy = value.clone();
                copy[i] = cand;
                out.push(copy);
            }
        }
        out
    }
}

/// Tuples of strategies generate tuples of values; shrinking simplifies one
/// component at a time.
macro_rules! tuple_strategy {
    ($($S:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut Xoshiro256StarStar) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut copy = value.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        run(Config::cases(100), &usize_range(0..50), &|v: &usize| {
            if *v < 50 {
                Ok(())
            } else {
                Err("out of range".into())
            }
        })
        .expect("property holds");
    }

    #[test]
    fn failure_reports_seed_and_replay_reproduces() {
        // The acceptance contract: a failing property yields a seed, and
        // re-running with exactly that seed reproduces the failure.
        let strategy = (usize_range(0..1000), vec_of(any_u8(), 0..40));
        let property = |(n, v): &(usize, Vec<u8>)| {
            if *n >= 500 && !v.is_empty() {
                Err(format!("bad combination n={n} len={}", v.len()))
            } else {
                Ok(())
            }
        };
        let failure =
            run(Config::cases(200), &strategy, &property).expect_err("must fail eventually");
        let replay = run_seed(failure.seed, &strategy, &property)
            .expect_err("the reported seed must reproduce the failure");
        assert_eq!(replay.seed, failure.seed);
        assert_eq!(replay.input, failure.input, "replay shrinks to the same input");
    }

    #[test]
    fn shrinking_minimizes_ints_and_vecs() {
        // ints shrink to the smallest failing value
        let failure = run(Config::cases(64), &usize_range(0..10_000), &|v: &usize| {
            if *v < 777 {
                Ok(())
            } else {
                Err("too big".into())
            }
        })
        .expect_err("must fail");
        assert_eq!(failure.input, "777", "greedy shrink finds the boundary");

        // vecs shrink to the shortest failing length
        let failure = run(Config::cases(64), &vec_of(any_u8(), 0..200), &|v: &Vec<u8>| {
            if v.len() < 5 {
                Ok(())
            } else {
                Err("too long".into())
            }
        })
        .expect_err("must fail");
        let shrunk: Vec<u8> = {
            // parse "[a, b, …]" back just by counting commas — the exact
            // elements do not matter, only the minimal length
            let inner = failure.input.trim_start_matches('[').trim_end_matches(']');
            inner.split(',').filter(|s| !s.trim().is_empty()).map(|_| 0).collect()
        };
        assert_eq!(shrunk.len(), 5, "minimal failing vector length");
    }

    #[test]
    fn panics_are_caught_as_failures() {
        let failure = run(Config::cases(16), &u8_range(0..20), &|v: &u8| {
            assert!(*v < 200, "assert inside property");
            if *v >= 10 {
                panic!("boom at {v}");
            }
            Ok(())
        })
        .expect_err("panicking property must fail");
        assert!(failure.error.contains("boom"), "panic payload surfaced: {}", failure.error);
        assert_eq!(failure.input, "10", "shrunk to the smallest panicking value");
    }

    #[test]
    fn tuples_shrink_componentwise() {
        let strategy = (any_bool(), u32_range(0..100));
        let failure = run(Config::cases(128), &strategy, &|&(flag, v): &(bool, u32)| {
            if flag && v > 10 {
                Err("flagged large".into())
            } else {
                Ok(())
            }
        })
        .expect_err("must fail");
        assert_eq!(failure.input, "(true, 11)", "both components minimized");
    }

    #[test]
    fn deterministic_master_seed_gives_stable_runs() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            let _ = run(Config::cases(10), &any_u64(), &|v: &u64| {
                seen.borrow_mut().push(*v);
                Ok(())
            });
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
