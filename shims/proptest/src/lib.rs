//! Offline stand-in for the `proptest` crate.
//!
//! The container building this repo has no route to a crates registry, so
//! the subset of proptest the workspace's property tests use is
//! reimplemented here:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`, ranges,
//!   tuples, [`Just`](strategy::Just),
//!   `any::<T>()` and weighted unions ([`prop_oneof!`]);
//! * [`collection::vec`] and [`collection::btree_map`];
//! * the [`proptest!`] test macro with `#![proptest_config(..)]` support,
//!   [`prop_assert!`] / [`prop_assert_eq!`];
//! * a deterministic per-test RNG (SplitMix64 seeded from the test name),
//!   overridable with `PROPTEST_SEED`; case count defaults to 64 and is
//!   overridable with `PROPTEST_CASES`.
//!
//! **No shrinking**: a failing case reports its seed, case index and the
//! generated inputs instead of minimizing them. Re-running is
//! deterministic, so a reported failure always reproduces.
//!
//! Swap this for the real crate by editing `[workspace.dependencies]` in
//! the root `Cargo.toml` once a registry is reachable.

pub mod arbitrary;
pub mod array;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use arbitrary::any;

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Build a weighted (or unweighted) union of strategies producing the same
/// value type. `N => strat` arms pick `strat` with probability N / total.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32,
               ::std::boxed::Box::new($strat) as ::std::boxed::Box<dyn $crate::strategy::DynStrategy<_>>)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strat),+)
    };
}

/// Non-fatal assertion inside a `proptest!` body: returns a
/// `TestCaseError` (so the harness can report seed + inputs) instead of
/// panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert!` for equality; reports both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`: {}",
            l, r, format!($($fmt)*));
    }};
}

/// `prop_assert!` for inequality; reports both sides.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `left != right`\n  both: `{:?}`", l);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `left != right`\n  both: `{:?}`: {}", l, format!($($fmt)*));
    }};
}

/// The property-test macro. Each `fn name(arg in strategy, ..) { body }`
/// becomes a test running `config.cases` deterministic cases; a failing
/// case reports its case index, seed and generated inputs. Arguments may
/// also use the `name: Type` shorthand for `name in any::<Type>()`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)) => {};
    (@with_config ($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($args:tt)*) $body:block
     $($rest:tt)*) => {
        $crate::proptest!(@args ($cfg) [$(#[$meta])*] $name [] ($($args)*) $body);
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config $($bad:tt)*) => {
        compile_error!("proptest! shim: unsupported item syntax inside proptest! block");
    };

    // Argument normalization: fold every `x in strategy` / `x: Type` into
    // `(x in strategy)` accumulator entries, then emit.
    (@args ($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*]
     ($arg:ident in $strat:expr, $($tail:tt)*) $body:block) => {
        $crate::proptest!(@args ($cfg) [$($meta)*] $name [$($acc)* ($arg in $strat)] ($($tail)*) $body);
    };
    (@args ($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*]
     ($arg:ident in $strat:expr) $body:block) => {
        $crate::proptest!(@args ($cfg) [$($meta)*] $name [$($acc)* ($arg in $strat)] () $body);
    };
    (@args ($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*]
     ($arg:ident : $ty:ty, $($tail:tt)*) $body:block) => {
        $crate::proptest!(@args ($cfg) [$($meta)*] $name
            [$($acc)* ($arg in $crate::arbitrary::any::<$ty>())] ($($tail)*) $body);
    };
    (@args ($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*]
     ($arg:ident : $ty:ty) $body:block) => {
        $crate::proptest!(@args ($cfg) [$($meta)*] $name
            [$($acc)* ($arg in $crate::arbitrary::any::<$ty>())] () $body);
    };
    (@args ($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*] () $body:block) => {
        $crate::proptest!(@emit ($cfg) [$($meta)*] $name [$($acc)*] $body);
    };
    (@args $($bad:tt)*) => {
        compile_error!("proptest! shim: unsupported argument syntax (expected `name in strategy` or `name: Type`)");
    };

    (@emit ($cfg:expr) [$($meta:tt)*] $name:ident
     [$(($arg:ident in $strat:expr))*] $body:block) => {
        $($meta)*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let base_seed = $crate::test_runner::base_seed(stringify!($name));
            $(let $arg = $strat;)*
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::new(
                    base_seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut rng);)*
                let inputs = format!(concat!($(stringify!($arg), " = {:?}\n"),*), $(&$arg),*);
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    }));
                $crate::test_runner::report(
                    stringify!($name), case, base_seed, &inputs, outcome);
            }
        }
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $($rest)*);
    };
}
