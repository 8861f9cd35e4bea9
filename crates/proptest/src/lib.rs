//! Offline, API-compatible subset of the `proptest` crate.
//!
//! Supports the forms this workspace's property tests actually use: the
//! [`proptest!`] macro with an optional `#![proptest_config(...)]` header,
//! range and [`any::<T>()`](strategy::any) strategies, tuple strategies,
//! [`collection::vec`], and the `prop_assert*` macros.
//!
//! Differences from upstream: failing cases are reported via panic with the
//! seed of the failing case, and there is **no shrinking** — the first
//! failing input is reported as-is.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies ([`collection::vec`]).
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use std::ops::{Range, RangeInclusive};

    /// Size specification for [`vec()`]: an exact length or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a strategy for vectors whose elements come from `element`
    /// and whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs, in one import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     #[test]
///     fn addition_commutes(a in 0_u32..1000, b in 0_u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
// The doctest defines a `#[test]` fn (that is how the macro is used);
// clippy's test_attr_in_doctest lint does not apply to macro usage docs.
#[allow(clippy::test_attr_in_doctest)]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::case_rng(stringify!($name), case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let run = || {
                        $body
                    };
                    if let Err(payload) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                        eprintln!(
                            "proptest: {} failed at case {case}/{}",
                            stringify!($name),
                            config.cases,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}
