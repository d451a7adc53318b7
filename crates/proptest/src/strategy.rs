//! Value-generation strategies.

use crate::test_runner::TestRng;

/// Generates values of an associated type from a deterministic RNG.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy
/// is just a reproducible sampler.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        T: std::fmt::Debug,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

impl<V: std::fmt::Debug> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        (**self).new_value(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    T: std::fmt::Debug,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Strategy backed by a sampling closure; used by `prop_compose!`.
pub struct FnStrategy<F>(F);

impl<F, T> FnStrategy<F>
where
    T: std::fmt::Debug,
    F: Fn(&mut TestRng) -> T,
{
    /// Wraps a sampling function.
    pub fn new(f: F) -> Self {
        FnStrategy(f)
    }
}

impl<F, T> Strategy for FnStrategy<F>
where
    T: std::fmt::Debug,
    F: Fn(&mut TestRng) -> T,
{
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Uniform choice between boxed strategies; used by `prop_oneof!`.
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V: std::fmt::Debug> Union<V> {
    /// Creates a union with no arms (arms are added via [`Union::push`]).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    /// Adds an arm.
    pub fn push<S>(&mut self, s: S)
    where
        S: Strategy<Value = V> + 'static,
    {
        self.arms.push(Box::new(s));
    }
}

impl<V: std::fmt::Debug> Strategy for Union<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
        let pick = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[pick].new_value(rng)
    }
}

/// `Vec` strategy; see [`crate::collection::vec`].
pub struct VecStrategy<S> {
    element: S,
    lo: usize,
    hi: usize,
}

impl<S: Strategy> VecStrategy<S> {
    pub(crate) fn new(element: S, lo: usize, hi: usize) -> Self {
        VecStrategy { element, lo, hi }
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.hi - self.lo).max(1) as u64;
        let len = self.lo + (rng.next_u64() % span) as usize;
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                (*self.start() as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
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
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draws an unconstrained value.
    fn sample(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn sample(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn sample(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    fn sample(rng: &mut TestRng) -> char {
        char::from_u32((rng.next_u64() % 0xD800) as u32).unwrap_or('\u{0}')
    }
}

/// Full-domain strategy for an [`Arbitrary`] type.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::sample(rng)
    }
}

/// The canonical strategy for `T` (`any::<bool>()`, `any::<u64>()`, ...).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Builds a [`Union`] over heterogeneous strategy arms that share a
/// value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let mut u = $crate::strategy::Union::new();
        $(u.push($arm);)+
        u
    }};
}

/// Defines a function returning a composed strategy.
///
/// Supports the common form used in this workspace:
///
/// ```
/// use proptest::prelude::*;
///
/// #[derive(Debug)]
/// struct Thing {
///     a: u64,
///     b: bool,
/// }
///
/// prop_compose! {
///     fn my_strategy()(a in 0u64..10, b in any::<bool>()) -> Thing {
///         Thing { a, b }
///     }
/// }
///
/// let mut rng = proptest::test_runner::TestRng::for_case(0);
/// let thing = my_strategy().new_value(&mut rng);
/// assert!(thing.a < 10);
/// ```
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($oarg:ident: $oty:ty),* $(,)?)
                              ($($p:pat in $s:expr),+ $(,)?) -> $ret:ty
        $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($oarg: $oty),*)
            -> impl $crate::strategy::Strategy<Value = $ret>
        {
            $crate::strategy::FnStrategy::new(
                move |rng: &mut $crate::test_runner::TestRng| -> $ret {
                    $(let $p = $crate::strategy::Strategy::new_value(&($s), rng);)+
                    $body
                },
            )
        }
    };
}
