//! Generator combinators ("strategies") for property-based tests.
//!
//! A [`Strategy`] knows how to produce a random value from a
//! [`SplitMix64`] stream and how to propose *smaller* candidate values
//! when a property fails ([`Strategy::shrink`]). The combinator set
//! deliberately mirrors the fraction of `proptest` this workspace used —
//! integer ranges, `Just`, `one_of`/`weighted`, `vec_of`, `map`,
//! `filter`, recursive structures and tuples — so the ported tests read
//! almost identically to their originals.
//!
//! Shrinking is *value-based*: each strategy proposes candidates derived
//! from the failing value (integers move toward the range start, vectors
//! drop and shrink elements, tuples shrink one component at a time).
//! Mapped strategies cannot invert their closure and propose nothing;
//! the runner simply keeps the original failing value then.

use crate::rng::SplitMix64;
use std::fmt::Debug;
use std::rc::Rc;

/// A generator of random values with optional shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Draws one value from the stream.
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value;

    /// Proposes simpler candidates for a failing value. Candidates need
    /// not come from the same distribution — the runner re-checks each.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// A reference-counted, type-erased strategy (clonable, so it can be
/// reused inside recursive constructions).
pub type RcStrategy<T> = Rc<dyn Strategy<Value = T>>;

impl<T: Clone + Debug> Strategy for RcStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix64) -> T {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut SplitMix64) -> S::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &S::Value) -> Vec<S::Value> {
        (**self).shrink(value)
    }
}

/// Extension methods for sized strategies.
pub trait StrategyExt: Strategy + Sized {
    /// Applies `f` to every generated value (proptest: `prop_map`). (No shrinking through the
    /// closure — `f` has no inverse.)
    fn prop_map<T: Clone + Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Discards generated values failing `pred`, with bounded retries
    /// (proptest: `prop_filter`).
    fn prop_filter<P: Fn(&Self::Value) -> bool>(
        self,
        what: &'static str,
        pred: P,
    ) -> Filter<Self, P> {
        Filter {
            inner: self,
            what,
            pred,
        }
    }

    /// Erases the concrete type.
    fn rc(self) -> RcStrategy<Self::Value>
    where
        Self: 'static,
    {
        Rc::new(self)
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

/// Always produces a clone of the given value.
#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SplitMix64) -> T {
        self.0.clone()
    }
}

/// See [`StrategyExt::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Clone + Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix64) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`StrategyExt::prop_filter`].
pub struct Filter<S, P> {
    inner: S,
    what: &'static str,
    pred: P,
}

impl<S: Strategy, P: Fn(&S::Value) -> bool> Strategy for Filter<S, P> {
    type Value = S::Value;
    fn generate(&self, rng: &mut SplitMix64) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "[testkit] filter '{}' rejected 1000 candidates in a row",
            self.what
        );
    }
    fn shrink(&self, value: &S::Value) -> Vec<S::Value> {
        self.inner
            .shrink(value)
            .into_iter()
            .filter(|v| (self.pred)(v))
            .collect()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                // halvings toward the range start (big jumps first),
                // then the decrement (so shrinking reaches boundaries)
                let mut out = Vec::new();
                let mut v = *value;
                while v > self.start {
                    let mid = self.start + (v - self.start) / 2;
                    out.push(mid);
                    if mid == self.start {
                        break;
                    }
                    v = mid;
                }
                if *value > self.start {
                    out.push(*value - 1);
                }
                out
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

/// Uniform choice between equally-weighted alternatives.
pub fn one_of<T: Clone + Debug>(branches: Vec<RcStrategy<T>>) -> OneOf<T> {
    OneOf {
        branches: branches.into_iter().map(|b| (1, b)).collect(),
        total: 0,
    }
    .finish()
}

/// Weighted choice between alternatives.
pub fn weighted<T: Clone + Debug>(branches: Vec<(u32, RcStrategy<T>)>) -> OneOf<T> {
    OneOf { branches, total: 0 }.finish()
}

/// See [`one_of`] / [`weighted`].
pub struct OneOf<T> {
    branches: Vec<(u32, RcStrategy<T>)>,
    total: u32,
}

impl<T> OneOf<T> {
    fn finish(mut self) -> Self {
        assert!(!self.branches.is_empty(), "one_of of nothing");
        self.total = self.branches.iter().map(|(w, _)| *w).sum();
        assert!(self.total > 0, "one_of with zero total weight");
        self
    }
}

impl<T: Clone + Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix64) -> T {
        let mut roll = rng.below(self.total as usize) as u32;
        for (w, b) in &self.branches {
            if roll < *w {
                return b.generate(rng);
            }
            roll -= w;
        }
        unreachable!("weights sum to total")
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        // We no longer know which branch produced the value; collect
        // every branch's proposals (the runner re-validates them all).
        self.branches
            .iter()
            .flat_map(|(_, b)| b.shrink(value))
            .collect()
    }
}

/// Vectors of `lo..hi` (half-open) elements drawn from `inner`.
pub fn vec_of<S: Strategy>(inner: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { inner, len }
}

/// See [`vec_of`].
pub struct VecStrategy<S> {
    inner: S,
    len: std::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut SplitMix64) -> Vec<S::Value> {
        let n = rng.range(self.len.start, self.len.end);
        (0..n).map(|_| self.inner.generate(rng)).collect()
    }
    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // drop one element (front-biased), respecting the minimum length
        if value.len() > self.len.start {
            for i in 0..value.len() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // shrink one element in place
        for (i, el) in value.iter().enumerate() {
            for cand in self.inner.shrink(el) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($S:ident $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
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
}

/// Builds a strategy for recursive structures: `leaf` at the bottom,
/// `depth` applications of `grow` above it, with a leaf escape hatch at
/// every level so expected sizes stay bounded.
pub fn recursive<T: Clone + Debug + 'static>(
    leaf: RcStrategy<T>,
    depth: usize,
    grow: impl Fn(RcStrategy<T>) -> RcStrategy<T>,
) -> RcStrategy<T> {
    let mut s = leaf.clone();
    for _ in 0..depth {
        let deeper = grow(s);
        s = weighted(vec![(2, deeper), (1, leaf.clone())]).rc();
    }
    s
}

/// Expands a compact character-class description (`"a-z0-9_-"`,
/// `" -~"`) into its character set. Only single chars and `x-y` ranges —
/// a trailing or leading `-` is literal.
pub fn charset(desc: &str) -> Vec<char> {
    let cs: Vec<char> = desc.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            let (lo, hi) = (cs[i], cs[i + 2]);
            assert!(lo <= hi, "bad charset range {lo}-{hi}");
            for c in lo..=hi {
                out.push(c);
            }
            i += 3;
        } else {
            out.push(cs[i]);
            i += 1;
        }
    }
    out
}

/// Strings of `len` characters drawn uniformly from `class` (a
/// [`charset`] description).
pub fn string_of(class: &str, len: std::ops::Range<usize>) -> RcStrategy<String> {
    let chars = charset(class);
    assert!(!chars.is_empty(), "empty charset");
    vec_of(0..chars.len(), len)
        .prop_map(move |ixs| ixs.into_iter().map(|i| chars[i]).collect::<String>())
        .rc()
}

/// Identifier-shaped strings: one char from `first`, then `lo..hi`
/// chars from `rest` (mirrors regexes like `[a-z][a-z0-9_-]{0,8}`).
pub fn ident(first: &str, rest: &str, tail: std::ops::Range<usize>) -> RcStrategy<String> {
    let f = charset(first);
    let r = charset(rest);
    assert!(!f.is_empty() && !r.is_empty(), "empty charset");
    (0..f.len(), vec_of(0..r.len(), tail))
        .prop_map(move |(h, ixs)| {
            let mut s = String::with_capacity(1 + ixs.len());
            s.push(f[h]);
            s.extend(ixs.into_iter().map(|i| r[i]));
            s
        })
        .rc()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xC0FFEE)
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (3u32..9).generate(&mut r);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn range_shrinks_toward_start() {
        let cands = (0u32..100).shrink(&80);
        assert!(cands.contains(&0) || cands.contains(&40));
        assert!(cands.iter().all(|&c| c < 80));
    }

    #[test]
    fn vec_respects_length_and_shrinks() {
        let s = vec_of(0u32..10, 2..5);
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!((2..5).contains(&v.len()));
        }
        let shrunk = s.shrink(&vec![5, 6, 7]);
        assert!(shrunk.iter().any(|v| v.len() == 2));
        assert!(shrunk.iter().all(|v| v.len() >= 2));
    }

    #[test]
    fn one_of_uses_all_branches() {
        let s = one_of(vec![Just(1u32).rc(), Just(2).rc(), Just(3).rc()]);
        let mut r = rng();
        let seen: std::collections::HashSet<u32> = (0..100).map(|_| s.generate(&mut r)).collect();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn filter_retries() {
        let s = (0u32..100).prop_filter("even", |v| v % 2 == 0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(s.generate(&mut r) % 2, 0);
        }
    }

    #[test]
    fn charset_expands_ranges() {
        assert_eq!(charset("a-c"), vec!['a', 'b', 'c']);
        assert_eq!(charset("a-c_-"), vec!['a', 'b', 'c', '_', '-']);
        assert_eq!(charset(" -~").len(), 95);
    }

    #[test]
    fn ident_shapes() {
        let s = ident("a-z", "a-z0-9_-", 0..9);
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!(!v.is_empty() && v.len() <= 9);
            assert!(v.chars().next().unwrap().is_ascii_lowercase());
        }
    }

    #[test]
    fn recursive_bounds_depth() {
        #[derive(Clone, Debug)]
        enum T {
            Leaf,
            Node(Vec<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf => 0,
                T::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        let s = recursive(Just(T::Leaf).rc(), 4, |inner| {
            vec_of(inner, 1..4).prop_map(T::Node).rc()
        });
        let mut r = rng();
        for _ in 0..200 {
            assert!(depth(&s.generate(&mut r)) <= 4);
        }
    }

    #[test]
    fn tuples_shrink_componentwise() {
        let s = (0u32..10, 0u32..10);
        let shrunk = s.shrink(&(4, 6));
        assert!(shrunk
            .iter()
            .all(|&(a, b)| (a == 4) != (b == 6) || a < 4 || b < 6));
        assert!(shrunk.iter().any(|&(a, _)| a < 4));
        assert!(shrunk.iter().any(|&(_, b)| b < 6));
    }
}
