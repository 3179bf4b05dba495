//! The benchmark's only source of randomness: a splitmix64 stream per
//! purpose, derived from the `--seed` argument. The same seed gives the
//! same inputs, on every host.

/// A splitmix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt`) under one run seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// `k` distinct tuples of `width` columns over `0..domain`, in
    /// random order (`k ≤ domain^width`).
    pub fn distinct_rows(&mut self, k: usize, width: usize, domain: u64) -> Vec<Vec<u64>> {
        let space = domain.pow(width as u32);
        assert!(k as u64 <= space, "{k} rows do not fit {space} tuples");
        let mut seen = std::collections::BTreeSet::new();
        let mut rows = Vec::with_capacity(k);
        while rows.len() < k {
            let row: Vec<u64> = (0..width).map(|_| self.below(domain)).collect();
            if seen.insert(row.clone()) {
                rows.push(row);
            }
        }
        rows
    }
}
