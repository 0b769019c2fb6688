//! Seeded draws on top of the vendored `rand` crate's `StdRng`. Every
//! input the benchmark builds is drawn from one of these, so a seed fixes
//! the whole request list.

pub use rand::rngs::StdRng as Rng;
use rand::{Rng as _, SeedableRng};

/// An independent stream for one named purpose, so adding draws to one
/// part of the generator never shifts another part's inputs.
pub fn fork(seed: u64, stream: &str) -> Rng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Rng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ h)
}

/// The draws the generators use.
pub trait Draw {
    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: u64, hi: u64) -> u64;

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.range(0, xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl Draw for Rng {
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.random_range(lo..hi)
    }
}
