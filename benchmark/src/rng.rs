//! The harness's own generator: splitmix64. Every input — rows, query
//! literals, insert batches — derives from the `--seed` argument through
//! this and nothing else, so the same seed gives the same inputs on every
//! machine and the engine never sees anything but DDL, rows and SQL.

/// A splitmix64 stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for one purpose (`salt` names the purpose).
    pub fn derive(seed: u64, salt: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1). Modulo bias is below 2⁻⁴⁰ for every
    /// `n` the harness uses and does not matter for a load generator.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True once in `one_in` draws on average.
    pub fn one_in(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_known_first_value() {
        let mut a = SplitMix64(0);
        let mut b = SplitMix64(0);
        // Reference value of splitmix64 from seed 0.
        assert_eq!(a.next_u64(), 0xE220_A839_7B1D_CDAF);
        b.next_u64();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            SplitMix64::derive(1, 1).next_u64(),
            SplitMix64::derive(1, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::derive(1, 1).next_u64(),
            SplitMix64::derive(2, 1).next_u64()
        );
    }
}
