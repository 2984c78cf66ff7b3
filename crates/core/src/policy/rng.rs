//! A tiny deterministic generator for policy decisions.
//!
//! Dispatch decisions (random tie-breaks, power-of-two sampling) need a
//! few bits of cheap, reproducible randomness on the fast path. SplitMix64
//! is a well-known 64-bit mixer with good statistical quality, a one-word
//! state, and exact cross-platform reproducibility — and it keeps `rand`'s
//! heavier machinery out of the per-request path.

use super::flow_hash;

/// The deterministic randomness a policy's sampling / tie-breaking may
/// consume: a SplitMix64 generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRng {
    state: u64,
}

impl PolicyRng {
    /// Creates a generator from a seed (any seed, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        PolicyRng { state: seed }
    }

    /// Returns the next 64 random bits: SplitMix64's output is
    /// [`flow_hash`] of its state before the state's increment.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = flow_hash(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Returns a uniform index in `0..n` (Lemire's multiply-shift method —
    /// bias is at most 2⁻⁶⁴·n, immaterial for worker counts).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = PolicyRng::new(42);
        let mut b = PolicyRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn matches_the_splitmix64_reference_stream() {
        // The first outputs of Vigna's `splitmix64.c` seeded with 0.
        let mut g = PolicyRng::new(0);
        let first: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = PolicyRng::new(1);
        let mut b = PolicyRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn index_in_range_and_covers() {
        let mut g = PolicyRng::new(7);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let i = g.index(8);
            assert!(i < 8);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices hit in 1000 draws");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_rejects_zero() {
        let _ = PolicyRng::new(0).index(0);
    }
}
