//! The benchmark's only source of randomness: a SplitMix64 stream keyed by
//! `--seed`. The program under test never sees the seed, only the inputs and
//! request order generated from it.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding a consumer does
    /// not shift the values every other consumer sees.
    pub fn fork(&self, purpose: u64) -> Rng {
        let mut child = Rng(self.0 ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// An input element: a multiple of 1/8 in [-2, 2]. Sums of a few thousand
    /// of them are exact in `f32` in any order, so a reduction tree of any
    /// shape must reproduce the left-to-right reference bit for bit.
    pub fn element(&mut self) -> f32 {
        (self.below(33) as f32 - 16.0) / 8.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        assert_ne!(Rng::new(7).fork(1).next_u64(), Rng::new(7).fork(2).next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn elements_are_exact_eighths_and_shuffles_permute() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let x = rng.element();
            assert!((-2.0..=2.0).contains(&x) && (x * 8.0).fract() == 0.0);
        }
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
