//! Min-plus convolution of convex sequences by slope merge.
//!
//! Both model DPs ([`crate::autogen`], [`crate::lower_bound`]) fill rows of
//! the form
//!
//! ```text
//! h(q) = min { f(i) + g(j) : i + j = q, i >= 1, j >= 1 }
//! ```
//!
//! where `f` and `g` are *convex* on `1..`: finite on a prefix, with
//! non-decreasing slopes `f(i+1) - f(i)` there, and infinite afterwards.
//! For such sequences `h(2) = f(1) + g(1)` and every further `h(q+1)` adds
//! the smallest slope not used yet, exactly like merging two sorted lists:
//! the optimal split `(i, j)` only ever moves one step, to `(i+1, j)` or to
//! `(i, j+1)`. A whole row therefore costs one pass instead of one scan over
//! all splits per entry.
//!
//! The step compares the two candidate values `f(i+1) + g(j)` and
//! `f(i) + g(j+1)` rather than the slopes themselves, which is the same
//! comparison without subtractions (`f(i) + g(j)` is finite on both sides)
//! and handles the infinite tails for free.

/// The cursor `(i, j)` of one convolution `f ⊕ g`, stepped once per `q`.
///
/// Values are `u64`; a caller-chosen sentinel and everything above it mean
/// "infinite". Twice the sentinel must not overflow, and every finite sum
/// must stay below it. Once [`ConvexMerge::next`] returns an infinite value
/// all later entries of the row are infinite too and the cursor must not be
/// stepped again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvexMerge {
    i: usize,
    j: usize,
}

impl ConvexMerge {
    /// A cursor in front of `q = 2`, the first entry `f ⊕ g` defines.
    pub(crate) fn new() -> Self {
        ConvexMerge { i: 1, j: 0 }
    }

    /// Step to the next `q` (2 on the first call) and return `h(q)`.
    ///
    /// Reads `f` and `g` at indices below `q` only, so `f` may be the very
    /// row being written, as long as the part of it written so far is
    /// convex. On equal slopes `j` advances, which makes
    /// [`ConvexMerge::split`] the *smallest* optimal `i`.
    #[inline]
    pub(crate) fn next(&mut self, f: impl Fn(usize) -> u64, g: impl Fn(usize) -> u64) -> u64 {
        if self.j == 0 {
            self.j = 1;
            return f(1) + g(1);
        }
        let step_i = f(self.i + 1) + g(self.j);
        let step_j = f(self.i) + g(self.j + 1);
        if step_j <= step_i {
            self.j += 1;
            step_j
        } else {
            self.i += 1;
            step_i
        }
    }

    /// The `i` of the split `(i, q - i)` that attains the last `h(q)`
    /// returned: the smallest one among the optimal splits.
    pub(crate) fn split(&self) -> usize {
        self.i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const INF: u64 = u64::MAX / 4;

    /// `h(q)` and the smallest optimal `i` for every `q` in `2..=n` by
    /// scanning all splits; `(INF, 0)` where no split is finite. Sequences
    /// are 1-based (`[0]` is unused).
    fn brute_force(f: &[u64], g: &[u64], n: usize) -> Vec<(u64, usize)> {
        (2..=n)
            .map(|q| {
                let mut best = (INF, 0);
                for i in 1..q {
                    if f[i] >= INF || g[q - i] >= INF {
                        continue;
                    }
                    if f[i] + g[q - i] < best.0 {
                        best = (f[i] + g[q - i], i);
                    }
                }
                best
            })
            .collect()
    }

    fn merged(f: &[u64], g: &[u64], n: usize) -> Vec<(u64, usize)> {
        let mut merge = ConvexMerge::new();
        let mut out = vec![(INF, 0); n - 1];
        for slot in &mut out {
            let h = merge.next(|i| f[i], |j| g[j]);
            if h >= INF {
                break;
            }
            *slot = (h, merge.split());
        }
        out
    }

    /// A convex 1-based sequence of `n` entries from slope increments: a
    /// zero increment repeats the previous slope (a plateau of equal
    /// slopes, i.e. ties between the two sides), and entries past `finite`
    /// are infinite.
    fn convex(start: u64, increments: &[u64], finite: usize, n: usize) -> Vec<u64> {
        let mut seq = vec![INF; n + 1];
        let (mut value, mut slope) = (start, 0);
        for (k, slot) in seq.iter_mut().enumerate().skip(1).take(finite.clamp(1, n)) {
            *slot = value;
            slope += increments[k % increments.len()];
            value += slope;
        }
        seq
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn merge_equals_brute_force_min_plus_with_the_smallest_argmin(
            n in 2usize..40,
            f_start in 0u64..50,
            g_start in 0u64..50,
            f_inc in proptest::collection::vec(0u64..3, 1..12),
            g_inc in proptest::collection::vec(0u64..3, 1..12),
            f_finite in 1usize..48,
            g_finite in 1usize..48,
        ) {
            let f = convex(f_start, &f_inc, f_finite, n);
            let g = convex(g_start, &g_inc, g_finite, n);
            prop_assert_eq!(merged(&f, &g, n), brute_force(&f, &g, n));
        }
    }

    #[test]
    fn ties_advance_j_so_the_split_is_the_smallest_i() {
        // All slopes equal: every split is optimal, the smallest is i = 1.
        let line: Vec<u64> = (0..=8).collect();
        for (q, (h, i)) in (2..).zip(merged(&line, &line, 8)) {
            assert_eq!((h, i), (q as u64, 1));
        }
    }

    #[test]
    fn infinite_tails_end_the_row() {
        // f is finite on 1..=2, g on 1..=3, so h is finite on 2..=5.
        let f = [0, 0, 5, INF, INF, INF, INF, INF];
        let g = [0, 1, 2, 4, INF, INF, INF, INF];
        let h: Vec<u64> = merged(&f, &g, 7).into_iter().map(|(h, _)| h).collect();
        assert_eq!(h, vec![1, 2, 4, 9, INF, INF]);
    }
}
