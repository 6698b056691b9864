//! The 32-lane warp register vector and CUDA shuffle semantics.

/// CUDA warp size.
pub const WARP: usize = 32;

/// One warp's worth of a per-thread register: 32 lanes of `T`.
///
/// Kernels written against the simulator are *warp-synchronous*: instead of
/// one value per simulated thread they manipulate whole `Lanes` vectors, and
/// the shuffle methods reproduce `__shfl_*_sync` semantics exactly (a lane
/// outside the mask or sourcing beyond the warp keeps its own value).
///
/// These methods are *pure data movement*; cost accounting happens in
/// [`crate::BlockCtx`]'s wrapping methods, which kernels should use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lanes<T>(pub [T; WARP]);

impl<T: Copy + Default> Lanes<T> {
    /// All lanes set to `v`.
    pub fn splat(v: T) -> Self {
        Lanes([v; WARP])
    }

    /// Build from a function of the lane id.
    pub fn from_fn(mut f: impl FnMut(usize) -> T) -> Self {
        let mut a = [T::default(); WARP];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = f(i);
        }
        Lanes(a)
    }

    /// Value in lane `i`.
    #[inline]
    pub fn lane(&self, i: usize) -> T {
        self.0[i]
    }

    /// Borrow the lanes as a plain array — the struct-of-arrays fast paths
    /// index this directly instead of going through per-lane closures.
    #[inline]
    pub fn as_array(&self) -> &[T; WARP] {
        &self.0
    }

    /// Wrap a plain array as a lane vector.
    #[inline]
    pub fn from_array(a: [T; WARP]) -> Self {
        Lanes(a)
    }

    /// `__shfl_down_sync`: lane `i` receives lane `i + delta`'s value when
    /// both lanes are inside `mask` and `i + delta < 32`; otherwise it keeps
    /// its own value.
    pub fn shfl_down(&self, mask: u32, delta: usize) -> Self {
        Lanes::from_fn(|i| {
            let src = i + delta;
            if src < WARP && mask & (1 << i) != 0 && mask & (1 << src) != 0 {
                self.0[src]
            } else {
                self.0[i]
            }
        })
    }

    /// `__shfl_up_sync`: lane `i` receives lane `i - delta`'s value.
    pub fn shfl_up(&self, mask: u32, delta: usize) -> Self {
        Lanes::from_fn(|i| {
            if i >= delta && mask & (1 << i) != 0 && mask & (1 << (i - delta)) != 0 {
                self.0[i - delta]
            } else {
                self.0[i]
            }
        })
    }

    /// `__shfl_xor_sync`: lane `i` exchanges with lane `i ^ lane_mask`.
    pub fn shfl_xor(&self, mask: u32, lane_mask: usize) -> Self {
        Lanes::from_fn(|i| {
            let src = i ^ lane_mask;
            if src < WARP && mask & (1 << i) != 0 && mask & (1 << src) != 0 {
                self.0[src]
            } else {
                self.0[i]
            }
        })
    }

    /// `__shfl_sync` broadcast: every masked lane receives lane `src`'s
    /// value.
    pub fn shfl_broadcast(&self, mask: u32, src: usize) -> Self {
        Lanes::from_fn(|i| {
            if mask & (1 << i) != 0 {
                self.0[src]
            } else {
                self.0[i]
            }
        })
    }

    /// Combine two lane vectors elementwise.
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(T, T) -> T) -> Self {
        Lanes::from_fn(|i| f(self.0[i], other.0[i]))
    }

    /// Map each lane.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Lanes<U> {
        Lanes::from_fn(|i| f(self.0[i]))
    }

    /// Horizontal fold over all lanes (diagnostic/reference use — real
    /// kernels reduce via shuffles so the cost is charged faithfully).
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let mut acc = init;
        for &v in &self.0 {
            acc = f(acc, v);
        }
        acc
    }
}

/// `__ballot_sync`: bitmask of masked lanes whose predicate holds.
pub fn ballot(mask: u32, mut pred: impl FnMut(usize) -> bool) -> u32 {
    let mut out = 0u32;
    for i in 0..WARP {
        if mask & (1 << i) != 0 && pred(i) {
            out |= 1 << i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: u32 = u32::MAX;

    fn iota() -> Lanes<f32> {
        Lanes::from_fn(|i| i as f32)
    }

    #[test]
    fn shfl_down_shifts_and_preserves_tail() {
        let l = iota().shfl_down(FULL, 4);
        assert_eq!(l.lane(0), 4.0);
        assert_eq!(l.lane(27), 31.0);
        // Lanes 28..31 keep their own values (source out of warp).
        assert_eq!(l.lane(28), 28.0);
        assert_eq!(l.lane(31), 31.0);
    }

    #[test]
    fn shfl_up_mirrors_down() {
        let l = iota().shfl_up(FULL, 3);
        assert_eq!(l.lane(0), 0.0);
        assert_eq!(l.lane(2), 2.0);
        assert_eq!(l.lane(3), 0.0);
        assert_eq!(l.lane(31), 28.0);
    }

    #[test]
    fn shfl_xor_is_an_involution() {
        let l = iota();
        let swapped = l.shfl_xor(FULL, 16);
        assert_eq!(swapped.lane(0), 16.0);
        assert_eq!(swapped.lane(16), 0.0);
        assert_eq!(swapped.shfl_xor(FULL, 16), l);
    }

    #[test]
    fn masked_lanes_keep_their_value() {
        let mask = 0x0000_FFFF; // lanes 0..16
        let l = iota().shfl_down(mask, 8);
        assert_eq!(l.lane(0), 8.0);
        assert_eq!(l.lane(7), 15.0);
        // Lane 8's source (16) is outside the mask → keeps own value.
        assert_eq!(l.lane(8), 8.0);
        // Lane 20 is outside the mask entirely.
        assert_eq!(l.lane(20), 20.0);
    }

    #[test]
    fn warp_reduction_via_shfl_down_tree() {
        // The classic butterfly from the paper's Algorithm 1, lines 7-8.
        let mut v = iota();
        let mut offset = WARP / 2;
        while offset > 0 {
            let shifted = v.shfl_down(FULL, offset);
            v = v.zip_with(&shifted, |a, b| a + b);
            offset /= 2;
        }
        // Lane 0 holds the sum 0+1+...+31 = 496.
        assert_eq!(v.lane(0), 496.0);
    }

    #[test]
    fn ballot_collects_predicate_lanes() {
        let b = ballot(FULL, |i| i < 25);
        assert_eq!(b, (1u32 << 25) - 1);
        let b2 = ballot(0xFF, |i| i % 2 == 0);
        assert_eq!(b2, 0b01010101);
    }

    #[test]
    fn broadcast_spreads_one_lane() {
        let l = iota().shfl_broadcast(FULL, 5);
        assert!((0..WARP).all(|i| l.lane(i) == 5.0));
    }
}
