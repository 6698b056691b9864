//! Sliding-window iteration.
//!
//! [`Windows`] enumerates the overlapping SSIM scan positions of pattern 3
//! (Fig. 5 of the paper): a `wsize`-sided window stepped by `step` along
//! every declared axis.

use crate::Shape;

/// Parameters of a sliding-window scan (SSIM).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window side length along each scanned axis (paper default: 8).
    pub size: usize,
    /// Sliding step length (paper default: 1).
    pub step: usize,
}

impl WindowSpec {
    /// A window spec; panics on zero size or step.
    pub fn new(size: usize, step: usize) -> Self {
        assert!(
            size > 0 && step > 0,
            "window size and step must be positive"
        );
        WindowSpec { size, step }
    }

    /// Number of scan positions along an axis of extent `n`
    /// (`0` when the window does not fit).
    #[inline]
    pub fn positions(&self, n: usize) -> usize {
        if n < self.size {
            0
        } else {
            (n - self.size) / self.step + 1
        }
    }
}

impl Default for WindowSpec {
    /// The paper's evaluation settings: window side 8, step 1.
    fn default() -> Self {
        WindowSpec { size: 8, step: 1 }
    }
}

/// Iterator over all sliding-window origins of a shape.
///
/// Windows scan every *declared* axis; for a 3D tensor the window is a cube,
/// for 2D a square, for 1D an interval. Yields the origin `[x, y, z]`
/// (w fixed at 0 — 4D fields are scanned per 3D sub-volume by callers).
#[derive(Clone, Debug)]
pub struct Windows {
    spec: WindowSpec,
    counts: [usize; 3],
    next: Option<[usize; 3]>,
}

impl Windows {
    /// Windows of `spec` over `shape`. Axes beyond `shape.ndim()` are not
    /// scanned (their count is 1 at origin 0).
    pub fn over(shape: Shape, spec: WindowSpec) -> Self {
        let scan = |axis: usize, n: usize| -> usize {
            if axis < shape.ndim() {
                spec.positions(n)
            } else {
                1
            }
        };
        let counts = [
            scan(0, shape.nx()),
            scan(1, shape.ny()),
            scan(2, shape.nz()),
        ];
        let next = if counts.contains(&0) {
            None
        } else {
            Some([0, 0, 0])
        };
        Windows { spec, counts, next }
    }

    /// Total number of scan positions.
    pub fn count_total(&self) -> usize {
        self.counts.iter().product()
    }
}

impl Iterator for Windows {
    type Item = [usize; 3];

    fn next(&mut self) -> Option<Self::Item> {
        let pos = self.next?;
        let item = [
            pos[0] * self.spec.step,
            pos[1] * self.spec.step,
            pos[2] * self.spec.step,
        ];
        // Advance odometer x → y → z.
        let mut p = pos;
        p[0] += 1;
        if p[0] == self.counts[0] {
            p[0] = 0;
            p[1] += 1;
            if p[1] == self.counts[1] {
                p[1] = 0;
                p[2] += 1;
            }
        }
        self.next = if p[2] == self.counts[2] {
            None
        } else {
            Some(p)
        };
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Conservative: exact count requires odometer math; upper bound is fine.
        (0, Some(self.count_total()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_positions_arithmetic() {
        let spec = WindowSpec::new(8, 1);
        assert_eq!(spec.positions(8), 1);
        assert_eq!(spec.positions(10), 3);
        assert_eq!(spec.positions(7), 0);
        let strided = WindowSpec::new(8, 4);
        assert_eq!(strided.positions(16), 3); // origins 0, 4, 8
    }

    #[test]
    fn windows_enumerate_all_origins() {
        let shape = Shape::d3(10, 9, 8);
        let w: Vec<_> = Windows::over(shape, WindowSpec::new(8, 1)).collect();
        assert_eq!(w.len(), (3 * 2));
        assert_eq!(w[0], [0, 0, 0]);
        assert_eq!(*w.last().unwrap(), [2, 1, 0]);
    }

    #[test]
    fn windows_respect_step() {
        let shape = Shape::d2(12, 12);
        let w: Vec<_> = Windows::over(shape, WindowSpec::new(4, 4)).collect();
        // 3 positions per axis, z not scanned for 2D.
        assert_eq!(w.len(), 9);
        assert!(w.contains(&[8, 8, 0]));
        assert!(w.iter().all(|o| o[2] == 0));
    }

    #[test]
    fn window_too_big_yields_nothing() {
        let shape = Shape::d3(4, 4, 4);
        let mut w = Windows::over(shape, WindowSpec::new(8, 1));
        assert_eq!(w.next(), None);
        assert_eq!(w.count_total(), 0);
    }
}
