//! Shared CPU computation paths (serial + threaded) for all metric passes.
//!
//! The serial paths are the ground-truth reference the paper's §IV-B
//! correctness check compares against; the parallel paths (`_par`, or
//! `parallel: true`) are the functional engine of the ompZC executor,
//! parallelized with `zc_par`'s deterministic fork/join. Both produce values matching the GPU kernels
//! to floating-point reduction tolerance. Every pass takes a slab count
//! and folds the slabs in order; one slab is the monolithic scan.

use crate::config::SsimSettings;
use crate::plan::slab_ranges;
use zc_kernels::acc::{deriv1_nd, deriv2_nd};
use zc_kernels::p3::SsimAcc;
use zc_kernels::{FieldPair, Histogram, P1Histograms, P1Scalars, P2Stats, WindowMoments};

/// Serial fused pattern-1 scan, slab-tiled: one carried accumulator
/// absorbs each z-slab in order, so the absorb sequence — and every bit of
/// the result — is the same for every slab count (1 = monolithic).
pub fn p1_scan_tiled(f: &FieldPair<'_>, slabs: usize) -> P1Scalars {
    let plane = f.shape.slab_len().max(1);
    let mut acc = P1Scalars::identity();
    for (lo, hi) in slab_ranges(f.orig.len() / plane, slabs) {
        let (lo, hi) = (lo * plane, hi * plane);
        for (&x, &y) in f.orig[lo..hi].iter().zip(f.dec[lo..hi].iter()) {
            acc.absorb(x as f64, y as f64);
        }
    }
    acc
}

/// Parallel fused pattern-1 scan, slab-tiled: plane tasks fork within each
/// slab, partials combine in ascending plane order into a carried
/// accumulator — the same combine sequence for every slab count.
pub fn p1_scan_par_tiled(f: &FieldPair<'_>, slabs: usize) -> P1Scalars {
    let slab = f.shape.slab_len();
    let tasks = f.orig.len().div_ceil(slab);
    let mut acc = P1Scalars::identity();
    for (t_lo, t_hi) in slab_ranges(tasks, slabs) {
        let parts = zc_par::par_map(t_hi - t_lo, |j| {
            let lo = (t_lo + j) * slab;
            let hi = (lo + slab).min(f.orig.len());
            let mut acc = P1Scalars::identity();
            for (&x, &y) in f.orig[lo..hi].iter().zip(f.dec[lo..hi].iter()) {
                acc.absorb(x as f64, y as f64);
            }
            acc
        });
        for p in &parts {
            acc.combine(p);
        }
    }
    acc
}

fn make_histograms(scalars: &P1Scalars, bins: usize) -> P1Histograms {
    P1Histograms {
        err_pdf: Histogram::new(scalars.min_e, scalars.max_e, bins),
        rel_pdf: Histogram::new(
            0.0,
            if scalars.n_rel > 0 {
                scalars.max_rel
            } else {
                0.0
            },
            bins,
        ),
        value_hist: Histogram::new(scalars.min_x, scalars.max_x, bins),
    }
}

fn hist_insert(h: &mut P1Histograms, orig: &[f32], dec: &[f32]) {
    for (&x, &y) in orig.iter().zip(dec.iter()) {
        let (x, y) = (x as f64, y as f64);
        h.err_pdf.insert(x - y);
        h.value_hist.insert(x);
        if x != 0.0 {
            h.rel_pdf.insert(((x - y) / x).abs());
        }
    }
}

/// Histogram pass, slab-tiled (bounds from the already-complete scalar
/// pass), serial or with plane tasks forked within each slab depending on
/// `parallel`. Integer bin counts merge exactly, so every slab count and
/// both modes reproduce the one-slab serial histograms bit-for-bit.
pub fn histograms_tiled(
    f: &FieldPair<'_>,
    scalars: &P1Scalars,
    bins: usize,
    parallel: bool,
    slabs: usize,
) -> P1Histograms {
    let plane = f.shape.slab_len().max(1);
    let mut acc = make_histograms(scalars, bins);
    for (lo, hi) in slab_ranges(f.orig.len() / plane, slabs) {
        if parallel {
            let parts = zc_par::par_map(hi - lo, |j| {
                let r = (lo + j) * plane..(lo + j + 1) * plane;
                let mut h = make_histograms(scalars, bins);
                hist_insert(&mut h, &f.orig[r.clone()], &f.dec[r]);
                h
            });
            for h in &parts {
                acc.err_pdf.merge(&h.err_pdf);
                acc.rel_pdf.merge(&h.rel_pdf);
                acc.value_hist.merge(&h.value_hist);
            }
        } else {
            let r = lo * plane..hi * plane;
            hist_insert(&mut acc, &f.orig[r.clone()], &f.dec[r]);
        }
    }
    acc
}

fn p2_plane(f: &FieldPair<'_>, mean_e: f64, max_lag: usize, z: usize, w4: usize) -> P2Stats {
    let s = f.shape;
    let ndim = s.ndim();
    let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
    let mut st = P2Stats::identity(max_lag);
    let at = |arr: &[f32], x: usize, y: usize, z: usize| arr[s.linear([x, y, z, w4])] as f64;
    // Stencils only extend along declared axes (Z-checker's 1D/2D modes).
    let deriv_z_ok = ndim < 3 || (z >= 1 && z + 1 < nz);
    let (y_lo, y_hi) = if ndim >= 2 {
        (1, ny.saturating_sub(1))
    } else {
        (0, ny)
    };
    if deriv_z_ok && nx >= 3 && (ndim < 2 || ny >= 3) {
        for y in y_lo..y_hi {
            for x in 1..nx - 1 {
                let fo = |dx: isize, dy: isize, dz: isize| {
                    at(
                        f.orig,
                        (x as isize + dx) as usize,
                        (y as isize + dy) as usize,
                        (z as isize + dz) as usize,
                    )
                };
                let fd = |dx: isize, dy: isize, dz: isize| {
                    at(
                        f.dec,
                        (x as isize + dx) as usize,
                        (y as isize + dy) as usize,
                        (z as isize + dz) as usize,
                    )
                };
                st.absorb_deriv(
                    deriv1_nd(fo, ndim),
                    deriv1_nd(fd, ndim),
                    deriv2_nd(fo, ndim),
                    deriv2_nd(fd, ndim),
                );
            }
        }
    }
    for lag in 1..=max_lag {
        if ndim >= 3 && z + lag >= nz {
            continue;
        }
        if nx <= lag || (ndim >= 2 && ny <= lag) {
            continue;
        }
        let y_max = if ndim >= 2 { ny - lag } else { ny };
        for y in 0..y_max {
            for x in 0..nx - lag {
                let e = |x: usize, y: usize, z: usize| {
                    at(f.orig, x, y, z) - at(f.dec, x, y, z) - mean_e
                };
                let mut nb = [0.0f64; 3];
                let mut k = 0;
                nb[k] = e(x + lag, y, z);
                k += 1;
                if ndim >= 2 {
                    nb[k] = e(x, y + lag, z);
                    k += 1;
                }
                if ndim >= 3 {
                    nb[k] = e(x, y, z + lag);
                    k += 1;
                }
                st.absorb_ac_nd(lag, e(x, y, z), &nb[..k]);
            }
        }
    }
    st
}

fn p2_planes(f: &FieldPair<'_>) -> Vec<(usize, usize)> {
    let s = f.shape;
    (0..s.nw())
        .flat_map(|w| (0..s.nz()).map(move |z| (z, w)))
        .collect()
}

/// Pattern-2 scan (derivatives + all autocorrelation lags), slab-tiled,
/// serial or with plane tasks forked within each slab depending on
/// `parallel`. Stencil reads inside `p2_plane` reach one z slice past the
/// plane itself (derivative halo, lag reach for autocorrelation), so tiling
/// changes only where the plane sequence is cut; either way the per-plane
/// partials combine in ascending (w4-outer, z-inner) order into a carried
/// accumulator, so the result is bit-identical at every slab count and in
/// both modes.
pub fn p2_scan_tiled(
    f: &FieldPair<'_>,
    mean_e: f64,
    max_lag: usize,
    parallel: bool,
    slabs: usize,
) -> P2Stats {
    let planes = p2_planes(f);
    let plane = |i: usize| {
        let (z, w4) = planes[i];
        p2_plane(f, mean_e, max_lag, z, w4)
    };
    let mut acc = P2Stats::identity(max_lag);
    for (lo, hi) in slab_ranges(planes.len(), slabs) {
        if parallel {
            for p in &zc_par::par_map(hi - lo, |i| plane(lo + i)) {
                acc.combine(p);
            }
        } else {
            for i in lo..hi {
                acc.combine(&plane(i));
            }
        }
    }
    acc
}

/// Summed-volume tables for the five SSIM moment quantities, enabling
/// O(1) window sums (used by the CPU executors; the GPU path uses the
/// paper's FIFO algorithm instead).
struct Svt {
    nx: usize,
    ny: usize,
    tables: [Vec<f64>; 5],
}

impl Svt {
    fn build(f: &FieldPair<'_>, w4: usize) -> Svt {
        let s = f.shape;
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let (px, py) = (nx + 1, ny + 1);
        let mut tables: [Vec<f64>; 5] = std::array::from_fn(|_| vec![0.0; px * py * (nz + 1)]);
        let idx = |x: usize, y: usize, z: usize| (z * py + y) * px + x;
        for z in 1..=nz {
            for y in 1..=ny {
                for x in 1..=nx {
                    let lin = s.linear([x - 1, y - 1, z - 1, w4]);
                    let a = f.orig[lin] as f64;
                    let b = f.dec[lin] as f64;
                    let vals = [a, a * a, b, b * b, a * b];
                    for (t, v) in tables.iter_mut().zip(vals.iter()) {
                        t[idx(x, y, z)] =
                            v + t[idx(x - 1, y, z)] + t[idx(x, y - 1, z)] + t[idx(x, y, z - 1)]
                                - t[idx(x - 1, y - 1, z)]
                                - t[idx(x - 1, y, z - 1)]
                                - t[idx(x, y - 1, z - 1)]
                                + t[idx(x - 1, y - 1, z - 1)];
                    }
                }
            }
        }
        Svt { nx, ny, tables }
    }

    /// Sum of quantity `q` over the box `[o, o+w)` (per-axis widths).
    fn window_sum(&self, q: usize, o: [usize; 3], w: [usize; 3]) -> f64 {
        let px = self.nx + 1;
        let py = self.ny + 1;
        let idx = |x: usize, y: usize, z: usize| (z * py + y) * px + x;
        let t = &self.tables[q];
        let (x0, y0, z0) = (o[0], o[1], o[2]);
        let (x1, y1, z1) = (o[0] + w[0], o[1] + w[1], o[2] + w[2]);
        t[idx(x1, y1, z1)] - t[idx(x0, y1, z1)] - t[idx(x1, y0, z1)] - t[idx(x1, y1, z0)]
            + t[idx(x0, y0, z1)]
            + t[idx(x0, y1, z0)]
            + t[idx(x1, y0, z0)]
            - t[idx(x0, y0, z0)]
    }
}

/// SSIM over all windows via summed-volume tables, serial or parallel over
/// z window origins depending on `parallel`, slab-tiled: within each w4
/// component the z window rows fold in ascending order regardless of where
/// slab boundaries fall, so the accumulation sequence (and hence every bit
/// of the result) is the same for every slab count. Window rows whose
/// support straddles a slab boundary read the one-window halo (slices
/// already resident from the previous slab in the streaming schedule).
pub fn ssim_scan_tiled(
    f: &FieldPair<'_>,
    ssim: &SsimSettings,
    range: f64,
    parallel: bool,
    slabs: usize,
) -> SsimAcc {
    let s = f.shape;
    let (wsize, step) = (ssim.window, ssim.step);
    // The window only extends along declared axes (1D/2D SSIM parity).
    let sides = [
        wsize,
        if s.ndim() >= 2 { wsize } else { 1 },
        if s.ndim() >= 3 { wsize } else { 1 },
    ];
    let pos = |n: usize, w: usize| if n < w { 0 } else { (n - w) / step + 1 };
    let (cx, cy, cz) = (
        pos(s.nx(), sides[0]),
        pos(s.ny(), sides[1]),
        pos(s.nz(), sides[2]),
    );
    if cx == 0 || cy == 0 || cz == 0 {
        return SsimAcc::default();
    }
    let mut acc = SsimAcc::default();
    for w4 in 0..s.nw() {
        let svt = Svt::build(f, w4);
        let fold_z = |wz: usize| {
            let mut local = SsimAcc::default();
            for wy in 0..cy {
                for wx in 0..cx {
                    let o = [wx * step, wy * step, wz * step];
                    let m = WindowMoments {
                        sum_x: svt.window_sum(0, o, sides),
                        sum_x2: svt.window_sum(1, o, sides),
                        sum_y: svt.window_sum(2, o, sides),
                        sum_y2: svt.window_sum(3, o, sides),
                        sum_xy: svt.window_sum(4, o, sides),
                        n: (sides[0] * sides[1] * sides[2]) as u64,
                    };
                    local.sum += m.ssim(range, ssim.k1, ssim.k2);
                    local.windows += 1;
                }
            }
            local
        };
        let mut sub = SsimAcc::default();
        for (lo, hi) in slab_ranges(cz, slabs) {
            if parallel {
                for l in zc_par::par_map(hi - lo, |i| fold_z(lo + i)) {
                    sub.sum += l.sum;
                    sub.windows += l.windows;
                }
            } else {
                for wz in lo..hi {
                    let l = fold_z(wz);
                    sub.sum += l.sum;
                    sub.windows += l.windows;
                }
            }
        }
        acc.sum += sub.sum;
        acc.windows += sub.windows;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_tensor::{Shape, Tensor};

    fn fields(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(shape, |[x, y, z, _]| {
            (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos() + (z as f32 * 0.15).sin()
        });
        let dec = orig.map(|v| v + 0.01 * (v * 13.0).cos());
        (orig, dec)
    }

    #[test]
    fn parallel_p1_matches_serial() {
        let (orig, dec) = fields(Shape::d3(31, 17, 9));
        let f = FieldPair::new(&orig, &dec);
        let a = p1_scan_tiled(&f, 1);
        let b = p1_scan_par_tiled(&f, 1);
        assert_eq!(a.n, b.n);
        assert_eq!(a.min_e, b.min_e);
        assert!((a.sum_e2 - b.sum_e2).abs() < 1e-9 * a.sum_e2.abs().max(1e-30));
    }

    #[test]
    fn parallel_histograms_match_serial() {
        let (orig, dec) = fields(Shape::d3(20, 20, 8));
        let f = FieldPair::new(&orig, &dec);
        let scalars = p1_scan_tiled(&f, 1);
        let a = histograms_tiled(&f, &scalars, 64, false, 1);
        let b = histograms_tiled(&f, &scalars, 64, true, 1);
        assert_eq!(a.err_pdf.counts(), b.err_pdf.counts());
        assert_eq!(a.value_hist.counts(), b.value_hist.counts());
        assert_eq!(a.rel_pdf.counts(), b.rel_pdf.counts());
    }

    #[test]
    fn parallel_p2_matches_serial() {
        let (orig, dec) = fields(Shape::d3(14, 13, 12));
        let f = FieldPair::new(&orig, &dec);
        let mu = p1_scan_tiled(&f, 1).mean_e();
        let a = p2_scan_tiled(&f, mu, 3, false, 1);
        let b = p2_scan_tiled(&f, mu, 3, true, 1);
        let bits = |s: &P2Stats| {
            let sums = [
                s.sum_grad_x,
                s.max_grad_x,
                s.sum_grad_y,
                s.max_grad_y,
                s.sum_grad_err2,
                s.sum_div_x,
                s.sum_div_y,
                s.sum_lap_x,
                s.sum_lap_y,
            ];
            let mut v: Vec<u64> = sums.iter().chain(&s.ac_num).map(|x| x.to_bits()).collect();
            v.push(s.n_interior);
            v.extend(&s.ac_n);
            v
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn svt_ssim_matches_brute_force() {
        let (orig, dec) = fields(Shape::d3(18, 14, 12));
        let f = FieldPair::new(&orig, &dec);
        let settings = SsimSettings {
            window: 5,
            step: 2,
            k1: 0.01,
            k2: 0.03,
        };
        let got = ssim_scan_tiled(&f, &settings, 2.0, false, 1);
        // Brute force.
        let mut want = SsimAcc::default();
        let pos = |n: usize| (n - 5) / 2 + 1;
        for wz in 0..pos(12) {
            for wy in 0..pos(14) {
                for wx in 0..pos(18) {
                    let mut m = WindowMoments::default();
                    for dz in 0..5 {
                        for dy in 0..5 {
                            for dx in 0..5 {
                                m.absorb(
                                    orig.at3(wx * 2 + dx, wy * 2 + dy, wz * 2 + dz) as f64,
                                    dec.at3(wx * 2 + dx, wy * 2 + dy, wz * 2 + dz) as f64,
                                );
                            }
                        }
                    }
                    want.sum += m.ssim(2.0, 0.01, 0.03);
                    want.windows += 1;
                }
            }
        }
        assert_eq!(got.windows, want.windows);
        assert!(
            (got.mean() - want.mean()).abs() < 1e-9,
            "{} vs {}",
            got.mean(),
            want.mean()
        );
    }

    #[test]
    fn parallel_ssim_matches_serial() {
        let (orig, dec) = fields(Shape::d3(20, 20, 20));
        let f = FieldPair::new(&orig, &dec);
        let settings = SsimSettings::default();
        let a = ssim_scan_tiled(&f, &settings, 2.0, false, 1);
        let b = ssim_scan_tiled(&f, &settings, 2.0, true, 1);
        assert_eq!(a.windows, b.windows);
        assert!((a.sum - b.sum).abs() < 1e-9 * a.sum.abs().max(1e-30));
    }

    #[test]
    fn tiled_scans_are_bit_identical_to_monolithic() {
        let (orig, dec) = fields(Shape::d3(18, 14, 13));
        let f = FieldPair::new(&orig, &dec);
        let mono = p1_scan_tiled(&f, 1);
        let hist = histograms_tiled(&f, &mono, 32, false, 1);
        let p2 = p2_scan_tiled(&f, mono.mean_e(), 3, false, 1);
        let ssim = ssim_scan_tiled(&f, &SsimSettings::default(), 2.0, false, 1);
        for slabs in [1usize, 2, 3, 5, 13, 64] {
            assert_eq!(
                p1_scan_tiled(&f, slabs).sum_e2.to_bits(),
                mono.sum_e2.to_bits()
            );
            assert_eq!(
                p1_scan_par_tiled(&f, slabs).sum_e2.to_bits(),
                p1_scan_par_tiled(&f, 1).sum_e2.to_bits()
            );
            let h = histograms_tiled(&f, &mono, 32, false, slabs);
            assert_eq!(h.err_pdf.counts(), hist.err_pdf.counts());
            assert_eq!(
                histograms_tiled(&f, &mono, 32, true, slabs)
                    .value_hist
                    .counts(),
                hist.value_hist.counts()
            );
            let t2 = p2_scan_tiled(&f, mono.mean_e(), 3, false, slabs);
            assert_eq!(t2.sum_grad_x.to_bits(), p2.sum_grad_x.to_bits());
            assert_eq!(
                p2_scan_tiled(&f, mono.mean_e(), 3, true, slabs)
                    .sum_grad_x
                    .to_bits(),
                p2.sum_grad_x.to_bits()
            );
            let t3 = ssim_scan_tiled(&f, &SsimSettings::default(), 2.0, false, slabs);
            assert_eq!(t3.sum.to_bits(), ssim.sum.to_bits());
            assert_eq!(t3.windows, ssim.windows);
        }
    }

    #[test]
    fn slab_ranges_cover_contiguously() {
        for (n, slabs) in [(10usize, 3usize), (7, 7), (5, 9), (1, 4), (0, 3)] {
            let r: Vec<_> = slab_ranges(n, slabs).collect();
            assert_eq!(r.len(), slabs.clamp(1, n.max(1)));
            assert_eq!(r.first().unwrap().0, 0);
            assert_eq!(r.last().unwrap().1, n);
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn window_too_large_yields_empty() {
        let (orig, dec) = fields(Shape::d3(6, 6, 6));
        let f = FieldPair::new(&orig, &dec);
        let got = ssim_scan_tiled(&f, &SsimSettings::default(), 1.0, false, 1);
        assert_eq!(got.windows, 0);
    }
}
