//! Per-block execution context: instrumented memory and warp primitives.

use crate::counters::Counters;
use crate::lanes::{ballot, Lanes, WARP};
use crate::sanitizer::{Diag, SanState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared memory buffer owned by one simulated thread block.
///
/// Allocate through [`BlockCtx::shared_alloc`] so the footprint is tracked
/// against the kernel's declared shared-memory usage.
#[derive(Clone, Debug)]
pub struct SharedBuf<T> {
    data: Vec<T>,
    /// Allocation order within the block (names the buffer in diagnostics).
    id: usize,
    /// Present only under the sanitizer: counts raw `as_slice`/`as_mut_slice`
    /// views so uncharged bulk access is diagnosable at block end.
    raw_views: Option<Arc<AtomicU64>>,
}

impl<T: Copy + Default> SharedBuf<T> {
    /// Length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Direct view of the backing storage for bulk fast paths. Accesses
    /// through the slice are **not** charged — callers must account for
    /// them with [`BlockCtx::charge_shared`] so counter totals stay
    /// identical to the per-access [`BlockCtx::sh_read`]/[`BlockCtx::sh_write`]
    /// reference path. Under the sanitizer, prefer
    /// [`BlockCtx::sh_mark_reads`]/[`BlockCtx::sh_mark_writes`], which charge
    /// *and* shadow-mark the range; a raw view taken while sanitized is
    /// reported as an uncharged-access hazard.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if let Some(v) = &self.raw_views {
            v.fetch_add(1, Ordering::Relaxed);
        }
        &self.data
    }

    /// Mutable view (same charging contract as [`SharedBuf::as_slice`]).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if let Some(v) = &self.raw_views {
            v.fetch_add(1, Ordering::Relaxed);
        }
        &mut self.data
    }
}

/// Execution context of one thread block.
///
/// Every memory access and arithmetic operation a kernel performs goes
/// through these methods so that [`Counters`] mirror the real kernel's
/// event counts. The context is handed to [`crate::BlockKernel::run_block`]
/// once per block and merged by the launcher afterwards.
///
/// When constructed for a sanitized launch the context additionally carries
/// a [`crate::sanitizer`] shadow state: every access is mirrored into a
/// shadow tally and shared words are tracked per `(warp, epoch)` so data
/// races, uninitialized reads, out-of-bounds indices and charging bugs
/// surface as structured diagnostics. Sanitized execution is
/// observation-only — returned values and charged counters are identical.
#[derive(Debug, Default)]
pub struct BlockCtx {
    /// Counters charged by this block (merged across blocks at launch end).
    pub counters: Counters,
    shared_bytes: usize,
    allocs: usize,
    san: Option<Box<SanState>>,
}

impl BlockCtx {
    /// Fresh context (used by the launcher; kernels never construct one).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh context with sanitizer shadow state attached. `block` is `None`
    /// for the grid-level finalize phase; `declared_smem` is the kernel's
    /// declared SMem/TB, checked against the `shared_alloc` footprint.
    pub(crate) fn sanitized(block: Option<usize>, declared_smem: u32) -> Self {
        BlockCtx {
            san: Some(Box::new(SanState::new(block, declared_smem))),
            ..Default::default()
        }
    }

    /// Detach the shadow state and produce its diagnostics (launcher-side).
    pub(crate) fn finish_sanitize(&mut self) -> Option<(Vec<Diag>, u64)> {
        self.san.take().map(|s| s.finish(&self.counters))
    }

    /// Shared-memory bytes allocated so far by this block.
    pub fn shared_bytes(&self) -> usize {
        self.shared_bytes
    }

    // ---- global memory -------------------------------------------------

    /// Read one `f32` from global memory. Under the sanitizer an
    /// out-of-bounds index becomes a memcheck diagnostic (returning `0.0`)
    /// instead of a raw slice panic.
    #[inline]
    pub fn g_read(&mut self, data: &[f32], i: usize) -> f32 {
        self.counters.global_read_bytes += 4;
        if let Some(s) = &mut self.san {
            s.tally.global_read_bytes += 4;
            if i >= data.len() {
                s.oob_global(i, data.len(), "read");
                return 0.0;
            }
        }
        data[i]
    }

    /// Read 32 lanes from global memory: lane `l` gets `data[base + l*stride]`;
    /// out-of-range lanes receive `fill`. One coalesced transaction when
    /// `stride == 1`.
    pub fn g_read_lanes(
        &mut self,
        data: &[f32],
        base: usize,
        stride: usize,
        fill: f32,
    ) -> Lanes<f32> {
        // Stride-1 fully-in-bounds reads — the interior of every row walk —
        // take a contiguous fast path: one slice copy the compiler can
        // vectorize and a single 128-byte counter add (the same total the
        // per-lane path below charges as 32 unit adds).
        if stride == 1 && base + WARP <= data.len() {
            let mut a = [0.0f32; WARP];
            a.copy_from_slice(&data[base..base + WARP]);
            self.counters.global_read_bytes += (4 * WARP) as u64;
            if let Some(s) = &mut self.san {
                s.tally.global_read_bytes += (4 * WARP) as u64;
            }
            return Lanes::from_array(a);
        }
        let mut n = 0u64;
        let l = Lanes::from_fn(|i| {
            let idx = base + i * stride;
            if idx < data.len() {
                n += 1;
                data[idx]
            } else {
                fill
            }
        });
        self.counters.global_read_bytes += 4 * n;
        if let Some(s) = &mut self.san {
            s.tally.global_read_bytes += 4 * n;
        }
        l
    }

    /// Write one `f32` to global memory. Under the sanitizer an
    /// out-of-bounds index becomes a memcheck diagnostic (dropping the
    /// write) instead of a raw slice panic.
    #[inline]
    pub fn g_write(&mut self, data: &mut [f32], i: usize, v: f32) {
        self.counters.global_write_bytes += 4;
        if let Some(s) = &mut self.san {
            s.tally.global_write_bytes += 4;
            if i >= data.len() {
                s.oob_global(i, data.len(), "write");
                return;
            }
        }
        data[i] = v;
    }

    /// Charge a raw global write of `bytes` (for f64 partials etc.).
    #[inline]
    pub fn g_write_raw(&mut self, bytes: u64) {
        self.counters.global_write_bytes += bytes;
        if let Some(s) = &mut self.san {
            s.tally.global_write_bytes += bytes;
        }
    }

    /// Charge a raw global read of `bytes`.
    #[inline]
    pub fn g_read_raw(&mut self, bytes: u64) {
        self.counters.global_read_bytes += bytes;
        if let Some(s) = &mut self.san {
            s.tally.global_read_bytes += bytes;
        }
    }

    /// Charge `bytes` of scattered (uncoalesced) global traffic.
    #[inline]
    pub fn g_scatter(&mut self, bytes: u64) {
        self.counters.global_scatter_bytes += bytes;
        if let Some(s) = &mut self.san {
            s.tally.global_scatter_bytes += bytes;
        }
    }

    // ---- batched charging ------------------------------------------------
    //
    // Bulk fast paths move data through plain slices and settle the
    // accounting in one add per row/tile instead of one per access. Each
    // helper must be fed the exact access count its per-access counterpart
    // would have charged, so totals stay identical between paths.

    /// Charge `n` coalesced 4-byte global lane reads in one accounting op
    /// (the batched form of [`BlockCtx::g_read`]).
    #[inline]
    pub fn charge_lane_reads(&mut self, n: u64) {
        self.counters.global_read_bytes += 4 * n;
        if let Some(s) = &mut self.san {
            s.tally.global_read_bytes += 4 * n;
        }
    }

    /// Charge `n` coalesced 4-byte global lane writes in one accounting op
    /// (the batched form of [`BlockCtx::g_write`]).
    #[inline]
    pub fn charge_lane_writes(&mut self, n: u64) {
        self.counters.global_write_bytes += 4 * n;
        if let Some(s) = &mut self.san {
            s.tally.global_write_bytes += 4 * n;
        }
    }

    /// Charge `n` shared-memory word accesses in one accounting op (the
    /// batched form of [`BlockCtx::sh_read`]/[`BlockCtx::sh_write`]).
    #[inline]
    pub fn charge_shared(&mut self, n: u64) {
        self.counters.shared_accesses += n;
        if let Some(s) = &mut self.san {
            s.tally.shared_accesses += n;
        }
    }

    /// Charge `n` warp shuffles in one accounting op (the batched form of
    /// the [`BlockCtx::shfl_down`] family).
    #[inline]
    pub fn charge_shuffles(&mut self, n: u64) {
        self.counters.shuffles += n;
        if let Some(s) = &mut self.san {
            s.tally.shuffles += n;
        }
    }

    // ---- warp attribution ------------------------------------------------

    /// Open a warp scope: until [`BlockCtx::warp_end`], shared accesses are
    /// attributed to simulated warp `w` for race detection. No cost is
    /// charged — attribution is observation-only and a no-op unless the
    /// context is sanitized.
    #[inline]
    pub fn warp_begin(&mut self, w: usize) {
        if let Some(s) = &mut self.san {
            s.warp_begin(w as u32);
        }
    }

    /// Close the current warp scope (see [`BlockCtx::warp_begin`]).
    #[inline]
    pub fn warp_end(&mut self) {
        if let Some(s) = &mut self.san {
            s.warp_end();
        }
    }

    // ---- shared memory -------------------------------------------------

    /// Allocate a shared-memory buffer of `len` elements. Under the
    /// sanitizer this also registers a shadow image and checks the running
    /// footprint against the kernel's declared SMem/TB.
    pub fn shared_alloc<T: Copy + Default>(&mut self, len: usize) -> SharedBuf<T> {
        self.shared_bytes += len * std::mem::size_of::<T>();
        let id = self.allocs;
        self.allocs += 1;
        let raw_views = self
            .san
            .as_mut()
            .map(|s| s.alloc_buf(len, self.shared_bytes).1);
        SharedBuf {
            data: vec![T::default(); len],
            id,
            raw_views,
        }
    }

    /// Read an element of shared memory. Under the sanitizer the access is
    /// shadow-tracked (init + race state) and an out-of-bounds index becomes
    /// a diagnostic returning `T::default()` instead of a panic.
    #[inline]
    pub fn sh_read<T: Copy + Default>(&mut self, buf: &SharedBuf<T>, i: usize) -> T {
        self.counters.shared_accesses += 1;
        if let Some(s) = &mut self.san {
            s.tally.shared_accesses += 1;
            if s.check_shared_oob(buf.id, buf.data.len(), i) {
                return T::default();
            }
            if s.tracks(buf.id, buf.data.len()) {
                s.on_shared_read(buf.id, i);
            }
        }
        buf.data[i]
    }

    /// Write an element of shared memory (sanitizer contract as
    /// [`BlockCtx::sh_read`]; an out-of-bounds write is dropped with a
    /// diagnostic).
    #[inline]
    pub fn sh_write<T: Copy + Default>(&mut self, buf: &mut SharedBuf<T>, i: usize, v: T) {
        self.counters.shared_accesses += 1;
        if let Some(s) = &mut self.san {
            s.tally.shared_accesses += 1;
            if s.check_shared_oob(buf.id, buf.data.len(), i) {
                return;
            }
            if s.tracks(buf.id, buf.data.len()) {
                s.on_shared_write(buf.id, i);
            }
        }
        buf.data[i] = v;
    }

    /// Charge and shadow-mark `n` shared-word **writes** covering
    /// `buf[start..start + n]`, without moving any values. This is the
    /// sanitizer-aware form of [`BlockCtx::charge_shared`] for fast paths
    /// whose staging values live outside the buffer (e.g. the pattern-3
    /// FIFO, which the simulator keeps in a local array while the
    /// [`SharedBuf`] models the real kernel's footprint): counters charge
    /// exactly `n` accesses either way, and under the sanitizer the range
    /// participates in race/init tracking at the marked positions.
    #[inline]
    pub fn sh_mark_writes<T: Copy + Default>(
        &mut self,
        buf: &SharedBuf<T>,
        start: usize,
        n: usize,
    ) {
        self.counters.shared_accesses += n as u64;
        if let Some(s) = &mut self.san {
            s.tally.shared_accesses += n as u64;
            if s.tracks(buf.id, buf.data.len()) {
                s.mark_writes(buf.id, start, n);
            }
        }
    }

    /// Charge and shadow-mark `n` shared-word **reads** covering
    /// `buf[start..start + n]` (see [`BlockCtx::sh_mark_writes`]).
    #[inline]
    pub fn sh_mark_reads<T: Copy + Default>(&mut self, buf: &SharedBuf<T>, start: usize, n: usize) {
        self.counters.shared_accesses += n as u64;
        if let Some(s) = &mut self.san {
            s.tally.shared_accesses += n as u64;
            if s.tracks(buf.id, buf.data.len()) {
                s.mark_reads(buf.id, start, n);
            }
        }
    }

    // ---- warp primitives -------------------------------------------------

    /// `__shfl_down_sync` with cost accounting (one shuffle instruction).
    #[inline]
    pub fn shfl_down<T: Copy + Default>(
        &mut self,
        l: &Lanes<T>,
        mask: u32,
        delta: usize,
    ) -> Lanes<T> {
        self.counters.shuffles += 1;
        if let Some(s) = &mut self.san {
            s.tally.shuffles += 1;
        }
        l.shfl_down(mask, delta)
    }

    /// `__shfl_up_sync` with cost accounting.
    #[inline]
    pub fn shfl_up<T: Copy + Default>(
        &mut self,
        l: &Lanes<T>,
        mask: u32,
        delta: usize,
    ) -> Lanes<T> {
        self.counters.shuffles += 1;
        if let Some(s) = &mut self.san {
            s.tally.shuffles += 1;
        }
        l.shfl_up(mask, delta)
    }

    /// `__shfl_xor_sync` with cost accounting.
    #[inline]
    pub fn shfl_xor<T: Copy + Default>(
        &mut self,
        l: &Lanes<T>,
        mask: u32,
        lane_mask: usize,
    ) -> Lanes<T> {
        self.counters.shuffles += 1;
        if let Some(s) = &mut self.san {
            s.tally.shuffles += 1;
        }
        l.shfl_xor(mask, lane_mask)
    }

    /// `__ballot_sync` with cost accounting.
    #[inline]
    pub fn ballot(&mut self, mask: u32, pred: impl FnMut(usize) -> bool) -> u32 {
        self.counters.ballots += 1;
        if let Some(s) = &mut self.san {
            s.tally.ballots += 1;
        }
        ballot(mask, pred)
    }

    /// `__syncthreads()` — a block barrier. (Blocks are simulated
    /// warp-synchronously so this is purely a cost event.) Under the
    /// sanitizer it advances the barrier epoch used by race detection, and
    /// a barrier issued inside a warp scope is flagged as divergent.
    #[inline]
    pub fn sync_threads(&mut self) {
        self.counters.syncs += 1;
        if let Some(s) = &mut self.san {
            s.tally.syncs += 1;
            s.on_sync();
        }
    }

    // ---- arithmetic charging ---------------------------------------------

    /// Charge `n` ALU lane-operations.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.counters.lane_flops += n;
        if let Some(s) = &mut self.san {
            s.tally.lane_flops += n;
        }
    }

    /// Charge one full-warp ALU operation (32 lane-ops).
    #[inline]
    pub fn warp_op(&mut self) {
        self.counters.lane_flops += WARP as u64;
        if let Some(s) = &mut self.san {
            s.tally.lane_flops += WARP as u64;
        }
    }

    /// Charge `n` special-function lane-operations (div/sqrt/log/exp).
    #[inline]
    pub fn special(&mut self, n: u64) {
        self.counters.special_ops += n;
        if let Some(s) = &mut self.san {
            s.tally.special_ops += n;
        }
    }

    /// Record `n` additional sequential iterations of the per-thread loop
    /// (Table II's Iters/thread).
    #[inline]
    pub fn note_iters(&mut self, n: u64) {
        self.counters.iters_per_thread += n;
        if let Some(s) = &mut self.san {
            s.tally.iters_per_thread += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::Hazard;

    #[test]
    fn global_reads_charge_bytes() {
        let mut ctx = BlockCtx::new();
        let data = vec![1.0f32, 2.0, 3.0];
        assert_eq!(ctx.g_read(&data, 1), 2.0);
        assert_eq!(ctx.counters.global_read_bytes, 4);
        let lanes = ctx.g_read_lanes(&data, 0, 1, 0.0);
        assert_eq!(lanes.lane(0), 1.0);
        assert_eq!(lanes.lane(2), 3.0);
        assert_eq!(lanes.lane(3), 0.0); // fill
        assert_eq!(ctx.counters.global_read_bytes, 4 + 12); // only 3 valid lanes
    }

    #[test]
    fn lane_read_fast_path_matches_general_path() {
        // A stride-1 fully-in-bounds read takes the slice-copy fast path;
        // values and charged bytes must equal the per-lane general path.
        let data: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let mut fast = BlockCtx::new();
        let got = fast.g_read_lanes(&data, 17, 1, -1.0);
        let mut general = BlockCtx::new();
        let want = Lanes::from_fn(|i| {
            general.counters.global_read_bytes += 4;
            data[17 + i]
        });
        assert_eq!(got, want);
        assert_eq!(
            fast.counters.global_read_bytes,
            general.counters.global_read_bytes
        );
        // Strided and tail reads stay on the general path (charging only
        // in-bounds lanes).
        let tail = fast.g_read_lanes(&data, 90, 1, 0.0);
        assert_eq!(tail.lane(9), data[99]);
        assert_eq!(tail.lane(10), 0.0);
        assert_eq!(fast.counters.global_read_bytes, 128 + 40);
    }

    #[test]
    fn batched_charges_match_per_access_totals() {
        let mut a = BlockCtx::new();
        let mut b = BlockCtx::new();
        for _ in 0..37 {
            a.counters.global_read_bytes += 4;
            a.counters.shared_accesses += 1;
            a.counters.shuffles += 1;
            a.counters.global_write_bytes += 4;
        }
        b.charge_lane_reads(37);
        b.charge_shared(37);
        b.charge_shuffles(37);
        b.charge_lane_writes(37);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn shared_buf_slices_expose_storage_uncharged() {
        let mut ctx = BlockCtx::new();
        let mut buf: SharedBuf<f32> = ctx.shared_alloc(8);
        buf.as_mut_slice()[3] = 2.5;
        assert_eq!(buf.as_slice()[3], 2.5);
        assert_eq!(ctx.counters.shared_accesses, 0); // caller charges in bulk
        ctx.charge_shared(2);
        assert_eq!(ctx.counters.shared_accesses, 2);
    }

    #[test]
    fn shared_alloc_tracks_footprint() {
        let mut ctx = BlockCtx::new();
        let mut buf: SharedBuf<f32> = ctx.shared_alloc(1024);
        assert_eq!(ctx.shared_bytes(), 4096);
        ctx.sh_write(&mut buf, 7, 1.5);
        assert_eq!(ctx.sh_read(&buf, 7), 1.5);
        assert_eq!(ctx.counters.shared_accesses, 2);
    }

    #[test]
    fn warp_primitives_charge_counters() {
        let mut ctx = BlockCtx::new();
        let l = Lanes::<f32>::from_fn(|i| i as f32);
        let _ = ctx.shfl_down(&l, u32::MAX, 1);
        let _ = ctx.shfl_xor(&l, u32::MAX, 2);
        let _ = ctx.ballot(u32::MAX, |i| i < 4);
        ctx.sync_threads();
        assert_eq!(ctx.counters.shuffles, 2);
        assert_eq!(ctx.counters.ballots, 1);
        assert_eq!(ctx.counters.syncs, 1);
    }

    #[test]
    fn flop_charging() {
        let mut ctx = BlockCtx::new();
        ctx.flops(10);
        ctx.warp_op();
        ctx.special(3);
        ctx.note_iters(5);
        assert_eq!(ctx.counters.lane_flops, 42);
        assert_eq!(ctx.counters.special_ops, 3);
        assert_eq!(ctx.counters.iters_per_thread, 5);
    }

    // ---- sanitized-context behavior -----------------------------------

    #[test]
    fn sanitized_oob_is_diagnosed_not_panicking() {
        let mut ctx = BlockCtx::sanitized(Some(0), 1 << 20);
        let data = vec![1.0f32; 4];
        assert_eq!(ctx.g_read(&data, 99), 0.0);
        let mut buf: SharedBuf<f32> = ctx.shared_alloc(4);
        assert_eq!(ctx.sh_read(&buf, 8), 0.0);
        ctx.sh_write(&mut buf, 8, 7.0); // dropped
        let (diags, _) = ctx.finish_sanitize().unwrap();
        let classes: Vec<Hazard> = diags.iter().map(|d| d.hazard).collect();
        assert!(classes.contains(&Hazard::OobGlobal), "{diags:?}");
        assert_eq!(
            classes.iter().filter(|&&h| h == Hazard::OobShared).count(),
            2
        );
    }

    #[test]
    fn sanitized_raw_view_is_flagged_uncharged() {
        let mut ctx = BlockCtx::sanitized(Some(0), 1 << 20);
        let buf: SharedBuf<f32> = ctx.shared_alloc(8);
        let _ = buf.as_slice();
        let (diags, _) = ctx.finish_sanitize().unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].hazard, Hazard::UnchargedAccess);
        assert_eq!(diags[0].buf, Some(0));
    }

    #[test]
    fn sanitized_marks_charge_like_charge_shared() {
        let mut a = BlockCtx::sanitized(Some(0), 1 << 20);
        let buf: SharedBuf<f32> = a.shared_alloc(32);
        a.sh_mark_writes(&buf, 0, 20);
        a.sh_mark_reads(&buf, 0, 20);
        let mut b = BlockCtx::new();
        let _unused: SharedBuf<f32> = b.shared_alloc(32);
        b.charge_shared(40);
        assert_eq!(a.counters, b.counters);
        let (diags, _) = a.finish_sanitize().unwrap();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sanitized_tally_matches_clean_usage() {
        let mut ctx = BlockCtx::sanitized(Some(0), 1 << 20);
        let data = vec![0.5f32; 64];
        let _ = ctx.g_read_lanes(&data, 0, 1, 0.0);
        let mut buf: SharedBuf<f64> = ctx.shared_alloc(4);
        ctx.warp_begin(0);
        ctx.sh_write(&mut buf, 1, 2.0);
        ctx.warp_end();
        ctx.sync_threads();
        ctx.warp_begin(1);
        assert_eq!(ctx.sh_read(&buf, 1), 2.0);
        ctx.warp_end();
        ctx.flops(3);
        ctx.note_iters(1);
        let (diags, suppressed) = ctx.finish_sanitize().unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 0);
    }

    #[test]
    fn sanitized_direct_poke_is_a_charge_mismatch() {
        let mut ctx = BlockCtx::sanitized(Some(0), 1 << 20);
        ctx.flops(5);
        ctx.counters.shuffles += 2; // bypasses the charge API
        let (diags, _) = ctx.finish_sanitize().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].hazard, Hazard::ChargeMismatch);
        assert!(diags[0].detail.contains("shuffles"));
    }
}
