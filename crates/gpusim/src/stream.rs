//! Modeled CUDA streams, copy engines and event timelines.
//!
//! The paper's evaluation (§V) measures *kernel* time, but notes that in an
//! end-to-end assessment the CPU↔GPU transfer legs dominate unless they are
//! overlapped with compute — the standard stream-pipelining trick (cuSZ
//! does the same for compression). This module models that dimension:
//!
//! * a [`HostLink`] prices an H2D/D2H leg (latency + bytes / bandwidth);
//!   a [`crate::MultiGpuModel`]'s devices gather their results over the
//!   same links;
//! * a [`Timeline`] schedules *events* onto streams and engines. A V100 has
//!   one compute engine and two DMA copy engines (one per direction), so
//!   events on the same [`Engine`] serialize, events in the same stream
//!   serialize (CUDA stream FIFO order), and explicit dependencies order
//!   events across streams (CUDA events). Everything else overlaps.
//!
//! The modeled end-to-end time is then the **makespan** of the scheduled
//! timeline instead of the naive serialized sum:
//!
//! ```text
//! start(e) = max( end(prev event in stream(e)),
//!                 free(engine(e)),
//!                 max over d in deps(e) of end(d) )
//! end(e)   = start(e) + duration(e)
//! overlapped_s = max over e of end(e)      // makespan
//! serialized_s = sum over e of duration(e) // copy → compute → copy-back
//! ```
//!
//! Scheduling is greedy in submission order, which is deterministic and
//! mirrors how a host program actually enqueues work.
//!
//! A timeline can also [`Timeline::resume`] from another one's engine
//! cursors: a device group that runs job after job keeps only its three
//! cursors between jobs, and each job's streams open no earlier than the
//! job's release time (`start(e)` then also takes the max with it).

use std::collections::BTreeMap;

/// A modeled host↔device interconnect for transfer legs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostLink {
    /// Link bandwidth in GB/s.
    pub bw_gbs: f64,
    /// Per-transfer latency in seconds (driver + DMA setup).
    pub latency_s: f64,
}

impl HostLink {
    /// PCIe3 x16-class link.
    pub fn pcie() -> Self {
        HostLink {
            bw_gbs: 12.0,
            latency_s: 20.0e-6,
        }
    }

    /// NVLink2-class link.
    pub fn nvlink() -> Self {
        HostLink {
            bw_gbs: 25.0,
            latency_s: 10.0e-6,
        }
    }

    /// Modeled seconds to move `bytes` over this link in one leg.
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bw_gbs * 1e9)
    }
}

/// The hardware engine an event occupies. Events on the same engine
/// serialize; engines run concurrently (the V100's compute/copy overlap).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// Host-to-device DMA copy engine.
    H2D,
    /// The compute (kernel execution) engine.
    Compute,
    /// Device-to-host DMA copy engine.
    D2H,
}

impl Engine {
    /// Position of this engine's cursor in [`EngineCursors`].
    pub fn index(self) -> usize {
        match self {
            Engine::H2D => 0,
            Engine::Compute => 1,
            Engine::D2H => 2,
        }
    }
}

/// When each engine is next free, indexed by [`Engine::index`]: the H2D,
/// compute and D2H cursors.
pub type EngineCursors = [f64; 3];

/// Handle to a scheduled event, usable as a dependency for later events.
pub type EventId = usize;

/// One scheduled leg of work on the timeline.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Stream the event was enqueued on (CUDA stream FIFO semantics).
    pub stream: usize,
    /// Engine the event occupies.
    pub engine: Engine,
    /// Modeled duration in seconds.
    pub duration_s: f64,
    /// Scheduled start time.
    pub start_s: f64,
    /// Scheduled end time.
    pub end_s: f64,
}

/// A deterministic greedy list-scheduler over streams and engines.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<Event>,
    stream_cursor: BTreeMap<usize, f64>,
    engine_cursor: EngineCursors,
    /// No event starts before this (0 for a fresh timeline).
    release_s: f64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// An empty timeline on engines that are next free at `cursors`, whose
    /// streams open at `release_s`: the next job of a device group that
    /// keeps its engine cursors between jobs. `resume([0.0; 3], 0.0)` is
    /// [`Timeline::new`].
    pub fn resume(cursors: EngineCursors, release_s: f64) -> Self {
        Timeline {
            engine_cursor: cursors,
            release_s,
            ..Timeline::default()
        }
    }

    /// When each engine is next free: the end of the last event pushed on
    /// it, or where the timeline resumed from.
    pub fn cursors(&self) -> EngineCursors {
        self.engine_cursor
    }

    /// Enqueue an event on `stream`/`engine` that must start after every
    /// event in `deps` has ended. Returns its [`EventId`].
    pub fn push(
        &mut self,
        stream: usize,
        engine: Engine,
        duration_s: f64,
        deps: &[EventId],
    ) -> EventId {
        let mut start = self
            .stream_cursor
            .get(&stream)
            .copied()
            .unwrap_or(self.release_s)
            .max(self.engine_cursor[engine.index()]);
        for &d in deps {
            start = start.max(self.events[d].end_s);
        }
        let end = start + duration_s;
        self.stream_cursor.insert(stream, end);
        self.engine_cursor[engine.index()] = end;
        self.events.push(Event {
            stream,
            engine,
            duration_s,
            start_s: start,
            end_s: end,
        });
        self.events.len() - 1
    }

    /// All scheduled events, in submission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The overlapped end-to-end time: the latest event end.
    pub fn makespan_s(&self) -> f64 {
        self.events.iter().map(|e| e.end_s).fold(0.0, f64::max)
    }

    /// The serialized time: what the same legs would cost run one after
    /// another (the naive copy → compute → copy-back sum).
    pub fn serialized_s(&self) -> f64 {
        self.events.iter().map(|e| e.duration_s).sum()
    }

    /// Total busy seconds of one engine.
    pub fn engine_busy_s(&self, engine: Engine) -> f64 {
        self.events
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| e.duration_s)
            .sum()
    }

    /// The scheduled events folded into per-engine busy seconds, the
    /// serialized sum and the overlapped makespan.
    pub fn end_to_end(&self) -> EndToEnd {
        EndToEnd {
            h2d_s: self.engine_busy_s(Engine::H2D),
            d2h_s: self.engine_busy_s(Engine::D2H),
            compute_s: self.engine_busy_s(Engine::Compute),
            serialized_s: self.serialized_s(),
            overlapped_s: self.makespan_s(),
        }
    }
}

/// Modeled end-to-end assessment time: transfer legs plus compute, both as
/// the overlapped stream makespan and as the serialized sum.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EndToEnd {
    /// Total host-to-device transfer seconds (both fields).
    pub h2d_s: f64,
    /// Total device-to-host result read-back seconds.
    pub d2h_s: f64,
    /// Total modeled kernel compute seconds.
    pub compute_s: f64,
    /// The naive serialized sum: `h2d_s + compute_s + d2h_s`.
    pub serialized_s: f64,
    /// The overlapped stream makespan (always `<= serialized_s`).
    pub overlapped_s: f64,
}

impl EndToEnd {
    /// Fraction of the serialized time hidden by overlap, in `[0, 1)`.
    pub fn saving(&self) -> f64 {
        if self.serialized_s <= 0.0 {
            0.0
        } else {
            1.0 - self.overlapped_s / self.serialized_s
        }
    }

    /// This timeline re-priced as if every transfer leg ran over a link
    /// flapping by `factor`: the H2D/D2H legs cost `factor`× their healthy
    /// time, and the *extra* transfer seconds are charged serially onto the
    /// makespan — a flapping link retrains unpredictably, so the scheduler
    /// cannot plan overlap around the slowdown. Compute time is untouched. `factor <= 1` is the identity.
    pub fn repriced_transfers(&self, factor: f64) -> EndToEnd {
        let f = factor.max(1.0);
        let extra = (f - 1.0) * (self.h2d_s + self.d2h_s);
        EndToEnd {
            h2d_s: self.h2d_s * f,
            d2h_s: self.d2h_s * f,
            compute_s: self.compute_s,
            serialized_s: self.serialized_s + extra,
            overlapped_s: self.overlapped_s + extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_bandwidth() {
        let l = HostLink::pcie();
        let t = l.transfer_s(12_000_000_000);
        assert!((t - (1.0 + 20.0e-6)).abs() < 1e-12, "{t}");
        assert!(l.transfer_s(0) == l.latency_s);
    }

    #[test]
    fn same_stream_and_same_engine_serialize() {
        let mut tl = Timeline::new();
        let a = tl.push(0, Engine::Compute, 1.0, &[]);
        let b = tl.push(0, Engine::Compute, 2.0, &[]);
        assert_eq!(tl.events()[a].start_s, 0.0);
        assert_eq!(tl.events()[b].start_s, 1.0);
        // Different stream, same engine: still serialized by the engine.
        let c = tl.push(1, Engine::Compute, 1.0, &[]);
        assert_eq!(tl.events()[c].start_s, 3.0);
        assert_eq!(tl.makespan_s(), 4.0);
        assert_eq!(tl.serialized_s(), 4.0);
    }

    #[test]
    fn different_engines_overlap_and_deps_order_across_streams() {
        let mut tl = Timeline::new();
        // Two H2D chunks back-to-back; compute chunk i depends on copy i.
        let h0 = tl.push(0, Engine::H2D, 1.0, &[]);
        let h1 = tl.push(0, Engine::H2D, 1.0, &[]);
        let c0 = tl.push(1, Engine::Compute, 3.0, &[h0]);
        let c1 = tl.push(1, Engine::Compute, 3.0, &[h1]);
        let d = tl.push(1, Engine::D2H, 0.5, &[c1]);
        assert_eq!(tl.events()[c0].start_s, 1.0); // waits for copy 0 only
        assert_eq!(tl.events()[h1].start_s, 1.0); // overlaps compute 0
        assert_eq!(tl.events()[c1].start_s, 4.0); // compute engine busy
        assert_eq!(tl.events()[d].start_s, 7.0);
        assert_eq!(tl.makespan_s(), 7.5);
        // Strictly better than the serialized sum 8.5.
        assert!(tl.makespan_s() < tl.serialized_s());
        assert_eq!(tl.engine_busy_s(Engine::Compute), 6.0);
    }

    #[test]
    fn a_resumed_timeline_starts_at_its_cursors_and_release() {
        let mut first = Timeline::new();
        first.push(0, Engine::H2D, 1.0, &[]);
        let c = first.push(0, Engine::Compute, 3.0, &[0]);
        assert_eq!(first.cursors(), [1.0, 4.0, 0.0]);
        // The next job's upload overlaps the first one's compute; its
        // kernel waits for the compute engine; its copy-back for both.
        let mut next = Timeline::resume(first.cursors(), 0.5);
        let h = next.push(0, Engine::H2D, 1.0, &[]);
        let k = next.push(1, Engine::Compute, 1.0, &[h]);
        let d = next.push(1, Engine::D2H, 0.5, &[k]);
        assert_eq!(next.events()[h].start_s, 1.0);
        assert_eq!(next.events()[k].start_s, first.events()[c].end_s);
        assert_eq!(next.events()[d].start_s, 5.0);
        assert_eq!(next.cursors(), [2.0, 5.0, 5.5]);
        // Streams open at the release, not at 0.
        let mut tl = Timeline::resume([0.0; 3], 2.0);
        tl.push(3, Engine::D2H, 1.0, &[]);
        assert_eq!(tl.events()[0].start_s, 2.0);
        // Resuming from zero is a fresh timeline.
        let e2e = |mut tl: Timeline| {
            let a = tl.push(0, Engine::H2D, 1.0, &[]);
            tl.push(1, Engine::Compute, 2.0, &[a]);
            tl.end_to_end()
        };
        assert_eq!(e2e(Timeline::new()), e2e(Timeline::resume([0.0; 3], 0.0)));
    }

    #[test]
    fn repriced_transfers_charges_the_extra_serially() {
        let e = EndToEnd {
            h2d_s: 1.0,
            d2h_s: 0.5,
            compute_s: 2.0,
            serialized_s: 3.5,
            overlapped_s: 2.8,
        };
        let r = e.repriced_transfers(2.0);
        assert_eq!(r.h2d_s, 2.0);
        assert_eq!(r.d2h_s, 1.0);
        assert_eq!(r.compute_s, 2.0);
        assert_eq!(r.serialized_s, 3.5 + 1.5);
        assert_eq!(r.overlapped_s, 2.8 + 1.5);
        // Identity at factor 1 (and below).
        assert_eq!(e.repriced_transfers(1.0), e);
        assert_eq!(e.repriced_transfers(0.3), e);
    }

    #[test]
    fn end_to_end_saving_bounds() {
        let e = EndToEnd {
            h2d_s: 1.0,
            d2h_s: 0.5,
            compute_s: 2.0,
            serialized_s: 3.5,
            overlapped_s: 2.8,
        };
        assert!((e.saving() - (1.0 - 2.8 / 3.5)).abs() < 1e-12);
        assert_eq!(EndToEnd::default().saving(), 0.0);
    }
}
