//! One stream timeline per device group of an engine session (DESIGN.md
//! §6.12).
//!
//! A group keeps only its three engine cursors — when its H2D, compute and
//! D2H engines are next free — between jobs. Each executed job replays its
//! own run legs ([`RunLegs::replay`], the one timeline builder) onto a
//! timeline resumed from those cursors, so job k+1's upload runs while job
//! k computes and job k's read-backs overlap job k+1's kernels. The job's
//! result gather is one more D2H event after its last read-back; the
//! gather's end is when the job is ready.
//!
//! Every job runs whole on one group, and one rule keeps the overlap
//! honest, the **device-memory guard**: a job's first upload waits until
//! its resident window ([`crate::plan::SlabSchedule::resident_bytes`])
//! plus the windows of the group's jobs still computing fit in the
//! device.

use crate::plan::RunLegs;
use zc_gpusim::stream::{Engine, EngineCursors, Timeline};

/// The gather's stream: past every stream a run's legs use.
const GATHER_STREAM: usize = 16;

/// One device group's persistent stream state.
#[derive(Clone, Debug, Default)]
pub(crate) struct GroupTimeline {
    /// When the H2D, compute and D2H engines are next free.
    cursors: EngineCursors,
    /// `(resident bytes, end of last kernel)` of the jobs whose kernels may
    /// still hold device memory.
    resident: Vec<(u64, f64)>,
    /// Seconds the group's frontier advanced over every drain.
    pub(crate) busy_s: f64,
}

impl GroupTimeline {
    /// When the group's last engine goes idle.
    pub(crate) fn free_at_s(&self) -> f64 {
        self.cursors.iter().copied().fold(0.0, f64::max)
    }

    /// Replay one whole job's `legs`, released at `release_s`, then its
    /// `gather_s` result gather. Returns the job's events; the last one is
    /// the gather, whose end is when the job is ready.
    pub(crate) fn run(&mut self, legs: &RunLegs, release_s: f64, gather_s: f64) -> Timeline {
        let schedule = legs.schedule();
        let mut release = release_s.max(self.cursors[Engine::H2D.index()]);
        if let (Some(mem), Some(window)) = (schedule.capacity, schedule.resident_bytes()) {
            // The first upload waits for enough kernels ahead of it to end;
            // a window larger than the device waits for all of them.
            self.resident.retain(|&(_, end)| end > release);
            self.resident.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut held: u64 = self.resident.iter().map(|r| r.0).sum();
            let mut freed = 0;
            while window.saturating_add(held) > mem && freed < self.resident.len() {
                release = self.resident[freed].1;
                while freed < self.resident.len() && self.resident[freed].1 <= release {
                    held -= self.resident[freed].0;
                    freed += 1;
                }
            }
            self.resident.drain(..freed);
        }
        let mut tl = Timeline::resume(self.cursors, release);
        legs.replay(&mut tl);
        let last = tl
            .events()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.end_s.total_cmp(&b.1.end_s))
            .map(|(i, _)| i);
        if let Some(window) = schedule.resident_bytes() {
            let computed = tl
                .events()
                .iter()
                .filter(|e| e.engine == Engine::Compute)
                .map(|e| e.end_s)
                .fold(release, f64::max);
            self.resident.push((window, computed));
        }
        tl.push(GATHER_STREAM, Engine::D2H, gather_s, last.as_slice());
        self.cursors = tl.cursors();
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessConfig;
    use crate::plan::{PassKind, SlabSchedule};
    use zc_data::SplitMix64;
    use zc_gpusim::stream::{Event, HostLink};

    const CASES: usize = 300;

    fn u01(rng: &mut SplitMix64) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Random legs: 1–4 passes of 1–6 slabs of 1–200 µs each, a pair of
    /// 8 KiB–1 MiB over 1–32 planes, on a device of `capacity` bytes.
    fn legs(rng: &mut SplitMix64, capacity: u64) -> RunLegs {
        let planes = 1 + (rng.next_u64() % 32) as usize;
        let slabs = 1 + (rng.next_u64() as usize % 6).min(planes - 1);
        let kinds = [
            PassKind::P1Scalars,
            PassKind::P1Hist,
            PassKind::P2Stencil,
            PassKind::P3Ssim,
        ];
        let passes = 1 + (rng.next_u64() % 4) as usize;
        let tiles = kinds[..passes]
            .iter()
            .map(|&k| (k, (0..slabs).map(|_| 1e-6 + 2e-4 * u01(rng)).collect()))
            .collect();
        let schedule = SlabSchedule {
            pair_bytes: planes as u64 * (8 << 10) * (1 + rng.next_u64() % 4),
            planes,
            slabs,
            capacity: Some(capacity),
        };
        RunLegs::new(HostLink::pcie(), schedule, &AssessConfig::default(), tiles)
    }

    fn assert_no_engine_overlap(events: &[Event], case: usize) {
        for engine in [Engine::H2D, Engine::Compute, Engine::D2H] {
            let mut on: Vec<&Event> = events.iter().filter(|e| e.engine == engine).collect();
            on.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            for w in on.windows(2) {
                assert!(
                    w[1].start_s >= w[0].end_s,
                    "case {case}: {engine:?} runs [{}, {}] and [{}, {}]",
                    w[0].start_s,
                    w[0].end_s,
                    w[1].start_s,
                    w[1].end_s
                );
            }
        }
    }

    #[test]
    fn a_lone_job_on_an_idle_group_is_ready_at_its_standalone_span_plus_gather() {
        let mut rng = SplitMix64::new(0x6A0F_1E01);
        for case in 0..CASES {
            let legs = legs(&mut rng, 16 << 30);
            let gather = 1e-5 * u01(&mut rng);
            let tl = GroupTimeline::default().run(&legs, 0.0, gather);
            let alone = legs.end_to_end().overlapped_s + gather;
            assert_eq!(tl.makespan_s(), alone, "case {case}");
            assert_eq!(tl.events().last().unwrap().end_s, alone, "case {case}");
        }
    }

    /// Jobs released in order onto one group: each is ready no later than
    /// back-to-back scalar clocks would have it (up to the rounding of sums
    /// shifted to a later origin), and no engine ever runs two events at
    /// once.
    #[test]
    fn the_timeline_never_trails_scalar_clocks_and_never_double_books_an_engine() {
        let mut rng = SplitMix64::new(0x6A0F_1E02);
        for case in 0..CASES / 10 {
            let mut group = GroupTimeline::default();
            let mut clock = 0.0f64;
            let mut release = 0.0f64;
            let mut events = Vec::new();
            for _ in 0..12 {
                release += 1e-4 * u01(&mut rng) * f64::from(rng.next_u64().is_multiple_of(2));
                // Small devices make the memory guard bind now and then.
                let mem = (256 << 10) * (1 + rng.next_u64() % 8);
                let legs = legs(&mut rng, mem);
                let gather = 1e-5 * u01(&mut rng);
                let span = legs.end_to_end().overlapped_s;
                let tl = group.run(&legs, release, gather);
                events.extend_from_slice(tl.events());
                let (ready, scalar) = (tl.makespan_s(), clock.max(release) + span + gather);
                assert!(ready >= release, "case {case}");
                assert!(
                    ready <= scalar * (1.0 + 1e-12),
                    "case {case}: ready {ready} after the scalar clock's {scalar}"
                );
                clock = scalar;
            }
            assert_no_engine_overlap(&events, case);
        }
    }

    #[test]
    fn windows_that_do_not_fit_together_never_overlap_upload_and_compute() {
        let mut rng = SplitMix64::new(0x6A0F_1E03);
        for case in 0..CASES {
            // Draw each job's legs twice from the same state: once to read
            // its window, once on the device sized from both windows.
            let (sa, sb) = (rng, {
                legs(&mut rng, 16 << 30);
                rng
            });
            legs(&mut rng, 16 << 30);
            let window = |mut state| {
                legs(&mut state, 16 << 30)
                    .schedule()
                    .resident_bytes()
                    .unwrap()
            };
            let (wa, wb) = (window(sa), window(sb));
            // A device that holds both windows, or either one alone.
            let fits_both = rng.next_u64().is_multiple_of(2);
            let mem = if fits_both { wa + wb } else { wa + wb - 1 };
            let (a, b) = (legs(&mut { sa }, mem), legs(&mut { sb }, mem));
            let mut group = GroupTimeline::default();
            let first = group.run(&a, 0.0, 1e-6);
            let second = group.run(&b, 0.0, 1e-6);
            let computed = first
                .events()
                .iter()
                .filter(|e| e.engine == Engine::Compute)
                .map(|e| e.end_s)
                .fold(0.0, f64::max);
            let upload = second.events()[0];
            assert_eq!(upload.engine, Engine::H2D, "case {case}");
            if fits_both {
                // The guard costs nothing when both fit: the upload only
                // waits for the copy engine.
                let uploaded = first
                    .events()
                    .iter()
                    .filter(|e| e.engine == Engine::H2D)
                    .map(|e| e.end_s)
                    .fold(0.0, f64::max);
                assert_eq!(upload.start_s, uploaded, "case {case}");
            } else {
                assert!(upload.start_s >= computed, "case {case}");
            }
        }
    }
}
