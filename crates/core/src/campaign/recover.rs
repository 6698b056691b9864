//! The campaign replay: the one booking of a campaign's jobs onto a
//! fleet's device groups, and its recovery from what a
//! [`zc_gpusim::FaultPlan`] breaks.
//!
//! The campaign engine executes every job's *functional* work exactly once
//! (host-parallel, fleet-independent) and models fleets afterwards; this
//! module keeps that shape. The replay is a deterministic discrete-event
//! walk of the shard plan at `(job, part)` granularity over per-group
//! clocks. A healthy fleet is the replay in which nothing strikes. Injected
//! faults never touch metric values — a retried job's
//! numbers are bit-identical to its fault-free numbers — they only change
//! *when* device groups are busy, *which* group finally hosts each part,
//! and the attempt/retry bookkeeping. That is exactly the invariant the
//! chaos test tier pins (completed-job metrics `==` the fault-free golden
//! bits under any fault rate).
//!
//! The recovery policy per failed attempt:
//!
//! 1. **transient fault / hang** — the attempt's partial time, or a hang's
//!    deadline, is charged to its group: a hang is reclaimed at
//!    `min(watchdog_timeout_s, HANG_DEADLINE × hold)`, the hold being the
//!    part's share of the job's price plus its gather. The part retries up
//!    to [`RecoveryPolicy::MAX_RETRIES`] times, with exponential backoff
//!    charged on the next group's timeline. A retry moves whole (each
//!    attempt draws its own fault) to the survivor that owes least — booked
//!    clock plus unbooked plan load — by the list scheduler
//!    ([`super::Scheduler::plan_onto`]), the replay's one placement rule.
//! 2. **link flap** — the attempt *completes*, but its transfer legs are
//!    re-priced through [`zc_gpusim::EndToEnd::repriced_transfers`]; no
//!    retry is consumed.
//! 3. **permanent device death** — the group dies at its deterministic
//!    instant; the attempt it interrupts (and every part still routed
//!    there) is re-placed by the same list scheduler *without* consuming a
//!    retry, and may split over the survivors down to single planes (tiled
//!    runs are bit-identical to monolithic ones): degraded-mode resharding,
//!    not job failure. When the last group dies the campaign fails typed
//!    ([`super::CampaignError::AllDevicesDead`]) — never a panic or hang.
//! 4. **retry exhaustion** — the job is recorded lost
//!    ([`super::JobOutcome::Failed`]); its metrics are dropped from every
//!    merged counter (failed attempts must never pollute campaign totals),
//!    while the device time its attempts burned stays on the clocks.

use super::job::{JobOutcome, JobRecord};
use super::report::{gather_s, makespan, part_s, CampaignReport, EngineBusy};
use super::shard::{FleetSpec, Scheduler, ShardPlan};
use super::CampaignError;
use crate::config::AssessConfig;
use zc_gpusim::{EndToEnd, FaultDraw, FaultPlan};

/// Bounded-retry recovery policy for injected device faults: fixed
/// constants, carried by [`super::CampaignSpec::recovery`].
///
/// Functional job failures (a codec that cannot decode, an admission
/// reject) are *not* retried: they are deterministic properties of the
/// job, and retrying them would burn fleet time to reproduce the same
/// error. Only injected device faults — transient launch faults and
/// watchdog-reclaimed hangs — consume retries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryPolicy {}

impl RecoveryPolicy {
    /// Retries per shard part after its first attempt.
    pub const MAX_RETRIES: u32 = 3;
    /// Backoff before the first retry, in seconds: a link-latency-scale
    /// pause, small next to any real job span.
    pub const BACKOFF_BASE_S: f64 = 1e-4;
    /// Multiplier on the backoff for each further retry of the same part.
    pub const BACKOFF_FACTOR: f64 = 2.0;
    /// A hung attempt is reclaimed after this many times its priced hold,
    /// or at the device's watchdog timeout if that comes first.
    pub const HANG_DEADLINE: f64 = 2.0;

    /// Backoff charged before retry number `retry` (1-based), in seconds.
    fn backoff_s(retry: u32) -> f64 {
        Self::BACKOFF_BASE_S * Self::BACKOFF_FACTOR.powi(retry as i32 - 1)
    }
}

/// What fault recovery did to one campaign run — attached to the
/// [`CampaignReport`] whenever a non-null fault plan was simulated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Execution attempts across all shard parts: one per planned part,
    /// plus retries, death-interrupted attempts and the extra pieces of
    /// parts split over the survivors.
    pub attempts: u64,
    /// Attempts that failed to a transient fault or hang and consumed a
    /// retry.
    pub retries: u64,
    /// Parts re-placed onto a surviving group after a device death (these
    /// do not consume retries).
    pub reschedules: u64,
    /// Hung attempts reclaimed by the modeled watchdog.
    pub watchdog_trips: u64,
    /// Attempts that completed over a flapping (re-priced) link.
    pub link_flaps: u64,
    /// Device groups that permanently died within the campaign makespan.
    pub dead_devices: Vec<u32>,
    /// Jobs lost to retry exhaustion.
    pub lost_jobs: u64,
    /// Total backoff seconds charged on group timelines.
    pub backoff_s: f64,
    /// The same campaign's makespan on the fault-free fleet.
    pub fault_free_makespan_s: f64,
    /// `(makespan − fault_free_makespan) / fault_free_makespan`.
    pub makespan_inflation: f64,
    /// Completed jobs over functionally runnable jobs (1.0 when nothing
    /// was runnable).
    pub completion: f64,
}

/// Book a campaign's job records onto `fleet`'s device groups under the
/// shard plan: the one campaign fleet booking.
///
/// Each part of each completed job holds its group for [`part_s`], and
/// each record gets its primary group and its booked attempts. A healthy
/// fleet (no fault plan, or a null one) is one replay in which every draw
/// is [`FaultDraw::None`] and no group dies; its report carries no
/// recovery accounting. A live fault plan is replayed a second time
/// against that fault-free makespan, which places its deaths and prices its
/// inflation. `costs` are the job prices the plan was built from; they
/// price re-placements and hang deadlines. Injected faults never touch a
/// completed job's values.
pub(crate) fn replay(
    mut jobs: Vec<JobRecord>,
    fleet: &FleetSpec,
    cfg: &AssessConfig,
    plan: &ShardPlan,
    costs: &[f64],
) -> Result<CampaignReport, CampaignError> {
    let gather_s = gather_s(fleet, cfg);
    // A null plan: every draw is `FaultDraw::None` and no group dies.
    let healthy = FaultPlan::chaos(0, 0);
    let live = fleet.faults.filter(|p| !p.is_null());
    let mut booked = Replay::new(fleet, gather_s, &healthy, 0.0).book(&mut jobs, plan, costs)?;
    let horizon = makespan(&booked.clocks);
    if let Some(faults) = &live {
        booked = Replay::new(fleet, gather_s, faults, horizon).book(&mut jobs, plan, costs)?;
    }

    // The completed jobs' charges fold over the extras of failed,
    // interrupted and flapped attempts.
    let extra = (booked.extra, booked.extra_bytes as u64);
    let mut report =
        CampaignReport::from_busy_clocks(jobs, fleet, plan, booked.clocks, gather_s, extra);
    if live.is_none() {
        return Ok(report);
    }
    let makespan_s = report.fleet.makespan_s;
    let mut rec = booked.rec;
    let completed = report.completed() as u64;
    let runnable = completed + rec.lost_jobs;
    rec.completion = if runnable > 0 {
        completed as f64 / runnable as f64
    } else {
        1.0
    };
    rec.fault_free_makespan_s = horizon;
    rec.makespan_inflation = if horizon > 0.0 {
        (makespan_s - horizon) / horizon
    } else {
        0.0
    };
    rec.dead_devices = (0..booked.death_at.len() as u32)
        .filter(|&g| booked.death_at[g as usize].is_some_and(|d| d <= makespan_s))
        .collect();
    report.recovery = Some(rec);
    Ok(report)
}

/// One replay of a shard plan under one fault plan: the device groups'
/// clocks, and what failed, interrupted and flapped attempts burned on top
/// of the completed jobs' own legs.
struct Replay<'a> {
    faults: &'a FaultPlan,
    gather_s: f64,
    watchdog_s: f64,
    /// When each group dies, if it does.
    death_at: Vec<Option<f64>>,
    clocks: Vec<f64>,
    /// Plan load each group has not booked yet, in priced seconds.
    pending: Vec<f64>,
    /// Engine legs of failed, interrupted and lost attempts, and the extra
    /// transfer legs of flapped ones.
    extra: EngineBusy,
    /// Field bytes those attempts read.
    extra_bytes: f64,
    rec: RecoveryReport,
}

impl<'a> Replay<'a> {
    /// A replay of `faults` on `fleet`, whose deaths strike at their
    /// fractions of `horizon`.
    fn new(fleet: &FleetSpec, gather_s: f64, faults: &'a FaultPlan, horizon: f64) -> Self {
        let groups = fleet.groups();
        Replay {
            faults,
            gather_s,
            watchdog_s: fleet.executor().sim.dev.watchdog_timeout_s,
            death_at: (0..groups)
                .map(|g| faults.death_frac(g).map(|f| f * horizon))
                .collect(),
            clocks: vec![0.0; groups as usize],
            pending: Vec::new(),
            extra: EngineBusy::default(),
            extra_bytes: 0.0,
            rec: RecoveryReport::default(),
        }
    }

    /// Replay every completed job's parts in job order, writing each
    /// record's primary group and attempts, and failing a job lost to
    /// retry exhaustion.
    fn book(
        mut self,
        jobs: &mut [JobRecord],
        plan: &ShardPlan,
        costs: &[f64],
    ) -> Result<Self, CampaignError> {
        self.pending = plan.predicted_busy().to_vec();
        for record in jobs.iter_mut() {
            let (id, cost) = (record.spec.id, costs[record.spec.id]);
            record.group = plan.group_of(id);
            // Parts still to book, last first: (group, share, retries used,
            // plan load the part still holds on its group).
            let mut todo: Vec<_> = (plan.shares_of(id).iter().rev())
                .map(|&(g, share)| (g as usize, share, 0, cost * share))
                .collect();
            let Some(m) = record.metrics() else {
                // The failed host-side attempt; its plan load never runs.
                for (g, _, _, planned) in todo {
                    self.pending[g] -= planned;
                }
                record.attempts = 1;
                continue;
            };
            let (span, e2e, job_bytes) = (m.span_s(), m.e2e.as_ref(), m.assessed_bytes as f64);
            let shape = record.spec.field.shape();
            let planes = (shape.nz() * shape.nw()) as f64;
            let mut job_attempts = 0u32;
            let mut done_shares: Vec<f64> = Vec::new();
            let mut fatal: Option<String> = None;
            while let Some((g, share, retries_used, planned)) = todo.pop() {
                self.pending[g] -= planned;
                if !self.alive(g) {
                    // A dead group's part may split over the survivors,
                    // down to single planes.
                    let limit = ((share * planes) as usize).max(1);
                    for (h, s) in self.place(share, cost, limit)? {
                        todo.push((h, s, retries_used, 0.0));
                    }
                    self.rec.reschedules += 1;
                    continue;
                }
                let draw = self
                    .faults
                    .attempt_fault(g as u32, attempt_key(id, job_attempts));
                let (busy_s, frac) = self.price_attempt(&draw, share, span, cost, e2e);
                job_attempts += 1;
                self.rec.attempts += 1;
                let start = self.clocks[g];
                // A death inside the attempt's span interrupts it: the group
                // dies mid-flight (its clock stops there), the partial work
                // is lost, and the part moves to the survivors without
                // consuming a retry.
                if let Some(d) = self.death_at[g].filter(|&d| d < start + busy_s) {
                    let t = (d - start) / busy_s;
                    self.clocks[g] = d;
                    self.burn(e2e, t * frac, t * frac * job_bytes);
                    todo.push((g, share, retries_used, 0.0));
                    continue;
                }
                self.clocks[g] += busy_s;
                match draw {
                    FaultDraw::None => {}
                    FaultDraw::LinkFlap { factor } => {
                        self.rec.link_flaps += 1;
                        // Flapped legs surcharge the copy engines only.
                        let copies = e2e.map(|e| EndToEnd {
                            compute_s: 0.0,
                            ..*e
                        });
                        self.burn(copies.as_ref(), share * (factor.max(1.0) - 1.0), 0.0);
                    }
                    FaultDraw::Transient { .. } => self.burn(e2e, frac, frac * job_bytes),
                    FaultDraw::Hang => self.rec.watchdog_trips += 1,
                }
                if matches!(draw, FaultDraw::None | FaultDraw::LinkFlap { .. }) {
                    done_shares.push(share);
                    continue;
                }
                // Transient or hang: what ran is charged; retry (or give
                // the job up).
                let retries_used = retries_used + 1;
                if retries_used > RecoveryPolicy::MAX_RETRIES {
                    fatal = Some(format!(
                        "chaos: a part exhausted {} retries (last fault on group {g})",
                        RecoveryPolicy::MAX_RETRIES
                    ));
                    break;
                }
                self.rec.retries += 1;
                // A retry moves whole, with the exponential backoff charged
                // on its new group's timeline.
                let h = self.place(share, cost, 1)?[0].0;
                let backoff = RecoveryPolicy::backoff_s(retries_used);
                self.clocks[h] += backoff;
                self.rec.backoff_s += backoff;
                todo.push((h, share, retries_used, 0.0));
            }
            if let Some(msg) = fatal {
                // The successful sibling parts' device work is already on
                // the clocks; the job no longer contributes baseline
                // charges, so their legs and reads become extras.
                for s in done_shares {
                    self.burn(e2e, s, s * job_bytes);
                }
                self.rec.lost_jobs += 1;
                record.outcome = JobOutcome::Failed(msg);
            }
            record.attempts = job_attempts;
        }
        Ok(self)
    }

    /// Whether group `g` is alive: its clock has not reached its death.
    fn alive(&self, g: usize) -> bool {
        self.death_at[g].is_none_or(|d| self.clocks[g] < d)
    }

    /// Re-place `share` of a job priced `cost` seconds onto the surviving
    /// groups in at most `max` pieces through the list scheduler: the one
    /// placement rule of the replay. Each survivor owes its booked clock
    /// plus the plan load it has not booked yet.
    fn place(&self, share: f64, cost: f64, max: usize) -> Result<Vec<(usize, f64)>, CampaignError> {
        let survivors: Vec<usize> = (0..self.clocks.len()).filter(|&g| self.alive(g)).collect();
        if survivors.is_empty() {
            let groups = self.clocks.len() as u32;
            return Err(CampaignError::AllDevicesDead { groups });
        }
        let owed: Vec<f64> = survivors
            .iter()
            .map(|&g| self.clocks[g] + self.pending[g])
            .collect();
        let groups = survivors.len() as u32;
        let plan = Scheduler::List.plan_onto(&[share * cost], &[max], groups, &owed);
        let pieces = plan.shares_of(0).iter();
        Ok(pieces
            .map(|&(h, s)| (survivors[h as usize], s * share))
            .collect())
    }

    /// Book `scale` of a job's engine legs and `bytes` of field reads that
    /// no completed job accounts for.
    fn burn(&mut self, e2e: Option<&EndToEnd>, scale: f64, bytes: f64) {
        if let Some(e) = e2e {
            self.extra.absorb(scale, e);
        }
        self.extra_bytes += bytes;
    }

    /// Price one attempt of a part of `share` of a job spanning `span`
    /// seconds and priced `cost` under its fault draw: the seconds it holds
    /// its group and the fraction of the job's engine legs and field bytes
    /// it ran.
    fn price_attempt(
        &self,
        draw: &FaultDraw,
        share: f64,
        span: f64,
        cost: f64,
        e2e: Option<&EndToEnd>,
    ) -> (f64, f64) {
        match *draw {
            FaultDraw::None => (part_s(share, span, self.gather_s), share),
            // Died mid-flight: the group was busy (and streaming field
            // bytes) for the executed fraction; no result, no gather.
            FaultDraw::Transient { abort_frac } => {
                (abort_frac * (share * span), abort_frac * share)
            }
            // The launch never progresses; the device is held until the
            // watchdog reclaims it at the part's deadline. No bytes move.
            FaultDraw::Hang => {
                let hold = part_s(share, cost, self.gather_s);
                (
                    self.watchdog_s.min(RecoveryPolicy::HANG_DEADLINE * hold),
                    0.0,
                )
            }
            // The transfer legs re-price; host executors have none to flap.
            FaultDraw::LinkFlap { factor } => {
                let span = e2e.map_or(span, |e| e.repriced_transfers(factor).overlapped_s);
                (part_s(share, span, self.gather_s), share)
            }
        }
    }
}

/// The fault-draw key of attempt number `attempt` of job `id`: the attempt
/// ordinal is unique per job, so every attempt draws its own fault.
fn attempt_key(id: usize, attempt: u32) -> u64 {
    (id as u64) << 32 | attempt as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attempt_of_a_job_draws_its_own_key() {
        let keys: std::collections::HashSet<u64> =
            (0..1000).map(|attempt| attempt_key(7, attempt)).collect();
        assert_eq!(keys.len(), 1000);
        // Nor does any of them repeat a neighbouring job's.
        assert!((0..1000).all(|attempt| !keys.contains(&attempt_key(8, attempt))));
    }

    #[test]
    fn re_placement_splits_onto_survivors_and_never_finishes_later_than_whole() {
        let mut rng = zc_data::SplitMix64::new(0x5EED_F0BA_D5EE);
        for case in 0..512 {
            let groups = 1 + (rng.next_u64() % 8) as usize;
            let alive: Vec<bool> = (0..groups)
                .map(|_| !rng.next_u64().is_multiple_of(4))
                .collect();
            // Few distinct owed values, so ties are common.
            let owed: Vec<f64> = (0..groups)
                .map(|_| (rng.next_u64() % 4) as f64 * 0.5)
                .collect();
            let share = (1 + rng.next_u64() % 1000) as f64 / 1000.0;
            let cost = (1 + rng.next_u64() % 400) as f64 / 100.0;
            let limit = 1 + (rng.next_u64() % 64) as usize;
            let ctx = format!("case {case}: alive {alive:?} owed {owed:?} limit {limit}");
            let healthy = FaultPlan::chaos(0, 0);
            let mut replay = Replay::new(&FleetSpec::nvlink(groups as u32), 0.0, &healthy, 0.0);
            // Dead groups die at t = 0; the owed seconds are booked clocks.
            replay.death_at = alive.iter().map(|&a| (!a).then_some(0.0)).collect();
            replay.clocks = owed.clone();
            replay.pending = vec![0.0; groups];
            let Ok(pieces) = replay.place(share, cost, limit) else {
                assert!(
                    alive.iter().all(|a| !a),
                    "{ctx}: survivors but no placement"
                );
                continue;
            };
            let total: f64 = pieces.iter().map(|(_, s)| s).sum();
            assert!((total - share).abs() < 1e-12, "{ctx}: shares {total}");
            assert!(pieces.iter().all(|&(g, _)| alive[g]), "{ctx}: {pieces:?}");
            // The least-owing survivor, lowest index on ties.
            let least = (0..groups)
                .filter(|&g| alive[g])
                .min_by(|&a, &b| owed[a].total_cmp(&owed[b]))
                .unwrap();
            let finish = |load: &[f64]| {
                (0..groups)
                    .filter(|&g| alive[g])
                    .map(|g| owed[g] + load[g])
                    .fold(0.0, f64::max)
            };
            let mut split = vec![0.0; groups];
            for &(g, s) in &pieces {
                split[g] += s * cost;
            }
            let mut whole = vec![0.0; groups];
            whole[least] = share * cost;
            assert!(
                finish(&split) <= finish(&whole) + 1e-9,
                "{ctx}: split {} after whole {}",
                finish(&split),
                finish(&whole)
            );
            if limit == 1 {
                assert_eq!(pieces, [(least, share)], "{ctx}");
            }
        }
    }
}
