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
//! 1. **transient fault / hang** — the attempt's partial (or watchdog)
//!    time is charged to the group it ran on, then the part retries, up to
//!    [`RecoveryPolicy::max_retries`] times, with exponential backoff
//!    charged on the next group's timeline. Retries are re-placed by the
//!    list scheduler's greedy rule — least-loaded surviving group — so a
//!    flaky device sheds load to healthy ones exactly the way the PR 7
//!    scheduler would have placed it.
//! 2. **link flap** — the attempt *completes*, but its transfer legs are
//!    re-priced through [`zc_gpusim::EndToEnd::repriced_transfers`]; no
//!    retry is consumed.
//! 3. **permanent device death** — the group dies at its deterministic
//!    instant; the attempt it interrupts (and every part still routed
//!    there) is rescheduled onto the survivors *without* consuming a
//!    retry: degraded-mode resharding, not job failure. When the last
//!    group dies the campaign fails typed
//!    ([`super::CampaignError::AllDevicesDead`]) — never a panic or hang.
//! 4. **retry exhaustion** — the job is recorded lost
//!    ([`super::JobOutcome::Failed`]); its metrics are dropped from every
//!    merged counter (failed attempts must never pollute campaign totals),
//!    while the device time its attempts burned stays on the clocks.

use super::job::{JobOutcome, JobRecord};
use super::report::{gather_s, makespan, part_s, CampaignReport, EngineBusy};
use super::shard::{FleetSpec, ShardPlan};
use super::CampaignError;
use crate::config::AssessConfig;
use zc_gpusim::{EndToEnd, FaultDraw, FaultPlan};

/// Bounded-retry recovery policy for injected device faults.
///
/// Functional job failures (a codec that cannot decode, an admission
/// reject) are *not* retried: they are deterministic properties of the
/// job, and retrying them would burn fleet time to reproduce the same
/// error. Only injected device faults — transient launch faults and
/// watchdog-reclaimed hangs — consume retries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries per shard part after its first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff charged on the timeline before the first retry, in seconds.
    pub backoff_base_s: f64,
    /// Multiplier on the backoff for each further retry of the same part.
    pub backoff_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            // One link-latency-scale pause, doubling per retry: long enough
            // to matter on the modeled timeline, short enough that a full
            // retry budget stays small next to any real job span.
            backoff_base_s: 1e-4,
            backoff_factor: 2.0,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff charged before retry number `retry` (1-based), in seconds.
    fn backoff_s(&self, retry: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(retry as i32 - 1)
    }
}

/// What fault recovery did to one campaign run — attached to the
/// [`CampaignReport`] whenever a non-null fault plan was simulated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Execution attempts across all shard parts (= parts + retries +
    /// death-interrupted reschedules).
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
/// inflation. Injected faults never touch a completed job's values.
pub(crate) fn replay(
    mut jobs: Vec<JobRecord>,
    fleet: &FleetSpec,
    cfg: &AssessConfig,
    plan: &ShardPlan,
    policy: &RecoveryPolicy,
) -> Result<CampaignReport, CampaignError> {
    let gather_s = gather_s(fleet, cfg);
    // A null plan: every draw is `FaultDraw::None` and no group dies.
    let healthy = FaultPlan::chaos(0, 0);
    let live = fleet.faults.filter(|p| !p.is_null());
    let mut booked = Replay::new(fleet, gather_s, &healthy, 0.0).book(&jobs, plan, policy)?;
    let horizon = makespan(&booked.clocks);
    if let Some(faults) = &live {
        booked = Replay::new(fleet, gather_s, faults, horizon).book(&jobs, plan, policy)?;
        for (ji, msg) in booked.lost.drain(..) {
            jobs[ji].outcome = JobOutcome::Failed(msg);
        }
    }
    for (i, (job, &attempts)) in jobs.iter_mut().zip(&booked.attempts).enumerate() {
        job.group = plan.group_of(i);
        job.attempts = attempts;
    }

    // Baseline charges (counters, engine legs, payload, exact assessed
    // bytes) fold over the surviving completed jobs in job order; the
    // extras of failed, interrupted and flapped attempts land on top.
    let mut report = CampaignReport::from_busy_clocks(jobs, fleet, plan, booked.clocks, gather_s);
    let summary = &mut report.fleet;
    summary.engines.h2d_s += booked.extra.h2d_s;
    summary.engines.compute_s += booked.extra.compute_s;
    summary.engines.d2h_s += booked.extra.d2h_s;
    summary.assessed_bytes += booked.extra_bytes as u64;
    if live.is_none() {
        return Ok(report);
    }
    let makespan_s = summary.makespan_s;
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
    alive: Vec<bool>,
    /// Engine legs of failed, interrupted and lost attempts, and the extra
    /// transfer legs of flapped ones.
    extra: EngineBusy,
    /// Field bytes those attempts read.
    extra_bytes: f64,
    /// Execution attempts per job record.
    attempts: Vec<u32>,
    /// Jobs lost to retry exhaustion, with why.
    lost: Vec<(usize, String)>,
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
            alive: vec![true; groups as usize],
            extra: EngineBusy::default(),
            extra_bytes: 0.0,
            attempts: Vec::new(),
            lost: Vec::new(),
            rec: RecoveryReport::default(),
        }
    }

    /// Replay every completed job's parts in job order.
    fn book(
        mut self,
        jobs: &[JobRecord],
        plan: &ShardPlan,
        policy: &RecoveryPolicy,
    ) -> Result<Self, CampaignError> {
        for (ji, record) in jobs.iter().enumerate() {
            let Some(m) = record.metrics() else {
                self.attempts.push(1); // the failed host-side attempt
                continue;
            };
            let span = m.span_s();
            let e2e = m.e2e.as_ref();
            let job_bytes = m.assessed_bytes as f64;
            let mut job_attempts = 0u32;
            let mut done_shares: Vec<f64> = Vec::new();
            let mut fatal: Option<String> = None;
            'parts: for (pi, &(g0, share)) in plan.shares_of(record.spec.id).iter().enumerate() {
                let mut g = g0 as usize;
                let mut retries_used = 0u32;
                loop {
                    self.discover_deaths();
                    if !self.alive[g] {
                        g = self.survivor()?;
                        self.rec.reschedules += 1;
                    }
                    let key = ((record.spec.id as u64) << 16)
                        | ((pi as u64 & 0xFF) << 8)
                        | (job_attempts as u64 & 0xFF);
                    let draw = self.faults.attempt_fault(g as u32, key);
                    let (busy_s, frac) = self.price_attempt(&draw, share, span, e2e);
                    job_attempts += 1;
                    self.rec.attempts += 1;
                    let start = self.clocks[g];
                    // A death inside the attempt's span interrupts it: the
                    // group dies mid-flight, the partial work is lost, and
                    // the part moves to a survivor without consuming a
                    // retry (the placement step above counts it).
                    let killed = self.death_at[g]
                        .filter(|&d| self.alive[g] && d < start + busy_s)
                        .map(|d| {
                            let t = if busy_s > 0.0 {
                                ((d - start) / busy_s).clamp(0.0, 1.0)
                            } else {
                                0.0
                            };
                            (d, t)
                        });
                    if let Some((d, t)) = killed {
                        self.clocks[g] = d;
                        self.alive[g] = false;
                        self.burn(e2e, t * frac, t * frac * job_bytes);
                        continue;
                    }
                    self.clocks[g] += busy_s;
                    match draw {
                        FaultDraw::None => {}
                        FaultDraw::LinkFlap { factor } => {
                            self.rec.link_flaps += 1;
                            // Flapped legs surcharge the copy engines only.
                            if let Some(e) = e2e {
                                let copies = EndToEnd {
                                    compute_s: 0.0,
                                    ..*e
                                };
                                self.extra.absorb(share * (factor.max(1.0) - 1.0), &copies);
                            }
                        }
                        FaultDraw::Transient { .. } => self.burn(e2e, frac, frac * job_bytes),
                        FaultDraw::Hang => self.rec.watchdog_trips += 1,
                    }
                    if matches!(draw, FaultDraw::None | FaultDraw::LinkFlap { .. }) {
                        done_shares.push(share);
                        continue 'parts;
                    }
                    // Transient or hang: what ran is charged; retry (or
                    // give the job up).
                    retries_used += 1;
                    if retries_used > policy.max_retries {
                        fatal = Some(format!(
                            "chaos: part {pi} exhausted {} retries (last fault on group {g})",
                            policy.max_retries
                        ));
                        break 'parts;
                    }
                    self.rec.retries += 1;
                    // Re-place the retry on a survivor, with the
                    // exponential backoff charged on that group's timeline.
                    self.discover_deaths();
                    g = self.survivor()?;
                    let backoff = policy.backoff_s(retries_used);
                    self.clocks[g] += backoff;
                    self.rec.backoff_s += backoff;
                }
            }
            self.attempts.push(job_attempts.max(1));
            if let Some(msg) = fatal {
                // The successful sibling parts' device work is already on
                // the clocks; the job no longer contributes baseline
                // charges, so their legs and reads become extras.
                for s in done_shares {
                    self.burn(e2e, s, s * job_bytes);
                }
                self.rec.lost_jobs += 1;
                self.lost.push((ji, msg));
            }
        }
        Ok(self)
    }

    /// Mark every group whose clock reached its death instant dead.
    fn discover_deaths(&mut self) {
        for (h, alive) in self.alive.iter_mut().enumerate() {
            if *alive && self.death_at[h].is_some_and(|d| self.clocks[h] >= d) {
                *alive = false;
            }
        }
    }

    /// The group a displaced part or a retry moves to: the one placement
    /// rule of the replay.
    fn survivor(&self) -> Result<usize, CampaignError> {
        least_loaded_alive(&self.clocks, &self.alive).ok_or(CampaignError::AllDevicesDead {
            groups: self.clocks.len() as u32,
        })
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
    /// seconds under its fault draw: the seconds it holds its group and the
    /// fraction of the job's engine legs and field bytes it ran.
    fn price_attempt(
        &self,
        draw: &FaultDraw,
        share: f64,
        span: f64,
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
            // modeled watchdog reclaims it. No bytes move.
            FaultDraw::Hang => (self.watchdog_s, 0.0),
            // The transfer legs re-price; host executors have none to flap.
            FaultDraw::LinkFlap { factor } => {
                let span = e2e.map_or(span, |e| e.repriced_transfers(factor).overlapped_s);
                (part_s(share, span, self.gather_s), share)
            }
        }
    }
}

/// The list scheduler's greedy placement rule over the survivors: least
/// loaded, lowest index on ties. `None` when every group is dead.
fn least_loaded_alive(clocks: &[f64], alive: &[bool]) -> Option<usize> {
    (0..clocks.len()).filter(|&h| alive[h]).min_by(|&a, &b| {
        clocks[a]
            .partial_cmp(&clocks[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}
