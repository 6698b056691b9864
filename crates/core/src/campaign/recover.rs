//! Fault recovery: the chaos simulation that replays a campaign's shard
//! plan against a [`zc_gpusim::FaultPlan`] and recovers from what breaks.
//!
//! The campaign engine executes every job's *functional* work exactly once
//! (host-parallel, fleet-independent) and models fleets afterwards; this
//! module keeps that shape. Recovery is a deterministic discrete-event
//! replay of the shard plan at `(job, part)` granularity over per-group
//! clocks: injected faults never touch metric values — a retried job's
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
use super::report::{gather_s, CampaignReport};
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

/// One attempt's nominal price, fixed by the fault draw before any death
/// interrupt is applied.
struct AttemptPrice {
    /// Seconds the group is occupied.
    busy_s: f64,
    /// Scale on the job's end-to-end engine legs this attempt executed
    /// (share × executed fraction; flapped legs carry their own extras).
    eng_scale: f64,
    /// Fraction of the part's field bytes this attempt read.
    byte_frac: f64,
    /// Extra (h2d, d2h) seconds from flap re-pricing, already share-scaled.
    flap_extra: (f64, f64),
    /// Whether the attempt completes the part.
    succeeds: bool,
}

/// Aggregate job records into a campaign report under a fault plan: replay
/// the shard plan through the fault/recovery simulation, then rebuild the
/// fleet utilization from the simulated clocks. With a null plan this is
/// bit-identical to [`CampaignReport::aggregate`] (same charges, same
/// floating-point accumulation order) — the equivalence the chaos tier
/// asserts.
pub(crate) fn aggregate_with_faults(
    records: Vec<JobRecord>,
    fleet: &FleetSpec,
    cfg: &AssessConfig,
    plan: &ShardPlan,
    policy: &RecoveryPolicy,
    faults: &FaultPlan,
) -> Result<CampaignReport, CampaignError> {
    let base = CampaignReport::aggregate(records, fleet, cfg, plan);
    let horizon = base.fleet.makespan_s;
    let groups = fleet.groups() as usize;
    let gather_s = gather_s(fleet, cfg);
    let watchdog_s = fleet.executor().inner.sim.dev.watchdog_timeout_s;
    let death_at: Vec<Option<f64>> = (0..groups as u32)
        .map(|g| faults.death_frac(g).map(|f| f * horizon))
        .collect();

    let mut clocks = vec![0.0f64; groups];
    let mut alive = vec![true; groups];
    let mut rec = RecoveryReport {
        fault_free_makespan_s: horizon,
        ..Default::default()
    };
    // Engine extras from faulted/partial attempts; the completed jobs'
    // baseline legs are absorbed whole (same order as the fault-free
    // aggregate) so a null plan reproduces its bits exactly.
    let (mut h2d_x, mut compute_x, mut d2h_x) = (0.0f64, 0.0f64, 0.0f64);
    let mut extra_bytes = 0.0f64; // partial / orphaned attempt reads
    let mut jobs = base.jobs;
    let mut lost: Vec<(usize, String)> = Vec::new();

    for (ji, record) in jobs.iter_mut().enumerate() {
        let Some(m) = record.metrics() else {
            record.attempts = 1; // the failed host-side attempt
            continue;
        };
        let span = m
            .e2e
            .as_ref()
            .map(|e| e.overlapped_s)
            .unwrap_or(m.modeled_seconds);
        let e2e = m.e2e;
        let job_bytes = m.assessed_bytes as f64;
        let mut job_attempts = 0u32;
        let mut done_shares: Vec<f64> = Vec::new();
        let mut fatal: Option<String> = None;
        'parts: for (pi, &(g0, share)) in plan.shares_of(record.spec.id).iter().enumerate() {
            let mut g = g0 as usize;
            let mut retries_used = 0u32;
            loop {
                // Discover deaths: a group whose clock reached its death
                // instant is gone for good.
                for h in 0..groups {
                    if alive[h] && death_at[h].is_some_and(|d| clocks[h] >= d) {
                        alive[h] = false;
                    }
                }
                if !alive[g] {
                    g = match least_loaded_alive(&clocks, &alive) {
                        Some(h) => {
                            rec.reschedules += 1;
                            h
                        }
                        None => {
                            return Err(CampaignError::AllDevicesDead {
                                groups: groups as u32,
                            })
                        }
                    };
                }
                let key = ((record.spec.id as u64) << 16)
                    | ((pi as u64 & 0xFF) << 8)
                    | (job_attempts as u64 & 0xFF);
                let draw = faults.attempt_fault(g as u32, key);
                let price = price_attempt(&draw, share, span, e2e.as_ref(), gather_s, watchdog_s);
                job_attempts += 1;
                rec.attempts += 1;
                let start = clocks[g];
                // A death inside the attempt's span interrupts it: the
                // group dies mid-flight, the partial work is lost, and the
                // part moves to a survivor without consuming a retry.
                let killed = death_at[g]
                    .filter(|&d| alive[g] && d < start + price.busy_s)
                    .map(|d| {
                        let t = if price.busy_s > 0.0 {
                            ((d - start) / price.busy_s).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        (d, t)
                    });
                if let Some((d, t)) = killed {
                    // The placement step above will count the reschedule
                    // when it re-places this part off the dead group.
                    clocks[g] = d;
                    alive[g] = false;
                    if let Some(e) = e2e.as_ref() {
                        h2d_x += t * price.eng_scale * e.h2d_s;
                        compute_x += t * price.eng_scale * e.compute_s;
                        d2h_x += t * price.eng_scale * e.d2h_s;
                    }
                    extra_bytes += t * price.byte_frac * job_bytes;
                    continue;
                }
                clocks[g] += price.busy_s;
                if price.succeeds {
                    if let FaultDraw::LinkFlap { .. } = draw {
                        rec.link_flaps += 1;
                        h2d_x += price.flap_extra.0;
                        d2h_x += price.flap_extra.1;
                    }
                    done_shares.push(share);
                    continue 'parts;
                }
                // Transient or hang: charge what ran, then retry (or give
                // the job up).
                match draw {
                    FaultDraw::Transient { .. } => {
                        if let Some(e) = e2e.as_ref() {
                            h2d_x += price.eng_scale * e.h2d_s;
                            compute_x += price.eng_scale * e.compute_s;
                            d2h_x += price.eng_scale * e.d2h_s;
                        }
                        extra_bytes += price.byte_frac * job_bytes;
                    }
                    FaultDraw::Hang => rec.watchdog_trips += 1,
                    _ => unreachable!("only transients and hangs fail without a death"),
                }
                retries_used += 1;
                if retries_used > policy.max_retries {
                    fatal = Some(format!(
                        "chaos: part {pi} exhausted {} retries (last fault on group {g})",
                        policy.max_retries
                    ));
                    break 'parts;
                }
                rec.retries += 1;
                // Re-place the retry where the list scheduler would: the
                // least-loaded surviving group, with the exponential
                // backoff charged on that group's timeline.
                for h in 0..groups {
                    if alive[h] && death_at[h].is_some_and(|d| clocks[h] >= d) {
                        alive[h] = false;
                    }
                }
                g = least_loaded_alive(&clocks, &alive).ok_or(CampaignError::AllDevicesDead {
                    groups: groups as u32,
                })?;
                let backoff = policy.backoff_s(retries_used);
                clocks[g] += backoff;
                rec.backoff_s += backoff;
            }
        }
        record.attempts = job_attempts.max(1);
        if let Some(msg) = fatal {
            // The successful sibling parts' device work is already on the
            // clocks; account their engine legs and field reads as extras
            // since the job no longer contributes baseline charges.
            if let Some(e) = e2e.as_ref() {
                for s in &done_shares {
                    h2d_x += s * e.h2d_s;
                    compute_x += s * e.compute_s;
                    d2h_x += s * e.d2h_s;
                }
            }
            for s in &done_shares {
                extra_bytes += s * job_bytes;
            }
            rec.lost_jobs += 1;
            lost.push((ji, msg));
        }
    }
    for (ji, msg) in lost {
        jobs[ji].outcome = JobOutcome::Failed(msg);
    }

    // Rebuild the aggregate from the simulated clocks. Baseline charges
    // (counters, engine legs, payload, exact assessed bytes) fold over the
    // *surviving* completed jobs in job order — the fold the fault-free
    // aggregate uses too — then the fault extras land on top.
    let mut report = CampaignReport::from_busy_clocks(jobs, fleet, plan, clocks, gather_s);
    let summary = &mut report.fleet;
    summary.engines.h2d_s += h2d_x;
    summary.engines.compute_s += compute_x;
    summary.engines.d2h_s += d2h_x;
    summary.assessed_bytes += extra_bytes as u64;
    let makespan_s = summary.makespan_s;

    let completed = report.completed() as u64;
    let runnable = completed + rec.lost_jobs;
    rec.completion = if runnable > 0 {
        completed as f64 / runnable as f64
    } else {
        1.0
    };
    rec.makespan_inflation = if horizon > 0.0 {
        (makespan_s - horizon) / horizon
    } else {
        0.0
    };
    rec.dead_devices = (0..groups as u32)
        .filter(|&g| death_at[g as usize].is_some_and(|d| d <= makespan_s))
        .collect();
    report.recovery = Some(rec);
    Ok(report)
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

/// Price one attempt under its fault draw. The clean-path charge is the
/// *identical expression* the fault-free aggregate uses
/// (`share * span + gather_s`) so a null plan replays its bits.
fn price_attempt(
    draw: &FaultDraw,
    share: f64,
    span: f64,
    e2e: Option<&EndToEnd>,
    gather_s: f64,
    watchdog_s: f64,
) -> AttemptPrice {
    match *draw {
        FaultDraw::None => AttemptPrice {
            busy_s: share * span + gather_s,
            eng_scale: share,
            byte_frac: share,
            flap_extra: (0.0, 0.0),
            succeeds: true,
        },
        FaultDraw::Transient { abort_frac } => AttemptPrice {
            // Died mid-flight: the group was busy (and streaming field
            // bytes) for the executed fraction; no result, no gather.
            busy_s: abort_frac * (share * span),
            eng_scale: abort_frac * share,
            byte_frac: abort_frac * share,
            flap_extra: (0.0, 0.0),
            succeeds: false,
        },
        FaultDraw::Hang => AttemptPrice {
            // The launch never progresses; the device is held until the
            // modeled watchdog reclaims it. No bytes move.
            busy_s: watchdog_s,
            eng_scale: 0.0,
            byte_frac: 0.0,
            flap_extra: (0.0, 0.0),
            succeeds: false,
        },
        FaultDraw::LinkFlap { factor } => {
            let (busy, extra) = match e2e {
                Some(e) => {
                    let r = e.repriced_transfers(factor);
                    let f = factor.max(1.0) - 1.0;
                    (
                        share * r.overlapped_s + gather_s,
                        (share * f * e.h2d_s, share * f * e.d2h_s),
                    )
                }
                // Host executors have no transfer legs to flap.
                None => (share * span + gather_s, (0.0, 0.0)),
            };
            AttemptPrice {
                busy_s: busy,
                eng_scale: share,
                byte_frac: share,
                flap_extra: extra,
                succeeds: true,
            }
        }
    }
}
