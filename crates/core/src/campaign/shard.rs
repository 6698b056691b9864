//! Fleet description and the static shard plan.
//!
//! Sharding policy: each of the fleet's `gpus` devices is one device group,
//! a shard target; a [`Scheduler`] assigns the campaign jobs to groups
//! *statically* before anything runs. Both policies are pure functions of
//! their inputs — no load feedback, no work stealing — so a campaign
//! schedules identically on every run and at every host worker count:
//!
//! * [`Scheduler::RoundRobin`] — the original cost-blind assignment,
//!   `group = id % groups`. Balance degrades when job costs vary.
//! * [`Scheduler::List`] — cost-model-driven LPT list scheduling: a job
//!   predicted longer than the balanced per-group share is first *split*
//!   along its slab tiling (each group assesses a share of the slabs), then
//!   the split parts and whole jobs are placed longest-predicted-first onto
//!   the least-loaded group. The result is never predicted-worse than
//!   round-robin: the scheduler prices both plans and keeps the better one.
//!
//! Split parts are how a campaign spreads one job over several devices.
//! The paper's §VI model of that spread, a job over n devices as n
//! plane-range parts, is [`crate::plan::estimate_job_cost`].
//!
//! A resident service places each batch onto groups still busy with
//! earlier ones: [`Scheduler::plan_onto`] takes the seconds each group
//! still owes, list scheduling starts from those loads, and both plans are
//! compared by when their last group finishes. A campaign owes nothing,
//! and zero owed seconds reproduce [`Scheduler::plan`] bit for bit.

use crate::exec::CuZc;
use zc_gpusim::{FaultPlan, HostLink, MultiGpuModel};

/// Interconnect family of the simulated fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// NVLink-class links ([`zc_gpusim::HostLink::nvlink`]).
    NvLink,
    /// PCIe-class links ([`zc_gpusim::HostLink::pcie`]).
    Pcie,
}

impl LinkKind {
    /// The interconnect model over `gpus` devices.
    pub fn model(self, gpus: u32) -> MultiGpuModel {
        match self {
            LinkKind::NvLink => MultiGpuModel::nvlink(gpus),
            LinkKind::Pcie => MultiGpuModel::pcie(gpus),
        }
    }

    /// The link between the fleet's devices.
    pub fn host_link(self) -> HostLink {
        match self {
            LinkKind::NvLink => HostLink::nvlink(),
            LinkKind::Pcie => HostLink::pcie(),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::NvLink => "nvlink",
            LinkKind::Pcie => "pcie",
        }
    }
}

/// The simulated GPU fleet a campaign runs on: `gpus` devices, each one
/// device group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Total simulated devices.
    pub gpus: u32,
    /// Interconnect family (drives the per-job result-gather cost).
    pub link: LinkKind,
    /// Seeded device-fault injection (`None` = the fleet never fails —
    /// the original, fault-free model). With a plan, the campaign engine
    /// simulates transient launch faults, hangs, link flaps and permanent
    /// device deaths, and recovers via its retry/reschedule policy.
    pub faults: Option<FaultPlan>,
}

impl FleetSpec {
    /// Fleet over NVLink.
    pub fn nvlink(gpus: u32) -> Self {
        FleetSpec {
            gpus,
            link: LinkKind::NvLink,
            faults: None,
        }
    }

    /// Fleet over PCIe.
    pub fn pcie(gpus: u32) -> Self {
        FleetSpec {
            gpus,
            link: LinkKind::Pcie,
            faults: None,
        }
    }

    /// Inject the given fault plan into this fleet.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Consistency check.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpus == 0 {
            return Err("fleet needs at least one GPU".into());
        }
        Ok(())
    }

    /// Number of independent device groups (shard targets): one per device.
    pub fn groups(&self) -> u32 {
        self.gpus
    }

    /// The per-group executor: one device.
    pub fn executor(&self) -> CuZc {
        CuZc::default()
    }
}

/// Campaign job-placement policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Cost-blind static round-robin by job id (the original policy).
    #[default]
    RoundRobin,
    /// Cost-model-driven LPT list scheduling with oversized-job splitting;
    /// falls back to the round-robin assignment when that one's predicted
    /// makespan is lower, so `List` is never predicted-worse.
    List,
}

impl Scheduler {
    /// Display label (also the CLI spelling).
    pub fn label(self) -> &'static str {
        match self {
            Scheduler::RoundRobin => "round-robin",
            Scheduler::List => "list",
        }
    }

    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Result<Scheduler, String> {
        match s {
            "round-robin" => Ok(Scheduler::RoundRobin),
            "list" => Ok(Scheduler::List),
            other => Err(format!(
                "unknown scheduler '{other}' (expected round-robin|list)"
            )),
        }
    }

    /// Build the shard plan for `costs[i]` = job *i*'s predicted seconds
    /// and `splittable[i]` = the most parts job *i* can split into (its
    /// resolved slab count; 1 = unsplittable) on an idle fleet: the
    /// zero-owed case of [`Scheduler::plan_onto`].
    pub fn plan(self, costs: &[f64], splittable: &[usize], groups: u32) -> ShardPlan {
        self.plan_onto(costs, splittable, groups, &[])
    }

    /// Build the shard plan onto groups that still owe `owed_s[g]` seconds
    /// of earlier work (one entry per group, or `&[]` for an idle fleet). List
    /// scheduling starts each group's load at what it owes and keeps
    /// round-robin when that finishes sooner, comparing when the last group
    /// finishes under each (`max(owed + load)`). Nothing owed reproduces
    /// the idle-fleet plan bit for bit.
    pub fn plan_onto(
        self,
        costs: &[f64],
        splittable: &[usize],
        groups: u32,
        owed_s: &[f64],
    ) -> ShardPlan {
        debug_assert!(
            owed_s.is_empty() || owed_s.len() == groups as usize,
            "owed seconds: one entry per group, or none"
        );
        match self {
            Scheduler::RoundRobin => ShardPlan::round_robin_priced(costs, groups),
            Scheduler::List => {
                let lpt = ShardPlan::lpt(costs, splittable, groups, owed_s);
                let rr = ShardPlan::round_robin_priced(costs, groups);
                if lpt.predicted_finish(owed_s) <= rr.predicted_finish(owed_s) {
                    lpt
                } else {
                    rr
                }
            }
        }
    }
}

/// The static job → device-group assignment. Each job maps to one or more
/// `(group, share)` parts; shares sum to 1 per job (a job split along its
/// slab tiling contributes `share × cost` of load to each group it lands
/// on).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    groups: u32,
    assignments: Vec<Vec<(u32, f64)>>,
    predicted_busy: Vec<f64>,
}

impl ShardPlan {
    /// Round-robin assignment priced under per-job predicted costs: job
    /// `i` runs whole on group `i % groups`, with the predicted per-group
    /// load recorded for makespan comparison.
    fn round_robin_priced(costs: &[f64], groups: u32) -> ShardPlan {
        assert!(groups >= 1, "shard plan needs at least one group");
        let mut predicted_busy = vec![0.0f64; groups as usize];
        let assignments = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let g = i % groups as usize;
                predicted_busy[g] += c.max(0.0);
                vec![(g as u32, 1.0)]
            })
            .collect();
        ShardPlan {
            groups,
            assignments,
            predicted_busy,
        }
    }

    /// Cut the jobs into the pieces the list scheduler places: a job whose
    /// cost exceeds the balanced per-group share — which would bound the
    /// makespan all by itself — splits into up to
    /// `min(splittable[i], 4 × groups)` even slab parts; every other job is
    /// one whole piece. Returns `(job, share, predicted seconds)` per
    /// piece, in job-then-part order.
    fn pieces(costs: &[f64], splittable: &[usize], groups: u32) -> Vec<(usize, f64, f64)> {
        let g = groups as usize;
        let total: f64 = costs.iter().map(|c| c.max(0.0)).sum();
        let ideal = total / g as f64;
        let mut pieces = Vec::new();
        for (i, &c) in costs.iter().enumerate() {
            let c = c.max(0.0);
            // A job may span more groups than exist — parts landing on the
            // same group merge — so the cap is the slab count, loosely
            // bounded at 4·groups to keep part bookkeeping small.
            let max_parts = splittable.get(i).copied().unwrap_or(1).clamp(1, 4 * g);
            let parts = if c > ideal && ideal > 0.0 && max_parts > 1 {
                // Aim for parts no bigger than an eighth of the balanced
                // per-group share: the greedy placement's final imbalance
                // is bounded by one piece, so part size directly caps the
                // utilization loss the splittable hogs can cause.
                ((8.0 * c / ideal).ceil() as usize).min(max_parts)
            } else {
                1
            };
            for p in 0..parts {
                // Exact unit sum: the last part absorbs the rounding.
                let share = if p + 1 == parts {
                    1.0 - (parts as f64 - 1.0) / parts as f64
                } else {
                    1.0 / parts as f64
                };
                pieces.push((i, share, c * share));
            }
        }
        pieces
    }

    /// Longest-predicted-first list scheduling over [`ShardPlan::pieces`]:
    /// split parts and whole jobs together, longest first (ties by job id,
    /// then part), each onto the group that frees up first counting what
    /// it still owes (`owed_s`) — so the small parts fill in around the
    /// mid-size jobs instead of the mid-size jobs stacking on top of the
    /// parts, and a batch fills the groups its predecessors left idle.
    fn lpt(costs: &[f64], splittable: &[usize], groups: u32, owed_s: &[f64]) -> ShardPlan {
        assert!(groups >= 1, "shard plan needs at least one group");
        let mut pieces = ShardPlan::pieces(costs, splittable, groups);
        // Stable: equal pieces keep job-then-part order.
        pieces.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut load = vec![0.0f64; groups as usize];
        let mut assignments: Vec<Vec<(u32, f64)>> = vec![Vec::new(); costs.len()];
        for (i, share, seconds) in pieces {
            // Adding zero owed seconds is exact, so an idle fleet compares
            // the bare loads.
            let free_at = |g: usize| owed_s.get(g).unwrap_or(&0.0) + load[g];
            let least = (0..load.len())
                .min_by(|&a, &b| {
                    free_at(a)
                        .partial_cmp(&free_at(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("at least one group");
            load[least] += seconds;
            // Merge parts landing on the same group.
            match assignments[i]
                .iter_mut()
                .find(|(grp, _)| *grp == least as u32)
            {
                Some((_, s)) => *s += share,
                None => assignments[i].push((least as u32, share)),
            }
        }
        ShardPlan {
            groups,
            assignments,
            predicted_busy: load,
        }
    }

    /// Primary group of job `i`: the group holding its largest share
    /// (first-assigned on ties) — what the report displays per job.
    pub fn group_of(&self, i: usize) -> u32 {
        self.assignments[i]
            .iter()
            .fold(None::<(u32, f64)>, |best, &(g, s)| match best {
                Some((_, bs)) if bs >= s => best,
                _ => Some((g, s)),
            })
            .map(|(g, _)| g)
            .unwrap_or(0)
    }

    /// The `(group, share)` parts of job `i` (shares sum to 1).
    pub fn shares_of(&self, i: usize) -> &[(u32, f64)] {
        &self.assignments[i]
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Predicted busy seconds per group under the costs this plan was
    /// built from.
    pub fn predicted_busy(&self) -> &[f64] {
        &self.predicted_busy
    }

    /// Predicted makespan: the busiest group's predicted load.
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_finish(&[])
    }

    /// Predicted finish of the last group when group `g` first works off
    /// the `owed_s[g]` seconds it still owes: `max(owed + load)`.
    fn predicted_finish(&self, owed_s: &[f64]) -> f64 {
        self.predicted_busy
            .iter()
            .enumerate()
            .map(|(g, &busy)| owed_s.get(g).unwrap_or(&0.0) + busy)
            .fold(0.0, f64::max)
    }

    /// Predicted makespan when every placed part also costs a fixed
    /// `per_part_s` on its group (a campaign's per-part result gather).
    pub fn predicted_makespan_with(&self, per_part_s: f64) -> f64 {
        let mut busy = self.predicted_busy.clone();
        for &(g, _) in self.assignments.iter().flatten() {
            busy[g as usize] += per_part_s;
        }
        busy.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_balanced_and_deterministic() {
        let plan = Scheduler::RoundRobin.plan(&[1.0; 10], &[1; 10], 4);
        assert_eq!(plan, Scheduler::RoundRobin.plan(&[1.0; 10], &[1; 10], 4));
        // Unit costs: each group's predicted load is its job count.
        assert_eq!(plan.predicted_busy(), [3.0, 3.0, 2.0, 2.0]);
        assert_eq!(plan.group_of(0), 0);
        assert_eq!(plan.group_of(5), 1);
    }

    #[test]
    fn empty_plan_is_fine() {
        for scheduler in [Scheduler::RoundRobin, Scheduler::List] {
            let plan = scheduler.plan(&[], &[], 8);
            assert_eq!(plan.predicted_busy(), [0.0; 8]);
            assert_eq!(plan.predicted_makespan(), 0.0);
        }
    }

    #[test]
    fn lpt_beats_round_robin_on_a_skewed_campaign() {
        // One huge job + seven tiny ones on 4 groups: round-robin piles
        // two jobs per group regardless of cost; LPT isolates the hog.
        let costs = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let ones = vec![1usize; costs.len()];
        let rr = Scheduler::RoundRobin.plan(&costs, &ones, 4);
        let list = Scheduler::List.plan(&costs, &ones, 4);
        assert!(list.predicted_makespan() < rr.predicted_makespan());
        assert_eq!(list.predicted_makespan(), 8.0);
    }

    #[test]
    fn oversized_jobs_split_along_their_slabs() {
        // A 12-second job on 4 groups (ideal share 15/4): unsplittable it
        // bounds the makespan at 12; split across its 6 slabs it doesn't.
        let costs = [12.0, 1.0, 1.0, 1.0];
        let whole = Scheduler::List.plan(&costs, &[1, 1, 1, 1], 4);
        assert_eq!(whole.predicted_makespan(), 12.0);
        // A per-part charge lands once on the group each part sits on.
        assert_eq!(whole.predicted_makespan_with(0.5), 12.5);
        let split = Scheduler::List.plan(&costs, &[6, 1, 1, 1], 4);
        assert!(split.predicted_makespan() < 12.0);
        let shares: f64 = split.shares_of(0).iter().map(|(_, s)| s).sum();
        assert!((shares - 1.0).abs() < 1e-12);
        assert!(split.shares_of(0).len() > 1);
    }

    #[test]
    fn list_is_never_predicted_worse_than_round_robin() {
        // The arrival pattern where pure LPT loses to round-robin (RR gets
        // 2+2+2 / 3+3 = 6, LPT gets 3+3 … 3+2+2 = 7): the fallback must
        // keep the round-robin plan.
        let costs = [2.0, 3.0, 2.0, 3.0, 2.0];
        let ones = vec![1usize; costs.len()];
        let rr = Scheduler::RoundRobin.plan(&costs, &ones, 2);
        let list = Scheduler::List.plan(&costs, &ones, 2);
        assert!(list.predicted_makespan() <= rr.predicted_makespan());
    }

    #[test]
    fn list_makespan_is_within_one_piece_of_the_balanced_share() {
        // Graham's bound for greedy list scheduling, over the pieces the
        // scheduler actually places (split parts and whole jobs).
        let mut rng = zc_data::SplitMix64::new(0x6_7A4A_B0D0);
        for case in 0..256 {
            let groups = 1 + (rng.next_u64() % 8) as u32;
            let n = 1 + (rng.next_u64() % 24) as usize;
            let costs: Vec<f64> = (0..n)
                .map(|_| {
                    // Mostly small jobs with the odd hog several shares big.
                    let base = (1 + rng.next_u64() % 1000) as f64 / 100.0;
                    if rng.next_u64().is_multiple_of(5) {
                        base * 20.0
                    } else {
                        base
                    }
                })
                .collect();
            let splittable: Vec<usize> =
                (0..n).map(|_| 1 + (rng.next_u64() % 64) as usize).collect();
            let plan = Scheduler::List.plan(&costs, &splittable, groups);
            let total: f64 = costs.iter().sum();
            let largest = ShardPlan::pieces(&costs, &splittable, groups)
                .iter()
                .map(|p| p.2)
                .fold(0.0, f64::max);
            assert!(
                plan.predicted_makespan() <= total / groups as f64 + largest + 1e-9,
                "case {case}: makespan {} over share {} + piece {largest}",
                plan.predicted_makespan(),
                total / groups as f64
            );
        }
    }

    #[test]
    fn list_plans_onto_owed_groups_place_everything_and_never_lose_to_round_robin() {
        let mut rng = zc_data::SplitMix64::new(0x03ED_C10C);
        for case in 0..256 {
            let groups = 1 + (rng.next_u64() % 8) as u32;
            let n = (rng.next_u64() % 24) as usize;
            let costs: Vec<f64> = (0..n)
                .map(|_| (1 + rng.next_u64() % 1000) as f64 / 100.0)
                .collect();
            let splittable: Vec<usize> =
                (0..n).map(|_| 1 + (rng.next_u64() % 64) as usize).collect();
            // Idle groups beside groups still busy with earlier batches.
            let owed: Vec<f64> = (0..groups)
                .map(|_| match rng.next_u64() % 3 {
                    0 => 0.0,
                    _ => (rng.next_u64() % 4000) as f64 / 100.0,
                })
                .collect();
            let ctx = format!("case {case}: owed {owed:?}");
            let list = Scheduler::List.plan_onto(&costs, &splittable, groups, &owed);
            let rr = Scheduler::RoundRobin.plan_onto(&costs, &splittable, groups, &owed);
            for i in 0..n {
                let parts = list.shares_of(i);
                assert!(!parts.is_empty(), "{ctx}: job {i} unplaced");
                assert!(parts.iter().all(|&(g, _)| g < groups), "{ctx}");
                let shares: f64 = parts.iter().map(|(_, s)| s).sum();
                assert!(
                    (shares - 1.0).abs() < 1e-12,
                    "{ctx}: job {i} shares {shares}"
                );
            }
            assert!(
                list.predicted_finish(&owed) <= rr.predicted_finish(&owed),
                "{ctx}: list {} over round-robin {}",
                list.predicted_finish(&owed),
                rr.predicted_finish(&owed)
            );
            // Greedy list scheduling from initial loads: no group ends more
            // than one piece past the balanced finish, unless it already
            // owed more than that.
            let total: f64 = costs.iter().sum::<f64>() + owed.iter().sum::<f64>();
            let largest = ShardPlan::pieces(&costs, &splittable, groups)
                .iter()
                .map(|p| p.2)
                .fold(0.0, f64::max);
            let most_owed = owed.iter().copied().fold(0.0, f64::max);
            assert!(
                list.predicted_finish(&owed)
                    <= most_owed.max(total / groups as f64 + largest) + 1e-9,
                "{ctx}"
            );
        }
    }

    #[test]
    fn a_group_owing_more_than_the_batch_gets_none_of_it() {
        // Group 0 owes 100 s; eight one-second jobs fit on the idle three.
        let costs = [1.0; 8];
        let ones = [1usize; 8];
        let owed = [100.0, 0.0, 0.0, 0.0];
        let plan = Scheduler::List.plan_onto(&costs, &ones, 4, &owed);
        assert_eq!(plan.predicted_busy()[0], 0.0);
        assert_eq!(plan.predicted_finish(&owed), 100.0);
        // Round-robin would stack two more seconds on the busy group.
        let rr = Scheduler::RoundRobin.plan_onto(&costs, &ones, 4, &owed);
        assert_eq!(rr.predicted_finish(&owed), 102.0);
    }

    #[test]
    fn split_parts_fill_in_around_mid_size_jobs_on_the_ci_mix() {
        // The CI campaign smoke's mixed section: two 8-step time-series
        // hogs (one per codec) beside eight mid-size snapshots, slab-tiled,
        // on 8 groups, priced by the job pricer. Placing the hogs' parts
        // before every whole job (the earlier order) stacks the mid-size
        // jobs on top of them and leaves the fleet ~80% busy.
        use crate::campaign::{CampaignSpec, FieldRef, RecoveryPolicy};
        use crate::config::{AssessConfig, TilingPolicy};
        use zc_compress::{CompressorSpec, ErrorBound};
        use zc_data::{AppDataset, GenOptions};
        let snapshot = |dataset, index| FieldRef::new(dataset, index, GenOptions::scaled(16));
        let spec = CampaignSpec {
            fields: vec![
                FieldRef::timeseries(AppDataset::Hurricane, 9, GenOptions::scaled_xy(8), 8),
                snapshot(AppDataset::ScaleLetkf, 0),
                snapshot(AppDataset::Nyx, 3),
                snapshot(AppDataset::Miranda, 0),
                snapshot(AppDataset::Hurricane, 5),
            ],
            compressors: vec![
                CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
                CompressorSpec::Zfp(12.0),
            ],
            cfg: AssessConfig {
                max_lag: 4,
                tiling: TilingPolicy::Slabs(32),
                ..Default::default()
            },
            fleet: FleetSpec::nvlink(8),
            scheduler: Scheduler::List,
            progressive: None,
            recovery: RecoveryPolicy::default(),
        };
        let (costs, splittable) = spec.job_costs();
        let plan = Scheduler::List.plan(&costs, &splittable, 8);
        let busy: f64 = plan.predicted_busy().iter().sum();
        let utilization = busy / (8.0 * plan.predicted_makespan());
        assert!(
            utilization >= 0.95,
            "predicted utilization {utilization:.3}"
        );
    }

    #[test]
    fn scheduler_labels_round_trip() {
        for s in [Scheduler::RoundRobin, Scheduler::List] {
            assert_eq!(Scheduler::parse(s.label()), Ok(s));
        }
        assert!(Scheduler::parse("greedy").is_err());
    }

    #[test]
    fn fleet_validation() {
        assert!(FleetSpec::nvlink(4).validate().is_ok());
        assert!(FleetSpec::nvlink(0).validate().is_err());
        assert_eq!(FleetSpec::nvlink(8).groups(), 8);
    }
}
