//! Fleet description and the static shard plan.
//!
//! Sharding policy: the fleet's `gpus` devices are partitioned into
//! `gpus / gpus_per_job` fixed device groups; a [`Scheduler`] assigns the
//! campaign jobs to groups *statically* before anything runs. Both
//! policies are pure functions of their inputs — no load feedback, no work
//! stealing — so a campaign schedules identically on every run and at
//! every host worker count:
//!
//! * [`Scheduler::RoundRobin`] — the original cost-blind assignment,
//!   `group = id % groups`. Balance degrades when job costs vary.
//! * [`Scheduler::List`] — cost-model-driven LPT list scheduling: a job
//!   predicted longer than the balanced per-group share is first *split*
//!   along its slab tiling (each group assesses a share of the slabs), then
//!   the split parts and whole jobs are placed longest-predicted-first onto
//!   the least-loaded group. The result is never predicted-worse than
//!   round-robin: the scheduler prices both plans and keeps the better one.

use crate::exec::{CuZc, MultiCuZc};
use zc_gpusim::{FaultPlan, MultiGpuModel};

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

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::NvLink => "nvlink",
            LinkKind::Pcie => "pcie",
        }
    }
}

/// The simulated GPU fleet a campaign runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetSpec {
    /// Total simulated devices.
    pub gpus: u32,
    /// Devices ganged per job (1 = every job is single-GPU; >1 runs each
    /// job as a [`MultiCuZc`] over one device group). Must divide `gpus`.
    pub gpus_per_job: u32,
    /// Interconnect family (drives intra-group halo/all-reduce costs and
    /// the per-job result-gather cost).
    pub link: LinkKind,
    /// Seeded device-fault injection (`None` = the fleet never fails —
    /// the original, fault-free model). With a plan, the campaign engine
    /// simulates transient launch faults, hangs, link flaps and permanent
    /// device deaths, and recovers via its retry/reschedule policy.
    pub faults: Option<FaultPlan>,
}

impl FleetSpec {
    /// Single-GPU-per-job fleet over NVLink.
    pub fn nvlink(gpus: u32) -> Self {
        FleetSpec {
            gpus,
            gpus_per_job: 1,
            link: LinkKind::NvLink,
            faults: None,
        }
    }

    /// Single-GPU-per-job fleet over PCIe.
    pub fn pcie(gpus: u32) -> Self {
        FleetSpec {
            gpus,
            gpus_per_job: 1,
            link: LinkKind::Pcie,
            faults: None,
        }
    }

    /// Gang `per_job` devices per job.
    pub fn ganged(mut self, per_job: u32) -> Self {
        self.gpus_per_job = per_job;
        self
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
        if self.gpus_per_job == 0 {
            return Err("gpus_per_job must be >= 1".into());
        }
        if !self.gpus.is_multiple_of(self.gpus_per_job) {
            return Err(format!(
                "gpus_per_job {} must divide fleet size {}",
                self.gpus_per_job, self.gpus
            ));
        }
        Ok(())
    }

    /// Number of independent device groups (shard targets).
    pub fn groups(&self) -> u32 {
        (self.gpus / self.gpus_per_job).max(1)
    }

    /// The per-group executor: a [`MultiCuZc`] over `gpus_per_job` devices
    /// (degenerates to plain [`CuZc`] modeling at 1).
    pub fn executor(&self) -> MultiCuZc {
        MultiCuZc {
            link: self.link.model(self.gpus_per_job),
            inner: CuZc::default(),
        }
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
    /// resolved slab count; 1 = unsplittable).
    pub fn plan(self, costs: &[f64], splittable: &[usize], groups: u32) -> ShardPlan {
        match self {
            Scheduler::RoundRobin => ShardPlan::round_robin_priced(costs, groups),
            Scheduler::List => {
                let lpt = ShardPlan::lpt(costs, splittable, groups);
                let rr = ShardPlan::round_robin_priced(costs, groups);
                if lpt.predicted_makespan() <= rr.predicted_makespan() {
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
    /// Deterministic round-robin with unit job costs: job `i` runs whole
    /// on group `i % groups`.
    pub fn round_robin(jobs: usize, groups: u32) -> ShardPlan {
        ShardPlan::round_robin_priced(&vec![1.0; jobs], groups)
    }

    /// Round-robin assignment priced under per-job predicted costs — the
    /// same placement as [`ShardPlan::round_robin`], with the predicted
    /// per-group load recorded for makespan comparison.
    pub fn round_robin_priced(costs: &[f64], groups: u32) -> ShardPlan {
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
    /// then part), each onto the least-loaded group — so the small parts
    /// fill in around the mid-size jobs instead of the mid-size jobs
    /// stacking on top of the parts.
    fn lpt(costs: &[f64], splittable: &[usize], groups: u32) -> ShardPlan {
        assert!(groups >= 1, "shard plan needs at least one group");
        let mut pieces = ShardPlan::pieces(costs, splittable, groups);
        // Stable: equal pieces keep job-then-part order.
        pieces.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut load = vec![0.0f64; groups as usize];
        let mut assignments: Vec<Vec<(u32, f64)>> = vec![Vec::new(); costs.len()];
        for (i, share, seconds) in pieces {
            let least = (0..load.len())
                .min_by(|&a, &b| {
                    load[a]
                        .partial_cmp(&load[b])
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
    /// built from (unit costs for [`ShardPlan::round_robin`]).
    pub fn predicted_busy(&self) -> &[f64] {
        &self.predicted_busy
    }

    /// Predicted makespan: the busiest group's predicted load.
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_busy.iter().copied().fold(0.0, f64::max)
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

    /// Jobs assigned to each group (by primary group).
    pub fn per_group_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.groups as usize];
        for i in 0..self.assignments.len() {
            counts[self.group_of(i) as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_balanced_and_deterministic() {
        let plan = ShardPlan::round_robin(10, 4);
        assert_eq!(plan, ShardPlan::round_robin(10, 4));
        assert_eq!(plan.per_group_counts(), vec![3, 3, 2, 2]);
        assert_eq!(plan.group_of(0), 0);
        assert_eq!(plan.group_of(5), 1);
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan = ShardPlan::round_robin(0, 8);
        assert_eq!(plan.per_group_counts(), vec![0; 8]);
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
        assert!(FleetSpec::nvlink(4).ganged(2).validate().is_ok());
        assert!(FleetSpec::nvlink(4).ganged(3).validate().is_err());
        assert!(FleetSpec::nvlink(4).ganged(0).validate().is_err());
        assert_eq!(FleetSpec::nvlink(8).ganged(2).groups(), 4);
    }

    #[test]
    fn ganged_executor_uses_group_size() {
        let ex = FleetSpec::pcie(8).ganged(4).executor();
        assert_eq!(ex.link.gpus, 4);
    }
}
