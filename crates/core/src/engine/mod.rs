//! The assessment engine — the one batch executor behind campaigns,
//! recommendation sweeps and the `zc-serve` service.
//!
//! [`crate::campaign`] describes *what* to assess; this module owns *how*.
//! A caller holds an [`Engine`] session on a fleet and [`Engine::submit`]s
//! [`AssessRequest`]s. Admission (static plan verification against the
//! device envelope) happens at submit, so a refused request never occupies
//! the queue. [`Engine::drain`] then runs the queue as one batch:
//!
//! 1. index the batch's distinct fields by reference — no data yet;
//! 2. key each distinct field by its content digest — only when the cache
//!    is on. A field the **digest memo** remembers is keyed without its
//!    data; the rest are generated and digested host-parallel, and their
//!    data kept for the rest of the batch;
//! 3. look the requests up in the [`ResultCache`], in ticket order;
//! 4. run the misses and partial hits host-parallel through
//!    `zc_par::par_map`, in **waves**: a request whose cache key already
//!    appeared earlier in the batch waits for the next wave, so an in-batch
//!    duplicate still resolves as a hit or partial hit against its
//!    predecessor's result. Before a wave runs, the fields it needs that
//!    are not yet in memory are generated host-parallel. Each distinct
//!    field is generated at most once per batch, and never for a full hit
//!    whose digest the memo remembers: a hot batch synthesizes nothing;
//! 5. absorb each wave's results into the cache, in ticket order — a
//!    partial hit merges over the sections it looked up, so an eviction
//!    earlier in the same wave cannot weaken it;
//! 6. price every job that occupied the device with one cost helper (the
//!    same one [`crate::campaign::CampaignSpec::job_costs`] uses);
//! 7. place the priced jobs on the fleet and aggregate.
//!
//! A campaign is one such batch on a cache-off session:
//! [`crate::campaign::CampaignSpec::run_on_fleets`] admits each field once,
//! runs the admitted jobs through steps 1–5 as one batch (with the
//! progressive prepass ahead of each plan when the spec carries a policy),
//! then prices and places the records under each fleet of its sweep —
//! through the fault replay when a fleet carries a live fault plan. A job
//! refused at admission skips execution but keeps its failed, priced
//! record.
//!
//! Jobs are priced by [`estimate_job_cost`]: each pass's declared launches
//! through the simulator's own cost function and the stream timeline, so
//! a prediction is charged exactly as its run will be and needs no
//! correction.
//!
//! The session adds what a one-shot run cannot have:
//!
//! * **Memory** ([`ResultCache`]): results are content-addressed by
//!   (field digest, codec label, value-affecting config). A repeated
//!   request is answered from cache without touching the executor; a
//!   request whose metrics partially overlap a cached result runs only a
//!   *residual plan* of the missing passes, seeded with the cached
//!   pattern-1 scalars — bit-identical to a cold run, by construction.
//!   Beside it, the digest memo maps each recently generated [`FieldRef`]
//!   to its digest, so a repeated request is keyed without synthesizing
//!   its field. Mapping provenance to content is sound only because
//!   [`FieldRef::generate`] is a pure, seeded function of the reference:
//!   the same reference always yields the same bits, at any worker count.
//!   The key itself stays content, so two references with identical bytes
//!   still share an entry. The memo holds at most as many entries as the
//!   cache's budget, evicts exact-LRU on a logical clock, and is unused
//!   when the cache is off.
//!
//! The engine is deterministic end to end: ticket order is submission
//! order, every host-parallel step is index-ordered, the cache is only
//! touched between waves and in ticket order, and its LRU clock is
//! logical. Results are independent of `ZC_PAR_THREADS`.

mod cache;
mod calibrate;

use cache::merge_sections;
pub use cache::{field_digest, CacheKey, CacheStats, CfgKey, Lookup, ResultCache};
pub use calibrate::CostCalibration;

use crate::campaign::{
    job, CampaignReport, FieldRef, FleetSpec, FleetUtilization, JobOutcome, JobRecord, JobSpec,
    Scheduler, ShardPlan,
};
use crate::config::AssessConfig;
use crate::exec::{Assessment, Confidence, Executor, MultiCuZc, PatternTimes};
use crate::plan::{estimate_job_cost, verify, AssessPlan, BackendCaps, PassKind};
use crate::recommend::ProgressivePolicy;
use crate::report::AnalysisReport;
use std::collections::{BTreeSet, HashMap};
use zc_compress::CompressorSpec;
use zc_tensor::{Shape, Tensor};

/// Default result-cache capacity (entries).
const DEFAULT_CACHE_ENTRIES: usize = 256;

/// One assessment request: a field, a codec configuration, and the
/// assessment config (whose [`crate::metrics::MetricSelection`] names the
/// metrics wanted).
#[derive(Clone, Debug)]
pub struct AssessRequest {
    /// The field to assess.
    pub field: FieldRef,
    /// The compressor configuration under assessment.
    pub compressor: CompressorSpec,
    /// Assessment configuration (metrics, bins, lags, SSIM window…).
    pub cfg: AssessConfig,
}

/// Handle for a submitted request; results carry it back in batch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobTicket(u64);

impl JobTicket {
    /// The ticket's submission sequence number.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Errors the engine can raise at session or submission time. Per-job
/// execution failures are *not* errors — they come back as
/// [`JobOutcome::Failed`] in the batch, exactly as in campaigns.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The fleet description is inconsistent.
    BadFleet(String),
    /// The request's assessment configuration failed validation.
    BadConfig(String),
    /// Static plan verification found an error-severity diagnostic: the
    /// request would not fit the device envelope and is refused up front.
    Admission(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadFleet(m) => write!(f, "bad fleet spec: {m}"),
            EngineError::BadConfig(m) => write!(f, "bad assess config: {m}"),
            EngineError::Admission(m) => write!(f, "admission: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// How the cache answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Nothing cached; the full plan ran.
    Miss,
    /// Cached scalars seeded a residual plan of only the missing passes.
    Partial,
    /// Answered entirely from cache; no assessment work ran.
    Hit,
}

impl CacheOutcome {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Partial => "partial",
            CacheOutcome::Hit => "hit",
        }
    }
}

/// The engine's answer to one request.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The ticket this result answers.
    pub ticket: JobTicket,
    /// How the cache participated.
    pub cache: CacheOutcome,
    /// Metrics or the failure message, as in campaign job records.
    pub outcome: JobOutcome,
    /// The full analysis report (merged with any cached sections and the
    /// codec stats) for completed jobs.
    pub report: Option<AnalysisReport>,
}

/// What one [`Engine::drain`] returns: per-ticket results in submission
/// order plus fleet-level accounting over the work that actually ran.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One result per drained ticket, in ticket order.
    pub results: Vec<JobResult>,
    /// Modeled fleet utilization of the batch's *executed* jobs (full
    /// cache hits occupy no device time and are excluded).
    pub fleet: FleetUtilization,
    /// Cumulative cache counters after the batch.
    pub cache: CacheStats,
}

/// Predicted seconds and split limit (resolved slab count)
/// of running `plan` on a field of `shape` on one device group of `fleet`
/// — the one pricing rule behind shard plans, [`Engine::estimate_seconds`]
/// and [`crate::campaign::CampaignSpec::job_costs`].
pub(crate) fn job_cost(
    plan: &AssessPlan,
    shape: Shape,
    cfg: &AssessConfig,
    fleet: &FleetSpec,
) -> (f64, usize) {
    let link = fleet.link.model(fleet.gpus_per_job);
    let est = estimate_job_cost(plan, shape, cfg, fleet.gpus_per_job, &link);
    (est.seconds, est.slabs)
}

/// How one request of a batch resolved.
pub(crate) struct Resolved {
    /// Index of the request's field among the batch's distinct fields.
    field_index: usize,
    cache: CacheOutcome,
    pub(crate) outcome: JobOutcome,
    pub(crate) report: Option<AnalysisReport>,
    /// The plan the job occupied the device with (`None` for a full hit,
    /// which is not a fleet record).
    plan: Option<AssessPlan>,
}

/// Jobs that occupied the device, priced for placement: one record per
/// job, in ticket order, with its predicted cost and split limit.
#[derive(Default)]
pub(crate) struct Priced {
    records: Vec<JobRecord>,
    costs: Vec<f64>,
    splittable: Vec<usize>,
}

impl Priced {
    /// Append a job with its [`job_cost`]; placement assigns its group.
    pub(crate) fn push(&mut self, spec: JobSpec, outcome: JobOutcome, price: (f64, usize)) {
        self.records.push(JobRecord {
            spec,
            group: 0,
            outcome,
            attempts: 1,
        });
        self.costs.push(price.0);
        self.splittable.push(price.1);
    }
}

/// Provenance → content: the digest each recently generated field hashed
/// to (see the module docs for why this is sound). Bounded by the result
/// cache's entry budget, with exact LRU eviction on a logical clock.
#[derive(Clone, Debug)]
struct DigestMemo {
    /// Digest and last-use stamp per field reference.
    map: HashMap<FieldRef, (u64, u64)>,
    budget: usize,
    clock: u64,
    /// Lookups answered from the memo.
    reused: u64,
}

impl DigestMemo {
    fn new(budget: usize) -> Self {
        DigestMemo {
            map: HashMap::new(),
            budget,
            clock: 0,
            reused: 0,
        }
    }

    /// The remembered digest of `field`, touching its LRU stamp.
    fn get(&mut self, field: &FieldRef) -> Option<u64> {
        self.clock += 1;
        let (digest, last_used) = self.map.get_mut(field)?;
        *last_used = self.clock;
        self.reused += 1;
        Some(*digest)
    }

    /// Remember `field`'s digest, evicting the least recently used entry
    /// beyond the budget.
    fn remember(&mut self, field: FieldRef, digest: u64) {
        self.clock += 1;
        self.map.insert(field, (digest, self.clock));
        while self.map.len() > self.budget {
            // Stamps are unique, so the victim is independent of the
            // map's iteration order.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(f, _)| f.clone())
                .expect("non-empty map over budget");
            self.map.remove(&victim);
        }
    }
}

/// A resident assessment session: a fleet, its scheduler, and a
/// content-addressed result cache, fed by [`Engine::submit`] and driven
/// by [`Engine::drain`].
#[derive(Clone, Debug)]
pub struct Engine {
    fleet: FleetSpec,
    scheduler: Scheduler,
    executor: MultiCuZc,
    caps: BackendCaps,
    cache: ResultCache,
    memo: DigestMemo,
    fields_generated: u64,
    pending: Vec<(JobTicket, AssessRequest)>,
    next_ticket: u64,
}

impl Engine {
    /// Open a session on a fleet: validate it and build its executor.
    pub fn new(fleet: FleetSpec) -> Result<Engine, EngineError> {
        fleet.validate().map_err(EngineError::BadFleet)?;
        Ok(Engine::open(
            fleet,
            Scheduler::default(),
            DEFAULT_CACHE_ENTRIES,
        ))
    }

    /// A session on an already-validated fleet.
    pub(crate) fn open(fleet: FleetSpec, scheduler: Scheduler, cache_entries: usize) -> Engine {
        Engine {
            executor: fleet.executor(),
            scheduler,
            caps: BackendCaps::v100(),
            cache: ResultCache::new(cache_entries),
            memo: DigestMemo::new(cache_entries),
            fields_generated: 0,
            pending: Vec::new(),
            next_ticket: 0,
            fleet,
        }
    }

    /// Replace the job-placement policy (default: the fleet scheduler's
    /// default).
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replace the result-cache capacity (0 disables caching). The digest
    /// memo shares the budget.
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache = ResultCache::new(entries);
        self.memo = DigestMemo::new(entries);
        self
    }

    /// Cumulative cache counters, with the session's field generation.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            fields_generated: self.fields_generated,
            digests_reused: self.memo.reused,
            ..self.cache.stats()
        }
    }

    /// Field digests the session remembers (never more than the cache's
    /// entry budget; none when the cache is off).
    pub fn remembered_digests(&self) -> usize {
        self.memo.map.len()
    }

    /// Requests submitted but not yet drained.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Predicted seconds for a request — what `zc-serve` prices admission
    /// and backpressure with.
    pub fn estimate_seconds(&self, req: &AssessRequest) -> f64 {
        let plan = AssessPlan::lower(&req.cfg);
        job_cost(&plan, req.field.shape(), &req.cfg, &self.fleet).0
    }

    /// Verify a lowered plan against the device envelope: the first
    /// error-severity verifier diagnostic (envelope overflow, malformed
    /// DAG…) refuses it.
    pub(crate) fn admit_plan(
        &self,
        plan: &AssessPlan,
        shape: Shape,
        cfg: &AssessConfig,
    ) -> Result<(), EngineError> {
        match verify(plan, shape, cfg, &self.caps)
            .iter()
            .find(|d| d.severity == zc_lint::Severity::Error)
        {
            Some(d) => Err(EngineError::Admission(format!(
                "{}: {}",
                d.lint_id, d.message
            ))),
            None => Ok(()),
        }
    }

    /// Submit a request. Validation and admission happen *here*, not at
    /// drain time: a request whose lowered plan carries an error-severity
    /// verifier diagnostic (device-envelope overflow, malformed DAG…) is
    /// refused before it can occupy the queue.
    pub fn submit(&mut self, req: AssessRequest) -> Result<JobTicket, EngineError> {
        req.cfg
            .validate()
            .map_err(|e| EngineError::BadConfig(e.to_string()))?;
        self.admit_plan(&AssessPlan::lower(&req.cfg), req.field.shape(), &req.cfg)?;
        let ticket = JobTicket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, req));
        Ok(ticket)
    }

    /// Execute every pending request, place the executed jobs on the
    /// session's fleet, and return the batch.
    pub fn drain(&mut self) -> BatchReport {
        let (tickets, reqs): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending).into_iter().unzip();
        let mut results = Vec::with_capacity(reqs.len());
        let mut priced = Priced::default();
        let mut cfg = None;
        let resolved = self.execute(&reqs, None);
        for ((ticket, req), r) in tickets.into_iter().zip(reqs).zip(resolved) {
            if let Some(plan) = &r.plan {
                let spec = JobSpec {
                    id: priced.records.len(),
                    field_index: r.field_index,
                    field: req.field.clone(),
                    compressor: req.compressor,
                };
                let price = job_cost(plan, req.field.shape(), &req.cfg, &self.fleet);
                priced.push(spec, r.outcome.clone(), price);
                cfg.get_or_insert(req.cfg);
            }
            results.push(JobResult {
                ticket,
                cache: r.cache,
                outcome: r.outcome,
                report: r.report,
            });
        }
        let (records, shard) = self.place(&priced, &self.fleet);
        let agg = CampaignReport::aggregate(records, &self.fleet, &cfg.unwrap_or_default(), &shard);
        BatchReport {
            results,
            fleet: agg.fleet,
            cache: self.cache_stats(),
        }
    }

    /// Steps 1–5 of a drain (see the module docs): execute a batch of
    /// admitted requests and return them resolved, in order. With a
    /// `progressive` policy, each executed plan is preceded by the
    /// strided-subsample prepass and skipped when the prepass already
    /// decides the job; such estimates are never cached.
    pub(crate) fn execute(
        &mut self,
        reqs: &[AssessRequest],
        progressive: Option<&ProgressivePolicy>,
    ) -> Vec<Resolved> {
        // 1. Index the distinct fields; their data is generated on demand.
        let mut index_of: HashMap<&FieldRef, usize> = HashMap::new();
        let mut unique: Vec<&FieldRef> = Vec::new();
        let field_of: Vec<usize> = reqs
            .iter()
            .map(|req| {
                *index_of.entry(&req.field).or_insert_with(|| {
                    unique.push(&req.field);
                    unique.len() - 1
                })
            })
            .collect();
        let mut fields: Vec<Option<Tensor<f32>>> = unique.iter().map(|_| None).collect();

        // 2. Cache keys: content digests, computed only when the cache is
        // on, and only for fields the memo does not remember.
        let keys: Vec<Option<CacheKey>> = if self.cache.is_enabled() {
            let mut digests: Vec<Option<u64>> = unique.iter().map(|f| self.memo.get(f)).collect();
            let unknown: Vec<usize> = (0..unique.len())
                .filter(|&u| digests[u].is_none())
                .collect();
            let fresh = zc_par::par_map(unknown.len(), |k| {
                let data = unique[unknown[k]].generate().data;
                let digest = field_digest(&data);
                (data, digest)
            });
            self.fields_generated += unknown.len() as u64;
            for (u, (data, digest)) in unknown.into_iter().zip(fresh) {
                self.memo.remember(unique[u].clone(), digest);
                digests[u] = Some(digest);
                fields[u] = Some(data);
            }
            reqs.iter()
                .zip(&field_of)
                .map(|(req, &fi)| {
                    Some(CacheKey {
                        digest: digests[fi].expect("every distinct field is keyed"),
                        compressor: req.compressor.label(),
                        cfg: CfgKey::of(&req.cfg),
                    })
                })
                .collect()
        } else {
            vec![None; reqs.len()]
        };

        let mut resolved: Vec<Option<Resolved>> = (0..reqs.len()).map(|_| None).collect();
        let mut waiting: Vec<usize> = (0..reqs.len()).collect();
        let executor = &self.executor;
        while !waiting.is_empty() {
            // 3. Look up in ticket order; a key already seen waits a wave.
            let mut seen = BTreeSet::new();
            let mut next = Vec::new();
            let mut wave: Vec<(usize, CacheOutcome, AssessPlan, Option<Box<AnalysisReport>>)> =
                Vec::new();
            for i in waiting {
                if let Some(key) = &keys[i] {
                    if !seen.insert(key) {
                        next.push(i);
                        continue;
                    }
                }
                let cfg = &reqs[i].cfg;
                let plan = AssessPlan::lower(cfg);
                let needed: Vec<PassKind> = plan.passes().iter().map(|p| p.kind).collect();
                let lookup = match &keys[i] {
                    Some(key) => self.cache.lookup(key, &needed),
                    None => Lookup::Miss,
                };
                match lookup {
                    Lookup::Full(found) => {
                        let (report, stats) = *found;
                        let report = report.with_compression(stats);
                        let m = job::metrics_from_report(
                            &report,
                            0.0,
                            PatternTimes::default(),
                            Vec::new(),
                            None,
                            Confidence::Full,
                            0,
                        );
                        resolved[i] = Some(Resolved {
                            field_index: field_of[i],
                            cache: CacheOutcome::Hit,
                            outcome: JobOutcome::Done(Box::new(m)),
                            report: Some(report),
                            plan: None, // no device time: not a fleet record
                        });
                    }
                    Lookup::Partial { cached, covered } => wave.push((
                        i,
                        CacheOutcome::Partial,
                        AssessPlan::residual(cfg, &covered),
                        Some(cached),
                    )),
                    Lookup::Miss => wave.push((i, CacheOutcome::Miss, plan, None)),
                }
            }

            // 4. Generate the fields the wave needs that are not yet in
            // memory, then run its misses and partial hits host-parallel.
            let absent: Vec<usize> = wave
                .iter()
                .map(|(i, ..)| field_of[*i])
                .filter(|&u| fields[u].is_none())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let generated = zc_par::par_map(absent.len(), |a| unique[absent[a]].generate().data);
            self.fields_generated += absent.len() as u64;
            for (u, data) in absent.into_iter().zip(generated) {
                fields[u] = Some(data);
            }
            let runs = zc_par::par_map(wave.len(), |w| {
                let (i, _, plan, cached) = &wave[w];
                let req = &reqs[*i];
                let orig = fields[field_of[*i]]
                    .as_ref()
                    .expect("a wave's fields are generated before it runs");
                let (dec, stats) = req
                    .compressor
                    .build()
                    .roundtrip(orig)
                    .map_err(|e| format!("codec: {e}"))?;
                let mut prepass = None;
                if let Some(policy) = progressive {
                    let run = executor
                        .prepass(orig, &dec, policy.stride)
                        .map_err(|e| format!("prepass: {e}"))?;
                    if policy.decide(&run.estimate).is_decided() {
                        let a = Assessment::from_prepass(orig.shape(), &run, &req.cfg);
                        return Ok((a, stats, run.estimate.sampled_bytes()));
                    }
                    prepass = Some(run);
                }
                let mut a = match cached {
                    Some(c) => executor.run_plan_seeded(plan, orig, &dec, &req.cfg, c.p1),
                    None => executor.run_plan(plan, orig, &dec, &req.cfg),
                }
                .map_err(|e| format!("assess: {e}"))?;
                let mut assessed = orig.shape().len() as u64 * 8;
                if let Some(run) = prepass {
                    // The frontier case pays for both: the prepass charge
                    // rides on top of the full assessment it failed to avoid.
                    a.modeled_seconds += run.modeled_seconds;
                    a.pattern_times.p1 += run.modeled_seconds;
                    assessed += run.estimate.sampled_bytes();
                }
                Ok((a, stats, assessed))
            });

            // 5. Absorb into the cache in ticket order.
            for ((i, cache, plan, cached), run) in wave.into_iter().zip(runs) {
                let (outcome, report) = match run {
                    Ok((mut a, stats, assessed)) => {
                        if let Some(cached) = cached {
                            // Merge over the sections looked up, not over
                            // whatever the entry holds now: an earlier
                            // absorb of this wave may have evicted it.
                            let mut merged = *cached;
                            merge_sections(&mut merged, &a.report);
                            a.report = merged;
                        }
                        let report = match &keys[i] {
                            Some(key) if a.confidence == Confidence::Full => {
                                self.cache.absorb(key.clone(), &a.report, stats)
                            }
                            _ => a.report,
                        }
                        .with_compression(stats);
                        let m = job::metrics_from_report(
                            &report,
                            a.modeled_seconds,
                            a.pattern_times,
                            a.runs,
                            a.e2e,
                            a.confidence,
                            assessed,
                        );
                        (JobOutcome::Done(Box::new(m)), Some(report))
                    }
                    Err(msg) => (JobOutcome::Failed(msg), None),
                };
                resolved[i] = Some(Resolved {
                    field_index: field_of[i],
                    cache,
                    outcome,
                    report,
                    plan: Some(plan),
                });
            }
            waiting = next;
        }

        resolved
            .into_iter()
            .map(|r| r.expect("every request resolves in some wave"))
            .collect()
    }

    /// Step 7's placement: shard a drained batch's priced jobs over `fleet`
    /// with the session's scheduler.
    pub(crate) fn place(&self, priced: &Priced, fleet: &FleetSpec) -> (Vec<JobRecord>, ShardPlan) {
        let shard = self
            .scheduler
            .plan(&priced.costs, &priced.splittable, fleet.groups());
        let records = priced
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| JobRecord {
                group: shard.group_of(i),
                ..r.clone()
            })
            .collect();
        (records, shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metric, MetricSelection};
    use zc_compress::ErrorBound;
    use zc_data::{AppDataset, GenOptions};

    fn request(metrics: MetricSelection) -> AssessRequest {
        AssessRequest {
            field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32)),
            compressor: CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            cfg: AssessConfig {
                max_lag: 3,
                bins: 32,
                metrics,
                ..Default::default()
            },
        }
    }

    #[test]
    fn repeat_request_is_a_full_hit_with_identical_metrics() {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let t0 = engine.submit(request(MetricSelection::all())).unwrap();
        let batch0 = engine.drain();
        let t1 = engine.submit(request(MetricSelection::all())).unwrap();
        let batch1 = engine.drain();
        assert_ne!(t0, t1);
        assert_eq!(batch0.results[0].cache, CacheOutcome::Miss);
        assert_eq!(batch1.results[0].cache, CacheOutcome::Hit);
        let (m0, m1) = match (&batch0.results[0].outcome, &batch1.results[0].outcome) {
            (JobOutcome::Done(a), JobOutcome::Done(b)) => (a, b),
            _ => panic!("both jobs must complete"),
        };
        assert_eq!(m0.psnr.to_bits(), m1.psnr.to_bits());
        assert_eq!(m0.ssim.to_bits(), m1.ssim.to_bits());
        // The hit consumed no device time and read no field bytes.
        assert_eq!(m1.modeled_seconds, 0.0);
        assert_eq!(m1.assessed_bytes, 0);
        assert!(m0.assessed_bytes > 0);
        assert_eq!(batch1.fleet.makespan_s, 0.0);
    }

    #[test]
    fn duplicate_requests_in_one_batch_share_work() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain();
        assert_eq!(batch.results[0].cache, CacheOutcome::Miss);
        assert_eq!(batch.results[1].cache, CacheOutcome::Hit);
    }

    #[test]
    fn admission_refuses_invalid_config_at_submit() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        let mut req = request(MetricSelection::all());
        req.cfg.max_lag = 0;
        assert!(matches!(engine.submit(req), Err(EngineError::BadConfig(_))));
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn psnr_then_full_profile_is_a_partial_hit() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        engine
            .submit(request(MetricSelection::none().with(Metric::Psnr)))
            .unwrap();
        engine.drain();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain();
        assert_eq!(batch.results[0].cache, CacheOutcome::Partial);
        let report = batch.results[0].report.as_ref().unwrap();
        assert!(report.stencil.is_some() && report.ssim.is_some());
        assert_eq!(batch.cache.partial_hits, 1);
    }

    #[test]
    fn estimate_is_positive_and_needs_no_correction() {
        let engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let req = request(MetricSelection::all());
        assert!(engine.estimate_seconds(&req) > 0.0);
        let probe = CostCalibration::probe(&FleetSpec::nvlink(2), &req.cfg);
        assert!((probe.scale - 1.0).abs() <= 0.01, "scale {}", probe.scale);
    }

    #[test]
    fn service_estimates_and_campaign_costs_share_one_price() {
        let req = request(MetricSelection::all());
        let engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let spec = crate::campaign::CampaignSpec {
            fields: vec![req.field.clone()],
            compressors: vec![req.compressor],
            cfg: req.cfg.clone(),
            fleet: FleetSpec::nvlink(2),
            scheduler: Scheduler::List,
            progressive: None,
            recovery: Default::default(),
        };
        let (costs, _) = spec.job_costs();
        assert_eq!(engine.estimate_seconds(&req).to_bits(), costs[0].to_bits());
    }

    #[test]
    fn a_cache_off_batch_runs_every_request_as_a_miss() {
        let mut engine = Engine::new(FleetSpec::nvlink(1))
            .unwrap()
            .with_cache_entries(0);
        engine.submit(request(MetricSelection::all())).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain();
        // Without a cache both duplicates run, as misses in one wave.
        assert!(batch.results.iter().all(|r| r.cache == CacheOutcome::Miss));
        assert_eq!(batch.cache.lookups(), 0);
        assert_eq!(batch.cache.insertions, 0);
    }

    #[test]
    fn a_cache_off_execute_generates_each_field_once_and_skips_the_memo() {
        let mut engine = Engine::new(FleetSpec::nvlink(1))
            .unwrap()
            .with_cache_entries(0);
        let other = |seed| AssessRequest {
            field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32).with_seed(seed)),
            ..request(MetricSelection::all())
        };
        // Three distinct fields over five requests, the first repeated.
        let reqs = [
            request(MetricSelection::all()),
            other(1),
            request(MetricSelection::none().with(Metric::Psnr)),
            other(2),
            request(MetricSelection::all()),
        ];
        let resolved = engine.execute(&reqs, None);
        assert!(resolved.iter().all(|r| r.cache == CacheOutcome::Miss));
        let stats = engine.cache_stats();
        assert_eq!(stats.fields_generated, 3);
        assert_eq!(stats.digests_reused, 0);
        assert_eq!(engine.remembered_digests(), 0);
        // A second batch regenerates: without a cache nothing is remembered.
        engine.execute(&reqs[..2], None);
        assert_eq!(engine.cache_stats().fields_generated, 5);
        assert_eq!(engine.remembered_digests(), 0);
    }

    #[test]
    fn the_digest_memo_evicts_its_least_recently_used_field() {
        let field =
            |seed| FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32).with_seed(seed));
        let mut memo = DigestMemo::new(2);
        memo.remember(field(0), 10);
        memo.remember(field(1), 11);
        // Touch field 0 so field 1 becomes the victim.
        assert_eq!(memo.get(&field(0)), Some(10));
        memo.remember(field(2), 12);
        assert_eq!(memo.map.len(), 2);
        assert_eq!(memo.get(&field(1)), None);
        assert_eq!(memo.get(&field(0)), Some(10));
        assert_eq!(memo.get(&field(2)), Some(12));
        assert_eq!(memo.reused, 3);
    }
}
