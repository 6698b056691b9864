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
//!    same one [`crate::campaign::CampaignSpec::job_costs`] uses): a miss
//!    keeps the price its plan got at submit, a partial hit prices its
//!    residual plan;
//! 7. place the priced jobs whole on the session's device groups with the
//!    list scheduler, each group starting from when its stream timeline
//!    goes idle, then replay every job's own run legs onto its group's
//!    timeline in ticket order (DESIGN.md §6.12), and give every result
//!    the modeled time it is ready: no earlier than its job's result
//!    gather ends, nor than the cached result it read (see
//!    [`JobResult::ready_s`]).
//!
//! A campaign runs steps 1–5 on a cache-off session:
//! [`crate::campaign::CampaignSpec::run_on_fleets`] admits each field once,
//! runs the admitted jobs through them as one batch (with the progressive
//! prepass ahead of each plan when the spec carries a policy), then prices
//! the jobs and books their records onto each fleet of its sweep through
//! the campaign replay. A job refused at admission skips execution but
//! keeps its failed, priced record.
//!
//! Jobs are priced by [`estimate_job_cost`]: each pass's declared launches
//! through the simulator's own cost function and the stream timeline, so
//! a prediction is charged exactly as its run will be and needs no
//! correction.
//!
//! The session adds what a one-shot run cannot have:
//!
//! * **Group timelines**: each device group keeps its H2D, compute and D2H
//!   engine cursors across drains, so one job's upload overlaps the
//!   kernels of the job ahead of it and its read-backs overlap the kernels
//!   of the job behind it. They are allocated at the first drain.
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
mod groups;

use cache::merge_sections;
pub use cache::{field_digest, CacheKey, CacheStats, CfgKey, Lookup, ResultCache};
pub use calibrate::CostCalibration;

use crate::campaign::{gather_s, job, FieldRef, FleetSpec, JobOutcome, Scheduler};
use crate::config::AssessConfig;
use crate::exec::{Assessment, Confidence, CuZc, Executor, PatternTimes};
use crate::plan::{estimate_job_cost, verify, AssessPlan, BackendCaps, PassKind, RunLegs};
use crate::recommend::ProgressivePolicy;
use crate::report::AnalysisReport;
use groups::GroupTimeline;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use zc_compress::CompressorSpec;
use zc_gpusim::MultiGpuModel;
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
    /// Modeled time this result is ready, on the clock of the drain's
    /// `now_s`: when its job's result gather ends on its group's stream
    /// timeline — and never before the cached result it read is ready. A
    /// full hit occupies no device: it is ready at the drain, or when the
    /// run that filled its entry is, whichever is later. A job that failed
    /// before reaching the device is ready at the drain.
    pub ready_s: f64,
}

/// What one [`Engine::drain`] returns: per-ticket results in submission
/// order plus how far the batch's executed work advanced each group.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One result per drained ticket, in ticket order.
    pub results: Vec<JobResult>,
    /// How far each group's stream timeline advanced in this batch: from
    /// the drain, or from where the group's earlier work ended if that is
    /// later, to where this batch's work on it ends. Full cache hits
    /// occupy no device time.
    pub busy_s: Vec<f64>,
    /// Cumulative cache counters after the batch.
    pub cache: CacheStats,
}

/// Predicted seconds and split limit (resolved slab count) of running
/// `plan` on a field of `shape` on one device — the one pricing rule behind
/// shard plans, [`Engine::submit`] (and so [`Engine::backlog_s`]) and
/// [`crate::campaign::CampaignSpec::job_costs`]. A device group is one
/// device, so no interconnect enters the price.
pub(crate) fn job_cost(plan: &AssessPlan, shape: Shape, cfg: &AssessConfig) -> (f64, usize) {
    let est = estimate_job_cost(plan, shape, cfg, 1, &MultiGpuModel::nvlink(1));
    (est.seconds, est.slabs)
}

/// How one request of a batch resolved.
pub(crate) struct Resolved {
    cache: CacheOutcome,
    pub(crate) outcome: JobOutcome,
    pub(crate) report: Option<AnalysisReport>,
    /// The residual plan a partial hit ran (`None` for a miss, which ran
    /// the plan it was submitted with, and for a full hit).
    residual: Option<AssessPlan>,
    /// The run's copy and compute legs (`None` for a full hit or a failed
    /// run).
    legs: Option<RunLegs>,
    /// The cached result a hit or partial hit read, which must be ready
    /// before this one is (`None` for a miss).
    source: Option<Source>,
    /// The key this run's report was absorbed under (`None` if it was
    /// not), so the drain can settle the entry's ready time.
    absorbed: Option<CacheKey>,
}

/// One request of a wave: its index, cache outcome, the residual plan a
/// partial hit runs instead of its own, the cached report it merges over,
/// and the result it read.
type WaveEntry = (
    usize,
    CacheOutcome,
    Option<AssessPlan>,
    Option<Box<AnalysisReport>>,
    Option<Source>,
);

/// Where a hit or partial hit's cached sections came from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// An earlier request of the same batch absorbed them (an earlier wave).
    Batch(usize),
    /// An earlier drain did; the entry is ready at this modeled time.
    Ready(f64),
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

/// A resident assessment session: a fleet, its device groups' stream
/// timelines, and a content-addressed result cache, fed by
/// [`Engine::submit`] and driven by [`Engine::drain`].
#[derive(Clone, Debug)]
pub struct Engine {
    fleet: FleetSpec,
    executor: CuZc,
    caps: BackendCaps,
    cache: ResultCache,
    memo: DigestMemo,
    fields_generated: u64,
    pending: Vec<(JobTicket, AssessRequest)>,
    /// The plan each pending request was admitted under, and its price.
    pending_plans: Vec<(AssessPlan, f64)>,
    /// Summed prices of the pending requests, in submission order.
    pending_s: f64,
    next_ticket: u64,
    /// One stream timeline per device group (empty until the first drain).
    groups: Vec<GroupTimeline>,
}

impl Engine {
    /// Open a session on a fleet: validate it and build its executor.
    pub fn new(fleet: FleetSpec) -> Result<Engine, EngineError> {
        fleet.validate().map_err(EngineError::BadFleet)?;
        Ok(Engine::open(fleet, DEFAULT_CACHE_ENTRIES))
    }

    /// A session on an already-validated fleet.
    pub(crate) fn open(fleet: FleetSpec, cache_entries: usize) -> Engine {
        Engine {
            executor: fleet.executor(),
            caps: BackendCaps::v100(),
            cache: ResultCache::new(cache_entries),
            memo: DigestMemo::new(cache_entries),
            fields_generated: 0,
            pending: Vec::new(),
            pending_plans: Vec::new(),
            pending_s: 0.0,
            next_ticket: 0,
            groups: Vec::new(),
            fleet,
        }
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

    /// The modeled backlog at `now_s`: seconds until the latest device
    /// group's timeline goes idle, plus the predicted seconds of the
    /// pending requests — what `zc-serve` applies backpressure by.
    pub fn backlog_s(&self, now_s: f64) -> f64 {
        let latest = self.group_free_at_s().into_iter().fold(0.0, f64::max);
        (latest - now_s).max(0.0) + self.pending_s
    }

    /// When each device group's last engine goes idle (empty before the
    /// first drain).
    pub fn group_free_at_s(&self) -> Vec<f64> {
        self.groups.iter().map(GroupTimeline::free_at_s).collect()
    }

    /// How far each device group's timeline advanced over every drain:
    /// the sum of the batches' [`BatchReport::busy_s`] (empty before the
    /// first drain).
    pub fn group_busy_s(&self) -> Vec<f64> {
        self.groups.iter().map(|g| g.busy_s).collect()
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

    /// Submit a request. Validation, admission and pricing happen *here*,
    /// not at drain time: a request whose lowered plan carries an
    /// error-severity verifier diagnostic (device-envelope overflow,
    /// malformed DAG…) is refused before it can occupy the queue, and an
    /// admitted one keeps its plan and price until it drains.
    pub fn submit(&mut self, req: AssessRequest) -> Result<JobTicket, EngineError> {
        req.cfg
            .validate()
            .map_err(|e| EngineError::BadConfig(e.to_string()))?;
        let plan = AssessPlan::lower(&req.cfg);
        self.admit_plan(&plan, req.field.shape(), &req.cfg)?;
        let (price, _) = job_cost(&plan, req.field.shape(), &req.cfg);
        let ticket = JobTicket(self.next_ticket);
        self.next_ticket += 1;
        self.pending_s += price;
        self.pending.push((ticket, req));
        self.pending_plans.push((plan, price));
        Ok(ticket)
    }

    /// Execute every pending request at modeled time `now_s`, place each
    /// executed job whole on a device group with the list scheduler, from
    /// when each group's timeline goes idle, replay the jobs onto their
    /// groups' timelines in ticket order, and return the batch.
    pub fn drain(&mut self, now_s: f64) -> BatchReport {
        self.pending_s = 0.0;
        if self.groups.is_empty() {
            self.groups = vec![GroupTimeline::default(); self.fleet.groups() as usize];
        }
        let (tickets, reqs): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending).into_iter().unzip();
        let (plans, prices): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending_plans).into_iter().unzip();
        let resolved = self.execute(&reqs, &plans.iter().collect::<Vec<_>>(), None);
        let mut results: Vec<JobResult> = Vec::with_capacity(reqs.len());
        // Per result: the executed job behind it (`None` for a full hit),
        // the cached result it read, and the key it was absorbed under.
        let mut links = Vec::with_capacity(reqs.len());
        // Per executed job: its price, and its run legs and result gather
        // (`None` if it failed).
        let (mut costs, mut runs) = (Vec::new(), Vec::new());
        for (((ticket, req), price), r) in tickets.into_iter().zip(reqs).zip(prices).zip(resolved) {
            let job = (r.cache != CacheOutcome::Hit).then_some(costs.len());
            links.push((job, r.source, r.absorbed));
            if job.is_some() {
                // A miss ran the plan it was priced with at submit.
                costs.push(match &r.residual {
                    Some(plan) => job_cost(plan, req.field.shape(), &req.cfg).0,
                    None => price,
                });
                runs.push(r.legs.map(|legs| (legs, gather_s(&self.fleet, &req.cfg))));
            }
            results.push(JobResult {
                ticket,
                cache: r.cache,
                outcome: r.outcome,
                report: r.report,
                ready_s: now_s,
            });
        }
        let before = self.group_free_at_s();
        let owed: Vec<f64> = before.iter().map(|&free| (free - now_s).max(0.0)).collect();
        // No split limits: every job is placed whole.
        let shard = Scheduler::List.plan_onto(&costs, &[], self.fleet.groups(), &owed);
        // Ticket order: each job replays its legs onto its group's timeline.
        let ends: Vec<f64> = runs
            .iter()
            .enumerate()
            .map(|(j, run)| match run {
                Some((legs, gather)) => self.groups[shard.group_of(j) as usize]
                    .run(legs, now_s, *gather)
                    .makespan_s(),
                None => now_s,
            })
            .collect();
        let busy_s: Vec<f64> = self
            .groups
            .iter_mut()
            .zip(before)
            .map(|(group, before)| {
                let advance = (group.free_at_s() - before.max(now_s)).max(0.0);
                group.busy_s += advance;
                advance
            })
            .collect();
        // A source is an earlier wave's request, so it has a lower index
        // and its ready time is final by the time a reader needs it.
        for (i, (job, source, absorbed)) in links.into_iter().enumerate() {
            let ran = job.map_or(now_s, |j| ends[j]);
            let read = match source {
                None => now_s,
                Some(Source::Batch(j)) => results[j].ready_s,
                Some(Source::Ready(t)) => t,
            };
            let ready_s = ran.max(read);
            results[i].ready_s = ready_s;
            if let Some(key) = absorbed {
                self.cache.settle(&key, ready_s);
            }
        }
        BatchReport {
            results,
            busy_s,
            cache: self.cache_stats(),
        }
    }

    /// Steps 1–5 of a drain (see the module docs): execute a batch of
    /// admitted requests, each with the plan it was lowered to, and return
    /// them resolved, in order. With a `progressive` policy, each executed
    /// plan is preceded by the strided-subsample prepass and skipped when
    /// the prepass already decides the job; such estimates are never
    /// cached.
    pub(crate) fn execute(
        &mut self,
        reqs: &[AssessRequest],
        plans: &[&AssessPlan],
        progressive: Option<&ProgressivePolicy>,
    ) -> Vec<Resolved> {
        debug_assert_eq!(reqs.len(), plans.len(), "one plan per request");
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
        // The request of this batch whose absorb last filled each key.
        let mut filled_by: BTreeMap<&CacheKey, usize> = BTreeMap::new();
        let mut waiting: Vec<usize> = (0..reqs.len()).collect();
        let executor = &self.executor;
        while !waiting.is_empty() {
            // 3. Look up in ticket order; a key already seen waits a wave.
            let mut seen = BTreeSet::new();
            let mut next = Vec::new();
            let mut wave: Vec<WaveEntry> = Vec::new();
            for i in waiting {
                if let Some(key) = &keys[i] {
                    if !seen.insert(key) {
                        next.push(i);
                        continue;
                    }
                }
                let cfg = &reqs[i].cfg;
                let needed: Vec<PassKind> = plans[i].passes().iter().map(|p| p.kind).collect();
                let (lookup, source) = match &keys[i] {
                    Some(key) => {
                        let lookup = self.cache.lookup(key, &needed);
                        let source = match filled_by.get(key) {
                            Some(&j) => Source::Batch(j),
                            None => Source::Ready(self.cache.ready_s(key).unwrap_or(0.0)),
                        };
                        (lookup, Some(source))
                    }
                    None => (Lookup::Miss, None),
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
                            cache: CacheOutcome::Hit,
                            outcome: JobOutcome::Done(Box::new(m)),
                            report: Some(report),
                            residual: None,
                            legs: None,
                            source,
                            absorbed: None,
                        });
                    }
                    Lookup::Partial { cached, covered } => wave.push((
                        i,
                        CacheOutcome::Partial,
                        Some(AssessPlan::residual(cfg, &covered)),
                        Some(cached),
                        source,
                    )),
                    Lookup::Miss => wave.push((i, CacheOutcome::Miss, None, None, None)),
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
                let (i, _, residual, cached, _) = &wave[w];
                let req = &reqs[*i];
                let plan = residual.as_ref().unwrap_or(plans[*i]);
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
            for ((i, cache, residual, cached, source), run) in wave.into_iter().zip(runs) {
                let mut absorbed = None;
                let mut legs = None;
                let (outcome, report) = match run {
                    Ok((mut a, stats, assessed)) => {
                        legs = a.legs.take();
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
                                filled_by.insert(key, i);
                                absorbed = Some(key.clone());
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
                    cache,
                    outcome,
                    report,
                    residual,
                    legs,
                    source,
                    absorbed,
                });
            }
            waiting = next;
        }

        resolved
            .into_iter()
            .map(|r| r.expect("every request resolves in some wave"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TilingPolicy;
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

    fn done(r: &JobResult) -> &crate::campaign::JobMetrics {
        match &r.outcome {
            JobOutcome::Done(m) => m,
            JobOutcome::Failed(msg) => panic!("job failed: {msg}"),
        }
    }

    #[test]
    fn repeat_request_is_a_full_hit_with_identical_metrics() {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let t0 = engine.submit(request(MetricSelection::all())).unwrap();
        let batch0 = engine.drain(0.0);
        let t1 = engine.submit(request(MetricSelection::all())).unwrap();
        let batch1 = engine.drain(0.0);
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
        assert_eq!(batch1.busy_s, [0.0, 0.0]);
    }

    #[test]
    fn a_batch_fills_the_idle_group_and_reports_when_each_result_is_ready() {
        // A first drain leaves group 0 busy; the list scheduler places the
        // next miss on idle group 1.
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        engine
            .submit(AssessRequest {
                field: FieldRef::new(AppDataset::Nyx, 1, GenOptions::scaled(32)),
                ..request(MetricSelection::all())
            })
            .unwrap();
        let first = engine.drain(0.0).busy_s;
        assert!(first[0] > 0.0 && first[1] == 0.0, "{first:?}");
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain(0.0);
        let busy = batch.busy_s.clone();
        assert_eq!(busy[0], 0.0);
        assert!(busy[1] > 0.0);
        // Alone on an idle group, the job is ready when its gather ends:
        // its own stream makespan plus the gather, which is exactly how far
        // the group's timeline advanced.
        let m = done(&batch.results[0]);
        let gather = gather_s(&engine.fleet, &request(MetricSelection::all()).cfg);
        assert_eq!(batch.results[0].ready_s, busy[1]);
        assert_eq!(busy[1], m.e2e.unwrap().overlapped_s + gather);
        assert_eq!(engine.group_free_at_s(), [first[0], busy[1]]);
        assert_eq!(engine.group_busy_s(), [first[0], busy[1]]);
        // A repeat is a full hit: it occupies no group, and is ready at its
        // drain or when the run it reads is, whichever is later.
        for now in [busy[1] / 2.0, 2.0 * busy[1]] {
            engine.submit(request(MetricSelection::all())).unwrap();
            let hit = engine.drain(now);
            assert_eq!(hit.results[0].cache, CacheOutcome::Hit);
            assert_eq!(hit.busy_s, [0.0, 0.0]);
            assert_eq!(hit.results[0].ready_s, now.max(busy[1]));
            assert_eq!(engine.group_free_at_s(), [first[0], busy[1]]);
        }
    }

    #[test]
    fn a_lone_tiled_request_runs_whole_on_one_group() {
        // Eight slabs and a batch of one: the job costs more than its
        // per-group share, yet it runs once, whole, so it books one group
        // for its own run and is ready when that run's gather ends.
        let mut req = request(MetricSelection::all());
        req.cfg.tiling = TilingPolicy::Slabs(8);
        let gather = gather_s(&FleetSpec::nvlink(4), &req.cfg);
        let mut engine = Engine::new(FleetSpec::nvlink(4)).unwrap();
        engine.submit(req).unwrap();
        let batch = engine.drain(0.0);
        let run = done(&batch.results[0]).e2e.unwrap().overlapped_s + gather;
        let booked: Vec<f64> = batch.busy_s.iter().copied().filter(|&b| b > 0.0).collect();
        assert_eq!(booked, [run], "{:?}", batch.busy_s);
        assert_eq!(batch.results[0].ready_s, run);
    }

    #[test]
    fn an_in_batch_repeat_is_ready_no_earlier_than_the_run_it_reads() {
        // One key, four requests, four waves: a PSNR miss, its repeat (a
        // full hit on the miss), a full profile (a partial hit merging the
        // miss's sections) and its repeat (a full hit on the partial).
        let psnr = || request(MetricSelection::none().with(Metric::Psnr));
        let all = || request(MetricSelection::all());
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        for req in [psnr(), psnr(), all(), all()] {
            engine.submit(req).unwrap();
        }
        let now = 0.25;
        let r = engine.drain(now).results;
        let cache: Vec<_> = r.iter().map(|r| r.cache).collect();
        use CacheOutcome::*;
        assert_eq!(cache, [Miss, Hit, Partial, Hit]);
        assert!(r[0].ready_s > now);
        assert_eq!(r[1].ready_s, r[0].ready_s);
        assert!(r[2].ready_s >= r[0].ready_s);
        assert_eq!(r[3].ready_s, r[2].ready_s);
    }

    #[test]
    fn a_short_job_ahead_of_a_long_one_on_a_group_completes_first() {
        // One group: a PSNR screen, then a full profile of another field.
        // The screen's gather ends before the profile's; the profile's
        // upload overlaps the screen, so the group's timeline advances by
        // less than the two jobs' standalone spans.
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        let long = AssessRequest {
            field: FieldRef::new(AppDataset::Nyx, 1, GenOptions::scaled(32)),
            ..request(MetricSelection::all())
        };
        engine
            .submit(request(MetricSelection::none().with(Metric::Psnr)))
            .unwrap();
        engine.submit(long).unwrap();
        let batch = engine.drain(0.0);
        let r = &batch.results;
        assert!(r.iter().all(|r| r.cache == CacheOutcome::Miss));
        assert!(r[0].ready_s < r[1].ready_s);
        let gather = gather_s(&engine.fleet, &request(MetricSelection::all()).cfg);
        let alone: Vec<f64> = r
            .iter()
            .map(|r| done(r).e2e.unwrap().overlapped_s + gather)
            .collect();
        assert_eq!(r[0].ready_s, alone[0]);
        assert!(r[1].ready_s < alone[0] + alone[1]);
        assert_eq!(batch.busy_s, [r[1].ready_s]);
    }

    #[test]
    fn duplicate_requests_in_one_batch_share_work() {
        let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain(0.0);
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
        engine.drain(0.0);
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain(0.0);
        assert_eq!(batch.results[0].cache, CacheOutcome::Partial);
        let report = batch.results[0].report.as_ref().unwrap();
        assert!(report.stencil.is_some() && report.ssim.is_some());
        assert_eq!(batch.cache.partial_hits, 1);
    }

    #[test]
    fn submit_prices_once_and_the_backlog_is_the_pending_price() {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        assert!(
            engine.group_free_at_s().is_empty(),
            "nothing before a drain"
        );
        let req = request(MetricSelection::all());
        engine.submit(req.clone()).unwrap();
        let one = engine.backlog_s(0.0);
        engine.submit(req).unwrap();
        assert_eq!(engine.backlog_s(0.0).to_bits(), (one + one).to_bits());
        engine.drain(0.0);
        let latest = engine.group_free_at_s().into_iter().fold(0.0, f64::max);
        assert!(latest > 0.0);
        assert_eq!(engine.backlog_s(0.0), latest);
        assert_eq!(engine.backlog_s(latest + 1.0), 0.0);
    }

    #[test]
    fn estimate_is_positive_and_needs_no_correction() {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let req = request(MetricSelection::all());
        engine.submit(req.clone()).unwrap();
        assert!(engine.backlog_s(0.0) > 0.0);
        let probe = CostCalibration::probe(&FleetSpec::nvlink(2), &req.cfg);
        assert!((probe.scale - 1.0).abs() <= 0.01, "scale {}", probe.scale);
    }

    #[test]
    fn service_estimates_and_campaign_costs_share_one_price() {
        let req = request(MetricSelection::all());
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
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
        engine.submit(req).unwrap();
        assert_eq!(engine.backlog_s(0.0).to_bits(), costs[0].to_bits());
    }

    #[test]
    fn a_cache_off_batch_runs_every_request_as_a_miss() {
        let mut engine = Engine::new(FleetSpec::nvlink(1))
            .unwrap()
            .with_cache_entries(0);
        engine.submit(request(MetricSelection::all())).unwrap();
        engine.submit(request(MetricSelection::all())).unwrap();
        let batch = engine.drain(0.0);
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
        let plans: Vec<AssessPlan> = reqs.iter().map(|r| AssessPlan::lower(&r.cfg)).collect();
        let plans: Vec<&AssessPlan> = plans.iter().collect();
        let resolved = engine.execute(&reqs, &plans, None);
        assert!(resolved.iter().all(|r| r.cache == CacheOutcome::Miss));
        let stats = engine.cache_stats();
        assert_eq!(stats.fields_generated, 3);
        assert_eq!(stats.digests_reused, 0);
        assert_eq!(engine.remembered_digests(), 0);
        // A second batch regenerates: without a cache nothing is remembered.
        engine.execute(&reqs[..2], &plans[..2], None);
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
