//! zc-serve — the resident assessment service over the engine core.
//!
//! Z-checker's original framing (Di et al., IJHPCA 2017) is assessment as
//! a reusable *service layer*: compressor developers and users query the
//! same fields under overlapping metric sets, repeatedly. This crate is
//! that shape, built on [`zc_core::engine`]:
//!
//! * a **request loop** ([`Server`]): requests arrive (modeled arrival
//!   times), pass admission, batch up, and drain onto the simulated fleet
//!   as one batch per window, the cost-model list scheduler placing each
//!   job whole on one device group. Each device group of the
//!   engine session keeps one stream timeline — its H2D, compute and D2H
//!   engine cursors — so a job's upload overlaps the kernels of the job
//!   ahead of it on the group and its read-backs overlap the kernels of
//!   the job behind it. A request completes when its own job's result
//!   gather ends, and a full cache hit completes at its drain unless the
//!   run that filled its entry is still going;
//! * **admission control**: structural validation and static plan
//!   verification happen at [`Server::offer`] time, via the engine (a
//!   refused request never occupies the queue);
//! * **per-tenant quotas**: each tenant may hold at most a fixed number of
//!   queued requests per batch window — one chatty tenant cannot starve
//!   the rest;
//! * **backpressure**: when the fleet's modeled backlog (time until the
//!   latest group timeline goes idle plus the estimated cost of the queue,
//!   priced once at admission) exceeds an
//!   occupancy watermark, [`Server::offer`] returns the typed
//!   [`ServeError::Saturated`] instead of queueing unboundedly;
//! * **caching for free**: the engine's content-addressed result cache
//!   turns the service's overlapping traffic into full and partial hits —
//!   the exact access pattern the cache exists for. A full hit is keyed
//!   from the engine's remembered field digest, so it synthesizes no field
//!   data ([`ServeReport`] counts fields generated and digests reused).
//!
//! Everything is deterministic: traces are seeded ([`RequestTrace`]),
//! time is modeled (no wall clock), the engine drains in ticket order, and
//! results are bit-identical at any `ZC_PAR_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::{AssessRequest, CacheOutcome, CacheStats, Engine, EngineError, JobTicket};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions, SplitMix64};

/// Service configuration. Placement is not a setting: every drained
/// batch goes through the cost-model list scheduler, which places each
/// job whole on one device group.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The simulated fleet the service runs on.
    pub fleet: FleetSpec,
    /// Queued requests per batch window; the queue drains when full.
    pub batch: usize,
    /// Max queued requests one tenant may hold per batch window.
    pub tenant_quota: usize,
    /// Modeled-backlog watermark (seconds): offers are refused with
    /// [`ServeError::Saturated`] while the backlog exceeds it.
    pub watermark_s: f64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
}

impl ServeConfig {
    /// Service defaults on a fleet: 8-request batches, 4 requests per
    /// tenant per window, a 0.5 s modeled-backlog watermark, 256 cache
    /// entries.
    pub fn new(fleet: FleetSpec) -> Self {
        ServeConfig {
            fleet,
            batch: 8,
            tenant_quota: 4,
            watermark_s: 0.5,
            cache_entries: 256,
        }
    }
}

/// Typed service refusals. A refusal is data, not a crash: the caller
/// (or the trace loop) records it and the service keeps running.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Modeled fleet backlog exceeds the occupancy watermark; retry after
    /// the current batches drain.
    Saturated {
        /// The modeled backlog at refusal time (seconds).
        backlog_s: f64,
    },
    /// The tenant already holds its quota of queued requests this window.
    QuotaExceeded {
        /// The refused tenant.
        tenant: u32,
    },
    /// Static plan verification refused the request (device-envelope
    /// overflow or a malformed plan).
    Admission(String),
    /// The request is structurally invalid (bad assessment config).
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Saturated { backlog_s } => {
                write!(
                    f,
                    "saturated: modeled backlog {backlog_s:.3}s over watermark"
                )
            }
            ServeError::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} exceeded its queued-request quota")
            }
            ServeError::Admission(m) => write!(f, "admission: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One service request: who asks, when (modeled), and what to assess.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// Requesting tenant.
    pub tenant: u32,
    /// Modeled arrival time (seconds since trace start, non-decreasing).
    pub arrival_s: f64,
    /// The assessment asked for.
    pub request: AssessRequest,
}

/// A deterministic synthetic request trace: seeded, skewed, and
/// reproducible bit-for-bit from `(seed, count)` alone.
///
/// The skew is the service's reason to exist: a small hot set of
/// (field, codec) pairs dominates, and metric selections overlap but
/// rarely coincide — so a content-addressed cache sees full hits on exact
/// repeats and partial hits when a later request widens the metric set.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The requests, in arrival order.
    pub requests: Vec<ServeRequest>,
}

/// Uniform in `[0, 1)` from one SplitMix64 draw.
fn u01(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl RequestTrace {
    /// The hot field pool: small scaled catalog fields, heavily skewed
    /// (the first entries absorb most of the traffic).
    fn field_pool() -> Vec<FieldRef> {
        vec![
            FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Nyx, 2, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Hurricane, 5, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Hurricane, 9, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Miranda, 3, GenOptions::scaled(32)),
        ]
    }

    /// The codec pool (also skewed toward the first entry).
    fn codec_pool() -> Vec<CompressorSpec> {
        vec![
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::Zfp(12.0),
            CompressorSpec::Sz(ErrorBound::Abs(1e-2)),
        ]
    }

    /// The overlapping metric selections real clients ask for: a scalar
    /// screen, a scalar+SSIM check, and the full profile. Sharing one
    /// cache entry across these is the partial-hit path.
    fn metric_pool() -> Vec<MetricSelection> {
        vec![
            MetricSelection::none().with(Metric::Psnr).with(Metric::Mse),
            MetricSelection::none()
                .with(Metric::Psnr)
                .with(Metric::Ssim),
            MetricSelection::all(),
        ]
    }

    /// Draw an index in `[0, n)` with geometric-ish skew: index 0 is
    /// roughly twice as likely as index 1, and so on.
    fn skewed_index(rng: &mut SplitMix64, n: usize) -> usize {
        // Geometric: P(0)=1/2, P(1)=1/4, … — index 0 is the hot one.
        let mut i = 0;
        while i + 1 < n && u01(rng) < 0.5 {
            i += 1;
        }
        i
    }

    /// Generate `count` requests from `seed`: skewed field/codec/metric
    /// draws, four tenants (tenant 0 hottest), and exponential-flavored
    /// inter-arrival gaps with a mean of 2 ms of modeled time.
    pub fn synthetic(seed: u64, count: usize) -> RequestTrace {
        let fields = Self::field_pool();
        let codecs = Self::codec_pool();
        let metrics = Self::metric_pool();
        let mut rng = SplitMix64::new(seed ^ 0x5eed_cafe_f00d_d00d);
        let mut now = 0.0f64;
        let mut requests = Vec::with_capacity(count);
        for _ in 0..count {
            let field = fields[Self::skewed_index(&mut rng, fields.len())].clone();
            let compressor = codecs[Self::skewed_index(&mut rng, codecs.len())];
            let selection = metrics[Self::skewed_index(&mut rng, metrics.len())].clone();
            let tenant = Self::skewed_index(&mut rng, 4) as u32;
            // Inter-arrival: -ln(U) * mean, clamped away from 0 to keep
            // arrival order strict.
            let gap = (-(1.0 - u01(&mut rng)).ln()).max(1e-6) * 2e-3;
            now += gap;
            requests.push(ServeRequest {
                tenant,
                arrival_s: now,
                request: AssessRequest {
                    field,
                    compressor,
                    cfg: AssessConfig {
                        max_lag: 3,
                        bins: 32,
                        metrics: selection,
                        ..Default::default()
                    },
                },
            });
        }
        RequestTrace { requests }
    }
}

/// Per-request service verdicts, in trace order.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Accepted and completed; the fields are (modeled latency seconds,
    /// cache outcome, assessed bytes, PSNR).
    Done {
        /// Modeled arrival→completion latency (seconds).
        latency_s: f64,
        /// How the result cache participated.
        cache: CacheOutcome,
        /// Field bytes this request's assessment actually read.
        assessed_bytes: u64,
        /// The job's PSNR, as exact bits (determinism checks compare it).
        psnr_bits: u64,
    },
    /// Accepted but the job failed during execution (codec/assess error).
    Failed(String),
    /// Refused at offer time.
    Refused(ServeError),
}

/// The service report for one trace run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Verdict per trace request, in trace order.
    pub verdicts: Vec<Verdict>,
    /// Completed jobs.
    pub completed: usize,
    /// Refusals by saturation backpressure.
    pub saturated: usize,
    /// Refusals by tenant quota.
    pub quota_refused: usize,
    /// Refusals by admission / bad request.
    pub admission_refused: usize,
    /// Jobs that failed during execution.
    pub failed: usize,
    /// Sustained completed jobs per modeled second (completions over the
    /// span from first arrival to last completion).
    pub jobs_per_sec: f64,
    /// Median modeled latency over completed jobs (seconds).
    pub p50_latency_s: f64,
    /// 99th-percentile modeled latency over completed jobs (seconds).
    pub p99_latency_s: f64,
    /// Total field bytes assessed (cache hits read zero).
    pub assessed_bytes: u64,
    /// Engine cache counters after the run.
    pub cache: CacheStats,
    /// Modeled completion time of the last request (seconds).
    pub makespan_s: f64,
    /// Modeled busy seconds per device group over every batch the server
    /// drained: how far each group's stream timeline advanced.
    pub group_busy_s: Vec<f64>,
    /// Fleet utilization: the groups' busy seconds over groups × the span
    /// from first arrival to last completion.
    pub utilization: f64,
}

impl ServeReport {
    /// Render the service summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<26} {:>10}\n", "serve metric", "value"));
        let rows: Vec<(&str, String)> = vec![
            ("requests", format!("{}", self.verdicts.len())),
            ("completed", format!("{}", self.completed)),
            ("failed", format!("{}", self.failed)),
            ("refused: saturated", format!("{}", self.saturated)),
            ("refused: quota", format!("{}", self.quota_refused)),
            ("refused: admission", format!("{}", self.admission_refused)),
            ("jobs/s (modeled)", format!("{:.1}", self.jobs_per_sec)),
            (
                "p50 latency (ms)",
                format!("{:.3}", self.p50_latency_s * 1e3),
            ),
            (
                "p99 latency (ms)",
                format!("{:.3}", self.p99_latency_s * 1e3),
            ),
            ("cache hit rate", format!("{:.3}", self.cache.hit_rate())),
            (
                "cache partial rate",
                format!("{:.3}", self.cache.partial_rate()),
            ),
            (
                "fields generated",
                format!("{}", self.cache.fields_generated),
            ),
            ("digests reused", format!("{}", self.cache.digests_reused)),
            (
                "assessed MB",
                format!("{:.2}", self.assessed_bytes as f64 / 1e6),
            ),
            ("makespan (ms)", format!("{:.3}", self.makespan_s * 1e3)),
            ("fleet utilization", format!("{:.3}", self.utilization)),
        ];
        for (k, v) in rows {
            out.push_str(&format!("{k:<26} {v:>10}\n"));
        }
        for (g, busy) in self.group_busy_s.iter().enumerate() {
            let k = format!("group {g} busy (ms)");
            out.push_str(&format!("{k:<26} {:>10.3}\n", busy * 1e3));
        }
        out
    }
}

/// Percentile by nearest-rank over a sorted slice (0 for an empty one).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The resident service: an engine session (which owns the device groups'
/// timelines and the queue's price) plus the request loop's quota state.
pub struct Server {
    engine: Engine,
    cfg: ServeConfig,
    /// Queued requests per tenant this window.
    tenant_queued: Vec<usize>,
    /// (ticket, tenant, arrival) of queued requests, in ticket order.
    queued: Vec<(JobTicket, u32, f64)>,
}

impl Server {
    /// Open the service: validates the fleet and opens an engine session
    /// on it.
    pub fn new(cfg: ServeConfig) -> Result<Server, ServeError> {
        let engine = Engine::new(cfg.fleet)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?
            .with_cache_entries(cfg.cache_entries);
        Ok(Server {
            engine,
            cfg,
            tenant_queued: Vec::new(),
            queued: Vec::new(),
        })
    }

    /// The modeled backlog at time `now_s` ([`Engine::backlog_s`]):
    /// seconds until the latest group timeline goes idle plus the
    /// predicted seconds of the queue.
    pub fn backlog_s(&self, now_s: f64) -> f64 {
        self.engine.backlog_s(now_s)
    }

    /// Offer one request to the service at its arrival time. A non-finite
    /// arrival is a bad request. Quota and watermark are checked before
    /// admission so a saturated service does no verification work.
    pub fn offer(&mut self, req: &ServeRequest) -> Result<JobTicket, ServeError> {
        if !req.arrival_s.is_finite() {
            return Err(ServeError::BadRequest(format!(
                "arrival time {} s is not finite",
                req.arrival_s
            )));
        }
        let tenant = req.tenant as usize;
        if self.tenant_queued.len() <= tenant {
            self.tenant_queued.resize(tenant + 1, 0);
        }
        if self.tenant_queued[tenant] >= self.cfg.tenant_quota {
            return Err(ServeError::QuotaExceeded { tenant: req.tenant });
        }
        let backlog = self.backlog_s(req.arrival_s);
        if backlog > self.cfg.watermark_s {
            return Err(ServeError::Saturated { backlog_s: backlog });
        }
        let ticket = self
            .engine
            .submit(req.request.clone())
            .map_err(|e| match e {
                EngineError::Admission(m) => ServeError::Admission(m),
                EngineError::BadConfig(m) | EngineError::BadFleet(m) => ServeError::BadRequest(m),
            })?;
        self.tenant_queued[tenant] += 1;
        self.queued.push((ticket, req.tenant, req.arrival_s));
        Ok(ticket)
    }

    /// Whether the queue has reached the batch size.
    pub fn batch_ready(&self) -> bool {
        self.queued.len() >= self.cfg.batch
    }

    /// Drain the queued batch at modeled time `now_s` onto the engine's
    /// group timelines ([`Engine::drain`]). Returns (ticket, tenant,
    /// arrival, completion, result) per queued request, in ticket order: a
    /// request completes when its result is ready
    /// ([`zc_core::engine::JobResult::ready_s`]), so a full cache hit
    /// completes at `now_s` or when the run it reads does, whichever is
    /// later. The window's quota counters reset.
    #[allow(clippy::type_complexity)]
    pub fn drain(
        &mut self,
        now_s: f64,
    ) -> Vec<(JobTicket, u32, f64, f64, zc_core::engine::JobResult)> {
        if self.queued.is_empty() {
            return Vec::new();
        }
        let batch = self.engine.drain(now_s);
        self.tenant_queued.clear();
        let queued = std::mem::take(&mut self.queued);
        queued
            .into_iter()
            .zip(batch.results)
            .map(|((ticket, tenant, arrival), result)| {
                debug_assert_eq!(ticket, result.ticket);
                (ticket, tenant, arrival, result.ready_s, result)
            })
            .collect()
    }

    /// Engine cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Run a whole trace through the loop: offer each request at its
    /// arrival time, drain whenever the batch fills, flush at the end,
    /// and fold the verdicts into a [`ServeReport`].
    pub fn run_trace(&mut self, trace: &RequestTrace) -> ServeReport {
        let n = trace.requests.len();
        let mut verdicts: Vec<Option<Verdict>> = vec![None; n];
        // The engine issues tickets sequentially and only to accepted
        // requests, so the k-th accepted request holds ticket
        // `first_ticket + k` and its trace slot is `slots[k]`.
        let mut first_ticket = None;
        let mut slots: Vec<usize> = Vec::new();
        let mut latencies = Vec::new();
        let mut completed = 0usize;
        let (mut saturated, mut quota_refused, mut admission_refused, mut failed) = (0, 0, 0, 0);
        let mut assessed_bytes = 0u64;
        let mut last_completion = 0.0f64;
        let mut settle = |drained: Vec<(JobTicket, u32, f64, f64, zc_core::engine::JobResult)>,
                          first_ticket: Option<u64>,
                          slots: &[usize],
                          verdicts: &mut Vec<Option<Verdict>>| {
            for (ticket, _tenant, arrival, completion, result) in drained {
                let k = first_ticket
                    .and_then(|first| ticket.id().checked_sub(first))
                    .expect("every drained ticket was offered");
                let slot = slots[k as usize];
                last_completion = last_completion.max(completion);
                let verdict = match result.outcome {
                    JobOutcome::Done(m) => {
                        completed += 1;
                        let latency = completion - arrival;
                        latencies.push(latency);
                        assessed_bytes += m.assessed_bytes;
                        Verdict::Done {
                            latency_s: latency,
                            cache: result.cache,
                            assessed_bytes: m.assessed_bytes,
                            psnr_bits: m.psnr.to_bits(),
                        }
                    }
                    JobOutcome::Failed(msg) => {
                        failed += 1;
                        Verdict::Failed(msg)
                    }
                };
                verdicts[slot] = Some(verdict);
            }
        };
        for (i, req) in trace.requests.iter().enumerate() {
            match self.offer(req) {
                Ok(ticket) => {
                    first_ticket.get_or_insert(ticket.id());
                    slots.push(i);
                }
                Err(e) => {
                    match &e {
                        ServeError::Saturated { .. } => saturated += 1,
                        ServeError::QuotaExceeded { .. } => quota_refused += 1,
                        ServeError::Admission(_) | ServeError::BadRequest(_) => {
                            admission_refused += 1
                        }
                    }
                    verdicts[i] = Some(Verdict::Refused(e));
                    continue;
                }
            }
            if self.batch_ready() {
                let drained = self.drain(req.arrival_s);
                settle(drained, first_ticket, &slots, &mut verdicts);
            }
        }
        // Refused non-finite arrivals bound neither end of the trace.
        let mut arrivals = trace
            .requests
            .iter()
            .map(|r| r.arrival_s)
            .filter(|a| a.is_finite());
        let first_arrival = arrivals.next().unwrap_or(0.0);
        let end = arrivals.next_back().unwrap_or(first_arrival);
        let drained = self.drain(end);
        settle(drained, first_ticket, &slots, &mut verdicts);
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let span = (last_completion - first_arrival).max(f64::EPSILON);
        let group_busy_s = self.engine.group_busy_s();
        let utilization = if group_busy_s.is_empty() {
            0.0
        } else {
            group_busy_s.iter().sum::<f64>() / (group_busy_s.len() as f64 * span)
        };
        ServeReport {
            verdicts: verdicts
                .into_iter()
                .map(|v| v.expect("every request got a verdict"))
                .collect(),
            completed,
            saturated,
            quota_refused,
            admission_refused,
            failed,
            jobs_per_sec: if completed > 0 {
                completed as f64 / span
            } else {
                0.0
            },
            p50_latency_s: percentile(&latencies, 0.50),
            p99_latency_s: percentile(&latencies, 0.99),
            assessed_bytes,
            cache: self.cache_stats(),
            makespan_s: last_completion,
            group_busy_s,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            batch: 4,
            ..ServeConfig::new(FleetSpec::nvlink(2))
        }
    }

    #[test]
    fn seed_42_trace_is_pinned() {
        // (field, codec, tenant, arrival bits) of `synthetic(42, 16)`: a
        // change of generator or draw order shows up here first.
        let pinned: [(&str, &str, u32, u64); 16] = [
            ("MIRANDA/velocityx", "sz(rel=1e-3)", 2, 0x3f4e29b7ba2b22bb),
            ("NYX/temperature", "sz(rel=1e-3)", 0, 0x3f69a12f997a0df4),
            ("MIRANDA/density", "zfp(rate=12)", 0, 0x3f773026802752b0),
            ("MIRANDA/density", "zfp(rate=12)", 2, 0x3f7ec761f68d39c6),
            ("NYX/temperature", "sz(rel=1e-3)", 0, 0x3f7fa2dde0d1f59f),
            ("NYX/temperature", "sz(rel=1e-3)", 0, 0x3f80745830939e09),
            ("NYX/baryon_density", "sz(rel=1e-3)", 3, 0x3f85a27f0f566e0c),
            ("MIRANDA/density", "sz(rel=1e-3)", 1, 0x3f8c71536b3dd8d2),
            ("MIRANDA/density", "sz(abs=1e-2)", 3, 0x3f9073d1aad679b5),
            ("MIRANDA/density", "sz(rel=1e-3)", 1, 0x3f90fac6dcadb10d),
            ("MIRANDA/density", "zfp(rate=12)", 0, 0x3f94a7838c503cbf),
            ("MIRANDA/density", "sz(abs=1e-2)", 0, 0x3f94f44ae50d1040),
            ("MIRANDA/density", "zfp(rate=12)", 0, 0x3f953a648fb08985),
            ("MIRANDA/density", "sz(rel=1e-3)", 2, 0x3f974b65dfe47846),
            ("Hurricane/QVAPOR", "sz(rel=1e-3)", 0, 0x3f9803c74023029a),
            ("NYX/temperature", "sz(rel=1e-3)", 0, 0x3f98c116846fe24d),
        ];
        let trace = RequestTrace::synthetic(42, 16);
        assert_eq!(trace.requests.len(), pinned.len());
        for (i, (r, &(field, codec, tenant, bits))) in
            trace.requests.iter().zip(&pinned).enumerate()
        {
            assert_eq!(r.request.field.qualified_name(), field, "request {i}");
            assert_eq!(r.request.compressor.label(), codec, "request {i}");
            assert_eq!(r.tenant, tenant, "request {i}");
            assert_eq!(r.arrival_s.to_bits(), bits, "request {i}");
        }
    }

    #[test]
    fn trace_is_deterministic_from_its_seed() {
        let a = RequestTrace::synthetic(7, 20);
        let b = RequestTrace::synthetic(7, 20);
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.arrival_s.to_bits(), y.arrival_s.to_bits());
            assert_eq!(
                x.request.field.qualified_name(),
                y.request.field.qualified_name()
            );
            assert_eq!(x.request.compressor.label(), y.request.compressor.label());
        }
        let c = RequestTrace::synthetic(8, 20);
        assert!(a
            .requests
            .iter()
            .zip(&c.requests)
            .any(|(x, y)| x.arrival_s != y.arrival_s));
    }

    #[test]
    fn trace_is_skewed_toward_a_hot_set() {
        let t = RequestTrace::synthetic(3, 200);
        let hot_name = RequestTrace::field_pool()[0].qualified_name();
        let hot = t
            .requests
            .iter()
            .filter(|r| r.request.field.qualified_name() == hot_name)
            .count();
        // Index 0 of the pool should absorb roughly half the traffic.
        assert!(hot > 60, "hot field drew only {hot}/200");
    }

    #[test]
    fn a_lone_tiled_request_completes_when_its_one_run_does() {
        // Eight slabs and a batch of one on four groups: the job runs once,
        // whole, so it completes when that run's result gather ends.
        let request = AssessRequest {
            field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32)),
            compressor: CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            cfg: AssessConfig {
                max_lag: 3,
                bins: 32,
                tiling: zc_core::config::TilingPolicy::Slabs(8),
                ..Default::default()
            },
        };
        let fleet = FleetSpec::nvlink(4);
        let gather = zc_core::plan::gather_s(&fleet.link.host_link(), &request.cfg);
        let mut server = Server::new(ServeConfig::new(fleet)).unwrap();
        server
            .offer(&ServeRequest {
                tenant: 0,
                arrival_s: 0.0,
                request,
            })
            .unwrap();
        let drained = server.drain(0.0);
        let JobOutcome::Done(m) = &drained[0].4.outcome else {
            panic!("the job must complete");
        };
        let run = m.e2e.unwrap().overlapped_s + gather;
        assert_eq!(drained[0].3, run);
        assert_eq!(server.backlog_s(0.0), run);
    }

    #[test]
    fn served_trace_completes_and_caches() {
        for gpus in [2, 4, 8] {
            let mut server = Server::new(ServeConfig {
                fleet: FleetSpec::nvlink(gpus),
                ..small_cfg()
            })
            .unwrap();
            let report = server.run_trace(&RequestTrace::synthetic(11, 24));
            let ctx = format!("{gpus} GPUs: {:?}", report.cache);
            assert!(report.completed > 0, "{ctx}");
            assert_eq!(
                report.completed
                    + report.failed
                    + report.saturated
                    + report.quota_refused
                    + report.admission_refused,
                24,
                "{ctx}"
            );
            assert_eq!(report.failed, 0, "{ctx}");
            // The skewed trace repeats keys (full hits), and its
            // overlapping metric sets leave keys half-covered (partial hits).
            assert!(report.cache.hits > 0, "{ctx}");
            assert!(report.cache.partial_hits > 0, "{ctx}");
            // Repeats are keyed from the digest memo, not regenerated.
            assert!(report.cache.digests_reused > 0, "{ctx}");
            assert!(report.jobs_per_sec > 0.0, "{ctx}");
            assert!(report.p99_latency_s >= report.p50_latency_s, "{ctx}");
        }
    }

    #[test]
    fn full_hits_complete_no_earlier_than_their_source_and_move_no_clock() {
        let mut server = Server::new(small_cfg()).unwrap();
        let at = |arrival_s| ServeRequest {
            arrival_s,
            ..RequestTrace::synthetic(1, 1).requests[0].clone()
        };
        // A miss and its duplicate in one batch: the duplicate is a hit a
        // wave later, and completes with the miss.
        server.offer(&at(0.0)).unwrap();
        server.offer(&at(0.0)).unwrap();
        let first = server.drain(0.0);
        assert_eq!(first[0].4.cache, CacheOutcome::Miss);
        assert_eq!(first[1].4.cache, CacheOutcome::Hit);
        let ready = first[0].3;
        assert!(ready > 0.0);
        assert_eq!(first[1].3, ready);
        let clocks = server.engine.group_free_at_s();
        // Repeats drained while the miss still runs complete when it does;
        // repeats drained after it complete at their drain time. Neither
        // batch moves a clock.
        for now in [ready / 2.0, 2.0 * ready] {
            server.offer(&at(now)).unwrap();
            server.offer(&at(now)).unwrap();
            let hits = server.drain(now);
            assert_eq!(hits.len(), 2);
            for (_, _, _, completion, result) in hits {
                assert_eq!(result.cache, CacheOutcome::Hit);
                assert_eq!(completion, now.max(ready));
            }
            assert_eq!(server.engine.group_free_at_s(), clocks);
            assert_eq!(server.backlog_s(now), (ready - now).max(0.0));
        }
    }

    #[test]
    fn group_clocks_only_advance_and_completions_follow_arrival_and_drain() {
        for gpus in [2, 8] {
            let cfg = ServeConfig {
                fleet: FleetSpec::nvlink(gpus),
                ..small_cfg()
            };
            let trace = RequestTrace::synthetic(11, 48);
            let mut server = Server::new(cfg.clone()).unwrap();
            let mut clocks = vec![0.0; gpus as usize];
            let mut last_completion = 0.0f64;
            let mut drain = |server: &mut Server, now: f64| {
                for (_, _, arrival, completion, _) in server.drain(now) {
                    assert!(completion >= arrival && completion >= now, "{gpus} GPUs");
                    last_completion = last_completion.max(completion);
                }
                for (before, after) in clocks.iter_mut().zip(server.engine.group_free_at_s()) {
                    assert!(after >= *before, "{gpus} GPUs: clock {before} -> {after}");
                    *before = after;
                }
            };
            for req in &trace.requests {
                if server.offer(req).is_ok() && server.batch_ready() {
                    drain(&mut server, req.arrival_s);
                }
            }
            drain(&mut server, trace.requests.last().unwrap().arrival_s);
            let report = Server::new(cfg).unwrap().run_trace(&trace);
            assert_eq!(report.makespan_s.to_bits(), last_completion.to_bits());
            assert!(report.utilization > 0.0 && report.utilization <= 1.0);
            assert_eq!(report.group_busy_s, server.engine.group_busy_s());
        }
    }

    #[test]
    fn quota_refuses_the_chatty_tenant() {
        let mut server = Server::new(ServeConfig {
            tenant_quota: 1,
            batch: 100, // never auto-drains: quotas must bite first
            ..small_cfg()
        })
        .unwrap();
        let trace = RequestTrace::synthetic(5, 12);
        let mut quota_hits = 0;
        for req in &trace.requests {
            if let Err(ServeError::QuotaExceeded { .. }) = server.offer(req) {
                quota_hits += 1;
            }
        }
        assert!(quota_hits > 0, "12 skewed requests, quota 1, no refusals?");
    }

    #[test]
    fn non_finite_arrival_is_refused_and_the_trace_completes() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for slot in [0, 3, 15] {
                let mut trace = RequestTrace::synthetic(42, 16);
                trace.requests[slot].arrival_s = bad;
                let mut server = Server::new(ServeConfig::new(FleetSpec::nvlink(2))).unwrap();
                let report = server.run_trace(&trace);
                let at = format!("arrival {bad} at request {slot}");
                assert!(
                    matches!(
                        report.verdicts[slot],
                        Verdict::Refused(ServeError::BadRequest(_))
                    ),
                    "{at}: {:?}",
                    report.verdicts[slot]
                );
                assert_eq!(report.admission_refused, 1, "{at}");
                let refused = report.saturated + report.quota_refused;
                assert_eq!(report.completed + report.failed + refused, 15, "{at}");
                assert!(report.completed > 0, "{at}");
                assert!(report.makespan_s.is_finite(), "{at}");
                assert!(report.p99_latency_s.is_finite(), "{at}");
                assert!(report.jobs_per_sec.is_finite(), "{at}");
            }
        }
    }

    #[test]
    fn watermark_saturates_the_service() {
        let mut server = Server::new(ServeConfig {
            watermark_s: 0.0,
            ..small_cfg()
        })
        .unwrap();
        // Drain something first so free_at > 0, then the next offer at
        // t=0 sees backlog > 0 = watermark.
        let trace = RequestTrace::synthetic(2, 6);
        let report = server.run_trace(&trace);
        assert!(
            report.saturated > 0,
            "zero watermark must shed load: {report:?}"
        );
    }
}
