//! `serve-hot` and `serve-churn`: the resident service under open-loop
//! traffic in modeled time.
//!
//! Both run `ServeConfig::new(FleetSpec::nvlink(8))` with its production
//! defaults (list scheduling, 8-request batches, quota 4 per tenant per
//! window, 0.5 s backlog watermark, 256 cache entries). Each workload has
//! four rungs of 1100 requests — enough that p99 has at least ten samples
//! beyond it — carrying the same seeded request sequence: three Poisson
//! rates (low, mid, high) and a burst with every arrival at t = 0, whose
//! completions over the modeled span are the service's capacity. Sixteen
//! tenants take turns, so a window of eight accepted requests never holds
//! two from one tenant and the quota never refuses.
//!
//! * `serve-hot` draws, with geometric skew, from six hot fields, three
//!   codecs and three metric selections: nearly every request is a full
//!   cache hit, so host time is the engine's per-batch field regeneration,
//!   digest and admission, and capacity is set by the few misses. This is
//!   the read side of the cache.
//! * `serve-churn` draws uniformly over 4 datasets × 256 generation seeds ×
//!   3 codecs × 3 selections: 3072 (field, codec) keys overflow the
//!   256-entry cache, so nearly every request misses, inserts and evicts.
//!   Host time is codec plus kernels and capacity is bound by the fleet. A
//!   cache or engine change that helps `serve-hot` at the misses' expense
//!   shows here.
//!
//! Fields are `GenOptions::scaled(32)`, so one pass over the rungs takes
//! about 2.5 s of host time on `serve-hot` and 6 s on `serve-churn`.

use crate::stats::{mean, median, percentile, tail_percentile, time, timed_loop};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;
use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::field_digest;
use zc_core::plan::{resolve_slabs, verify, BackendCaps};
use zc_core::{
    AssessConfig, AssessPlan, AssessRequest, CacheOutcome, CacheStats, Executor, JobTicket, Metric,
    MetricSelection,
};
use zc_data::{AppDataset, GenOptions, SplitMix64};
use zc_gpusim::{Counters, EndToEnd};
use zc_serve::{RequestTrace, ServeConfig, ServeError, ServeReport, ServeRequest, Server, Verdict};

/// Requests per rung.
pub const REQUESTS_PER_RUNG: usize = 1100;
const TENANTS: usize = 16;
/// The open-loop rungs, in rate order.
const RATE_RUNGS: [&str; 3] = ["low", "mid", "high"];
/// Distinct keys timed stand-alone per call kind in the traced run.
const STANDALONE_KEYS: usize = 24;

type Draw = fn(&mut SplitMix64, u64) -> (FieldRef, CompressorSpec, MetricSelection);

/// One serve workload: its open-loop rates and its request mix.
pub struct ServeWorkload {
    /// Offered load of the low, mid and high rungs, requests per modeled
    /// second.
    pub rates: [f64; 3],
    /// Independent cold-start bursts the capacity is measured over. On
    /// `serve-hot` capacity is set by the few dozen misses of one cold
    /// cache, so one burst is a small sample: its capacity varied 13%
    /// between seeds; twelve bursts pool twelve times the misses.
    pub bursts: u64,
    /// Draw one request's (field, codec, metric selection) for a seed.
    pub draw: Draw,
}

pub const HOT: ServeWorkload = ServeWorkload {
    rates: [1_000.0, 64_000.0, 192_000.0],
    bursts: 12,
    draw: draw_hot,
};

pub const CHURN: ServeWorkload = ServeWorkload {
    rates: [1_000.0, 8_000.0, 16_000.0],
    bursts: 1,
    draw: draw_churn,
};

fn u01(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn uniform(rng: &mut SplitMix64, n: usize) -> usize {
    ((u01(rng) * n as f64) as usize).min(n - 1)
}

/// Geometric skew: index 0 with probability 1/2, 1 with 1/4, …
fn skewed(rng: &mut SplitMix64, n: usize) -> usize {
    let mut i = 0;
    while i + 1 < n && u01(rng) < 0.5 {
        i += 1;
    }
    i
}

fn codecs() -> [CompressorSpec; 3] {
    [
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::Zfp(12.0),
        CompressorSpec::Sz(ErrorBound::Abs(1e-2)),
    ]
}

fn selections() -> [MetricSelection; 3] {
    [
        MetricSelection::none().with(Metric::Psnr).with(Metric::Mse),
        MetricSelection::none()
            .with(Metric::Psnr)
            .with(Metric::Ssim),
        MetricSelection::all(),
    ]
}

fn draw_hot(rng: &mut SplitMix64, seed: u64) -> (FieldRef, CompressorSpec, MetricSelection) {
    const HOT_FIELDS: [(AppDataset, usize); 6] = [
        (AppDataset::Nyx, 0),
        (AppDataset::Miranda, 0),
        (AppDataset::Hurricane, 0),
        (AppDataset::ScaleLetkf, 0),
        (AppDataset::Nyx, 1),
        (AppDataset::Miranda, 1),
    ];
    let (ds, idx) = HOT_FIELDS[skewed(rng, HOT_FIELDS.len())];
    let field = FieldRef::new(ds, idx, GenOptions::scaled(32).with_seed(seed));
    (
        field,
        codecs()[skewed(rng, 3)],
        selections()[skewed(rng, 3)].clone(),
    )
}

fn draw_churn(rng: &mut SplitMix64, seed: u64) -> (FieldRef, CompressorSpec, MetricSelection) {
    let ds = AppDataset::ALL[uniform(rng, 4)];
    let generation = seed
        .wrapping_mul(256)
        .wrapping_add(uniform(rng, 256) as u64);
    let field = FieldRef::new(ds, 0, GenOptions::scaled(32).with_seed(generation));
    (
        field,
        codecs()[uniform(rng, 3)],
        selections()[uniform(rng, 3)].clone(),
    )
}

/// One rung's trace. The request sequence comes from one SplitMix64
/// stream and the arrivals from another, both seeded by `seed` (and the
/// sequence number `stream`) alone: arrival times never depend on anything
/// the system does, and rungs sharing a stream carry the same requests.
/// `rate == None` is a burst: every request arrives at t = 0.
pub fn make_trace(w: &ServeWorkload, seed: u64, stream: u64, rate: Option<f64>) -> RequestTrace {
    let mut draws =
        SplitMix64::new(seed ^ 0x5e7e_d7a4_c0ff_ee00 ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut gaps = SplitMix64::new(seed ^ 0xa77f_1a1e_0000_0001);
    let mut now = 0.0f64;
    let requests = (0..REQUESTS_PER_RUNG)
        .map(|i| {
            let (field, compressor, metrics) = (w.draw)(&mut draws, seed);
            if let Some(rate) = rate {
                // Exponential inter-arrival gap: a Poisson process.
                now += -(1.0 - u01(&mut gaps)).ln() / rate;
            }
            ServeRequest {
                tenant: (i % TENANTS) as u32,
                arrival_s: now,
                request: AssessRequest {
                    field,
                    compressor,
                    cfg: AssessConfig {
                        max_lag: 3,
                        bins: 32,
                        metrics,
                        ..Default::default()
                    },
                },
            }
        })
        .collect();
    RequestTrace { requests }
}

fn config() -> ServeConfig {
    ServeConfig::new(FleetSpec::nvlink(8))
}

/// Modeled latencies of a rung, refused and failed requests as +∞.
fn latencies(r: &ServeReport) -> Vec<f64> {
    r.verdicts
        .iter()
        .map(|v| match v {
            Verdict::Done { latency_s, .. } => *latency_s,
            _ => f64::INFINITY,
        })
        .collect()
}

fn refused_or_failed(r: &ServeReport) -> u64 {
    (r.failed + r.saturated + r.quota_refused + r.admission_refused) as u64
}

/// Identity of a generated field (what the engine generates once per
/// batch).
type FieldId = (AppDataset, usize, usize, usize, u64, usize);

fn field_id(f: &FieldRef) -> FieldId {
    (
        f.dataset,
        f.index,
        f.opts.scale,
        f.opts.scale_z,
        f.opts.seed,
        f.steps,
    )
}

pub fn run(w: &ServeWorkload, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    // Rungs: the three rates, then the bursts; the first burst carries the
    // rates' request sequence, the others fresh ones.
    let traces: Vec<RequestTrace> = w
        .rates
        .iter()
        .map(|&r| make_trace(w, cfg.seed, 0, Some(r)))
        .chain((0..w.bursts).map(|k| make_trace(w, cfg.seed, k, None)))
        .collect();

    // Timed loop: whole passes over the rungs, each rung on a fresh server.
    // `run_trace` is the timed work; opening each server (fleet
    // validation, calibration probe, cache) is the set-up sample.
    let mut first: Option<Vec<ServeReport>> = None;
    let (mut setup, mut mismatches, mut failed, mut errors) = (Vec::new(), 0, 0u64, Vec::new());
    let loop_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let pass_rates = timed_loop(loop_s, 2, || {
        let (mut wall, mut completed, mut reports) = (0.0, 0usize, Vec::new());
        for t in &traces {
            let (s, server) = time(|| Server::new(config()));
            setup.push(s);
            let mut server = match server {
                Ok(s) => s,
                Err(e) => {
                    errors.push(e.to_string());
                    return 0.0;
                }
            };
            let (s, r) = time(|| server.run_trace(t));
            wall += s;
            completed += r.completed;
            failed += refused_or_failed(&r);
            reports.push(r);
        }
        match &first {
            None => first = Some(reports),
            Some(f) => {
                mismatches += usize::from(
                    f.iter()
                        .zip(&reports)
                        .any(|(a, b)| a.verdicts != b.verdicts),
                )
            }
        }
        completed as f64 / wall
    });
    out.attempted = (REQUESTS_PER_RUNG * traces.len() * pass_rates.len()) as u64;
    out.failed = failed;
    let Some(reports) = first else {
        out.check("service_opens", false, errors.join("; "));
        return out;
    };
    out.check(
        "passes_bit_identical",
        mismatches == 0 && errors.is_empty(),
        format!("{mismatches} mismatched passes, {} errors", errors.len()),
    );
    let bursts = &reports[RATE_RUNGS.len()..];
    let saturated: usize = bursts.iter().map(|r| r.saturated).sum();
    out.check(
        "burst_never_saturates",
        saturated == 0,
        format!("{saturated} saturated refusals"),
    );
    check_psnr_consistency(&mut out, &traces, &reports);
    let thin: Vec<String> = reports
        .iter()
        .zip(RATE_RUNGS)
        .filter(|(r, _)| tail_percentile(r.completed).is_none_or(|p| p < 99.0))
        .map(|(r, name)| format!("{name}: {}", r.completed))
        .collect();
    out.check(
        "rungs_support_p99",
        thin.is_empty(),
        format!(
            "rungs with under ten samples beyond p99: [{}]",
            thin.join(", ")
        ),
    );

    let untraced_jps = median(&pass_rates);
    if !cfg.trace {
        out.metric("setup_s", median(&setup), setup.len());
        out.metric("wall_jobs_per_s", untraced_jps, pass_rates.len());
        // Every burst arrives at t = 0, so its makespan is its span.
        let completed: usize = bursts.iter().map(|r| r.completed).sum();
        let span: f64 = bursts.iter().map(|r| r.makespan_s).sum();
        out.metric("modeled_jobs_per_s", completed as f64 / span, bursts.len());
        for (r, rung) in reports.iter().zip(RATE_RUNGS) {
            let lat = latencies(r);
            out.metric(
                &format!("modeled_p50_s.{rung}"),
                percentile(&lat, 50.0),
                lat.len(),
            );
            out.metric(
                &format!("modeled_p99_s.{rung}"),
                percentile(&lat, 99.0),
                lat.len(),
            );
        }
        return out;
    }
    traced(&mut out, &traces, &reports, untraced_jps);
    out
}

/// Every completed request for the same (field, codec) must carry the same
/// PSNR bits, whether it was a miss, a partial hit or a full hit.
fn check_psnr_consistency(out: &mut Outcome, traces: &[RequestTrace], reports: &[ServeReport]) {
    let mut seen: HashMap<(FieldId, String), u64> = HashMap::new();
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut conflicts = 0usize;
    for (t, r) in traces.iter().zip(reports) {
        for (req, v) in t.requests.iter().zip(&r.verdicts) {
            if let Verdict::Done {
                psnr_bits, cache, ..
            } = v
            {
                *outcomes.entry(cache.label()).or_default() += 1;
                let key = (field_id(&req.request.field), req.request.compressor.label());
                conflicts += usize::from(*seen.entry(key).or_insert(*psnr_bits) != *psnr_bits);
            }
        }
    }
    out.check(
        "psnr_independent_of_cache_outcome",
        conflicts == 0,
        format!(
            "{conflicts} conflicts over {} keys; outcomes {outcomes:?}",
            seen.len()
        ),
    );
}

/// What the traced offer/drain replay of one rung observed.
#[derive(Default)]
struct Replay {
    verdicts: Vec<Option<Verdict>>,
    fill: Vec<f64>,
    queue: Vec<f64>,
    exec: Vec<f64>,
    latency: Vec<f64>,
    /// Largest |fill + queue + exec − latency| over the rung's requests.
    max_gap: f64,
    batch_exec: Vec<f64>,
    refused: [u64; 3],
    generate_calls: u64,
    executed: u64,
    assessed_bytes: u64,
    pattern_s: [f64; 3],
    counters: Counters,
    e2e: EndToEnd,
    wall_s: f64,
    completed: usize,
    cache: CacheStats,
}

impl Replay {
    /// Drain the server at `now`, mirroring `Server::run_trace`: batch
    /// start is max(previous completion, drain time), which splits each
    /// request's latency into batch-fill wait, queue wait and execution.
    fn drain(
        &mut self,
        tr: &mut Tracer,
        server: &mut Server,
        trace: &RequestTrace,
        slots: &HashMap<JobTicket, usize>,
        now: f64,
        prev_completion: &mut f64,
    ) {
        let id = self.batch_exec.len() as u64;
        let drained = tr.span("engine", "drain", Some(id), |_| server.drain(now));
        let Some(&(_, _, _, completion, _)) = drained.first() else {
            return;
        };
        let start = prev_completion.max(now);
        *prev_completion = completion;
        self.batch_exec.push(completion - start);
        let mut fields = HashSet::new();
        for (ticket, _tenant, arrival, completion, result) in drained {
            let slot = slots[&ticket];
            fields.insert(field_id(&trace.requests[slot].request.field));
            let verdict = match result.outcome {
                JobOutcome::Done(m) => {
                    let (fill, queue, exec) = (now - arrival, start - now, completion - start);
                    let latency = completion - arrival;
                    self.max_gap = self.max_gap.max((fill + queue + exec - latency).abs());
                    self.fill.push(fill);
                    self.queue.push(queue);
                    self.exec.push(exec);
                    self.latency.push(latency);
                    self.completed += 1;
                    if result.cache != CacheOutcome::Hit {
                        self.executed += 1;
                    }
                    self.assessed_bytes += m.assessed_bytes;
                    self.pattern_s[0] += m.pattern_times.p1;
                    self.pattern_s[1] += m.pattern_times.p2;
                    self.pattern_s[2] += m.pattern_times.p3;
                    for run in &m.runs {
                        self.counters.merge(&run.counters);
                    }
                    if let Some(e) = m.e2e {
                        self.e2e.h2d_s += e.h2d_s;
                        self.e2e.d2h_s += e.d2h_s;
                        self.e2e.compute_s += e.compute_s;
                        self.e2e.serialized_s += e.serialized_s;
                        self.e2e.overlapped_s += e.overlapped_s;
                    }
                    Verdict::Done {
                        latency_s: latency,
                        cache: result.cache,
                        assessed_bytes: m.assessed_bytes,
                        psnr_bits: m.psnr.to_bits(),
                    }
                }
                JobOutcome::Failed(msg) => Verdict::Failed(msg),
            };
            self.verdicts[slot] = Some(verdict);
        }
        self.generate_calls += fields.len() as u64;
    }
}

/// Drive one rung through `Server::offer` / `Server::drain` exactly as
/// `run_trace` does, with a span around every call.
fn replay(tr: &mut Tracer, trace: &RequestTrace) -> Replay {
    let mut server = Server::new(config()).expect("the service opened in the untraced run");
    let mut r = Replay {
        verdicts: vec![None; trace.requests.len()],
        ..Default::default()
    };
    let mut slots = HashMap::new();
    let mut prev_completion = 0.0f64;
    let t0 = Instant::now();
    for (i, req) in trace.requests.iter().enumerate() {
        match tr.span("serve", "offer", Some(i as u64), |_| server.offer(req)) {
            Ok(ticket) => {
                slots.insert(ticket, i);
            }
            Err(e) => {
                let k = match e {
                    ServeError::QuotaExceeded { .. } => 0,
                    ServeError::Saturated { .. } => 1,
                    ServeError::Admission(_) | ServeError::BadRequest(_) => 2,
                };
                r.refused[k] += 1;
                r.verdicts[i] = Some(Verdict::Refused(e));
                continue;
            }
        }
        if server.batch_ready() {
            r.drain(
                tr,
                &mut server,
                trace,
                &slots,
                req.arrival_s,
                &mut prev_completion,
            );
        }
    }
    let end = trace.requests.last().map_or(0.0, |q| q.arrival_s);
    r.drain(tr, &mut server, trace, &slots, end, &mut prev_completion);
    r.wall_s = t0.elapsed().as_secs_f64();
    r.cache = server.cache_stats();
    r
}

/// The traced run: replay every rung, then time the per-call costs of the
/// layers the engine calls internally on the trace's distinct keys.
fn traced(out: &mut Outcome, traces: &[RequestTrace], reports: &[ServeReport], untraced_jps: f64) {
    let tr = &mut out.tracer;
    let replays: Vec<Replay> = traces.iter().map(|t| replay(tr, t)).collect();

    // Stand-alone per-call costs on distinct keys, in trace order.
    let requests = traces.iter().flat_map(|t| &t.requests);
    let mut fields: Vec<&FieldRef> = Vec::new();
    let mut pairs: Vec<&AssessRequest> = Vec::new();
    let (mut seen_f, mut seen_p) = (HashSet::new(), HashSet::new());
    for q in requests {
        let f = &q.request.field;
        if fields.len() < STANDALONE_KEYS && seen_f.insert(field_id(f)) {
            fields.push(f);
        }
        if pairs.len() < STANDALONE_KEYS
            && seen_p.insert((field_id(f), q.request.compressor.label()))
        {
            pairs.push(&q.request);
        }
    }
    let caps = BackendCaps::v100();
    let executor = FleetSpec::nvlink(8).executor();
    let (mut gen_bytes, mut rt_bytes, mut ratios, mut max_slabs) = (0.0, 0.0, Vec::new(), 1);
    for (i, f) in fields.iter().enumerate() {
        let data = tr.span("data", "generate", Some(i as u64), |_| f.generate().data);
        tr.span("cache", "digest", Some(i as u64), |_| {
            std::hint::black_box(field_digest(&data))
        });
        gen_bytes += data.shape().len() as f64 * 4.0;
        let s = data.shape();
        max_slabs = max_slabs.max(
            resolve_slabs(
                Default::default(),
                s.len() as u64 * 8,
                s.nz() * s.nw(),
                None,
            )
            .unwrap_or(1),
        );
    }
    for (i, q) in pairs.iter().enumerate() {
        let id = Some(i as u64);
        let orig = q.field.generate().data;
        let Ok((dec, stats)) = tr.span("compress", "roundtrip", id, |_| {
            q.compressor.build().roundtrip(&orig)
        }) else {
            continue;
        };
        rt_bytes += orig.shape().len() as f64 * 4.0;
        ratios.push(stats.ratio());
        let plan = tr.span("plan", "lower_verify", id, |_| {
            let plan = AssessPlan::lower(&q.cfg);
            std::hint::black_box(verify(&plan, orig.shape(), &q.cfg, &caps));
            plan
        });
        tr.span("exec", "run_plan", id, |_| {
            std::hint::black_box(executor.run_plan(&plan, &orig, &dec, &q.cfg).is_ok())
        });
    }

    // Checks: the replay reproduces `run_trace` bit for bit, and the
    // latency decomposition adds up.
    let diverged: Vec<usize> = replays
        .iter()
        .zip(reports)
        .enumerate()
        .filter(|(_, (rp, rep))| {
            rp.verdicts
                .iter()
                .map(|v| v.as_ref())
                .ne(rep.verdicts.iter().map(Some))
        })
        .map(|(i, _)| i)
        .collect();
    out.check(
        "replay_matches_run_trace",
        diverged.is_empty(),
        format!("diverging rungs (low, mid, high, bursts…): {diverged:?}"),
    );
    let worst = replays
        .iter()
        .map(|r| {
            let means = mean(&r.fill) + mean(&r.queue) + mean(&r.exec);
            r.max_gap.max((means - mean(&r.latency)).abs())
        })
        .fold(0.0, f64::max);
    out.check(
        "latency_decomposition_sums",
        worst <= 1e-12,
        format!("largest |fill + queue + exec - latency| {worst:.3e} s"),
    );

    let tr = &out.tracer;
    let all = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let mut cache = CacheStats::default();
    let mut counters = Counters::default();
    for r in &replays {
        cache.hits += r.cache.hits;
        cache.partial_hits += r.cache.partial_hits;
        cache.misses += r.cache.misses;
        cache.insertions += r.cache.insertions;
        cache.evictions += r.cache.evictions;
        counters.merge(&r.counters);
    }
    let lookups = cache.lookups().max(1) as f64;
    let batch_exec: Vec<f64> = replays.iter().flat_map(|r| r.batch_exec.clone()).collect();
    let fleet_s = 8.0 * batch_exec.iter().sum::<f64>();
    let e2e = |f: fn(&EndToEnd) -> f64| replays.iter().map(|r| f(&r.e2e)).sum::<f64>();
    let (gen, rt) = (
        tr.durations("data", "generate"),
        tr.durations("compress", "roundtrip"),
    );
    let offers = tr.durations("serve", "offer");
    let drains = tr.durations("engine", "drain");
    let n = |v: &[f64]| v.len();
    let mut rows = vec![
        ("data.generate_ms".to_string(), mean(&gen) * 1e3, n(&gen)),
        (
            "data.generate_calls".into(),
            all(|r| r.generate_calls as f64),
            1,
        ),
        (
            "data.generate_mb_per_s".into(),
            gen_bytes / 1e6 / gen.iter().sum::<f64>(),
            n(&gen),
        ),
        ("compress.roundtrip_ms".into(), mean(&rt) * 1e3, n(&rt)),
        ("compress.calls".into(), all(|r| r.executed as f64), 1),
        (
            "compress.mb_per_s".into(),
            rt_bytes / 1e6 / rt.iter().sum::<f64>(),
            n(&rt),
        ),
        ("compress.ratio_mean".into(), mean(&ratios), ratios.len()),
        ("cache.hit_rate".into(), cache.hits as f64 / lookups, 1),
        (
            "cache.partial_rate".into(),
            cache.partial_hits as f64 / lookups,
            1,
        ),
        ("cache.miss_rate".into(), cache.misses as f64 / lookups, 1),
        ("cache.insertions".into(), cache.insertions as f64, 1),
        ("cache.evictions".into(), cache.evictions as f64, 1),
        (
            "cache.digest_ms".into(),
            mean(&tr.durations("cache", "digest")) * 1e3,
            n(&gen),
        ),
        (
            "cache.assessed_mb".into(),
            all(|r| r.assessed_bytes as f64) / 1e6,
            1,
        ),
        (
            "plan.lower_verify_us".into(),
            mean(&tr.durations("plan", "lower_verify")) * 1e6,
            n(&rt),
        ),
        ("plan.slabs".into(), max_slabs as f64, 1),
        (
            "exec.run_plan_ms".into(),
            mean(&tr.durations("exec", "run_plan")) * 1e3,
            n(&rt),
        ),
        (
            "kernels.p1_modeled_ms".into(),
            all(|r| r.pattern_s[0]) * 1e3,
            1,
        ),
        (
            "kernels.p2_modeled_ms".into(),
            all(|r| r.pattern_s[1]) * 1e3,
            1,
        ),
        (
            "kernels.p3_modeled_ms".into(),
            all(|r| r.pattern_s[2]) * 1e3,
            1,
        ),
        (
            "kernels.global_mb".into(),
            counters.global_bytes() as f64 / 1e6,
            1,
        ),
        (
            "kernels.lane_gflop".into(),
            counters.lane_flops as f64 / 1e9,
            1,
        ),
        (
            "kernels.flops_per_byte".into(),
            counters.lane_flops as f64 / counters.global_bytes().max(1) as f64,
            1,
        ),
        ("kernels.launches".into(), counters.launches as f64, 1),
        (
            "kernels.shared_accesses".into(),
            counters.shared_accesses as f64,
            1,
        ),
        ("gpusim.h2d_ms".into(), e2e(|e| e.h2d_s) * 1e3, 1),
        ("gpusim.d2h_ms".into(), e2e(|e| e.d2h_s) * 1e3, 1),
        ("gpusim.compute_ms".into(), e2e(|e| e.compute_s) * 1e3, 1),
        (
            "gpusim.overlap_saving".into(),
            1.0 - e2e(|e| e.overlapped_s) / e2e(|e| e.serialized_s).max(f64::MIN_POSITIVE),
            1,
        ),
        ("gpusim.h2d_busy".into(), e2e(|e| e.h2d_s) / fleet_s, 1),
        (
            "gpusim.compute_busy".into(),
            e2e(|e| e.compute_s) / fleet_s,
            1,
        ),
        ("gpusim.d2h_busy".into(), e2e(|e| e.d2h_s) / fleet_s, 1),
        (
            "sched.utilization".into(),
            e2e(|e| e.overlapped_s) / fleet_s,
            1,
        ),
        ("engine.drain_ms".into(), mean(&drains) * 1e3, n(&drains)),
        ("engine.batches".into(), batch_exec.len() as f64, 1),
        (
            "engine.batch_makespan_ms".into(),
            mean(&batch_exec) * 1e3,
            batch_exec.len(),
        ),
        ("serve.offer_us".into(), mean(&offers) * 1e6, n(&offers)),
        (
            "serve.refused_quota".into(),
            all(|r| r.refused[0] as f64),
            1,
        ),
        (
            "serve.refused_saturated".into(),
            all(|r| r.refused[1] as f64),
            1,
        ),
        (
            "serve.refused_admission".into(),
            all(|r| r.refused[2] as f64),
            1,
        ),
        (
            "trace.overhead".into(),
            1.0 - all(|r| r.completed as f64) / all(|r| r.wall_s) / untraced_jps,
            1,
        ),
    ];
    for (r, rung) in replays.iter().zip(RATE_RUNGS) {
        rows.push((
            format!("serve.fill_wait_s.{rung}"),
            mean(&r.fill),
            r.fill.len(),
        ));
        rows.push((
            format!("serve.queue_wait_s.{rung}"),
            mean(&r.queue),
            r.queue.len(),
        ));
        rows.push((format!("serve.exec_s.{rung}"), mean(&r.exec), r.exec.len()));
    }
    for (name, value, samples) in rows {
        out.metric(&name, value, samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(t: &RequestTrace) -> Vec<u64> {
        t.requests.iter().map(|r| r.arrival_s.to_bits()).collect()
    }

    #[test]
    fn traces_are_bit_deterministic_per_seed() {
        for w in [&HOT, &CHURN] {
            let (a, b) = (
                make_trace(w, 7, 0, Some(1000.0)),
                make_trace(w, 7, 0, Some(1000.0)),
            );
            assert_eq!(arrivals(&a), arrivals(&b));
            for (x, y) in a.requests.iter().zip(&b.requests) {
                assert_eq!(field_id(&x.request.field), field_id(&y.request.field));
                assert_eq!(x.request.compressor.label(), y.request.compressor.label());
                assert_eq!(x.request.cfg, y.request.cfg);
                assert_eq!(x.tenant, y.tenant);
            }
            let c = make_trace(w, 8, 0, Some(1000.0));
            assert_ne!(arrivals(&a), arrivals(&c));
        }
    }

    #[test]
    fn arrivals_depend_on_seed_and_rate_only() {
        // Arrivals are drawn before anything runs and from their own
        // stream: the same seed gives the same request sequence at every
        // rate, and time scales exactly with the rate.
        let slow = make_trace(&CHURN, 3, 0, Some(1000.0));
        let fast = make_trace(&CHURN, 3, 0, Some(4000.0));
        let burst = make_trace(&CHURN, 3, 0, None);
        for ((s, f), b) in slow
            .requests
            .iter()
            .zip(&fast.requests)
            .zip(&burst.requests)
        {
            assert_eq!(field_id(&s.request.field), field_id(&f.request.field));
            assert_eq!(field_id(&s.request.field), field_id(&b.request.field));
            assert!((s.arrival_s - 4.0 * f.arrival_s).abs() <= 1e-12 * s.arrival_s.max(1.0));
            assert_eq!(b.arrival_s, 0.0);
        }
        let mean_gap = slow.requests.last().unwrap().arrival_s / REQUESTS_PER_RUNG as f64;
        assert!((mean_gap - 1e-3).abs() < 2e-4, "mean gap {mean_gap}");
    }

    #[test]
    fn round_robin_tenants_never_share_a_window() {
        let t = make_trace(&HOT, 1, 0, None);
        for w in t.requests.windows(8) {
            let tenants: HashSet<u32> = w.iter().map(|r| r.tenant).collect();
            assert_eq!(tenants.len(), 8);
        }
    }

    #[test]
    fn hot_is_skewed_and_churn_is_spread() {
        let distinct = |t: &RequestTrace| {
            t.requests
                .iter()
                .map(|r| (field_id(&r.request.field), r.request.compressor.label()))
                .collect::<HashSet<_>>()
                .len()
        };
        assert!(distinct(&make_trace(&HOT, 5, 0, None)) <= 18);
        assert!(distinct(&make_trace(&CHURN, 5, 0, None)) > 700);
    }
}
