//! Content-addressed result cache — the memory of the resident engine.
//!
//! The cache key is *content*, not provenance: the digest of the original
//! field's bytes, the compressor configuration's canonical label, and the
//! value-affecting assessment parameters. Two requests that name a field
//! differently but generate identical bytes share an entry; two that
//! differ in any value-affecting knob never collide.
//!
//! The metric set is deliberately **not** part of the key. A cached report
//! holds whatever sections earlier requests computed; a new request's
//! [`MetricSelection`] is answered by *coverage*, not key equality:
//!
//! * every needed pass already has its section cached → **full hit**, no
//!   assessment runs at all;
//! * the P1 scalar moments are cached but some needed section is missing →
//!   **partial hit**: the engine lowers a *residual plan* of only the
//!   missing passes ([`crate::plan::AssessPlan::residual`]) and seeds it
//!   with the cached scalars — the re-run never touches work the cache
//!   already paid for, and the merged report is bit-identical to a cold
//!   full run because every pass consumes the same inputs either way;
//! * nothing cached → **miss**, full plan runs, result is absorbed.
//!
//! Eviction is exact LRU over a bounded entry count, driven by a logical
//! access clock (no wall time — the engine is deterministic end to end).

use crate::config::AssessConfig;
use crate::plan::PassKind;
use crate::report::AnalysisReport;
use std::collections::BTreeMap;
use zc_compress::CompressionStats;
use zc_tensor::Tensor;

/// FNV-1a 64-bit digest of a field's shape and exact bit content.
///
/// Content addressing demands bit-exactness: two floats that compare equal
/// but differ in bits (`-0.0` vs `0.0`) hash differently, which is the
/// conservative direction — a spurious miss costs a re-run, a spurious hit
/// would serve wrong metrics.
pub fn field_digest(t: &Tensor<f32>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let s = t.shape();
    for d in [s.nx(), s.ny(), s.nz(), s.nw()] {
        for b in (d as u64).to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    }
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    }
    h
}

/// Fill the sections `into` lacks from `from` (a residual run computes
/// exactly the sections its cached report lacked).
pub(crate) fn merge_sections(into: &mut AnalysisReport, from: &AnalysisReport) {
    if into.histograms.is_none() {
        into.histograms = from.histograms.clone();
    }
    if into.stencil.is_none() {
        into.stencil = from.stencil.clone();
    }
    if into.ssim.is_none() {
        into.ssim = from.ssim;
    }
}

/// The value-affecting subset of [`AssessConfig`], in hashable form.
///
/// Tiling knobs are deliberately excluded: slab-tiled execution is
/// bit-identical to monolithic by construction (the streaming-executor
/// differential tier locks this down), so a result computed under one
/// tiling answers a request under any other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CfgKey {
    /// Histogram bin count (pattern-1 PDFs).
    pub bins: usize,
    /// Autocorrelation lag depth (pattern 2).
    pub max_lag: usize,
    /// SSIM window extent (pattern 3).
    pub window: usize,
    /// SSIM window step (pattern 3).
    pub step: usize,
    /// SSIM K1 stabilizer, as exact bits.
    pub k1: u64,
    /// SSIM K2 stabilizer, as exact bits.
    pub k2: u64,
}

impl CfgKey {
    /// Project the value-affecting knobs out of a full config.
    pub fn of(cfg: &AssessConfig) -> Self {
        CfgKey {
            bins: cfg.bins,
            max_lag: cfg.max_lag,
            window: cfg.ssim.window,
            step: cfg.ssim.step,
            k1: cfg.ssim.k1.to_bits(),
            k2: cfg.ssim.k2.to_bits(),
        }
    }
}

/// The physical cache key: what was assessed, under which codec, with
/// which value-affecting parameters. The logical key's remaining axis —
/// *which metrics* — is handled by per-entry coverage, not key equality,
/// so subset and superset requests find the same entry.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`field_digest`] of the original field.
    pub digest: u64,
    /// Canonical compressor label ([`zc_compress::CompressorSpec::label`] —
    /// proven injective over distinct configurations by its own tests).
    pub compressor: String,
    /// Value-affecting assessment parameters.
    pub cfg: CfgKey,
}

/// One cached result: the union of every section computed for this key so
/// far, plus the codec stats from the first computing run.
#[derive(Clone, Debug)]
struct Entry {
    report: AnalysisReport,
    stats: CompressionStats,
    last_used: u64,
}

impl Entry {
    /// Does the stored report already carry this pass's section?
    fn covers(&self, kind: PassKind) -> bool {
        match kind {
            // The scalar moments ride along with every stored report, and
            // the meta pass executes nothing.
            PassKind::P1Scalars | PassKind::CompressionMeta => true,
            PassKind::P1Hist => self.report.histograms.is_some(),
            PassKind::P2Stencil => self.report.stencil.is_some(),
            PassKind::P3Ssim => self.report.ssim.is_some(),
        }
    }
}

/// What a lookup found.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// Every needed pass is covered: the stored report answers the request
    /// outright, no assessment work at all.
    Full(Box<(AnalysisReport, CompressionStats)>),
    /// The scalar moments are cached but some needed section is missing:
    /// run `AssessPlan::residual(cfg, &covered)` seeded with `cached.p1`,
    /// fill `cached`'s missing sections from the result, then
    /// [`ResultCache::absorb`] the merged report.
    Partial {
        /// The cached report: the residual run's seed (its pattern-1 raw
        /// moments) and the sections the residual does not recompute.
        cached: Box<AnalysisReport>,
        /// Pass kinds the cache already covers (excluded from the residual).
        covered: Vec<PassKind>,
    },
    /// Nothing cached for this key.
    Miss,
}

/// Cumulative cache traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered entirely from the cache.
    pub hits: u64,
    /// Lookups answered by a seeded residual run.
    pub partial_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Reports absorbed (new entries + section merges).
    pub insertions: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// Fields the engine synthesized: each distinct field of a batch at
    /// most once, and none for a full hit whose digest it remembers
    /// (always 0 from a bare [`ResultCache`]).
    pub fields_generated: u64,
    /// Distinct batch fields keyed from the engine's digest memo without
    /// generating their data (always 0 from a bare [`ResultCache`]).
    pub digests_reused: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.partial_hits + self.misses
    }

    /// Full hits / lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Partial hits / lookups (0 when idle).
    pub fn partial_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.partial_hits as f64 / n as f64
        }
    }
}

/// Bounded content-addressed result cache with exact-LRU eviction.
#[derive(Clone, Debug)]
pub struct ResultCache {
    map: BTreeMap<CacheKey, Entry>,
    budget: usize,
    clock: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `budget` entries (0 disables caching:
    /// every lookup misses and absorbed entries are evicted immediately).
    pub fn new(budget: usize) -> Self {
        ResultCache {
            map: BTreeMap::new(),
            budget,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Look up a key against the passes the request needs. Touches the
    /// entry's LRU stamp on any kind of hit.
    pub fn lookup(&mut self, key: &CacheKey, needed: &[PassKind]) -> Lookup {
        self.clock += 1;
        let Some(e) = self.map.get_mut(key) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        e.last_used = self.clock;
        if needed.iter().all(|&k| e.covers(k)) {
            self.stats.hits += 1;
            return Lookup::Full(Box::new((e.report.clone(), e.stats)));
        }
        self.stats.partial_hits += 1;
        let covered = needed.iter().copied().filter(|&k| e.covers(k)).collect();
        Lookup::Partial {
            cached: Box::new(e.report.clone()),
            covered,
        }
    }

    /// Absorb a computed report: merge its sections into the existing
    /// entry (a residual run fills exactly the sections the entry lacked)
    /// or insert a new one, then return the merged report — the report a
    /// partial-hit request must read its metrics from, since the residual
    /// assessment alone lacks the cached sections.
    ///
    /// Compression stats are part of the key's identity (same field, same
    /// codec → same round-trip), so the first stored value stands.
    pub fn absorb(
        &mut self,
        key: CacheKey,
        report: &AnalysisReport,
        stats: CompressionStats,
    ) -> AnalysisReport {
        self.clock += 1;
        self.stats.insertions += 1;
        let merged = match self.map.get_mut(&key) {
            Some(e) => {
                merge_sections(&mut e.report, report);
                e.last_used = self.clock;
                e.report.clone()
            }
            None => {
                let mut stored = report.clone();
                // The cache stores assessment results; codec stats live in
                // their own column and are re-attached per request.
                stored.compression = None;
                self.map.insert(
                    key,
                    Entry {
                        report: stored.clone(),
                        stats,
                        last_used: self.clock,
                    },
                );
                stored
            }
        };
        while self.map.len() > self.budget {
            // Exact LRU: the entry just touched carries the max clock, so
            // it is never the victim (unless the budget is zero).
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map over budget");
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
        merged
    }

    /// Whether the cache can hold anything (a 0-entry budget disables it).
    pub(crate) fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_tensor::Shape;

    fn field(seed: f32) -> Tensor<f32> {
        Tensor::from_fn(Shape::d3(8, 6, 4), |[x, y, z, _]| {
            (x as f32 * 0.3 + seed).sin() + y as f32 * 0.1 + z as f32 * 0.01
        })
    }

    fn key_for(t: &Tensor<f32>) -> CacheKey {
        CacheKey {
            digest: field_digest(t),
            compressor: "sz(rel=1e-3)".into(),
            cfg: CfgKey::of(&AssessConfig::default()),
        }
    }

    fn report_for(t: &Tensor<f32>) -> (AnalysisReport, CompressionStats) {
        use crate::exec::{Executor, SerialZc};
        let dec = t.map(|v| v + 1e-4);
        let a = SerialZc
            .assess(t, &dec, &AssessConfig::default())
            .expect("assess");
        (a.report, CompressionStats::default())
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = field(0.0);
        let b = field(0.0);
        let c = field(1.0);
        assert_eq!(field_digest(&a), field_digest(&b));
        assert_ne!(field_digest(&a), field_digest(&c));
        // Same data, different shape → different digest.
        let flat = Tensor::from_fn(Shape::d3(192, 1, 1), |[x, _, _, _]| a.as_slice()[x]);
        assert_eq!(flat.shape().len(), a.shape().len());
        assert_ne!(field_digest(&flat), field_digest(&a));
    }

    #[test]
    fn miss_then_hit_then_partial_coverage() {
        let t = field(0.0);
        let (full, stats) = report_for(&t);
        let mut cache = ResultCache::new(8);
        let key = key_for(&t);
        assert!(matches!(
            cache.lookup(&key, &[PassKind::P1Scalars]),
            Lookup::Miss
        ));
        // Store a scalars+ssim-only report (histograms/stencil stripped).
        let mut narrow = full.clone();
        narrow.histograms = None;
        narrow.stencil = None;
        cache.absorb(key.clone(), &narrow, stats);
        // Needing ssim only → full hit.
        assert!(matches!(
            cache.lookup(&key, &[PassKind::P1Scalars, PassKind::P3Ssim]),
            Lookup::Full(_)
        ));
        // Needing stencil → partial, with scalars + ssim covered.
        let Lookup::Partial { covered, cached } = cache.lookup(
            &key,
            &[PassKind::P1Scalars, PassKind::P2Stencil, PassKind::P3Ssim],
        ) else {
            panic!("expected partial")
        };
        assert_eq!(cached.p1, full.p1);
        assert!(covered.contains(&PassKind::P1Scalars));
        assert!(covered.contains(&PassKind::P3Ssim));
        assert!(!covered.contains(&PassKind::P2Stencil));
        // Absorb the residual's stencil section: merged report has both.
        let mut residual = full.clone();
        residual.histograms = None;
        residual.ssim = None;
        let merged = cache.absorb(key.clone(), &residual, stats);
        assert!(merged.stencil.is_some() && merged.ssim.is_some());
        assert!(matches!(
            cache.lookup(&key, &[PassKind::P2Stencil, PassKind::P3Ssim]),
            Lookup::Full(_)
        ));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.partial_hits), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_coldest_entry() {
        let mut cache = ResultCache::new(2);
        let fields: Vec<_> = (0..3).map(|i| field(i as f32)).collect();
        let reports: Vec<_> = fields.iter().map(report_for).collect();
        let keys: Vec<_> = fields.iter().map(key_for).collect();
        cache.absorb(keys[0].clone(), &reports[0].0, reports[0].1);
        cache.absorb(keys[1].clone(), &reports[1].0, reports[1].1);
        // Touch key 0 so key 1 becomes the LRU victim.
        let _ = cache.lookup(&keys[0], &[PassKind::P1Scalars]);
        cache.absorb(keys[2].clone(), &reports[2].0, reports[2].1);
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup(&keys[1], &[PassKind::P1Scalars]),
            Lookup::Miss
        ));
        assert!(matches!(
            cache.lookup(&keys[0], &[PassKind::P1Scalars]),
            Lookup::Full(_)
        ));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let t = field(0.0);
        let (full, stats) = report_for(&t);
        let mut cache = ResultCache::new(0);
        cache.absorb(key_for(&t), &full, stats);
        assert!(cache.is_empty());
        assert!(matches!(
            cache.lookup(&key_for(&t), &[PassKind::P1Scalars]),
            Lookup::Miss
        ));
    }
}
