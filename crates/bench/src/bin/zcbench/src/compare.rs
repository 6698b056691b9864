//! `zcbench compare <base.json> <new.json>`: the regression gate.
//!
//! Both files are `zcbench --workload all [--runs N]` outputs. For every
//! workload and end-to-end metric it prints each side's median and
//! quartiles and one verdict, under the catalogue's bounds (the gated ones
//! are `BENCHMARK.json`'s):
//!
//! * **unresolved** — either side's quartile spread exceeds the bound, and
//!   the new runs do not all read better than every base run;
//! * **worse** / **better** — the new median moved the wrong / right way by
//!   more than the bound;
//! * **same** — otherwise.
//!
//! It exits 1 on any *worse* and on any rise in `error_fraction`.

use crate::json::Value;
use crate::metrics::{self, Better, Bound, EndToEnd};
use crate::stats::{median, quartiles, spread};
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed improvement of `new` over `base`: positive is better.
fn gain(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Higher => new - base,
        Better::Lower => base - new,
    }
}

/// Judge one metric from the two sides' samples.
pub fn verdict(def: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let (bm, nm) = (median(base), median(new));
    let (limit, g) = match def.bound {
        Bound::Absolute(a) => (a, gain(def.better, bm, nm)),
        Bound::Relative(r) => {
            let all_better = base
                .iter()
                .all(|&b| new.iter().all(|&n| gain(def.better, b, n) > 0.0));
            if spread(base) > r || spread(new) > r {
                return if all_better {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                };
            }
            (
                r,
                gain(def.better, bm, nm) / bm.abs().max(f64::MIN_POSITIVE),
            )
        }
    };
    if g < -limit {
        Verdict::Worse
    } else if g > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `name -> values over runs` of one workload's metrics in an `all` file.
fn samples(doc: &Value, workload: &str) -> std::collections::BTreeMap<String, Vec<f64>> {
    let mut out: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for run in doc.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        let Some(m) = run
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("metrics"))
            .and_then(Value::as_object)
        else {
            continue;
        };
        for (name, v) in m {
            if let Some(x) = v.get("value").and_then(Value::as_f64) {
                out.entry(name.clone()).or_default().push(x);
            }
        }
    }
    out
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fmt_side(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!(
        "{:>12.6e} [{:.4e}, {:.4e}] n={}",
        median(v),
        q1,
        q3,
        v.len()
    )
}

pub fn main(base: &Path, new: &Path) -> ExitCode {
    let (b, n) = match (load(base), load(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("zcbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regress = false;
    for w in crate::WORKLOADS {
        let (bs, ns) = (samples(&b, w), samples(&n, w));
        if bs.is_empty() && ns.is_empty() {
            continue;
        }
        println!("== {w}");
        let mut counts = [0usize; 4];
        for def in metrics::END_TO_END {
            let (Some(bv), Some(nv)) = (bs.get(def.name), ns.get(def.name)) else {
                continue;
            };
            let v = verdict(def, bv, nv);
            counts[v as usize] += 1;
            let ef_rise = def.name == "error_fraction"
                && nv.iter().copied().fold(0.0, f64::max) > bv.iter().copied().fold(0.0, f64::max);
            regress |= v == Verdict::Worse || ef_rise;
            println!(
                "  {:<22} {:<6} base {}  new {}  {:+.2}%  {}",
                def.name,
                def.unit,
                fmt_side(bv),
                fmt_side(nv),
                100.0 * (median(nv) - median(bv)) / median(bv).abs().max(f64::MIN_POSITIVE),
                if ef_rise {
                    "worse (error_fraction rose)"
                } else {
                    v.label()
                }
            );
        }
        println!(
            "  {w}: {} better, {} same, {} worse, {} unresolved",
            counts[0], counts[1], counts[2], counts[3]
        );
    }
    if regress {
        println!("compare: REGRESSION");
        ExitCode::FAILURE
    } else {
        println!("compare: no regression");
        ExitCode::SUCCESS
    }
}

/// Per-workload medians over the runs of an `all` document.
pub fn summary(doc: &Value) -> String {
    let mut out = String::new();
    for w in crate::WORKLOADS {
        let s = samples(doc, w);
        if s.is_empty() {
            continue;
        }
        out.push_str(&format!("== {w}\n"));
        for (name, v) in &s {
            let unit = metrics::lookup(name).map_or("", |m| m.0);
            out.push_str(&format!(
                "  {name:<28} {:>14.6e} {unit:<7} (median of {} run{})\n",
                median(v),
                v.len(),
                if v.len() == 1 { "" } else { "s" }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        metrics::end_to_end(name).unwrap()
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let wall = def("wall_jobs_per_s"); // higher is better, 25%
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(wall, &base, &[10.2, 10.1, 10.0, 10.3, 10.1]),
            Verdict::Same
        );
        assert_eq!(
            verdict(wall, &base, &[7.0, 7.1, 6.9, 7.0, 7.05]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &base, &[13.0, 13.1, 12.9, 13.0, 13.2]),
            Verdict::Better
        );
        // A noisy side whose spread exceeds the bound cannot be judged…
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(verdict(wall, &base, &noisy), Verdict::Unresolved);
        // …unless every new run beats every base run.
        let noisy_but_better = [11.0, 20.0, 14.0, 12.0, 18.0];
        assert_eq!(verdict(wall, &base, &noisy_but_better), Verdict::Better);
        // Lower-is-better direction.
        let rss = def("peak_rss_mb");
        assert_eq!(verdict(rss, &[100.0; 5], &[120.0; 5]), Verdict::Worse);
        assert_eq!(verdict(rss, &[100.0; 5], &[80.0; 5]), Verdict::Better);
        // Absolute bound of zero: any rise in error_fraction is worse.
        let ef = def("error_fraction");
        assert_eq!(verdict(ef, &[0.0; 5], &[0.0; 5]), Verdict::Same);
        assert_eq!(verdict(ef, &[0.0; 5], &[0.01; 5]), Verdict::Worse);
    }

    #[test]
    fn samples_read_an_all_document() {
        let doc = crate::json::parse(
            r#"{"runs": [
                {"workloads": {"serve-hot": {"metrics": {"setup_s": {"value": 1.5}}}}},
                {"workloads": {"serve-hot": {"metrics": {"setup_s": {"value": 2.5}}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(samples(&doc, "serve-hot")["setup_s"], vec![1.5, 2.5]);
        assert!(samples(&doc, "pair-256").is_empty());
        assert!(summary(&doc).contains("median of 2 runs"));
    }
}
