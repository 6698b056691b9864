//! `zcbench` — the repository's benchmark of record.
//!
//! ```text
//! zcbench [--workload <name>|all] [--seed S] [--seconds N] [--trace [0|1]]
//!         [--runs N] [--out FILE]
//! zcbench compare <base.json> <new.json>
//! ```
//!
//! A single workload runs in this process and prints, as its last stdout
//! line, `{"correct", "attempted", "failed", "metrics"}`: the gated
//! end-to-end metrics, or with `--trace 1` every per-layer metric. `all`
//! runs the four workloads one at a time, each in a child process, and
//! collects their reports (`--runs N` repeats the set on the same seed) into
//! `target/zcbench/all.json`, the input of `compare`. Everything is written
//! under `target/zcbench/`. See README.md for the workloads and metrics.

mod archive;
mod compare;
mod json;
mod metrics;
mod pair;
mod serve;
mod stats;
mod trace;

use json::{obj, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["pair-256", "archive-campaign", "serve-hot", "serve-churn"];

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;
const OUT_DIR: &str = "target/zcbench";

/// What one workload run is asked to do.
pub struct RunCfg {
    pub seed: u64,
    /// Wall seconds the timed loop runs for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics from spans instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// name -> (value, sample count)
    pub metrics: BTreeMap<String, (f64, usize)>,
    /// (check name, passed, detail)
    pub checks: Vec<(String, bool, String)>,
    pub tracer: Tracer,
}

impl Outcome {
    /// Record a metric measured from `samples` samples (1 for a single
    /// deterministic or counted value).
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            metrics::lookup(name).is_some(),
            "metric {name} is missing from the catalogue"
        );
        self.metrics.insert(name.to_string(), (value, samples));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| it.next()) {
        let val = |it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val(&mut it)?,
            "--seed" => a.seed = val(&mut it)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--runs" => {
                a.runs = val(&mut it)?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be >= 1".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(val(&mut it)?)),
            // `--trace` takes an optional 0/1.
            "--trace" => match it.next() {
                Some(v) if v == "0" || v == "1" => a.trace = v == "1",
                other => {
                    a.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected all|{})",
            a.workload,
            WORKLOADS.join("|")
        ));
    }
    Ok(a)
}

const USAGE: &str = "usage: zcbench [--workload <name>|all] [--seed S] [--seconds N] \
                     [--trace [0|1]] [--runs N] [--out FILE]\n       \
                     zcbench compare <base.json> <new.json>";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        argv.next();
        let files: Vec<String> = argv.collect();
        if files.len() != 2 {
            eprintln!("zcbench: compare needs two files\n{USAGE}");
            return ExitCode::from(2);
        }
        return compare::main(Path::new(&files[0]), Path::new(&files[1]));
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

/// Worker threads every workload runs with (`ZC_PAR_THREADS`). One: on a
/// small shared host two busy threads make every timing, and the peak
/// resident set, depend on what the neighbours are doing; with one the
/// run-to-run spread of `archive-campaign` fell from about 15% to 4% and
/// its peak RSS became exact. Results are bit-identical at any count.
const WORKER_THREADS: usize = 1;

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run one workload in this process.
fn run_one(args: &Args) -> ExitCode {
    // Before any worker thread exists: zc-par reads this on every call.
    std::env::set_var("ZC_PAR_THREADS", WORKER_THREADS.to_string());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let t0 = Instant::now();
    let mut out = match args.workload.as_str() {
        "pair-256" => pair::run(&cfg),
        "archive-campaign" => archive::run(&cfg),
        "serve-hot" => serve::run(&serve::HOT, &cfg),
        "serve-churn" => serve::run(&serve::CHURN, &cfg),
        other => unreachable!("workload {other} was validated"),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), 1);
        let ef = if out.attempted > 0 {
            out.failed as f64 / out.attempted as f64
        } else {
            1.0
        };
        out.metric("error_fraction", ef, 1);
        out.check(
            "no_failed_operations",
            out.failed == 0,
            format!("{} of {} failed or refused", out.failed, out.attempted),
        );
    }

    print_human(&args.workload, &out);
    let dir = Path::new(OUT_DIR);
    let mut write_err = None;
    if let Err(e) = std::fs::create_dir_all(dir) {
        write_err = Some(format!("create {OUT_DIR}: {e}"));
    }
    let suffix = if args.trace { "-trace" } else { "" };
    let report = report_json(&args.workload, args, &out, wall_s);
    let mut files = vec![(
        dir.join(format!("{}{suffix}.json", args.workload)),
        report.render(),
    )];
    if args.trace {
        files.push((
            dir.join(format!("trace-{}.json", args.workload)),
            out.tracer.chrome_json(&args.workload),
        ));
        files.push((
            dir.join(format!("layers-{}.txt", args.workload)),
            out.tracer.self_time_table(),
        ));
        println!("\nself time by layer:\n{}", out.tracer.self_time_table());
    }
    for (path, text) in files {
        if let Err(e) = std::fs::write(&path, text) {
            write_err = Some(format!("write {}: {e}", path.display()));
        } else {
            eprintln!("zcbench: wrote {}", path.display());
        }
    }
    if let Some(e) = write_err {
        eprintln!("zcbench: {e}");
        return ExitCode::FAILURE;
    }

    println!("{}", result_line(&out, args.trace).render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last stdout line: the gated end-to-end metrics (untraced) or every
/// per-layer metric (traced), with 0 for a layer the workload bypasses. A
/// workload omits gated metrics only when it stopped on a failed check;
/// they print as `null` then.
fn result_line(out: &Outcome, traced: bool) -> Value {
    let names: Vec<&str> = if traced {
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| m.name)
            .collect()
    };
    let m = names.into_iter().map(|name| {
        let value = match out.metrics.get(name) {
            Some(&(v, _)) => v,
            None if traced => 0.0,
            None => f64::NAN,
        };
        let (unit, _) = metrics::lookup(name).expect("catalogued name");
        (
            name,
            obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ]),
        )
    });
    obj([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", obj(m)),
    ])
}

fn print_human(workload: &str, out: &Outcome) {
    println!("== {workload}");
    for (name, &(value, samples)) in &out.metrics {
        let (unit, better) = metrics::lookup(name).expect("catalogued name");
        println!(
            "{name:<28} {value:>16.6e} {unit:<7} ({} better; {samples} sample{})",
            better.label(),
            if samples == 1 { "" } else { "s" }
        );
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {name:<36} {} {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    println!(
        "attempted {} failed {} correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
}

/// The run header: what produced these numbers.
fn header(args: &Args) -> Value {
    obj([
        ("commit", Value::Str(commit())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Num(nproc() as f64)),
        ("threads", Value::Num(WORKER_THREADS as f64)),
        ("llc", Value::Str(llc_size())),
    ])
}

fn report_json(workload: &str, args: &Args, out: &Outcome, wall_s: f64) -> Value {
    let metrics = out.metrics.iter().map(|(name, &(value, samples))| {
        let (unit, _) = metrics::lookup(name).expect("catalogued name");
        (
            name.clone(),
            obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
                ("samples", Value::Num(samples as f64)),
            ]),
        )
    });
    let checks = out
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            obj([
                ("name", Value::Str(name.clone())),
                ("ok", Value::Bool(*ok)),
                ("detail", Value::Str(detail.clone())),
            ])
        })
        .collect();
    obj([
        ("workload", Value::Str(workload.into())),
        ("header", header(args)),
        ("wall_s", Value::Num(wall_s)),
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("checks", Value::Arr(checks)),
        ("metrics", obj(metrics)),
    ])
}

/// Run every workload, one at a time, each in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("zcbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let suffix = if args.trace { "-trace" } else { "" };
    let mut runs = Vec::new();
    let mut ok = true;
    for r in 0..args.runs {
        let mut reports = BTreeMap::new();
        for w in WORKLOADS {
            eprintln!("zcbench: run {}/{} {w}", r + 1, args.runs);
            let t0 = Instant::now();
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .env("ZC_PAR_THREADS", WORKER_THREADS.to_string())
                .status();
            let wall_s = t0.elapsed().as_secs_f64();
            let path = Path::new(OUT_DIR).join(format!("{w}{suffix}.json"));
            let report = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| json::parse(&t));
            match (status, report) {
                (Ok(s), Ok(mut rep)) if s.success() => {
                    if let Value::Obj(m) = &mut rep {
                        m.insert("child_wall_s".into(), Value::Num(wall_s));
                    }
                    reports.insert(w.to_string(), rep);
                }
                (status, report) => {
                    eprintln!("zcbench: {w} failed: {status:?} {:?}", report.err());
                    ok = false;
                }
            }
        }
        runs.push(obj([
            ("seed", Value::Num(args.seed as f64)),
            ("workloads", Value::Obj(reports)),
        ]));
    }
    let doc = obj([("header", header(args)), ("runs", Value::Arr(runs))]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("all{suffix}.json")));
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("zcbench: write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", compare::summary(&doc));
    eprintln!("zcbench: wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Last-level cache size as the kernel reports it ("unknown" elsewhere).
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            Some(format!("L{} {}", level.trim(), size.trim()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git ("unknown"
/// outside a repository).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-hot", 7, 3.0, true)
        );
        let b = args(&["--trace", "--seed", "9"]).unwrap();
        assert!(b.trace);
        assert_eq!(b.seed, 9);
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
