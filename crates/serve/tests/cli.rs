//! End-to-end tests of the `cuzc` command-line tool (spawned as a real
//! process via the Cargo-provided binary path).

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn cuzc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cuzc"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cuzc_cli_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn demo_run_prints_a_full_report() {
    let out = cuzc().arg("--demo").output().expect("spawn cuzc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "psnr",
        "ssim",
        "autocorr",
        "compression_ratio",
        "modeled platform time",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
}

#[test]
fn demo_writes_html_and_csv_artifacts() {
    let dir = tmpdir("artifacts");
    let html = dir.join("report.html");
    let out = cuzc()
        .args(["--demo", "--html"])
        .arg(&html)
        .arg("--csv-dir")
        .arg(&dir)
        .output()
        .expect("spawn cuzc");
    assert!(out.status.success());
    let doc = std::fs::read_to_string(&html).unwrap();
    assert!(doc.starts_with("<!DOCTYPE html>"));
    assert!(doc.contains("<svg"));
    for f in ["scalars.csv", "err_pdf.csv", "autocorr.csv"] {
        let p = dir.join(f);
        assert!(p.exists(), "{f} missing");
        assert!(std::fs::metadata(&p).unwrap().len() > 10);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_pipeline_with_explicit_decompressed_field() {
    // Write a raw field and a perturbed copy, assess them from disk.
    let dir = tmpdir("files");
    let orig_path = dir.join("orig.f32");
    let dec_path = dir.join("dec.f32");
    let n = 16 * 12 * 10;
    let orig: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
    let dec: Vec<f32> = orig.iter().map(|v| v + 1e-3).collect();
    let bytes = |v: &[f32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    std::fs::write(&orig_path, bytes(&orig)).unwrap();
    std::fs::write(&dec_path, bytes(&dec)).unwrap();

    let out = cuzc()
        .args(["--input"])
        .arg(&orig_path)
        .args(["--shape", "16x12x10", "--decompressed"])
        .arg(&dec_path)
        .output()
        .expect("spawn cuzc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Constant error of 1e-3 (up to f32 rounding): parse avg_err back.
    let avg_line = stdout
        .lines()
        .find(|l| l.starts_with("avg_err"))
        .expect("avg_err line");
    let value: f64 = avg_line.split('=').nth(1).unwrap().trim().parse().unwrap();
    assert!((value - 1e-3).abs() < 1e-6, "{avg_line}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    // Unknown flag.
    let out = cuzc().arg("--frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
    // Missing value.
    let out = cuzc().arg("--shape").output().unwrap();
    assert!(!out.status.success());
    // Bad shape.
    let out = cuzc()
        .args(["--input", "/nonexistent", "--shape", "axb"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad shape"));
    // Missing input file.
    let out = cuzc()
        .args(["--input", "/nonexistent.f32", "--shape", "4x4x4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Shapes whose element or byte count overflows: refused before any
    // read, not wrapped to a size an empty file matches.
    let empty = tmpdir("overflow").join("empty.f32");
    std::fs::write(&empty, b"").unwrap();
    for (shape, why) in [
        ("4611686018427387904x4", "overflows"),
        ("4611686018427387904", "expects"),
    ] {
        let mut child = cuzc()
            .args(["--input", empty.to_str().unwrap(), "--shape", shape])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let t0 = Instant::now();
        while child.try_wait().unwrap().is_none() {
            if t0.elapsed() > Duration::from_secs(30) {
                child.kill().ok();
                panic!("cuzc hung on --shape {shape}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{shape}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{shape}: {err}");
        assert!(err.contains(why), "{shape}: {err}");
    }
}

#[test]
fn an_all_nan_pair_is_refused_with_one_line() {
    let dir = tmpdir("all_nan");
    let path = dir.join("nan.f32");
    let bytes: Vec<u8> = (0..4 * 4 * 4)
        .flat_map(|_| f32::NAN.to_le_bytes())
        .collect();
    std::fs::write(&path, bytes).unwrap();
    let out = cuzc()
        .arg("--input")
        .arg(&path)
        .args(["--shape", "4x4x4", "--decompressed"])
        .arg(&path)
        .output()
        .expect("spawn cuzc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    // The slab-schedule echo precedes the run; the refusal is one line.
    let last = err.trim_end().lines().last().unwrap_or_default();
    assert_eq!(
        last, "assessment failed: field pair has no element where both values are finite",
        "{err}"
    );
    assert_eq!(err.matches("assessment failed").count(), 1, "{err}");
    assert!(
        out.stdout.is_empty(),
        "printed a report for an all-NaN pair"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_restricts_the_report() {
    let out = cuzc()
        .args(["--demo", "--metrics", "psnr,ssim"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("psnr"), "{stdout}");
    assert!(stdout.contains("ssim"), "{stdout}");
    // Unselected metrics are gone, and so is the pattern-2 pass entirely.
    assert!(!stdout.contains("autocorr"), "{stdout}");
    assert!(!stdout.contains("mse"), "{stdout}");
    let p2_line = stdout
        .lines()
        .find(|l| l.contains("p2 "))
        .expect("pattern time line");
    assert!(p2_line.contains("p2 0.000e0s"), "{p2_line}");
    // The device executor reports the modeled transfer+compute makespan.
    assert!(stdout.contains("modeled end-to-end"), "{stdout}");
}

#[test]
fn unknown_metric_key_lists_all_known_keys() {
    let out = cuzc()
        .args(["--demo", "--metrics", "psnr,definitely_not_a_metric"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown metric 'definitely_not_a_metric'"),
        "{stderr}"
    );
    // The error enumerates every valid key.
    for key in ["min_value", "psnr", "ssim", "autocorr", "compression_ratio"] {
        assert!(stderr.contains(key), "missing '{key}' in:\n{stderr}");
    }
}

#[test]
fn metrics_flag_takes_the_ini_spellings() {
    let out = cuzc()
        .args(["--demo", "--metrics", "all"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // pattern1 keeps the global reductions and drops the window metrics.
    let out = cuzc()
        .args(["--demo", "--metrics", "pattern1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("psnr"), "{stdout}");
    assert!(!stdout.contains("ssim"), "{stdout}");
}

#[test]
fn fleet_flag_runs_the_demo_campaign() {
    let out = cuzc()
        .args(["--demo", "--fleet", "4", "--scheduler", "list"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The campaign table: mixed-size catalog fields on a 4-GPU fleet,
    // with the scheduler's own makespan prediction.
    assert!(stdout.contains("Hurricane/TC[x4]"), "{stdout}");
    assert!(stdout.contains("fleet: 4 GPUs"), "{stdout}");
    assert!(stdout.contains("schedule: predicted makespan"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("list scheduler"), "{stderr}");
}

#[test]
fn progressive_campaign_marks_subsampled_rows() {
    let out = cuzc()
        .args(["--demo", "--fleet", "2", "--progressive"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(subsampled)"), "{stdout}");
}

#[test]
fn fleet_mode_rejects_bad_arguments() {
    // --fleet without --demo.
    let out = cuzc().args(["--fleet", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--demo"));
    // Bad fleet size.
    let out = cuzc().args(["--demo", "--fleet", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad fleet size"));
    // Unknown scheduler.
    let out = cuzc()
        .args(["--demo", "--fleet", "2", "--scheduler", "greedy"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scheduler"));
}

#[test]
fn campaign_flags_are_refused_outside_the_demo_campaign() {
    // Each would be silently ignored by the single-pair demo and by the
    // service, so each is a one-line usage error there.
    for (flag, value) in [
        ("--scheduler", Some("list")),
        ("--progressive", None),
        ("--chaos", Some("42:0.05")),
    ] {
        for mode in [
            &["--demo"][..],
            &["--serve-demo"],
            &["--serve-demo", "--fleet", "2"],
        ] {
            let out = cuzc().args(mode).arg(flag).args(value).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode:?} {flag}: {err}");
            assert_eq!(err.lines().count(), 1, "{mode:?} {flag}: {err}");
            assert!(err.starts_with(flag), "{mode:?} {flag}: {err}");
            assert!(err.contains("--demo --fleet"), "{mode:?} {flag}: {err}");
            assert!(out.stdout.is_empty(), "{mode:?} {flag}");
        }
    }
}

#[test]
fn help_is_available() {
    let out = cuzc().arg("--help").output().unwrap();
    // Help goes to stderr with a non-zero exit (it is an interrupted run).
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage: cuzc"));
    assert!(text.contains("--demo"));
}

#[test]
fn serve_demo_runs_the_service_loop() {
    let out = cuzc()
        .args(["--serve-demo", "--fleet", "2", "--requests", "7:16"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "serve metric",
        "completed",
        "jobs/s (modeled)",
        "cache hit rate",
        "fields generated",
        "digests reused",
        "p99 latency (ms)",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}' in:\n{stdout}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("16 requests (seed 7)"), "{stderr}");
    assert!(stderr.contains("2 simulated GPUs"), "{stderr}");
}

#[test]
fn serve_demo_rejects_bad_arguments() {
    // Malformed trace spec.
    let out = cuzc()
        .args(["--serve-demo", "--requests", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad requests spec"));
    // Zero-length trace.
    let out = cuzc()
        .args(["--serve-demo", "--requests", "42:0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // --requests without --serve-demo.
    let out = cuzc().args(["--requests", "7:16"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--serve-demo"));
    // A trace or a fleet too large to allocate is a one-line usage error,
    // not an aborted allocation.
    for (args, needle) in [
        (
            ["--requests", "42:18446744073709551615"],
            "requests count 18446744073709551615 over the limit of 100000",
        ),
        (["--requests", "42:100001"], "over the limit of 100000"),
        (
            ["--fleet", "4294967295"],
            "fleet size 4294967295 over the limit of 4096 GPUs",
        ),
        (["--fleet", "4097"], "over the limit of 4096 GPUs"),
    ] {
        let out = cuzc().arg("--serve-demo").args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn trace_flag_prints_launch_summaries() {
    let out = cuzc().args(["--demo", "--trace"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernel GlobalReduction"));
    assert!(stdout.contains("kernel SlidingWindow"));
    assert!(stdout.contains("occupancy"));
    assert!(stdout.contains("modeled"));
}

/// The first number after `key` on the line that contains it.
fn number_after(text: &str, key: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.contains(key))
        .unwrap_or_else(|| panic!("no '{key}' in:\n{text}"));
    let rest = &line[line.find(key).unwrap() + key.len()..];
    rest.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn explain_plan_prices_the_out_of_core_run() {
    // The explained prediction follows the device memory into the slab
    // schedule and re-uploads the run then uses.
    for mem in ["128KiB", "256KiB", "512KiB"] {
        let explain = cuzc()
            .args(["--demo", "--explain-plan", "--device-mem", mem])
            .output()
            .unwrap();
        assert!(explain.status.success());
        let predicted_s = number_after(
            &String::from_utf8_lossy(&explain.stdout),
            "predicted job time:",
        );
        let run = cuzc()
            .args(["--demo", "--device-mem", mem])
            .output()
            .unwrap();
        assert!(run.status.success());
        let measured_ms = number_after(&String::from_utf8_lossy(&run.stdout), "end-to-end:");
        let rel = (predicted_s * 1e3 - measured_ms).abs() / measured_ms;
        assert!(
            rel < 0.03,
            "{mem}: predicted {predicted_s} s vs run {measured_ms} ms"
        );
    }
}
