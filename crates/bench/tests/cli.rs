//! Argument handling of the paper bins: the tables that take no arguments
//! and the `--csv` option only `fig10` writes.

use std::process::Command;

#[test]
fn argument_free_tables_refuse_any_argument() {
    for bin in [env!("CARGO_BIN_EXE_table2"), env!("CARGO_BIN_EXE_multigpu")] {
        let out = Command::new(bin).args(["--scale", "8"]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {err}");
        assert!(err.starts_with("usage: "), "{bin}: {err}");
        assert_eq!(err.lines().count(), 1, "{bin}: {err}");
        assert!(out.stdout.is_empty(), "{bin} printed a table");
    }
}

#[test]
fn only_fig10_accepts_csv() {
    let path = std::env::temp_dir().join(format!("zc-bench-cli-{}.csv", std::process::id()));
    let path = path.to_str().unwrap();
    for bin in [
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_fields"),
        env!("CARGO_BIN_EXE_campaign"),
        env!("CARGO_BIN_EXE_chaos"),
    ] {
        let out = Command::new(bin)
            .args(["--scale", "8", "--csv", path])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {err}");
        assert!(err.contains("unknown argument '--csv'"), "{bin}: {err}");
        assert_eq!(err.lines().count(), 1, "{bin}: {err}");
        assert!(out.stdout.is_empty(), "{bin} ran");
        assert!(!std::path::Path::new(path).exists(), "{bin} wrote {path}");
    }
    // fig10 takes --csv, and refuses it without a value.
    let out = Command::new(env!("CARGO_BIN_EXE_fig10"))
        .arg("--csv")
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "fig10: {err}");
    assert!(
        err.starts_with("fig10: --csv needs a value;"),
        "fig10: {err}"
    );
    assert_eq!(err.lines().count(), 1, "fig10: {err}");
}
