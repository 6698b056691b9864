//! Argument handling of the table bins that take no arguments.

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
