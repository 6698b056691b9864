//! The kernel-source lint gate (DESIGN.md §6.10, formerly §6.6's
//! substring charging lint — now run through the `zc-lint` framework).
//!
//! Every production kernel source must pass every registered lint with
//! zero non-exempt error findings: uncharged `as_slice` views, shared
//! access outside a warp scope, sync-under-divergence, raw field-pair
//! indexing, and order-sensitive float reductions. The runtime
//! counterpart is the sanitizer's audits; the lints catch the same bug
//! classes at review time, on paths no test happens to execute. Waivers
//! are typed `// zc-lint: exempt(<id>)` markers naming each lint they
//! waive.

use std::path::{Path, PathBuf};
use zc_lint::{error_count, lint_file, render_table, scan_source, LINTS};

fn kernel_sources() -> Vec<PathBuf> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    zc_lint::rs_sources(&src).unwrap()
}

#[test]
fn kernel_sources_pass_every_lint() {
    let mut diags = Vec::new();
    for file in kernel_sources() {
        diags.extend(lint_file(&file).unwrap());
    }
    assert_eq!(
        error_count(&diags),
        0,
        "kernel sources carry non-exempt lint errors (charge the access, fix \
         the shape, or add a `// zc-lint: exempt(<id>)` marker with a reason):\n{}",
        render_table(&diags)
    );
}

#[test]
fn scanner_still_sees_the_crate() {
    // Self-checks: an empty scan means the scanner broke, not a clean
    // crate. The framework scanner skips `#[cfg(test)]` modules, so the
    // floor sits below the old whole-file count but still far above zero.
    let mut scanned = 0usize;
    let mut run_blocks = 0usize;
    for file in kernel_sources() {
        let src = std::fs::read_to_string(&file).unwrap();
        let fns = scan_source(&file.display().to_string(), &src);
        scanned += fns.len();
        run_blocks += fns.iter().filter(|f| f.name == "run_block").count();
    }
    assert!(scanned > 80, "scanner found only {scanned} functions");
    // The seven production kernels' run_block bodies must all be visible
    // to the lints — if the scanner misses them the gate is vacuous.
    assert!(run_blocks >= 7, "only {run_blocks} run_block bodies found");
}

#[test]
fn scanner_sees_the_known_exempt_site() {
    let lib = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs");
    let src = std::fs::read_to_string(&lib).unwrap();
    let fns = scan_source("lib.rs", &src);
    let new = fns
        .iter()
        .find(|f| f.name == "new" && f.contains(".as_slice()"))
        .expect("FieldPair::new not found by the scanner");
    assert_eq!(
        new.exempt_ids,
        vec!["charging/uncharged-access"],
        "FieldPair::new lost its typed uncharged-access exemption marker"
    );
}

#[test]
fn registry_covers_the_required_lint_classes() {
    // The gate runs the full registry; pin the lint ids this crate's
    // sources are promised to satisfy so a registry rename is loud.
    for id in [
        "charging/uncharged-access",
        "kernel/unscoped-shared",
        "kernel/sync-under-divergence",
        "kernel/raw-slice-index",
        "kernel/float-reduction-order",
    ] {
        assert!(
            LINTS.iter().any(|l| l.id == id),
            "lint {id} missing from the registry"
        );
    }
}
