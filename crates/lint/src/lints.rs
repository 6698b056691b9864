//! The kernel-source lints (DESIGN.md §6.10).
//!
//! Each lint polices one way a `zc-gpusim` kernel can silently break the
//! simulator's contracts: uncharged traffic skews every counter the cost
//! model prices, shared access outside a `warp_begin`/`warp_end` scope
//! defeats the sanitizer's race attribution, a barrier under divergence is
//! the classic CUDA deadlock, raw field indexing bypasses the charge APIs,
//! and order-sensitive float reductions break the golden tier's exact
//! `f64`-bit pins. Every finding carries a typed lint id; waive one with a
//! `// zc-lint: exempt(<id>)` marker.

use crate::scan::{scan_source, FnBody};
use crate::{Diagnostic, Location, Severity};
use std::path::{Path, PathBuf};

/// Substring calls that count as charging an access against the
/// simulator's counters (the same set the pre-zc-lint test used).
pub const CHARGE_APIS: [&str; 8] = [
    "charge_",
    "sh_read",
    "sh_write",
    "sh_mark_reads",
    "sh_mark_writes",
    "g_read",
    "g_write",
    "g_scatter",
];

/// The shared-memory access APIs that must sit inside a warp scope.
const SHARED_APIS: [&str; 4] = ["sh_read(", "sh_write(", "sh_mark_reads(", "sh_mark_writes("];

/// One registered lint.
pub struct Lint {
    /// Stable id, `category/name`.
    pub id: &'static str,
    /// One-line description for `zc-lint --list` and docs.
    pub description: &'static str,
    check: fn(&Lint, &FnBody, &mut Vec<Diagnostic>),
}

impl Lint {
    fn emit(
        &self,
        f: &FnBody,
        line: usize,
        severity: Severity,
        message: String,
        out: &mut Vec<Diagnostic>,
    ) {
        if f.is_exempt(self.id, line) {
            return;
        }
        out.push(Diagnostic {
            lint_id: self.id,
            severity,
            location: Location {
                file: f.file.clone(),
                line,
            },
            message,
        });
    }
}

/// Does the function call any charge API?
fn charges(f: &FnBody) -> bool {
    CHARGE_APIS.iter().any(|api| f.contains(api))
}

/// `charging/uncharged-access` — a raw `as_slice`/`as_mut_slice` view in a
/// function that never charges. Migrated verbatim from the substring test
/// that used to live in `crates/kernels/tests/charging_lint.rs`.
fn uncharged_access(lint: &Lint, f: &FnBody, out: &mut Vec<Diagnostic>) {
    let Some(hit) = f
        .lines
        .iter()
        .find(|l| l.code.contains(".as_slice()") || l.code.contains(".as_mut_slice()"))
    else {
        return;
    };
    if charges(f) {
        return;
    }
    lint.emit(
        f,
        hit.line,
        Severity::Error,
        format!(
            "fn {} takes a raw as_slice/as_mut_slice view but never calls a charge API \
             (charge the traffic or mark the view exempt with a reason)",
            f.name
        ),
        out,
    );
}

/// `kernel/unscoped-shared` — a shared-memory access API called at
/// warp-scope depth zero: the sanitizer cannot attribute the access to a
/// warp actor, so its race tracking silently degrades.
fn unscoped_shared(lint: &Lint, f: &FnBody, out: &mut Vec<Diagnostic>) {
    for l in &f.lines {
        if l.warp_depth > 0 {
            continue;
        }
        if let Some(api) = SHARED_APIS.iter().find(|api| l.code.contains(*api)) {
            lint.emit(
                f,
                l.line,
                Severity::Error,
                format!(
                    "fn {}: {}...) outside a warp_begin/warp_end scope — the sanitizer \
                     cannot attribute the access to a warp actor",
                    f.name,
                    api.trim_end_matches('(')
                ),
                out,
            );
        }
    }
}

/// `kernel/sync-under-divergence` — `sync_threads` inside an open warp
/// scope or under a lane/warp-conditional branch: on hardware a barrier
/// only part of the block reaches deadlocks the kernel.
fn sync_under_divergence(lint: &Lint, f: &FnBody, out: &mut Vec<Diagnostic>) {
    for l in &f.lines {
        if !l.code.contains("sync_threads(") {
            continue;
        }
        if l.warp_depth > 0 {
            lint.emit(
                f,
                l.line,
                Severity::Error,
                format!(
                    "fn {}: sync_threads inside an open warp_begin scope — a barrier \
                     reached by one warp deadlocks the block",
                    f.name
                ),
                out,
            );
        } else if l.divergent {
            lint.emit(
                f,
                l.line,
                Severity::Error,
                format!(
                    "fn {}: sync_threads under a lane/warp-conditional branch — threads \
                     that skip the branch never reach the barrier",
                    f.name
                ),
                out,
            );
        }
    }
}

/// `kernel/raw-slice-index` — direct indexing of the field-pair storage
/// (`.orig[...]` / `.dec[...]`) in a function that never charges: the read
/// bypasses the counters entirely, the same bug class the sanitizer's
/// `UnchargedAccess` audit catches at runtime.
fn raw_slice_index(lint: &Lint, f: &FnBody, out: &mut Vec<Diagnostic>) {
    let Some(hit) = f
        .lines
        .iter()
        .find(|l| l.code.contains(".orig[") || l.code.contains(".dec["))
    else {
        return;
    };
    if charges(f) {
        return;
    }
    lint.emit(
        f,
        hit.line,
        Severity::Error,
        format!(
            "fn {} indexes the field-pair storage directly without charging the read \
             (use g_read*/charge_* alongside the access)",
            f.name
        ),
        out,
    );
}

/// `kernel/float-reduction-order` — accumulation shapes whose result
/// depends on iteration order or accumulator width: host parallel
/// iteration inside a kernel, reversed iteration feeding an accumulator,
/// `f32` sums, and data-dependent chunk widths. Any of these would break
/// the golden tier's exact `f64`-bit pins across executors.
fn float_reduction_order(lint: &Lint, f: &FnBody, out: &mut Vec<Diagnostic>) {
    let accumulates = f.contains("+=")
        || f.contains(".sum")
        || f.contains("absorb")
        || f.contains("combine")
        || f.contains(".fold(");
    for l in &f.lines {
        if l.code.contains("par_iter")
            || l.code.contains("par_chunks")
            || l.code.contains("zc_par::")
        {
            lint.emit(
                f,
                l.line,
                Severity::Error,
                format!(
                    "fn {}: host-parallel iteration inside a kernel — partial order \
                     varies with the worker count and breaks the golden f64-bit pins",
                    f.name
                ),
                out,
            );
        }
        if l.code.contains("sum::<f32>") {
            lint.emit(
                f,
                l.line,
                Severity::Error,
                format!(
                    "fn {}: f32 sum — accumulate in f64 (the metric pins are exact f64 bits)",
                    f.name
                ),
                out,
            );
        }
        if accumulates && l.code.contains(".rev()") {
            lint.emit(
                f,
                l.line,
                Severity::Error,
                format!(
                    "fn {}: reversed iteration feeding an accumulator — reduction order \
                     must match the reference scan exactly",
                    f.name
                ),
                out,
            );
        }
        if let Some(p) = l.code.find(".chunks(") {
            let arg = l.code[p + ".chunks(".len()..]
                .split(')')
                .next()
                .unwrap_or("")
                .trim();
            if !arg.is_empty() && !arg.chars().all(|c| c.is_ascii_digit() || c == '_') {
                lint.emit(
                    f,
                    l.line,
                    Severity::Warning,
                    format!(
                        "fn {}: data-dependent chunk width `{arg}` — a shape-dependent \
                         reduction tree changes the accumulation order between runs",
                        f.name
                    ),
                    out,
                );
            }
        }
    }
}

/// The registered lints, in reporting order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "charging/uncharged-access",
        description: "raw as_slice/as_mut_slice view in a function that never charges",
        check: uncharged_access,
    },
    Lint {
        id: "kernel/unscoped-shared",
        description: "shared-memory access outside a warp_begin/warp_end scope",
        check: unscoped_shared,
    },
    Lint {
        id: "kernel/sync-under-divergence",
        description: "sync_threads under divergence (open warp scope or lane-conditional)",
        check: sync_under_divergence,
    },
    Lint {
        id: "kernel/raw-slice-index",
        description: "field-pair storage indexed without a charge API",
        check: raw_slice_index,
    },
    Lint {
        id: "kernel/float-reduction-order",
        description: "order-sensitive float reduction (parallel/reversed/f32/data-dependent)",
        check: float_reduction_order,
    },
];

/// Run every lint over one source text. `file` labels the diagnostics.
pub fn lint_source(file: &str, src: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in scan_source(file, src) {
        for lint in LINTS {
            (lint.check)(lint, &f, &mut out);
        }
    }
    out
}

/// Lint one file on disk.
pub fn lint_file(path: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let src = std::fs::read_to_string(path)?;
    Ok(lint_source(&path.display().to_string(), &src))
}

/// Lint every `.rs` file under a directory (sorted, non-recursive — the
/// kernel crate keeps all sources at the top level of `src/`).
pub fn lint_dir(dir: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for path in rs_sources(dir)? {
        out.extend(lint_file(&path)?);
    }
    Ok(out)
}

/// Locate `crates/kernels/src`: walk up from the current directory, then
/// fall back to the compile-time sibling of this crate — so both the
/// `zc-lint` binary and `cuzc --verify` find the kernel sources from a
/// repo checkout or from anywhere inside the workspace.
pub fn find_kernels_src() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let cand = d.join("crates/kernels/src");
        if cand.is_dir() {
            return Some(cand);
        }
        dir = d.parent().map(PathBuf::from);
    }
    let sibling = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../kernels/src");
    sibling.is_dir().then_some(sibling)
}

/// The sorted `.rs` files directly under a directory.
pub fn rs_sources(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension().is_some_and(|x| x == "rs")).then_some(p)
        })
        .collect();
    files.sort();
    Ok(files)
}
