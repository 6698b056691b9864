//! zc-lint — static analysis for the cuZ-Checker workspace.
//!
//! Two consumers share this crate (DESIGN.md §6.10):
//!
//! 1. **The kernel lint framework** ([`lint_source`] / [`lint_dir`] and the
//!    `zc-lint` binary): a token-level walker over `crates/kernels/src`
//!    running the registered [`LINTS`] — uncharged global/shared access,
//!    shared-memory access outside a `warp_begin`/`warp_end` scope,
//!    sync-under-divergence shapes, non-exempt raw slice indexing, and
//!    order-sensitive float reductions. The static companion of
//!    zc-sancheck's runtime audits: it catches the same bug classes at
//!    review time, on paths no test happens to execute.
//! 2. **The plan verifier** (`zc_core::plan::verify`): reports through the
//!    same typed [`Diagnostic`] so `cuzc --verify`, campaign admission and
//!    CI render one diagnostic table for both halves.
//!
//! No external dependencies: the scanner is a hand-rolled line/token
//! walker (see `scan.rs` for why that is sufficient here).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lints;
mod scan;

pub use lints::{
    find_kernels_src, lint_dir, lint_file, lint_source, rs_sources, Lint, CHARGE_APIS, LINTS,
};
pub use scan::{scan_source, CodeLine, FnBody, EXEMPT_MARKER};

use std::fmt;

/// How severe a finding is. Only [`Severity::Error`] gates (nonzero exit,
/// campaign admission rejection); warnings inform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory — reported but never gating.
    Warning,
    /// A contract violation — gates `--verify`, admission, and CI.
    Error,
}

impl Severity {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a finding anchors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Location {
    /// Source file (kernel lints) or plan element label (plan verifier).
    pub file: String,
    /// 1-based line number; 0 when the location is not a source line.
    pub line: usize,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}", self.file, self.line)
        } else {
            f.write_str(&self.file)
        }
    }
}

/// One typed finding — from a kernel lint or the plan verifier.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable lint id, `category/name` (e.g. `kernel/unscoped-shared`,
    /// `plan/cycle`).
    pub lint_id: &'static str,
    /// Whether the finding gates.
    pub severity: Severity,
    /// Anchor.
    pub location: Location,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] {}",
            self.severity, self.location, self.lint_id, self.message
        )
    }
}

/// Number of error-severity findings.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Render findings as the aligned diagnostic table `cuzc --verify` and the
/// `zc-lint` binary print. Empty input renders an explicit all-clear line
/// so a clean gate is visible in CI logs.
pub fn render_table(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "no diagnostics\n".to_string();
    }
    let sev_w = diags
        .iter()
        .map(|d| d.severity.label().len())
        .max()
        .unwrap_or(0);
    let id_w = diags.iter().map(|d| d.lint_id.len()).max().unwrap_or(0);
    let loc: Vec<String> = diags.iter().map(|d| d.location.to_string()).collect();
    let loc_w = loc.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut s = String::new();
    for (d, l) in diags.iter().zip(&loc) {
        s.push_str(&format!(
            "{:sev_w$}  {:id_w$}  {:loc_w$}  {}\n",
            d.severity.label(),
            d.lint_id,
            l,
            d.message
        ));
    }
    let errors = error_count(diags);
    s.push_str(&format!(
        "{} diagnostic(s): {} error(s), {} warning(s)\n",
        diags.len(),
        errors,
        diags.len() - errors
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_counts() {
        let diags = vec![
            Diagnostic {
                lint_id: "plan/cycle",
                severity: Severity::Error,
                location: Location {
                    file: "plan".into(),
                    line: 0,
                },
                message: "cycle".into(),
            },
            Diagnostic {
                lint_id: "kernel/float-reduction-order",
                severity: Severity::Warning,
                location: Location {
                    file: "p1.rs".into(),
                    line: 12,
                },
                message: "chunk width".into(),
            },
        ];
        let t = render_table(&diags);
        assert!(t.contains("plan/cycle"));
        assert!(t.contains("p1.rs:12"));
        assert!(t.contains("2 diagnostic(s): 1 error(s), 1 warning(s)"));
        assert_eq!(error_count(&diags), 1);
        assert_eq!(render_table(&[]), "no diagnostics\n");
    }
}
