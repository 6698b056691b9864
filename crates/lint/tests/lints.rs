//! Positive/negative snippets for every registered lint: each lint must
//! fire on its minimal bad shape, stay quiet on the charged/scoped
//! equivalent, and respect the typed exemption marker.

use zc_lint::{error_count, lint_source, Severity, LINTS};

fn ids(src: &str) -> Vec<&'static str> {
    lint_source("snippet.rs", src)
        .into_iter()
        .map(|d| d.lint_id)
        .collect()
}

#[test]
fn registry_has_at_least_five_lints_with_stable_ids() {
    assert!(LINTS.len() >= 5, "only {} lints registered", LINTS.len());
    let mut seen = std::collections::BTreeSet::new();
    for l in LINTS {
        assert!(l.id.contains('/'), "lint id {} not category/name", l.id);
        assert!(seen.insert(l.id), "duplicate lint id {}", l.id);
    }
}

#[test]
fn uncharged_access_fires_and_charging_silences_it() {
    let bad = "fn k(t: &Tensor<f32>) {\n    let s = t.as_slice();\n    consume(s);\n}\n";
    assert_eq!(ids(bad), vec!["charging/uncharged-access"]);
    let good = "fn k(ctx: &mut Ctx, t: &Tensor<f32>) {\n    let s = t.as_slice();\n    ctx.charge_lane_reads(s.len());\n}\n";
    assert!(ids(good).is_empty());
}

#[test]
fn typed_marker_waives_every_lint_it_names() {
    let body = "\
fn k(t: &Tensor<f32>) {
    let s = t.as_slice();
    let v = self.fields.orig[0];
}
";
    let typed = format!(
        "// zc-lint: exempt(charging/uncharged-access, kernel/raw-slice-index) — tensor views, \
         charged by the caller\n{body}"
    );
    assert!(ids(&typed).is_empty(), "both named lints must be waived");
    // The retired blanket marker waives nothing.
    let retired = format!("// charging-lint: exempt — tensor views\n{body}");
    assert_eq!(
        ids(&retired),
        vec!["charging/uncharged-access", "kernel/raw-slice-index"]
    );
}

#[test]
fn typed_marker_waives_only_the_named_lint() {
    let src = "\
// zc-lint: exempt(kernel/unscoped-shared)
fn helper(ctx: &mut Ctx) {
    ctx.sh_read(buf, i);
    let s = t.as_slice();
}
";
    // unscoped-shared is waived; uncharged-access would fire except sh_read
    // is itself a charge API, so the snippet is clean.
    assert!(ids(src).is_empty());
    let src2 = "\
// zc-lint: exempt(charging/uncharged-access)
fn helper(t: &Tensor<f32>) {
    let s = t.as_slice();
    ctx.sync_threads();
    consume(s);
}
";
    assert!(ids(src2).is_empty());
}

#[test]
fn unscoped_shared_fires_outside_warp_scope_only() {
    let bad = "fn k(ctx: &mut Ctx) {\n    ctx.sh_write(&mut buf, 0, 1.0);\n}\n";
    assert_eq!(ids(bad), vec!["kernel/unscoped-shared"]);
    let good = "\
fn k(ctx: &mut Ctx) {
    ctx.warp_begin(w);
    ctx.sh_write(&mut buf, 0, 1.0);
    ctx.warp_end();
}
";
    assert!(ids(good).is_empty());
}

#[test]
fn sync_under_divergence_catches_both_shapes() {
    let in_scope = "\
fn k(ctx: &mut Ctx) {
    ctx.warp_begin(w);
    ctx.sync_threads();
    ctx.warp_end();
}
";
    assert_eq!(ids(in_scope), vec!["kernel/sync-under-divergence"]);
    let lane_cond = "\
fn k(ctx: &mut Ctx) {
    if lane == 0 {
        ctx.sync_threads();
    }
}
";
    assert_eq!(ids(lane_cond), vec!["kernel/sync-under-divergence"]);
    let good = "\
fn k(ctx: &mut Ctx) {
    ctx.warp_begin(w);
    ctx.warp_end();
    ctx.sync_threads();
}
";
    assert!(ids(good).is_empty());
}

#[test]
fn raw_slice_index_fires_without_a_charge() {
    let bad =
        "fn k(&self) -> f64 {\n    self.fields.orig[0] as f64 - self.fields.dec[0] as f64\n}\n";
    assert_eq!(ids(bad), vec!["kernel/raw-slice-index"]);
    let good = "\
fn k(&self, ctx: &mut Ctx) -> f64 {
    ctx.g_read_raw(8);
    self.fields.orig[0] as f64 - self.fields.dec[0] as f64
}
";
    assert!(ids(good).is_empty());
}

#[test]
fn float_reduction_order_catches_each_shape() {
    let par = "fn k(xs: &[f32]) {\n    zc_par::par_map(xs.len(), |i| xs[i]);\n}\n";
    assert_eq!(ids(par), vec!["kernel/float-reduction-order"]);
    let f32_sum = "fn k(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n";
    assert_eq!(ids(f32_sum), vec!["kernel/float-reduction-order"]);
    let rev = "\
fn k(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs.iter().rev() {
        acc += x;
    }
    acc
}
";
    assert_eq!(ids(rev), vec!["kernel/float-reduction-order"]);
    // A data-dependent chunk width is advisory, not gating.
    let chunks = "fn k(xs: &[f64], w: usize) {\n    for c in xs.chunks(w) {\n        consume(c);\n    }\n}\n";
    let diags = lint_source("snippet.rs", chunks);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(error_count(&diags), 0);
    // The production shapes stay clean: literal chunks, f64 sums, forward
    // iteration.
    let good = "\
fn k(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for c in xs.chunks(64) {
        acc += c.iter().sum::<f64>();
    }
    acc
}
";
    assert!(ids(good).is_empty());
}

#[test]
fn comments_and_strings_never_trigger_lints() {
    let src = "\
fn k() {
    // calls t.as_slice() and self.fields.orig[0] in prose only
    let s = \"sh_write( .as_slice() par_iter\";
    consume(s);
}
";
    assert!(ids(src).is_empty());
}

#[test]
fn diagnostics_carry_file_and_line() {
    let src = "fn a() {}\n\nfn k(t: &T) {\n    let s = t.as_slice();\n    consume(s);\n}\n";
    let diags = lint_source("mem.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].location.file, "mem.rs");
    assert_eq!(diags[0].location.line, 4);
    assert_eq!(diags[0].severity, Severity::Error);
}
