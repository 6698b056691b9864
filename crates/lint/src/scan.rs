//! The token-level source scanner behind every lint.
//!
//! The scanner is deliberately not a full Rust parser: the kernel sources
//! it analyzes are rustfmt-normalized, `forbid(unsafe_code)` Rust with no
//! macros defining functions, so a line walker that strips comments and
//! string/char literals, counts brace depth, and tracks the simulator's
//! `warp_begin`/`warp_end` scope calls recovers everything the lints need
//! — function extents, per-line warp-scope depth, divergent-branch depth —
//! without an external parser dependency. Self-check tests in the kernels
//! crate fail loudly if the scanner ever stops seeing the known functions.

/// One analyzable line of a function body.
#[derive(Clone, Debug)]
pub struct CodeLine {
    /// 1-based source line number.
    pub line: usize,
    /// The line's code with comments and string/char literals blanked.
    pub code: String,
    /// Warp-scope depth (`warp_begin` minus `warp_end`) at line start.
    pub warp_depth: i32,
    /// Whether the line sits inside a lane/warp-conditional branch.
    pub divergent: bool,
    /// Lint ids a trailing `// zc-lint: exempt(...)` comment waives here.
    pub line_exempt: Vec<String>,
}

/// One function body extracted from a source file, with the exemption
/// markers of the comment/attribute block directly above it.
#[derive(Clone, Debug)]
pub struct FnBody {
    /// Source file label (as passed to the scanner).
    pub file: String,
    /// 1-based line of the `fn` header.
    pub line: usize,
    /// Function name.
    pub name: String,
    /// The body's analyzable lines (header included).
    pub lines: Vec<CodeLine>,
    /// Lint ids waived by `// zc-lint: exempt(<id>, ...)` markers above.
    pub exempt_ids: Vec<String>,
}

impl FnBody {
    /// The stripped body text, newline-joined.
    pub fn code(&self) -> String {
        let mut s = String::new();
        for l in &self.lines {
            s.push_str(&l.code);
            s.push('\n');
        }
        s
    }

    /// Does any line of the body contain `needle` (in code, not comments)?
    pub fn contains(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| l.code.contains(needle))
    }

    /// Is a lint waived for this function (or for `line` specifically)?
    pub fn is_exempt(&self, lint_id: &str, line: usize) -> bool {
        if self.exempt_ids.iter().any(|id| id == lint_id) {
            return true;
        }
        self.lines
            .iter()
            .find(|l| l.line == line)
            .is_some_and(|l| l.line_exempt.iter().any(|id| id == lint_id))
    }
}

/// The typed marker prefix: `// zc-lint: exempt(<lint-id>, ...)`.
pub const EXEMPT_MARKER: &str = "zc-lint: exempt(";

/// Pull the lint ids out of every `zc-lint: exempt(...)` marker in a
/// comment, appending to `out`.
fn collect_exempt_ids(comment: &str, out: &mut Vec<String>) {
    let mut rest = comment;
    while let Some(p) = rest.find(EXEMPT_MARKER) {
        rest = &rest[p + EXEMPT_MARKER.len()..];
        let Some(close) = rest.find(')') else { break };
        for id in rest[..close].split(',') {
            let id = id.trim();
            if !id.is_empty() {
                out.push(id.to_string());
            }
        }
        rest = &rest[close..];
    }
}

/// Split one raw line into (stripped code, comment text). String and char
/// literal contents are blanked from the code so brace counting and
/// substring lints never match inside them; `//` starts the comment unless
/// it sits inside a string. `in_string` carries multi-line string state.
fn strip_line(raw: &str, in_string: &mut bool) -> (String, String) {
    let chars: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut i = 0;
    while i < chars.len() {
        if *in_string {
            match chars[i] {
                '\\' => i += 2,
                '"' => {
                    *in_string = false;
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        match chars[i] {
            '"' => {
                // Literal contents are dropped; an empty literal keeps the
                // expression shape (e.g. `f("")`) for the brace counter.
                code.push_str("\"\"");
                *in_string = true;
                i += 1;
            }
            '/' if i + 1 < chars.len() && chars[i + 1] == '/' => {
                comment = chars[i..].iter().collect();
                break;
            }
            '\'' => {
                // A char literal (`'x'`, `'\\''`, `'{'`) is blanked; a
                // lifetime (`'a`) passes through.
                if i + 2 < chars.len() && chars[i + 1] == '\\' {
                    let end = i + 3;
                    if end < chars.len() && chars[end] == '\'' {
                        code.push_str("' '");
                        i = end + 1;
                        continue;
                    }
                }
                if i + 2 < chars.len() && chars[i + 2] == '\'' {
                    code.push_str("' '");
                    i += 3;
                    continue;
                }
                code.push('\'');
                i += 1;
            }
            c => {
                code.push(c);
                i += 1;
            }
        }
    }
    (code, comment)
}

/// Whether a stripped line is a function definition header.
fn is_fn_header(code: &str) -> bool {
    let t = code
        .trim_start()
        .trim_start_matches("pub(crate) ")
        .trim_start_matches("pub(super) ")
        .trim_start_matches("pub ")
        .trim_start_matches("const ")
        .trim_start_matches("unsafe ");
    t.starts_with("fn ") && t.contains('(')
}

/// Function name from a header line.
fn fn_name(code: &str) -> String {
    code.split("fn ")
        .nth(1)
        .and_then(|r| r.split(['(', '<']).next())
        .unwrap_or("?")
        .trim()
        .to_string()
}

/// A lane/warp-conditional `if`: the branch body executes for a subset of
/// the warp, so a block-wide barrier inside it is the classic divergent
/// sync. Only the condition region (before the opening brace) is tested.
fn divergent_condition(code: &str) -> bool {
    let t = code.trim_start();
    for kw in ["if ", "} else if ", "else if "] {
        if let Some(rest) = t.strip_prefix(kw) {
            let cond = rest.split('{').next().unwrap_or(rest);
            return cond.contains("lane") || cond.contains("warp");
        }
    }
    false
}

/// Net brace / warp-scope deltas of one stripped line.
fn line_deltas(code: &str) -> (i32, i32) {
    let mut braces = 0i32;
    for c in code.chars() {
        match c {
            '{' => braces += 1,
            '}' => braces -= 1,
            _ => {}
        }
    }
    let warp =
        count_occurrences(code, "warp_begin(") as i32 - count_occurrences(code, "warp_end(") as i32;
    (braces, warp)
}

fn count_occurrences(hay: &str, needle: &str) -> usize {
    let mut n = 0;
    let mut rest = hay;
    while let Some(p) = rest.find(needle) {
        n += 1;
        rest = &rest[p + needle.len()..];
    }
    n
}

/// Scan one source file into function bodies. `file` is the label carried
/// into diagnostics. Functions inside `#[cfg(test)]` modules are skipped —
/// the lints police production kernel code, not test scaffolding.
pub fn scan_source(file: &str, src: &str) -> Vec<FnBody> {
    let raw_lines: Vec<&str> = src.lines().collect();
    // Pass 1: strip every line once, carrying string state across lines.
    let mut in_string = false;
    let stripped: Vec<(String, String)> = raw_lines
        .iter()
        .map(|l| strip_line(l, &mut in_string))
        .collect();

    let mut out = Vec::new();
    let mut depth = 0i32; // global brace depth
    let mut test_mod_depth: Option<i32> = None; // depth the test module opened at
    let mut pending_test_attr = false;
    let mut i = 0;
    while i < raw_lines.len() {
        let (code, comment) = &stripped[i];
        if let Some(d) = test_mod_depth {
            let (db, _) = line_deltas(code);
            depth += db;
            if depth <= d {
                test_mod_depth = None;
            }
            i += 1;
            continue;
        }
        if comment.contains("cfg(test)") || code.contains("#[cfg(test)]") {
            pending_test_attr = true;
            i += 1;
            continue;
        }
        if pending_test_attr {
            if code.trim_start().starts_with("mod ") {
                let (db, _) = line_deltas(code);
                test_mod_depth = Some(depth);
                depth += db;
                pending_test_attr = false;
                i += 1;
                continue;
            }
            if !code.trim().is_empty() || !comment.is_empty() {
                pending_test_attr = false;
            }
        }
        if !is_fn_header(code) {
            let (db, _) = line_deltas(code);
            depth += db;
            i += 1;
            continue;
        }

        // Exemption markers live in the comment/attribute block above.
        let mut exempt_ids = Vec::new();
        let mut j = i;
        while j > 0 {
            let above_raw = raw_lines[j - 1].trim_start();
            if above_raw.starts_with("//") || above_raw.starts_with("#[") {
                let (_, above_comment) = &stripped[j - 1];
                collect_exempt_ids(above_comment, &mut exempt_ids);
                j -= 1;
            } else {
                break;
            }
        }

        // Capture the body until brace depth returns to the fn's level.
        let fn_depth = depth;
        let start = i;
        let name = fn_name(code);
        let mut lines = Vec::new();
        let mut warp = 0i32;
        let mut divergent_stack: Vec<i32> = Vec::new();
        let mut seen_open = false;
        while i < raw_lines.len() {
            let (code, comment) = &stripped[i];
            let mut line_exempt = Vec::new();
            collect_exempt_ids(comment, &mut line_exempt);
            lines.push(CodeLine {
                line: i + 1,
                code: code.clone(),
                warp_depth: warp,
                divergent: !divergent_stack.is_empty(),
                line_exempt,
            });
            if divergent_condition(code) && code.contains('{') {
                divergent_stack.push(depth);
            }
            let (db, dw) = line_deltas(code);
            depth += db;
            warp += dw;
            while divergent_stack.last().is_some_and(|&d| depth <= d) {
                divergent_stack.pop();
            }
            if db > 0 || code.contains('{') {
                seen_open = true;
            }
            i += 1;
            if seen_open && depth <= fn_depth {
                break;
            }
            // Trait-method declarations end at `;` without a body.
            if !seen_open && code.contains(';') {
                break;
            }
        }
        out.push(FnBody {
            file: file.to_string(),
            line: start + 1,
            name,
            lines,
            exempt_ids,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_strings_and_char_literals() {
        let mut s = false;
        let (code, comment) = strip_line(
            r#"let x = "a { b"; match c { '{' => 1, _ => 2 } // }"#,
            &mut s,
        );
        assert!(!code.contains("a { b"));
        assert!(!code.contains("'{'"));
        assert_eq!(comment, "// }");
        assert!(!s);
        let (_, _) = strip_line(r#"let y = "open"#, &mut s);
        assert!(s, "unterminated string carries state");
    }

    #[test]
    fn extracts_fns_and_exemptions() {
        let src = "\
/// Docs.
// zc-lint: exempt(kernel/unscoped-shared)
fn helper(ctx: &mut Ctx) {
    ctx.sh_read(buf, i);
}

fn plain() {
    let s = \"fn not_a_fn()\";
}
";
        let fns = scan_source("t.rs", src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "helper");
        assert_eq!(fns[0].exempt_ids, vec!["kernel/unscoped-shared"]);
        assert!(fns[0].is_exempt("kernel/unscoped-shared", fns[0].line));
        assert_eq!(fns[1].name, "plain");
        assert!(!fns[1].contains("not_a_fn"));
    }

    #[test]
    fn tracks_warp_depth_and_divergence() {
        let src = "\
fn k(ctx: &mut Ctx) {
    ctx.warp_begin(w);
    ctx.sh_write(buf, 0, 1.0);
    ctx.warp_end();
    if lane == 0 {
        ctx.sync_threads();
    }
}
";
        let fns = scan_source("t.rs", src);
        let f = &fns[0];
        let at = |needle: &str| f.lines.iter().find(|l| l.code.contains(needle)).unwrap();
        assert_eq!(at("sh_write").warp_depth, 1);
        assert_eq!(at("warp_end").warp_depth, 1);
        assert_eq!(at("if lane").warp_depth, 0);
        assert!(at("sync_threads").divergent);
        assert!(!at("warp_begin").divergent);
    }

    #[test]
    fn skips_test_modules() {
        let src = "\
fn production() {}

#[cfg(test)]
mod tests {
    fn helper_in_tests() {}

    #[test]
    fn a_test() {}
}

fn also_production() {}
";
        let names: Vec<String> = scan_source("t.rs", src)
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(names, vec!["production", "also_production"]);
    }
}
