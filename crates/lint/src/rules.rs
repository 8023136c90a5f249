//! The lint rules, applied to one file's token stream.
//!
//! | code | scope | finding |
//! |------|-------|---------|
//! | D001 | `crates/{core,sim,baselines,stats}` | iteration over a `HashMap`/`HashSet` |
//! | D002 | everywhere except `crates/bench`, `shims/criterion` | `Instant::now` / `SystemTime::now` |
//! | D003 | non-test code | `thread_rng` / `from_entropy` |
//! | P001 | non-test code | `.unwrap()`, `.expect(`, `panic!`, `unreachable!` |
//! | S001 | everywhere | `use`/`extern crate` of a non-workspace crate |
//! | L000 | everywhere | malformed `// lint: allow(…)` directive |
//!
//! D001–D003 and S001/L000 gate at **zero** unallowed findings; P001 is
//! ratcheted against the committed `LINT_baseline.json` (see
//! [`crate::baseline`]).

use crate::lexer::{lex, LexOutput, Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose code feeds the bit-identical replay contract: any
/// order-observable hash iteration here can silently diverge a replay.
const DETERMINISTIC_PREFIXES: [&str; 4] = [
    "crates/core/",
    "crates/sim/",
    "crates/baselines/",
    "crates/stats/",
];

/// The only places allowed to read the wall clock: the bench harness and
/// the criterion shim time things for a living.
const WALLCLOCK_EXEMPT_PREFIXES: [&str; 2] = ["crates/bench/", "shims/criterion/"];

/// First path segments a `use`/`extern crate` may name: the language
/// built-ins plus every workspace member (crates and offline shims).
/// Kept in sync with the root `Cargo.toml` member list — S001 exists
/// precisely to make a new external dependency a loud, reviewed event
/// (the build environment has no crates.io access; see shims/README.md).
const WORKSPACE_CRATES: [&str; 22] = [
    "std",
    "core",
    "alloc",
    "proc_macro",
    "crate",
    "self",
    "super",
    "spes",
    "spes_core",
    "spes_trace",
    "spes_stats",
    "spes_sim",
    "spes_baselines",
    "spes_bench",
    "spes_lint",
    "rand",
    "rand_distr",
    "serde",
    "serde_derive",
    "serde_json",
    "proptest",
    "criterion",
];

/// Hash-collection methods whose call order observes the hasher's
/// nondeterministic bucket order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// One lint finding. `allowed` findings are retained for reporting but
/// never gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint code (`D001`, …, `P001`, `S001`, `L000`).
    pub code: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Whether an inline `// lint: allow(…)` directive suppresses it.
    pub allowed: bool,
}

/// Whether `code` is ratcheted against the committed baseline rather
/// than gated at zero.
#[must_use]
pub fn is_ratcheted(code: &str) -> bool {
    code == "P001"
}

/// Scans one file. `rel_path` must be workspace-relative with `/`
/// separators (it selects which rules apply).
#[must_use]
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let ctx = FileContext::new(rel_path, &lexed);
    let mut findings = Vec::new();

    for &line in &lexed.malformed_allow_lines {
        findings.push(Finding {
            code: "L000",
            file: rel_path.to_owned(),
            line,
            message: "malformed lint directive: want `// lint: allow(CODE) reason` \
                      (the reason is mandatory)"
                .to_owned(),
            allowed: false,
        });
    }

    if ctx.deterministic {
        d001_hash_iteration(&ctx, &mut findings);
    }
    if !ctx.wallclock_exempt {
        d002_wall_clock(&ctx, &mut findings);
    }
    d003_unseeded_entropy(&ctx, &mut findings);
    if !ctx.test_path {
        p001_panic_paths(&ctx, &mut findings);
    }
    s001_foreign_crates(&ctx, &mut findings);

    // Stable order, de-duplicated (a `for … in map.keys()` loop matches
    // both the loop rule and the method rule).
    findings.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    findings.dedup_by(|a, b| (a.line, a.code) == (b.line, b.code));
    findings
}

struct FileContext<'a> {
    rel_path: &'a str,
    tokens: &'a [Token],
    lexed: &'a LexOutput,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
    deterministic: bool,
    wallclock_exempt: bool,
    /// Whole-file test scope: `tests/`, `benches/`, `examples/` trees.
    test_path: bool,
}

impl<'a> FileContext<'a> {
    fn new(rel_path: &'a str, lexed: &'a LexOutput) -> Self {
        let deterministic = DETERMINISTIC_PREFIXES
            .iter()
            .any(|p| rel_path.starts_with(p));
        let wallclock_exempt = WALLCLOCK_EXEMPT_PREFIXES
            .iter()
            .any(|p| rel_path.starts_with(p));
        let test_path = ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|seg| rel_path.contains(seg));
        Self {
            rel_path,
            tokens: &lexed.tokens,
            lexed,
            test_regions: test_regions(&lexed.tokens),
            deterministic,
            wallclock_exempt,
            test_path,
        }
    }

    fn in_test_code(&self, tok_idx: usize) -> bool {
        self.test_path
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| (start..=end).contains(&tok_idx))
    }

    fn ident(&self, idx: usize) -> Option<&str> {
        self.tokens
            .get(idx)
            .and_then(|t| (t.kind == TokenKind::Ident).then_some(t.text.as_str()))
    }

    fn punct(&self, idx: usize) -> Option<&str> {
        self.tokens
            .get(idx)
            .and_then(|t| (t.kind == TokenKind::Punct).then_some(t.text.as_str()))
    }

    fn is_punct(&self, idx: usize, p: &str) -> bool {
        self.punct(idx) == Some(p)
    }

    fn emit(&self, findings: &mut Vec<Finding>, code: &'static str, line: u32, message: String) {
        findings.push(Finding {
            code,
            file: self.rel_path.to_owned(),
            line,
            message,
            allowed: self.lexed.is_allowed(code, line),
        });
    }
}

/// D001 — iteration over `HashMap`/`HashSet` in a deterministic crate.
///
/// Pass 1 collects identifiers bound to a hash collection (a
/// `name: [&][mut] [path::]Hash{Map,Set}<…>` annotation on a field,
/// parameter, or let, or a `name = Hash{Map,Set}::…` initialiser).
/// Pass 2 flags `name.iter()`-family calls (including `self.name.…`)
/// and `for … in` loops whose iterated expression mentions a tracked
/// name or a bare `HashMap`/`HashSet`. Name tracking is file-global and
/// type-blind — that imprecision is the price of no `syn`; false
/// positives are annotated away with `// lint: allow(D001) reason`.
fn d001_hash_iteration(ctx: &FileContext, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();

    for i in 0..toks.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // `… = HashMap::…` initialiser: the binding sits left of `=`.
        if ctx.is_punct(i + 1, ":") && ctx.is_punct(i + 2, ":") {
            if let Some(eq) = i.checked_sub(1).filter(|&j| ctx.is_punct(j, "=")) {
                if let Some(bound) = eq.checked_sub(1).and_then(|j| ctx.ident(j)) {
                    hash_names.insert(bound);
                }
            }
        }
        // `name : [path ::]* Hash{Map,Set}` annotation: walk back over
        // the type path and any `&`/`mut` to the annotated name.
        let mut j = i;
        while j >= 3 && ctx.is_punct(j - 1, ":") && ctx.is_punct(j - 2, ":") {
            j -= 3; // step over one `segment::`
        }
        while j >= 1
            && (ctx.is_punct(j - 1, "&")
                || ctx.ident(j - 1) == Some("mut")
                || toks[j - 1].kind == TokenKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && ctx.is_punct(j - 1, ":") && !ctx.is_punct(j - 2, ":") {
            if let Some(bound) = ctx.ident(j - 2) {
                hash_names.insert(bound);
            }
        }
    }

    for (i, tok) in toks.iter().enumerate() {
        // `name.iter()`-family calls.
        if let Some(method) = ctx.ident(i) {
            if ITER_METHODS.contains(&method)
                && ctx.is_punct(i + 1, "(")
                && i >= 2
                && ctx.is_punct(i - 1, ".")
            {
                if let Some(recv) = ctx.ident(i - 2) {
                    // `foo.name.iter()` is a field of some other value —
                    // only `self.name` refers to the tracked binding.
                    let field_of_other =
                        i >= 4 && ctx.is_punct(i - 3, ".") && ctx.ident(i - 4) != Some("self");
                    if hash_names.contains(recv) && !field_of_other {
                        ctx.emit(
                            findings,
                            "D001",
                            tok.line,
                            format!(
                                "iteration over hash collection `{recv}.{method}()` in a \
                                 deterministic crate: bucket order is nondeterministic \
                                 (use a BTreeMap/BTreeSet or sort before iterating)"
                            ),
                        );
                    }
                }
            }
        }
        // `for pat in expr {` loops.
        if ctx.ident(i) == Some("for") {
            d001_for_loop(ctx, &hash_names, i, findings);
        }
    }
}

/// Flags a `for` loop when its iterated expression mentions a tracked
/// hash binding or a bare `HashMap`/`HashSet` path.
fn d001_for_loop(
    ctx: &FileContext,
    hash_names: &BTreeSet<&str>,
    for_idx: usize,
    findings: &mut Vec<Finding>,
) {
    let toks = ctx.tokens;
    // Find the `in` keyword at pattern depth 0 (patterns may nest
    // `(a, b)` / `[x]` groups).
    let mut depth = 0i32;
    let mut j = for_idx + 1;
    let in_idx = loop {
        match toks.get(j) {
            None => return,
            Some(t) if t.kind == TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" => return, // not a for-loop header after all
                _ => {}
            },
            Some(t) if t.kind == TokenKind::Ident && t.text == "in" && depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    // Expression runs to the body `{` at depth 0.
    let mut depth = 0i32;
    let mut j = in_idx + 1;
    while let Some(t) = toks.get(j) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
        }
        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();
            let hashy = name == "HashMap" || name == "HashSet" || hash_names.contains(name);
            let field_of_other =
                j >= 2 && ctx.is_punct(j - 1, ".") && ctx.ident(j - 2) != Some("self");
            if hashy && !field_of_other {
                ctx.emit(
                    findings,
                    "D001",
                    toks[for_idx].line,
                    format!(
                        "`for … in` over hash collection `{name}` in a deterministic \
                         crate: bucket order is nondeterministic \
                         (use a BTreeMap/BTreeSet or sort before iterating)"
                    ),
                );
                return;
            }
        }
        j += 1;
    }
}

/// D002 — wall-clock reads outside the bench harness.
fn d002_wall_clock(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && ctx.is_punct(i + 1, ":")
            && ctx.is_punct(i + 2, ":")
            && ctx.ident(i + 3) == Some("now")
        {
            ctx.emit(
                findings,
                "D002",
                ctx.tokens[i].line,
                format!(
                    "wall-clock read `{name}::now()` outside crates/bench and \
                     shims/criterion: wall time must never feed simulation state"
                ),
            );
        }
    }
}

/// D003 — unseeded entropy anywhere outside test code.
fn d003_unseeded_entropy(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if (name == "thread_rng" || name == "from_entropy") && !ctx.in_test_code(i) {
            ctx.emit(
                findings,
                "D003",
                ctx.tokens[i].line,
                format!(
                    "unseeded entropy `{name}` in non-test code: every RNG must be \
                     seeded so runs reproduce bit-identically"
                ),
            );
        }
    }
}

/// P001 — panic paths in non-test code (ratcheted, not zero-gated:
/// the seed predates this lint by ~400 unwraps).
fn p001_panic_paths(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        let what = match name {
            "unwrap" | "expect"
                if ctx.is_punct(i + 1, "(") && i >= 1 && ctx.is_punct(i - 1, ".") =>
            {
                format!(".{name}(…)")
            }
            "panic" | "unreachable" if ctx.is_punct(i + 1, "!") => format!("{name}!(…)"),
            _ => continue,
        };
        if !ctx.in_test_code(i) {
            ctx.emit(
                findings,
                "P001",
                ctx.tokens[i].line,
                format!("panic path `{what}` in non-test code"),
            );
        }
    }
}

/// S001 — `use`/`extern crate` of a crate outside the workspace.
///
/// Rust 2018 uniform paths let a `use` start with a module declared in
/// the same file (`mod wire; … use wire::Frame;`) or with a
/// `macro_rules!` macro defined there (`pub(crate) use name;` is the
/// standard re-export of one), so every `mod NAME` and
/// `macro_rules! NAME` is collected as a valid path root first.
fn s001_foreign_crates(ctx: &FileContext, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let mut local_roots: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        let name = match ctx.ident(i) {
            Some("mod") => ctx.ident(i + 1),
            Some("macro_rules") if ctx.is_punct(i + 1, "!") => ctx.ident(i + 2),
            _ => None,
        };
        local_roots.extend(name);
    }
    for i in 0..toks.len() {
        let after_dot = i.checked_sub(1).is_some_and(|j| ctx.is_punct(j, "."));
        let root = if ctx.ident(i) == Some("use") && !after_dot {
            // Skip a leading `::`; grouped `use {…}` roots are always
            // in-workspace paths in this codebase, skip them.
            let mut j = i + 1;
            if ctx.is_punct(j, ":") && ctx.is_punct(j + 1, ":") {
                j += 2;
            }
            ctx.ident(j).map(|seg| (j, seg))
        } else if ctx.ident(i) == Some("extern") && ctx.ident(i + 1) == Some("crate") {
            ctx.ident(i + 2).map(|seg| (i + 2, seg))
        } else {
            None
        };
        let Some((idx, segment)) = root else { continue };
        if !WORKSPACE_CRATES.contains(&segment) && !local_roots.contains(segment) {
            ctx.emit(
                findings,
                "S001",
                toks[idx].line,
                format!(
                    "`{segment}` is not a workspace member: external dependencies \
                     cannot resolve offline — add a shim under shims/ and register \
                     it (see shims/README.md), or drop the import"
                ),
            );
        }
    }
}

/// Token-index ranges of items annotated `#[cfg(test)]` or `#[test]`.
///
/// After a matching attribute (and any further attributes), the item
/// extends to the first `;` at bracket depth 0 — or, when a `{` opens
/// first, to its matching `}`.
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(is_p(toks, i, "#") && is_p(toks, i + 1, "[")) {
            i += 1;
            continue;
        }
        let Some(close) = matching(toks, i + 1, "[", "]") else {
            break;
        };
        let attr = &toks[i + 2..close];
        let is_test = matches!(
            attr,
            [t] if t.kind == TokenKind::Ident && t.text == "test"
        ) || matches!(
            attr,
            [c, o, t, cl]
                if c.text == "cfg"
                    && o.text == "("
                    && t.kind == TokenKind::Ident
                    && t.text == "test"
                    && cl.text == ")"
        );
        if !is_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = close + 1;
        while is_p(toks, j, "#") && is_p(toks, j + 1, "[") {
            match matching(toks, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => return regions,
            }
        }
        // Find the item's extent.
        let mut depth = 0i32;
        let mut k = j;
        let end = loop {
            match toks.get(k) {
                None => break k.saturating_sub(1),
                Some(t) if t.kind == TokenKind::Punct => match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break k,
                    "{" if depth == 0 => {
                        break matching(toks, k, "{", "}").unwrap_or(toks.len() - 1);
                    }
                    _ => {}
                },
                _ => {}
            }
            k += 1;
        };
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

fn is_p(toks: &[Token], idx: usize, p: &str) -> bool {
    toks.get(idx)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
}

/// Index of the bracket matching `toks[open_idx]`.
fn matching(toks: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == TokenKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(rel_path: &str, source: &str) -> Vec<(&'static str, u32, bool)> {
        scan_source(rel_path, source)
            .into_iter()
            .map(|f| (f.code, f.line, f.allowed))
            .collect()
    }

    #[test]
    fn d001_fires_on_method_iteration() {
        let src = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    \
                   for v in m.values() { drop(v); }\n}\n";
        let found = codes("crates/core/src/x.rs", src);
        assert!(found.contains(&("D001", 3, false)), "{found:?}");
    }

    #[test]
    fn d001_fires_on_for_loop_over_binding() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    for (k, v) in m { drop((k, v)); }\n}\n";
        assert!(codes("crates/sim/src/x.rs", src).contains(&("D001", 2, false)));
    }

    #[test]
    fn d001_tracks_self_fields() {
        let src = "struct S {\n    targets: HashMap<u32, u32>,\n}\nimpl S {\n    fn f(&self) \
                   {\n        for k in self.targets.keys() { drop(k); }\n    }\n}\n";
        assert!(codes("crates/core/src/x.rs", src).contains(&("D001", 6, false)));
    }

    #[test]
    fn d001_ignores_foreign_fields_and_lookups() {
        let src = "fn f(other: &Series, m: &HashMap<u32, u32>) {\n    \
                   let x = other.loaded.iter().count();\n    let y = m.get(&3);\n    \
                   drop((x, y));\n}\n";
        assert!(codes("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn d001_silent_outside_deterministic_crates() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    for v in m.values() { drop(v); }\n}\n";
        assert!(codes("crates/bench/src/x.rs", src).is_empty());
        assert!(codes("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn d002_fires_and_respects_exemptions() {
        let src = "fn f() { let t = Instant::now(); drop(t); }\n";
        assert!(codes("crates/sim/src/x.rs", src).contains(&("D002", 1, false)));
        assert!(codes("crates/bench/src/x.rs", src).is_empty());
        assert!(codes("shims/criterion/src/x.rs", src).is_empty());
    }

    #[test]
    fn d003_fires_outside_tests_only() {
        let src = "fn f() { let r = thread_rng(); drop(r); }\n#[cfg(test)]\nmod tests {\n    \
                   fn g() { let r = thread_rng(); drop(r); }\n}\n";
        let found = codes("crates/trace/src/x.rs", src);
        assert_eq!(found, vec![("D003", 1, false)]);
    }

    #[test]
    fn p001_counts_each_panic_form() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    \
                   let b = x.expect(\"msg\");\n    if a > b { panic!(\"no\"); }\n    \
                   unreachable!()\n}\n";
        let found = codes("crates/core/src/x.rs", src);
        let p001: Vec<u32> = found
            .iter()
            .filter(|(c, _, _)| *c == "P001")
            .map(|&(_, l, _)| l)
            .collect();
        assert_eq!(p001, vec![2, 3, 4, 5]);
    }

    #[test]
    fn p001_skips_test_regions_and_test_paths() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); \
                   }\n}\n";
        assert!(codes("crates/core/src/x.rs", src).is_empty());
        let lib = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(codes("crates/core/tests/t.rs", lib).is_empty());
        assert!(!codes("crates/core/src/lib.rs", lib).is_empty());
    }

    #[test]
    fn p001_ignores_unwrap_or_family() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(3).max(x.unwrap_or_default()) }\n";
        assert!(codes("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn s001_fires_on_foreign_crate_only() {
        let src = "use std::fmt;\nuse spes_core::SpesConfig;\nuse tokio::net::TcpListener;\n\
                   extern crate libc;\n";
        let found = codes("crates/sim/src/x.rs", src);
        assert_eq!(
            found
                .iter()
                .filter(|(c, _, _)| *c == "S001")
                .map(|&(_, l, _)| l)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn s001_permits_uniform_paths_to_local_modules() {
        // Rust 2018 uniform paths: `use wire::Frame` is legal after
        // `mod wire;` and must not read as a foreign crate.
        let src = "mod wire;\npub mod model {}\nuse wire::Frame;\npub use model::Trace;\n\
                   use weird::Thing;\n";
        let found = codes("crates/sim/src/x.rs", src);
        assert_eq!(
            found
                .iter()
                .filter(|(c, _, _)| *c == "S001")
                .map(|&(_, l, _)| l)
                .collect::<Vec<_>>(),
            vec![5]
        );
    }

    #[test]
    fn s001_permits_re_exports_of_local_macros() {
        // `pub(crate) use wire_record;` re-exports the macro defined
        // above it; `use regex;` names no local item and still fires.
        let src = "macro_rules! wire_record {\n    () => {};\n}\npub(crate) use wire_record;\n\
                   use regex;\n";
        let found = codes("crates/sim/src/x.rs", src);
        assert_eq!(
            found
                .iter()
                .filter(|(c, _, _)| *c == "S001")
                .map(|&(_, l, _)| l)
                .collect::<Vec<_>>(),
            vec![5]
        );
    }

    #[test]
    fn allow_suppresses_gating_but_keeps_the_finding() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    \
                   // lint: allow(D001) drained into a sorted Vec below\n    \
                   for v in m.values() { drop(v); }\n}\n";
        let found = scan_source("crates/core/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert!(found[0].allowed);
    }

    #[test]
    fn violations_inside_strings_and_comments_never_fire() {
        let src = "fn f() -> &'static str {\n    // let x = foo.unwrap(); panic!();\n    \
                   /* Instant::now() */\n    \"thread_rng() Instant::now() .unwrap()\"\n}\n";
        assert!(codes("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn l000_reports_malformed_allows() {
        let src = "// lint: allow(D001)\nfn f() {}\n";
        assert_eq!(codes("crates/core/src/x.rs", src), vec![("L000", 1, false)]);
    }
}
