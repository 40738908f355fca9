//! The rule catalog. Each rule is a pure function over the analyzed
//! [`WorkspaceView`]; fixture self-tests live in `tests/fixtures.rs`
//! and feed seeded-violation sources through the same entry points.

use crate::lexer::{Tok, TokKind};
use crate::{Violation, WorkspaceView};

/// A rule: named scan over the workspace view.
pub type Rule = fn(&WorkspaceView) -> Vec<Violation>;

/// Every rule, in catalog order.
pub fn all() -> Vec<(&'static str, Rule)> {
    vec![
        ("unsafe-policy", unsafe_policy as Rule),
        ("forbid-unsafe", forbid_unsafe as Rule),
        ("crate-dag", crate_dag as Rule),
        ("lock-unwrap", lock_unwrap as Rule),
        ("kernel-clock", kernel_clock as Rule),
    ]
}

fn violation(rule: &'static str, file: &str, line: usize, message: String) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line,
        message,
    }
}

/// Whether `toks[i..]` starts with the given idents/puncts pattern.
/// Pattern entries: single-char strings match puncts, longer ones idents.
fn seq_at(toks: &[Tok], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(off, want)| {
        toks.get(i + off).is_some_and(|t| {
            if want.len() == 1 && !want.chars().next().unwrap().is_alphanumeric() && *want != "_" {
                t.is_punct(want.chars().next().unwrap())
            } else {
                t.is_ident(want)
            }
        })
    })
}

fn contains_seq(toks: &[Tok], pattern: &[&str]) -> bool {
    (0..toks.len()).any(|i| seq_at(toks, i, pattern))
}

// ---------------------------------------------------------------------
// unsafe-policy
// ---------------------------------------------------------------------

/// How many raw source lines above an `unsafe` token may hold its
/// `SAFETY:` comment (or `# Safety` doc section). Sized to span a
/// `#[target_feature]` attribute plus a short multi-line justification.
const SAFETY_WINDOW: usize = 10;

/// `unsafe` is allowed only in `mega-format`'s `avx2`-gated accel
/// module, and every site needs a `SAFETY` justification within the
/// lines directly above it. `allow(unsafe_code)` escapes are likewise
/// confined to that module.
fn unsafe_policy(view: &WorkspaceView) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in &view.files {
        if entry.file.crate_name == "mega-lint" {
            // The linter's own sources hold rule fixtures; its crate
            // roots still carry `forbid(unsafe_code)`, so rustc is the
            // enforcer here.
            continue;
        }
        let lines: Vec<&str> = entry.file.text.lines().collect();
        for tok in &entry.toks {
            if tok.is_ident("unsafe") {
                if entry.file.crate_name != "mega-format" {
                    out.push(violation(
                        "unsafe-policy",
                        &entry.file.path,
                        tok.line,
                        format!(
                            "`unsafe` in crate `{}`: all unsafe code lives in mega-format's \
                             avx2-gated kernel module",
                            entry.file.crate_name
                        ),
                    ));
                } else if !entry.is_gated_line(tok.line) {
                    out.push(violation(
                        "unsafe-policy",
                        &entry.file.path,
                        tok.line,
                        "`unsafe` outside the `avx2`-gated module: the portable build must \
                         stay forbid(unsafe_code)-clean"
                            .to_string(),
                    ));
                } else if !has_safety_comment(&lines, tok.line) {
                    out.push(violation(
                        "unsafe-policy",
                        &entry.file.path,
                        tok.line,
                        format!(
                            "`unsafe` without a `SAFETY:` comment (or `# Safety` doc section) \
                             within the {SAFETY_WINDOW} lines above it"
                        ),
                    ));
                }
            }
        }
        for i in 0..entry.toks.len() {
            if seq_at(&entry.toks, i, &["allow", "(", "unsafe_code", ")"])
                && !(entry.file.crate_name == "mega-format"
                    && entry.is_gated_line(entry.toks[i].line))
            {
                out.push(violation(
                    "unsafe-policy",
                    &entry.file.path,
                    entry.toks[i].line,
                    "`allow(unsafe_code)` outside mega-format's avx2-gated module".to_string(),
                ));
            }
        }
    }
    out
}

/// Scans the raw lines in `(line - SAFETY_WINDOW, line]` for a safety
/// justification. Raw text, not tokens: the justification *is* a
/// comment, which the lexer drops.
fn has_safety_comment(lines: &[&str], line: usize) -> bool {
    let end = line; // 1-based token line; check it and the window above
    let start = end.saturating_sub(SAFETY_WINDOW);
    lines[start.saturating_sub(1).min(lines.len())..end.min(lines.len())]
        .iter()
        .any(|l| l.contains("SAFETY") || l.contains("# Safety"))
}

// ---------------------------------------------------------------------
// forbid-unsafe
// ---------------------------------------------------------------------

/// Every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) must
/// declare `forbid(unsafe_code)` — directly or via `cfg_attr` (the
/// pattern mega-format uses to downgrade to `deny` under `avx2`).
fn forbid_unsafe(view: &WorkspaceView) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in &view.files {
        let path = &entry.file.path;
        let is_root = path.ends_with("/src/lib.rs")
            || path.ends_with("/src/main.rs")
            || (path.contains("/src/bin/") && path.ends_with(".rs"));
        if !is_root {
            continue;
        }
        if !contains_seq(&entry.toks, &["forbid", "(", "unsafe_code", ")"]) {
            out.push(violation(
                "forbid-unsafe",
                path,
                1,
                "crate root does not declare `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// crate-dag
// ---------------------------------------------------------------------

/// Offline shims, allowed as a dependency of any crate.
const SHIMS: &[&str] = &["rand", "proptest", "criterion"];

/// The dependency allowlist: `(crate, allowed normal deps)`. The layer
/// order this encodes is the repo's architecture — leaves (`graph`,
/// `hw`, `tensor`, `format`) depend on nothing, the model stack
/// (`gnn` → `quant`) sits on the leaves, the hardware stack
/// (`sim` → `accel`/`baselines`) beside it, the `mega` facade on both,
/// and only `serve`/`bench` may see (almost) everything. In particular
/// `mega-format` must never grow a dependency on `mega-quant`: the
/// storage format is defined by the paper's encoding, not by whichever
/// quantizer produced the tiers.
const DEP_ALLOW: &[(&str, &[&str])] = &[
    (
        "mega-accel",
        &[
            "mega-format",
            "mega-graph",
            "mega-hw",
            "mega-partition",
            "mega-sim",
        ],
    ),
    (
        "mega-baselines",
        &["mega-graph", "mega-hw", "mega-partition", "mega-sim"],
    ),
    (
        "mega-bench",
        &[
            "mega",
            "mega-accel",
            "mega-baselines",
            "mega-format",
            "mega-gnn",
            "mega-graph",
            "mega-hw",
            "mega-partition",
            "mega-quant",
            "mega-sim",
            "mega-tensor",
        ],
    ),
    (
        "mega",
        &[
            "mega-accel",
            "mega-baselines",
            "mega-gnn",
            "mega-graph",
            "mega-quant",
            "mega-sim",
        ],
    ),
    ("mega-format", &[]),
    ("mega-gnn", &["mega-format", "mega-graph", "mega-tensor"]),
    ("mega-graph", &[]),
    ("mega-hw", &[]),
    ("mega-lint", &[]),
    ("mega-partition", &["mega-graph"]),
    ("mega-quant", &["mega-gnn", "mega-graph", "mega-tensor"]),
    (
        "mega-serve",
        &[
            "mega-accel",
            "mega-format",
            "mega-gnn",
            "mega-graph",
            "mega-partition",
            "mega-quant",
            "mega-sim",
            "mega-tensor",
        ],
    ),
    ("mega-sim", &["mega-graph", "mega-hw"]),
    ("mega-tensor", &[]),
    ("rand", &[]),
    ("proptest", &[]),
    ("criterion", &[]),
];

/// Extra `[dev-dependencies]` edges (tests may reach across layers the
/// library must not — e.g. `mega-quant` checks round-trips against
/// `mega-format`, and the facade's integration tests drive `mega-serve`).
const DEV_DEP_EXTRA: &[(&str, &[&str])] = &[
    ("mega-bench", &["mega-serve"]),
    (
        "mega",
        &["mega-format", "mega-partition", "mega-serve", "mega-tensor"],
    ),
    ("mega-quant", &["mega-format"]),
];

fn dag_lookup<'t>(table: &'t [(&str, &'t [&str])], name: &str) -> Option<&'t [&'t str]> {
    table
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, allowed)| allowed)
}

/// The crate dependency graph must match [`DEP_ALLOW`] exactly — any
/// new edge is a deliberate, reviewed change to this table.
fn crate_dag(view: &WorkspaceView) -> Vec<Violation> {
    let mut out = Vec::new();
    for manifest in &view.manifests {
        let Some(allowed) = dag_lookup(DEP_ALLOW, &manifest.name) else {
            out.push(violation(
                "crate-dag",
                &manifest.path,
                1,
                format!(
                    "crate `{}` is not in the dependency allowlist: add it to \
                     DEP_ALLOW in crates/lint/src/rules.rs with its permitted edges",
                    manifest.name
                ),
            ));
            continue;
        };
        let dev_extra = dag_lookup(DEV_DEP_EXTRA, &manifest.name).unwrap_or(&[]);
        for dep in &manifest.deps {
            if !SHIMS.contains(&dep.as_str()) && !allowed.contains(&dep.as_str()) {
                out.push(violation(
                    "crate-dag",
                    &manifest.path,
                    1,
                    format!(
                        "dependency edge `{}` -> `{}` is not in the allowlist \
                         (layering: see DEP_ALLOW in crates/lint/src/rules.rs)",
                        manifest.name, dep
                    ),
                ));
            }
        }
        for dep in &manifest.dev_deps {
            if !SHIMS.contains(&dep.as_str())
                && !allowed.contains(&dep.as_str())
                && !dev_extra.contains(&dep.as_str())
            {
                out.push(violation(
                    "crate-dag",
                    &manifest.path,
                    1,
                    format!(
                        "dev-dependency edge `{}` -> `{}` is not in the allowlist \
                         (see DEV_DEP_EXTRA in crates/lint/src/rules.rs)",
                        manifest.name, dep
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// lock-unwrap
// ---------------------------------------------------------------------

const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// In `mega-serve`'s request path (its `src/`), lock results must not be
/// `.unwrap()`/`.expect()`ed: a panicking holder would poison the lock
/// and cascade every later request into the same panic. The policy is
/// `poison::recover` — take the guard, note the component, let
/// `/healthz` flip to 503 so the replica drains (the dead-lane pattern).
///
/// The `(` `)` in the pattern is deliberate: lock acquisition methods
/// take no arguments, so `stream.read(&mut buf).unwrap()` (std::io)
/// never matches. Test modules are exempt — panicking on poison is the
/// right behavior *inside a test*.
fn lock_unwrap(view: &WorkspaceView) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in &view.files {
        if entry.file.crate_name != "mega-serve" || !entry.file.path.contains("/src/") {
            continue;
        }
        for i in 0..entry.toks.len() {
            let toks = &entry.toks;
            let hit = toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && LOCK_METHODS.contains(&t.text.as_str())
                })
                && seq_at(toks, i + 2, &["(", ")", "."])
                && toks
                    .get(i + 5)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
            if hit && !entry.is_test_line(toks[i].line) {
                out.push(violation(
                    "lock-unwrap",
                    &entry.file.path,
                    toks[i].line,
                    format!(
                        "`.{}().{}()` on a lock in the serve request path: use \
                         `poison::recover`/`.recover(\"component\")` so a poisoned lock \
                         degrades /healthz instead of cascading panics",
                        toks[i + 1].text,
                        toks[i + 5].text
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// kernel-clock
// ---------------------------------------------------------------------

/// Kernel bodies (`mega-format/src/planes.rs`, `mega-gnn/src/kernel.rs`)
/// must not read clocks: timing belongs to callers, benches, and the
/// serve-side tracing layer. A clock read in a kernel is either stray
/// instrumentation (perturbs BENCH numbers) or a nondeterminism bug.
fn kernel_clock(view: &WorkspaceView) -> Vec<Violation> {
    let mut out = Vec::new();
    for entry in &view.files {
        let path = &entry.file.path;
        let is_kernel =
            path.ends_with("format/src/planes.rs") || path.ends_with("gnn/src/kernel.rs");
        if !is_kernel {
            continue;
        }
        for tok in &entry.toks {
            if (tok.is_ident("Instant") || tok.is_ident("SystemTime"))
                && !entry.is_test_line(tok.line)
            {
                out.push(violation(
                    "kernel-clock",
                    path,
                    tok.line,
                    format!(
                        "`{}` in a kernel body: kernels are pure compute, timing lives \
                         in callers and benches",
                        tok.text
                    ),
                ));
            }
        }
    }
    out
}
