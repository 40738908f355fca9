//! `mega-lint`: the workspace's own static-analysis pass.
//!
//! The repo's correctness story has machine-checked proofs for *values*
//! (bit-exactness suites) and, through `mega_serve::sync`, for *lock
//! order* — this crate adds machine-checked **source invariants** that
//! neither rustc nor clippy knows about because they are policies of
//! this codebase, not of Rust:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-policy` | `unsafe` only inside `mega-format`'s `avx2`-gated kernel module, each site with a `SAFETY` comment |
//! | `forbid-unsafe` | every crate root (`lib.rs`, `main.rs`, `src/bin/*.rs`) declares `forbid(unsafe_code)` |
//! | `crate-dag` | the crate dependency graph matches the declared allowlist (e.g. `format` must never depend on `quant`) |
//! | `lock-unwrap` | no `.unwrap()`/`.expect()` on lock results in `mega-serve`'s request path — poison recovers via [`mega_serve::poison`] |
//! | `kernel-clock` | no `Instant`/`SystemTime` inside kernel bodies (`planes.rs`, `kernel.rs`) — timing lives in callers and benches |
//!
//! Std-only by necessity (the build environment is offline, so no
//! `syn`): [`lexer`] hand-rolls exactly the token stream the rules
//! need. Rules run over an in-memory [`WorkspaceView`], so their
//! fixture self-tests feed seeded-violation snippets as strings —
//! which, usefully, also proves the lexer's literal-skipping: those
//! same snippets sit in this crate's own test sources without tripping
//! the real scan.
//!
//! [`mega_serve::poison`]: https://docs.rs/mega-serve

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok, TokKind};

/// One source file, tagged with the crate it belongs to.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Package name of the owning crate (e.g. `mega-serve`).
    pub crate_name: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Full source text.
    pub text: String,
}

/// A crate manifest, reduced to what the DAG rule needs.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Package name.
    pub name: String,
    /// Repo-relative path of the `Cargo.toml`.
    pub path: String,
    /// `[dependencies]` entries.
    pub deps: Vec<String>,
    /// `[dev-dependencies]` entries.
    pub dev_deps: Vec<String>,
}

/// One rule violation, printable as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (see the module docs table).
    pub rule: &'static str,
    /// Repo-relative file path (a `Cargo.toml` for DAG violations).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what the policy wants instead.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A lexed + structurally analyzed source file, ready for rules.
pub struct FileEntry {
    /// The file itself.
    pub file: SourceFile,
    /// Token stream (comments and whitespace removed).
    pub toks: Vec<Tok>,
    /// Line ranges (1-based, inclusive) of `#[cfg(test)]` modules.
    pub test_ranges: Vec<(usize, usize)>,
    /// Line ranges of modules gated on the `avx2` feature.
    pub gated_ranges: Vec<(usize, usize)>,
    /// Whether the file lives under `tests/`, `benches/` or `examples/`.
    pub is_test_code: bool,
}

impl FileEntry {
    /// Whether `line` is inside a `#[cfg(test)]` module (or the file is
    /// test/bench/example code outright).
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_code || within(&self.test_ranges, line)
    }

    /// Whether `line` is inside an `avx2`-gated module.
    pub fn is_gated_line(&self, line: usize) -> bool {
        within(&self.gated_ranges, line)
    }
}

fn within(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Everything the rules see: analyzed files plus manifests.
pub struct WorkspaceView {
    /// Analyzed source files.
    pub files: Vec<FileEntry>,
    /// Crate manifests.
    pub manifests: Vec<Manifest>,
}

/// Analyzes raw sources into a [`WorkspaceView`].
pub fn analyze(files: Vec<SourceFile>, manifests: Vec<Manifest>) -> WorkspaceView {
    let entries = files
        .into_iter()
        .map(|file| {
            let toks = lex(&file.text);
            let (test_ranges, gated_ranges) = module_ranges(&toks);
            let is_test_code = ["/tests/", "/benches/", "/examples/"]
                .iter()
                .any(|d| file.path.contains(d))
                || ["tests/", "benches/", "examples/"]
                    .iter()
                    .any(|d| file.path.starts_with(d));
            FileEntry {
                file,
                toks,
                test_ranges,
                gated_ranges,
                is_test_code,
            }
        })
        .collect();
    WorkspaceView {
        files: entries,
        manifests,
    }
}

/// Runs every rule over the view, in catalog order.
pub fn run(view: &WorkspaceView) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (_, rule) in rules::all() {
        violations.extend(rule(view));
    }
    violations
}

/// Inclusive 1-based line ranges.
type LineRanges = Vec<(usize, usize)>;

/// Computes `#[cfg(test)]` and `avx2`-gated module line ranges.
///
/// Walks the token stream with a brace stack; a module inherits its
/// parent's flags (a plain `mod` inside a gated `mod` is gated).
fn module_ranges(toks: &[Tok]) -> (LineRanges, LineRanges) {
    struct Frame {
        test: bool,
        gated: bool,
        start: usize,
        owns_test: bool,
        owns_gated: bool,
    }
    let mut test_ranges = Vec::new();
    let mut gated_ranges = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut pending_test = false;
    let mut pending_gated = false;
    let mut i = 0;
    while i < toks.len() {
        let tok = &toks[i];
        if tok.is_punct('#') {
            // Outer `#[...]` or inner `#![...]` attribute: collect it.
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct('!') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let (attr, end) = collect_group(toks, j, '[', ']');
                if attr_has_word(&attr, "cfg") || attr_has_word(&attr, "cfg_attr") {
                    pending_test |= attr_has_word(&attr, "test");
                    pending_gated |= attr_has_word(&attr, "avx2");
                }
                i = end;
                continue;
            }
        }
        match tok.kind {
            TokKind::Ident if tok.text == "mod" => {
                // `mod name {` opens a module frame; `mod name;` does not.
                let mut j = i + 1;
                while j < toks.len() && toks[j].kind == TokKind::Ident {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    let inherited_test = stack.last().map(|f| f.test).unwrap_or(false);
                    let inherited_gated = stack.last().map(|f| f.gated).unwrap_or(false);
                    stack.push(Frame {
                        test: inherited_test || pending_test,
                        gated: inherited_gated || pending_gated,
                        start: tok.line,
                        owns_test: pending_test && !inherited_test,
                        owns_gated: pending_gated && !inherited_gated,
                    });
                    pending_test = false;
                    pending_gated = false;
                    i = j + 1;
                    continue;
                }
                pending_test = false;
                pending_gated = false;
            }
            TokKind::Punct if tok.is_punct('{') => {
                let (test, gated) = stack
                    .last()
                    .map(|f| (f.test, f.gated))
                    .unwrap_or((false, false));
                stack.push(Frame {
                    test,
                    gated,
                    start: tok.line,
                    owns_test: false,
                    owns_gated: false,
                });
            }
            TokKind::Punct if tok.is_punct('}') => {
                if let Some(frame) = stack.pop() {
                    if frame.owns_test {
                        test_ranges.push((frame.start, tok.line));
                    }
                    if frame.owns_gated {
                        gated_ranges.push((frame.start, tok.line));
                    }
                }
            }
            // Visibility and path tokens may sit between an attribute and
            // its `mod`; anything else consumes the pending attributes.
            TokKind::Ident
                if matches!(tok.text.as_str(), "pub" | "crate" | "super" | "self" | "in") => {}
            TokKind::Punct if tok.is_punct('(') || tok.is_punct(')') => {}
            _ => {
                pending_test = false;
                pending_gated = false;
            }
        }
        i += 1;
    }
    (test_ranges, gated_ranges)
}

/// Collects a delimited token group starting at `open_idx` (which must
/// hold `open`). Returns the joined text and the index just past the
/// matching closer.
fn collect_group(toks: &[Tok], open_idx: usize, open: char, close: char) -> (String, usize) {
    let mut depth = 0usize;
    let mut text = String::new();
    let mut i = open_idx;
    while i < toks.len() {
        let tok = &toks[i];
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(&tok.text);
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return (text, i + 1);
            }
        }
        i += 1;
    }
    (text, i)
}

/// Whether `word` appears in `text` as a standalone alphanumeric run
/// (so `"avx2"` matches inside `feature = "avx2"` but `test` does not
/// match `latest`).
fn attr_has_word(text: &str, word: &str) -> bool {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == word)
}

// ---------------------------------------------------------------------
// Filesystem loading
// ---------------------------------------------------------------------

/// Loads every workspace member's manifest and sources from `root`.
///
/// The walker reads the member list out of the root `Cargo.toml` and
/// scans each member directory for `.rs` files (plus the repo-level
/// `tests/` and `examples/`, which the facade crate registers as its
/// own targets).
pub fn load_workspace(root: &Path) -> io::Result<WorkspaceView> {
    let root_manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let members = parse_members(&root_manifest);
    if members.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} has no [workspace] members",
                root.join("Cargo.toml").display()
            ),
        ));
    }

    let mut files = Vec::new();
    let mut manifests = Vec::new();
    for member in &members {
        let dir = root.join(member);
        let manifest_text = fs::read_to_string(dir.join("Cargo.toml"))?;
        let manifest = parse_manifest(&manifest_text, &format!("{member}/Cargo.toml"));
        let crate_name = manifest.name.clone();
        manifests.push(manifest);
        collect_rs(&dir, root, &crate_name, &mut files)?;
    }
    // Repo-level integration tests and examples (facade-crate targets).
    for extra in ["tests", "examples"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            collect_rs(&dir, root, "mega", &mut files)?;
        }
    }
    Ok(analyze(files, manifests))
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in fs::read_dir(&current)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = rel_path(&path, root);
                let text = fs::read_to_string(&path)?;
                out.push(SourceFile {
                    crate_name: crate_name.to_string(),
                    path: rel,
                    text,
                });
            }
        }
    }
    Ok(())
}

fn rel_path(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extracts the `members = [...]` list from a workspace manifest.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_list = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if !in_list {
            if line.starts_with("members") && line.contains('[') {
                in_list = true;
            } else {
                continue;
            }
        }
        for piece in line.split('"').skip(1).step_by(2) {
            members.push(piece.to_string());
        }
        if line.contains(']') {
            break;
        }
    }
    members
}

/// Minimal `Cargo.toml` reader: package name plus the dependency names
/// out of `[dependencies]` and `[dev-dependencies]`.
pub fn parse_manifest(manifest: &str, path: &str) -> Manifest {
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut dev_deps = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                _ => Section::Other,
            };
            continue;
        }
        match section {
            Section::Package => {
                if let Some(value) = line.strip_prefix("name") {
                    if let Some(value) = value.trim_start().strip_prefix('=') {
                        name = value.trim().trim_matches('"').to_string();
                    }
                }
            }
            Section::Deps | Section::DevDeps => {
                let dep = line
                    .split(['=', '.', ' '])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if !dep.is_empty() {
                    if section == Section::Deps {
                        deps.push(dep);
                    } else {
                        dev_deps.push(dep);
                    }
                }
            }
            Section::Other => {}
        }
    }
    Manifest {
        name,
        path: path.to_string(),
        deps,
        dev_deps,
    }
}

/// Locates the workspace root: walks up from `start` until a
/// `Cargo.toml` containing `[workspace]` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut current = Some(start.to_path_buf());
    while let Some(dir) = current {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        current = dir.parent().map(Path::to_path_buf);
    }
    None
}
