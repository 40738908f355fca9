//! Fixture self-tests: every rule must (a) fire on a seeded violation
//! and (b) stay silent on the clean counterpart. Fixtures are in-memory
//! strings fed through the same `analyze` + `run` pipeline the CLI
//! uses — and because the lexer treats raw strings as opaque literals,
//! these very snippets sitting in this test file can never trip the
//! real workspace scan.

use mega_lint::{analyze, Manifest, SourceFile, Violation};

fn scan(files: Vec<(&str, &str, &str)>, manifests: Vec<Manifest>) -> Vec<Violation> {
    let files = files
        .into_iter()
        .map(|(krate, path, text)| SourceFile {
            crate_name: krate.to_string(),
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect();
    mega_lint::run(&analyze(files, manifests))
}

fn manifest(name: &str, deps: &[&str], dev_deps: &[&str]) -> Manifest {
    Manifest {
        name: name.to_string(),
        path: format!("crates/{name}/Cargo.toml"),
        deps: deps.iter().map(|s| s.to_string()).collect(),
        dev_deps: dev_deps.iter().map(|s| s.to_string()).collect(),
    }
}

// -------------------------------------------------------------- unsafe-policy

#[test]
fn unsafe_outside_format_fires() {
    let violations = scan(
        vec![(
            "mega-graph",
            "crates/graph/src/lib.rs",
            r#"
            pub fn f(xs: &[u64]) -> u64 {
                unsafe { *xs.get_unchecked(0) }
            }
            "#,
        )],
        vec![],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "unsafe-policy" && v.line == 3),
        "{violations:?}"
    );
}

#[test]
fn unsafe_in_format_outside_gated_module_fires() {
    let violations = scan(
        vec![(
            "mega-format",
            "crates/format/src/planes.rs",
            r#"
            pub fn f(xs: &[u64]) -> u64 {
                // SAFETY: not enough — this is not inside the avx2 module.
                unsafe { *xs.get_unchecked(0) }
            }
            "#,
        )],
        vec![],
    );
    assert!(
        violations.iter().any(|v| v.rule == "unsafe-policy"),
        "{violations:?}"
    );
}

#[test]
fn unsafe_gated_with_safety_comment_is_clean() {
    let violations = scan(
        vec![(
            "mega-format",
            "crates/format/src/planes.rs",
            r##"
            #[cfg(all(feature = "avx2", target_arch = "x86_64"))]
            mod accel {
                #![allow(unsafe_code)]
                pub fn call(xs: &[u64]) -> u64 {
                    // SAFETY: gated on runtime detection of the features.
                    unsafe { body(xs) }
                }
                /// # Safety
                ///
                /// Caller verified CPU support.
                #[target_feature(enable = "avx2")]
                unsafe fn body(xs: &[u64]) -> u64 {
                    xs[0]
                }
            }
            "##,
        )],
        vec![],
    );
    assert!(
        !violations.iter().any(|v| v.rule == "unsafe-policy"),
        "{violations:?}"
    );
}

#[test]
fn unsafe_gated_without_safety_comment_fires() {
    let violations = scan(
        vec![(
            "mega-format",
            "crates/format/src/planes.rs",
            r##"
            #[cfg(all(feature = "avx2", target_arch = "x86_64"))]
            mod accel {
                #![allow(unsafe_code)]
                pub fn call(xs: &[u64]) -> u64 {
                    unsafe { xs[0] }
                }
            }
            "##,
        )],
        vec![],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "unsafe-policy" && v.message.contains("SAFETY")),
        "{violations:?}"
    );
}

#[test]
fn allow_unsafe_code_outside_gated_module_fires() {
    let violations = scan(
        vec![(
            "mega-serve",
            "crates/serve/src/lib.rs",
            r#"
            #![forbid(unsafe_code)]
            mod sneaky {
                #![allow(unsafe_code)]
            }
            "#,
        )],
        vec![],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "unsafe-policy" && v.message.contains("allow(unsafe_code)")),
        "{violations:?}"
    );
}

#[test]
fn unsafe_keyword_inside_strings_and_comments_is_invisible() {
    let violations = scan(
        vec![(
            "mega-graph",
            "crates/graph/src/lib.rs",
            r###"
            #![forbid(unsafe_code)]
            // unsafe in a comment is fine
            pub fn f() -> &'static str {
                r#"unsafe { lock().unwrap() }"#
            }
            "###,
        )],
        vec![],
    );
    assert!(
        !violations
            .iter()
            .any(|v| v.rule == "unsafe-policy" || v.rule == "lock-unwrap"),
        "{violations:?}"
    );
}

// -------------------------------------------------------------- forbid-unsafe

#[test]
fn crate_root_without_forbid_fires_and_with_it_is_clean() {
    let bare = scan(
        vec![("mega-hw", "crates/hw/src/lib.rs", "pub fn f() {}")],
        vec![],
    );
    assert!(
        bare.iter()
            .any(|v| v.rule == "forbid-unsafe" && v.file == "crates/hw/src/lib.rs"),
        "{bare:?}"
    );

    let direct = scan(
        vec![(
            "mega-hw",
            "crates/hw/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        )],
        vec![],
    );
    assert!(
        !direct.iter().any(|v| v.rule == "forbid-unsafe"),
        "{direct:?}"
    );

    // mega-format's cfg_attr form counts too.
    let via_cfg_attr = scan(
        vec![(
            "mega-format",
            "crates/format/src/lib.rs",
            r#"#![cfg_attr(not(feature = "avx2"), forbid(unsafe_code))]
               #![cfg_attr(feature = "avx2", deny(unsafe_code))]
               pub fn f() {}"#,
        )],
        vec![],
    );
    assert!(
        !via_cfg_attr.iter().any(|v| v.rule == "forbid-unsafe"),
        "{via_cfg_attr:?}"
    );
}

#[test]
fn bin_roots_are_checked_but_non_root_modules_are_not() {
    let violations = scan(
        vec![
            (
                "mega-serve",
                "crates/serve/src/bin/loadgen.rs",
                "fn main() {}",
            ),
            (
                "mega-serve",
                "crates/serve/src/scheduler.rs",
                "pub fn f() {}",
            ),
        ],
        vec![],
    );
    let files: Vec<&str> = violations
        .iter()
        .filter(|v| v.rule == "forbid-unsafe")
        .map(|v| v.file.as_str())
        .collect();
    assert_eq!(
        files,
        vec!["crates/serve/src/bin/loadgen.rs"],
        "{violations:?}"
    );
}

// ------------------------------------------------------------------ crate-dag

#[test]
fn format_depending_on_quant_fires() {
    let violations = scan(
        vec![],
        vec![manifest(
            "mega-format",
            &["mega-quant", "rand"],
            &["proptest"],
        )],
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "crate-dag" && v.message.contains("mega-quant")),
        "{violations:?}"
    );
}

#[test]
fn allowed_edges_and_shims_are_clean() {
    let violations = scan(
        vec![],
        vec![
            manifest(
                "mega-gnn",
                &["mega-format", "mega-graph", "mega-tensor", "rand"],
                &["proptest"],
            ),
            manifest(
                "mega-quant",
                &["mega-gnn", "rand"],
                &["mega-format", "proptest"],
            ),
        ],
    );
    assert!(
        !violations.iter().any(|v| v.rule == "crate-dag"),
        "{violations:?}"
    );
}

#[test]
fn dev_dep_escape_hatch_does_not_leak_into_normal_deps() {
    // mega-quant may *test* against mega-format, but must not link it.
    let violations = scan(vec![], vec![manifest("mega-quant", &["mega-format"], &[])]);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "crate-dag" && !v.message.contains("dev-dependency")),
        "{violations:?}"
    );
}

#[test]
fn unknown_crate_must_be_added_to_the_allowlist() {
    let violations = scan(vec![], vec![manifest("mega-new-thing", &[], &[])]);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "crate-dag" && v.message.contains("not in the dependency allowlist")),
        "{violations:?}"
    );
}

// ---------------------------------------------------------------- lock-unwrap

#[test]
fn lock_unwrap_in_serve_src_fires() {
    let violations = scan(
        vec![(
            "mega-serve",
            "crates/serve/src/scheduler.rs",
            r#"
            pub fn submit(&self) {
                let buckets = self.buckets.lock().unwrap();
                let slots = self.slots.read().expect("slots");
            }
            "#,
        )],
        vec![],
    );
    let lines: Vec<usize> = violations
        .iter()
        .filter(|v| v.rule == "lock-unwrap")
        .map(|v| v.line)
        .collect();
    assert_eq!(lines, vec![3, 4], "{violations:?}");
}

#[test]
fn io_read_unwrap_is_not_a_lock_unwrap() {
    // `.read(&mut buf)` takes an argument — lock acquisition never does.
    let violations = scan(
        vec![(
            "mega-serve",
            "crates/serve/src/http.rs",
            r#"
            pub fn recv(stream: &mut std::net::TcpStream, buf: &mut [u8]) -> usize {
                use std::io::Read;
                stream.read(buf).unwrap()
            }
            "#,
        )],
        vec![],
    );
    assert!(
        !violations.iter().any(|v| v.rule == "lock-unwrap"),
        "{violations:?}"
    );
}

#[test]
fn lock_unwrap_in_tests_and_other_crates_is_exempt() {
    let violations = scan(
        vec![
            (
                "mega-serve",
                "crates/serve/tests/serving.rs",
                "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }",
            ),
            (
                "mega-serve",
                "crates/serve/src/scheduler.rs",
                r#"
                pub fn recover_path(&self) {}
                #[cfg(test)]
                mod tests {
                    fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }
                }
                "#,
            ),
            (
                "mega-bench",
                "crates/bench/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }",
            ),
        ],
        vec![],
    );
    assert!(
        !violations.iter().any(|v| v.rule == "lock-unwrap"),
        "{violations:?}"
    );
}

// --------------------------------------------------------------- kernel-clock

#[test]
fn clock_in_kernel_body_fires_but_test_module_is_exempt() {
    let dirty = scan(
        vec![(
            "mega-gnn",
            "crates/gnn/src/kernel.rs",
            r#"
            pub fn forward() {
                let t0 = std::time::Instant::now();
            }
            "#,
        )],
        vec![],
    );
    assert!(
        dirty
            .iter()
            .any(|v| v.rule == "kernel-clock" && v.line == 3),
        "{dirty:?}"
    );

    let test_only = scan(
        vec![(
            "mega-format",
            "crates/format/src/planes.rs",
            r#"
            pub fn ternary_dot_rows() {}
            #[cfg(test)]
            mod tests {
                fn timing_smoke() {
                    let _ = std::time::Instant::now();
                }
            }
            "#,
        )],
        vec![],
    );
    assert!(
        !test_only.iter().any(|v| v.rule == "kernel-clock"),
        "{test_only:?}"
    );
}

// ------------------------------------------------------- the real workspace

#[test]
fn real_workspace_is_violation_free() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let view = mega_lint::load_workspace(&root).expect("load workspace");
    assert!(
        view.manifests.len() >= 14,
        "walker should see every member crate, got {}",
        view.manifests.len()
    );
    assert!(
        view.files.len() > 60,
        "walker should see the workspace sources, got {}",
        view.files.len()
    );
    let violations = mega_lint::run(&view);
    assert!(
        violations.is_empty(),
        "the workspace must lint clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
