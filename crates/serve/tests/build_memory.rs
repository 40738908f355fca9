//! Peak-memory ratchet for [`ModelArtifacts::build`].
//!
//! Building `synth:200k` GCN artifacts may raise the process's resident
//! high-water mark (`VmHWM` in `/proc/self/status`) above its resident
//! size just before the build by at most 1.1× what the build leaves
//! resident. A build whose transients (a copied buffer, a second layout of
//! the same rows) outgrow what it keeps fails here.
//!
//! The mark cannot be reset, so the test re-runs its own binary and the
//! child builds once in a fresh process. Release-only: the `synth:200k`
//! build is too slow for debug codegen.

#![cfg(not(debug_assertions))]

use std::process::Command;

use mega_gnn::GnnKind;
use mega_graph::DatasetSpec;
use mega_serve::{ModelArtifacts, ModelSpec};

/// Set in the child run.
const CHILD: &str = "BUILD_MEMORY_CHILD";
const TEST: &str = "build_peaks_within_a_tenth_of_what_it_keeps";

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let kb: usize = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("a kB count");
    kb * 1024
}

/// Builds the artifacts and prints `peak kept` bytes above the baseline.
fn child() {
    let spec = ModelSpec::standard(DatasetSpec::synth(200_000), GnnKind::Gcn);
    let before = status_bytes("VmRSS:");
    let artifacts = ModelArtifacts::build(&spec);
    let kept = status_bytes("VmRSS:").saturating_sub(before);
    let peak = status_bytes("VmHWM:").saturating_sub(before);
    println!("{CHILD} {peak} {kept}");
    drop(artifacts);
}

#[test]
#[cfg(target_os = "linux")]
fn build_peaks_within_a_tenth_of_what_it_keeps() {
    if std::env::var_os(CHILD).is_some() {
        child();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let run = Command::new(&exe)
        .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("re-run the test binary");
    assert!(run.status.success(), "child failed: {run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.split_once(CHILD).map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("child printed no result: {stdout}"));
    let [peak, kept]: [f64; 2] = line
        .split_whitespace()
        .map(|x| x.parse().expect("a byte count"))
        .collect::<Vec<_>>()
        .try_into()
        .expect("two byte counts");
    let ratio = peak / kept;
    println!("build peak {peak} B, kept {kept} B, ratio {ratio:.3}");
    assert!(
        ratio <= 1.1,
        "the build peaked {peak} B above its start, {ratio:.2}× the {kept} B it keeps"
    );
}
