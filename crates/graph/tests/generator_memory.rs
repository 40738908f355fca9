//! Peak-memory ratchet for the exact generator path.
//!
//! Generation may peak at no more than twice the memory the returned
//! [`Generated`] keeps: the graph's CSR, its CSC if it stores one (a
//! symmetric graph does not), and the communities.
//!
//! The peak is the process's resident high-water mark (`VmHWM` in
//! `/proc/self/status`) above its resident size just before generating.
//! That mark cannot be reset, so the test re-runs its own binary once per
//! case and each child generates one graph in a fresh process. The kept
//! bytes are the lengths of the returned arrays.
//!
//! Measured at 20k nodes and 200k directed edges (peak / kept, x86-64
//! Linux, glibc, 6 runs each in debug and release): the hash-set +
//! edge-list implementation peaked at 3.5–3.7× (symmetric) and 4.7–4.9×
//! (directed); the sorted-key path peaked at 1.25–1.29× and 1.38–1.45×
//! while every graph kept a CSC. A symmetric graph keeps none, so its
//! kept bytes halved: it now peaks at 1.68–1.91× (3 runs each in debug
//! and release), at the end of sampling, where the samplers and the key
//! vector are both live. The spread is the test binary's own code pages,
//! which the resident mark counts.

use std::process::Command;

use mega_graph::generate::{Generated, PowerLawSbm};
use mega_graph::Csr;

/// Set in a child run to the case it generates.
const CASE: &str = "GENERATOR_MEMORY_CASE";
const TEST: &str = "generation_peaks_below_twice_the_graph_it_keeps";

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

fn csr_bytes(csr: &Csr) -> usize {
    std::mem::size_of_val(csr.offsets()) + std::mem::size_of_val(csr.indices())
}

fn kept_bytes(out: &Generated) -> usize {
    let csc = if out.graph.is_symmetric() {
        0
    } else {
        csr_bytes(out.graph.csc())
    };
    csr_bytes(out.graph.csr()) + csc + std::mem::size_of_val(out.communities.as_slice())
}

/// Generates one graph and prints `peak kept` bytes for the parent run.
fn child(case: &str) {
    let cfg = PowerLawSbm {
        nodes: 20_000,
        directed_edges: 200_000,
        exponent: 2.1,
        communities: 16,
        homophily: 0.8,
        symmetric: case == "symmetric",
        seed: 0x5EED,
    };
    let before = status_bytes("VmRSS:");
    let out = cfg.generate();
    let peak = status_bytes("VmHWM:").saturating_sub(before);
    println!("{CASE} {peak} {}", kept_bytes(&out));
}

#[test]
#[cfg(target_os = "linux")]
fn generation_peaks_below_twice_the_graph_it_keeps() {
    if let Ok(case) = std::env::var(CASE) {
        child(&case);
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for case in ["symmetric", "directed"] {
        let run = Command::new(&exe)
            .args([TEST, "--exact", "--nocapture", "--test-threads=1"])
            .env(CASE, case)
            .output()
            .expect("re-run the test binary");
        assert!(run.status.success(), "{case} child failed: {run:?}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.split_once(CASE).map(|(_, rest)| rest))
            .unwrap_or_else(|| panic!("{case} child printed no result: {stdout}"));
        let [peak, kept]: [f64; 2] = line
            .split_whitespace()
            .map(|x| x.parse().expect("a byte count"))
            .collect::<Vec<_>>()
            .try_into()
            .expect("two byte counts");
        let ratio = peak / kept;
        println!("{case}: peak {ratio:.2}× kept");
        assert!(
            ratio <= 2.0,
            "{case}: generation peaked {peak} B above its start, {ratio:.2}× the {kept} B it keeps"
        );
    }
}
