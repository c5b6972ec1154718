//! Byte-for-byte pins on the figure binaries whose output is cheap enough
//! for a debug-build test: the running example's Tables 1–5 trace, Figures
//! 11, 12, 13, 15, 16 and 17, and Table 6. A change that moves a single
//! digit of any of them fails here; regenerate a golden file only when the
//! paper-facing output is meant to change.
//!
//! Two binaries stay out. Figure 14 is pinned by hand (`diff` against the
//! parent's stdout): it takes several seconds even in a release build.
//! Figure 18 prints wall-clock timings, which no two runs share.

use std::process::Command;

fn assert_stdout_matches(binary: &str, args: &[&str], golden: &str) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {binary}: {e}"));
    assert!(
        output.status.success(),
        "{binary} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    if stdout != golden {
        let first_diff = stdout
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "{binary} output differs from its golden file from line {}:\n--- got ---\n{stdout}--- want ---\n{golden}",
            first_diff + 1
        );
    }
}

#[test]
fn running_example_trace_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_running_example"),
        &["--trace"],
        include_str!("golden/running_example_trace.txt"),
    );
}

#[test]
fn fig17_adpar_quality_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig17_adpar_quality"),
        &[],
        include_str!("golden/fig17_adpar_quality.txt"),
    );
}

#[test]
fn fig11_worker_availability_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig11_worker_availability"),
        &[],
        include_str!("golden/fig11_worker_availability.txt"),
    );
}

#[test]
fn fig12_linear_relationship_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig12_linear_relationship"),
        &[],
        include_str!("golden/fig12_linear_relationship.txt"),
    );
}

#[test]
fn fig13_stratrec_effectiveness_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig13_stratrec_effectiveness"),
        &[],
        include_str!("golden/fig13_stratrec_effectiveness.txt"),
    );
}

#[test]
fn fig15_throughput_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig15_throughput"),
        &[],
        include_str!("golden/fig15_throughput.txt"),
    );
}

#[test]
fn fig16_payoff_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig16_payoff"),
        &[],
        include_str!("golden/fig16_payoff.txt"),
    );
}

#[test]
fn table6_alpha_beta_is_byte_identical() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_table6_alpha_beta"),
        &[],
        include_str!("golden/table6_alpha_beta.txt"),
    );
}
