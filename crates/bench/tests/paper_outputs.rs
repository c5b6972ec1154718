//! Byte-for-byte pins on the figure binaries whose output is cheap enough
//! for a debug-build test: the running example's Tables 1–5 trace and the
//! Figure 17 ADPaR quality tables. A change that moves a single digit of
//! either fails here; regenerate a golden file only when the paper-facing
//! output is meant to change.
//!
//! Figure 14 is pinned by hand (`diff` against the parent's stdout): it takes
//! several seconds even in a release build.

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
