//! The two energy examples run end-to-end on the unified
//! [`netsim::EnergyModel`] (satellite 3 of the energy plane):
//!
//! * `energy_comparison` prices the Table-1 panel under the reference
//!   model and must agree on the MST across all four algorithms;
//! * `radio_energy` runs the radio toolbox on the kernel under the
//!   classic one-unit-per-active-round `radio` preset, and prints the
//!   pinned Local/Detection/Silence rows.
//!
//! Both are spawned through the real `cargo run --example` entry point,
//! so drift in the examples' use of the public API (the exact surface
//! the README points newcomers at) fails here rather than in a reader's
//! terminal.

use std::process::Command;

fn run_example(name: &str) -> (String, String) {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("spawning example {name}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "example {name} failed ({:?}):\n{stderr}",
        out.status
    );
    (stdout, stderr)
}

#[test]
fn energy_comparison_example_runs_on_the_reference_model() {
    let (stdout, _) = run_example("energy_comparison");
    assert!(
        stdout.contains("energy model: round:1000,tx:8,rx:4,idle:50"),
        "example must announce the reference model spec:\n{stdout}"
    );
    for label in [
        "GHS always-awake",
        "Randomized-MST",
        "Deterministic-MST",
        "Corollary-1 (CV)",
    ] {
        // One row per panel size.
        assert_eq!(
            stdout.matches(label).count(),
            3,
            "missing rows for {label}:\n{stdout}"
        );
    }
    assert!(stdout.contains("energy max"), "priced column is gone");
}

#[test]
fn radio_energy_example_runs_on_the_radio_preset() {
    let (stdout, _) = run_example("radio_energy");
    assert!(
        stdout.contains("energy model: round:1,tx:0,rx:0,idle:0"),
        "example must announce the radio preset spec:\n{stdout}"
    );
    for rule in ["| Local", "| Detection", "| Silence"] {
        // Once in the broadcast table, once in the upcast table.
        assert_eq!(
            stdout.matches(rule).count(),
            2,
            "missing rows for collision rule {rule}:\n{stdout}"
        );
    }
    // The exact rows: the Local rule informs everyone at the sleeping
    // model's cost, the collision rules lose nodes to collisions.
    for row in [
        "| Local     |    32/32 |          2 |       1.62 |          0 |",
        "| Detection |    27/32 |          2 |       1.56 |          2 |",
        "| Silence   |    27/32 |          2 |       1.56 |          2 |",
        "| Local     |         true |          2 |          0 |",
        "| Detection |        false |          2 |          9 |",
        "| Silence   |        false |          2 |          9 |",
    ] {
        assert!(
            stdout.lines().any(|line| line == row),
            "missing row {row}:\n{stdout}"
        );
    }
}
