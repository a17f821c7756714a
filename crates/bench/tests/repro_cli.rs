//! `repro` rejects what it does not understand before running anything,
//! so a mistyped CI step fails instead of passing vacuously.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_arguments_exit_2_with_usage() {
    for args in [
        &["bench"][..],
        &["fig55"],
        &["chaos", "--seeds", "x"],
        &["chaos", "--seeds"],
        &["ablate", "--smok"],
        &["tab2", "--quick"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} did not exit 2");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
    }
}

#[test]
fn known_experiment_runs() {
    let out = repro(&["tab2"]);
    assert!(out.status.success(), "repro tab2 failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table II"));
}
