//! `repro` rejects what it does not understand before running anything,
//! so a mistyped CI step fails instead of passing vacuously.

use std::process::{Command, Output, Stdio};

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
        &["federate", "--smoke"],
        &["chaos", "--sweep"],
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

#[test]
fn closed_stdout_ends_quietly() {
    // A reader that exits without reading: `repro` rejects the argument
    // and never touches its stdin, so once it is gone the write end of
    // that pipe has no reader left.
    let mut reader = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--none")
        .stdin(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro runs");
    let closed = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("tab2")
        .stdout(closed)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "repro tab2 panicked: {stderr}"
    );
    assert_ne!(out.status.code(), Some(101), "repro tab2: {out:?}");
}
