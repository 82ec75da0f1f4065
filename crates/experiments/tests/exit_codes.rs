//! The `repro` binary's documented exit-code contract: 0 everything
//! completed, 2 usage error, 4 sweep cells failed after the run drained
//! (with a per-cell failure report on stderr). Exit 3 (validation
//! divergence) needs a divergence to exist and is exercised by the
//! differential-validation suite instead; exit 130 (SIGINT) is covered by
//! the orchestrator's interrupt unit tests.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tl-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2() {
    let out = repro().arg("--bogus-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));

    let out = repro().args(["--experiment", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = repro().arg("--resume").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "--resume without a ledger dir is a usage error");

    let out = repro().args(["--cell-timeout", "-1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = repro().arg("--iterations").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing flag value is a usage error");

    // Topologies that parse as numbers but cannot be built are rejected
    // at the command line, not by a panic or an abort mid-run.
    for topology in [
        "leaf-spine:3x7@inf",
        "leaf-spine:100000x100000",
        "leaf-spine:65535x65537",
    ] {
        let out = repro()
            .args(["--experiment", "perf", "--iterations", "1", "--topology", topology])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--topology {topology}");
    }
}

#[test]
fn unmodelled_config_exits_2_before_any_cell() {
    // Faults are only modelled for the PS star: the whole invocation is a
    // usage error, rejected before the sweep writes its ledger.
    let dir = temp_dir("unmodelled");
    let out = repro()
        .args(["--experiment", "faults", "--quick", "--pattern", "ring"])
        .args(["--json", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ps-star pattern"), "{stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no cell ran");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_cell_exits_4_then_resume_recovers_to_0() {
    let dir = temp_dir("resume");
    let json = dir.to_str().unwrap();

    // A cell panics mid-sweep: the run drains, reports the failure, and
    // exits 4 — with the surviving cells checkpointed in the ledger.
    let out = repro()
        .args(["--experiment", "scale", "--quick", "--json", json])
        .env("TL_SWEEP_PANIC_AT", "scale:0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did not complete") && stderr.contains("injected test fault"),
        "per-cell failure report missing: {stderr}"
    );
    let ledger = std::fs::read_to_string(dir.join("scale.cells.jsonl")).unwrap();
    assert!(ledger.contains("\"Panicked\""), "failure checkpointed in the ledger");

    // The fault is gone; resume re-runs only the failed cell and exits 0.
    let out = repro()
        .args(["--experiment", "scale", "--quick", "--json", json, "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "resume after the fault cleared must pass");
    let merged = std::fs::read(dir.join("scale.json")).unwrap();

    // A second resume is a pure ledger load and reproduces the merged
    // JSON byte-for-byte.
    let out = repro()
        .args(["--experiment", "scale", "--quick", "--json", json, "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read(dir.join("scale.json")).unwrap(), merged);

    std::fs::remove_dir_all(&dir).unwrap();
}
