//! Cross-version golden gate: deterministic simulator outputs must match
//! committed copies byte for byte. A change that moves any rate,
//! completion or allocator counter fails here, whichever code path
//! produced the committed files.
//!
//! * `tests/golden/scale_quick_*.jsonl`: the scale sweep's quick cell
//!   (21 hosts x 21 jobs) under each policy, one canonical JSON line per
//!   policy, on the single switch and on a 7x3 leaf-spine at 2:1.
//! * `results/json/fabric.json`: the full fabric sweep, as
//!   `repro --experiment fabric --json` writes it.
//! * `results/json/validate.json`: the fluid-vs-packet differential
//!   sweep, as `repro --experiment validate --json` writes it.

use std::path::Path;

use tl_dl::TopologySpec;
use tl_experiments::{fabric, scale, validate, ExperimentConfig, PolicyKind};

fn committed(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()))
}

fn assert_golden(rel: &str, actual: &str) {
    let expected = committed(rel);
    if actual == expected {
        return;
    }
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
    panic!("output differs from {rel} (first difference: {line})");
}

#[test]
fn quick_scale_cell_matches_golden() {
    let spine = TopologySpec::LeafSpine {
        racks: 7,
        hosts_per_rack: 3,
        oversub: 2.0,
    };
    for (name, topology) in [
        ("single_switch", TopologySpec::SingleSwitch),
        ("leaf_spine_7x3_2", spine),
    ] {
        let cfg = ExperimentConfig {
            iterations: scale::QUICK_ITERS,
            topology,
            ..ExperimentConfig::default()
        };
        let mut body = String::new();
        for policy in PolicyKind::all() {
            let out = scale::run_cell(&cfg, scale::GRID_HOSTS[0], scale::GRID_JOBS[0], policy);
            body.push_str(&scale::canonical_json(&out));
            body.push('\n');
        }
        assert_golden(&format!("tests/golden/scale_quick_{name}.jsonl"), &body);
    }
}

#[test]
fn full_fabric_sweep_matches_committed_json() {
    let r = fabric::run(&ExperimentConfig::default(), false);
    assert_eq!(r.rows.len(), 27, "every fabric cell must complete");
    let json = serde_json::to_string_pretty(&r).expect("json");
    assert_golden("results/json/fabric.json", &json);
}

#[test]
fn validate_sweep_matches_committed_json() {
    let r = validate::run(&ExperimentConfig::default());
    assert_eq!(r.rows.len(), validate::NUM_SCENARIOS);
    let json = serde_json::to_string_pretty(&r).expect("json");
    assert_golden("results/json/validate.json", &json);
}
