//! Scale-out benchmark: one mid-size cell of the `--experiment scale`
//! grid end to end (the fluid engine's indexed next-event scheduling and
//! incremental allocation under load).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tl_experiments::{scale, ExperimentConfig, PolicyKind};

/// One mid-grid cell (147 hosts × 21 jobs) under the rotation-heavy
/// policy: the closest criterion gets to the sweep's hot loop without
/// minutes-long samples. `--experiment scale` measures the full grid.
fn bench_scale_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("scale/cell");
    g.sample_size(10);
    let cfg = ExperimentConfig {
        iterations: 2,
        ..ExperimentConfig::quick()
    };
    g.bench_function("147h_21j_tls_rr", |b| {
        b.iter(|| {
            let out = scale::run_cell(&cfg, 147, 21, PolicyKind::TlsRr);
            black_box(out.events)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_scale_cell);
criterion_main!(benches);
