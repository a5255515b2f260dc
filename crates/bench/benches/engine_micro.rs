//! Microbenchmarks of the substrates: the interference fixed-point
//! solver and the closed-form predictor. (The discrete-event engine's
//! rows moved to `des_throughput`, which writes `BENCH_des.json`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ensemble_core::ConfigId;
use hpc_platform::{BindPolicy, InterferenceModel, PlacedWorkload, Platform};
use std::hint::black_box;

fn bench_interference_solver(c: &mut Criterion) {
    let spec = hpc_platform::cori::cori_node();
    let model = InterferenceModel::default();
    let mut group = c.benchmark_group("interference_solver");
    for tenants in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(tenants), &tenants, |b, &tenants| {
            let mut platform = Platform::new(1, spec.clone(), hpc_platform::cori::aries_network());
            let placed: Vec<PlacedWorkload> = (0..tenants)
                .map(|i| PlacedWorkload {
                    alloc: platform.allocate(0, 32 / tenants as u32, BindPolicy::Spread).unwrap(),
                    workload: if i % 2 == 0 {
                        kernels::profile::simulation_workload(800)
                    } else {
                        kernels::profile::analysis_workload()
                    },
                })
                .collect();
            b.iter(|| black_box(model.solve_node(&spec, black_box(&placed), &[]).len()))
        });
    }
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let cfg = runtime::SimRunConfig {
        n_steps: 37,
        jitter: 0.0,
        ..runtime::SimRunConfig::paper(ConfigId::C2_8.build())
    };
    c.bench_function("predictor/c2_8_paper_scale", |b| {
        b.iter(|| black_box(runtime::predict(black_box(&cfg)).unwrap().ensemble_makespan))
    });
}

criterion_group!(benches, bench_interference_solver, bench_predictor);
criterion_main!(benches);
