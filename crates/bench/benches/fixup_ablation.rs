//! Ablation for §3.2's design claim: with the penalty-free fixup, a cheaper
//! but less accurate estimator wins — "the loss of accuracy is unimportant,
//! and scaling is more efficient in all cases."
//!
//! Measures the three estimate-based scaling strategies on the scale step in isolation
//! (initial state construction + scaling, no digit generation), where the
//! estimator cost difference is proportionally largest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fpp_bignum::{PowerTable, Scratch};
use fpp_core::{initial_state, ScalingStrategy};
use fpp_float::SoftFloat;
use fpp_testgen::SchryerSet;
use std::hint::black_box;

fn sample(n: usize) -> Vec<SoftFloat> {
    let all = SchryerSet::new().collect();
    let step = (all.len() / n).max(1);
    all.iter()
        .step_by(step)
        .map(|&v| SoftFloat::from_f64(v).expect("positive finite"))
        .collect()
}

fn bench_scale_step(c: &mut Criterion) {
    let values = sample(512);
    let mut group = c.benchmark_group("scale_step_only");
    group.throughput(Throughput::Elements(values.len() as u64));

    let strategies = [
        ("estimate_2flop", ScalingStrategy::Estimate),
        ("log_accurate", ScalingStrategy::Log),
        ("gay_taylor_5flop", ScalingStrategy::Gay),
    ];
    for (name, strategy) in strategies {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            let mut powers = PowerTable::with_capacity(10, 350);
            b.iter(|| {
                for v in &values {
                    let mut st = initial_state(v);
                    let k = strategy.scale_in(&mut st, v, false, &mut powers, &mut Scratch::new());
                    black_box((&st, k));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale_step);
criterion_main!(benches);
