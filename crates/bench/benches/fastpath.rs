//! Criterion micro-benchmarks for the zero-allocation evaluation fast
//! path: split-phase lowering vs. full re-lowering per candidate, pool
//! throughput on both paths, and scratch-buffer Q-network inference vs.
//! the allocating entry points.
//!
//! Run with `cargo bench -p flextensor-bench --bench fastpath`; the
//! tracked end-to-end numbers live in `results/BENCH_explore.json`
//! (emitted by the `probe_perf` bin — see `docs/PERFORMANCE.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flextensor_explore::pool::EvalPool;
use flextensor_explore::space::Space;
use flextensor_ir::ops::{self, ConvParams};
use flextensor_nn::{AdaDelta, Mlp, MlpScratch, TrainScratch};
use flextensor_schedule::config::TargetKind;
use flextensor_schedule::lower::lower;
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::library::expert_gpu_config;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_lower_per_candidate(c: &mut Criterion) {
    let gemm = ops::gemm(1024, 1024, 1024);
    let gemm_cfg = expert_gpu_config(gemm.root_op());
    let gemm_tpl = LoweredTemplate::new(&gemm, TargetKind::Gpu);
    c.bench_function("fastpath/gemm_full_lower", |b| {
        b.iter(|| lower(black_box(&gemm), black_box(&gemm_cfg), TargetKind::Gpu).unwrap())
    });
    c.bench_function("fastpath/gemm_template_features", |b| {
        b.iter(|| gemm_tpl.features(black_box(&gemm_cfg)).unwrap())
    });

    let conv = ops::conv2d(ConvParams::same(1, 256, 512, 3), 28, 28);
    let conv_cfg = expert_gpu_config(conv.root_op());
    let conv_tpl = LoweredTemplate::new(&conv, TargetKind::Gpu);
    c.bench_function("fastpath/conv2d_full_lower", |b| {
        b.iter(|| lower(black_box(&conv), black_box(&conv_cfg), TargetKind::Gpu).unwrap())
    });
    c.bench_function("fastpath/conv2d_template_features", |b| {
        b.iter(|| conv_tpl.features(black_box(&conv_cfg)).unwrap())
    });
    c.bench_function("fastpath/conv2d_template_build", |b| {
        b.iter(|| LoweredTemplate::new(black_box(&conv), TargetKind::Gpu))
    });
}

fn bench_pool_throughput(c: &mut Criterion) {
    let conv = ops::conv2d(ConvParams::same(1, 64, 128, 3), 14, 14);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let space = Space::new(&conv, ev.target());
    let mut rng = StdRng::seed_from_u64(7);
    let cands: Vec<_> = (0..64).map(|_| space.random_point(&mut rng)).collect();
    c.bench_function("fastpath/pool_batch64_template", |b| {
        b.iter(|| EvalPool::new(&conv, &ev, 1, 1 << 16).evaluate_batch(black_box(&cands)))
    });
    c.bench_function("fastpath/pool_batch64_reference", |b| {
        b.iter(|| EvalPool::new_reference(&conv, &ev, 1, 1 << 16).evaluate_batch(black_box(&cands)))
    });
}

fn bench_q_forward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    // The paper's Q-network shape over a conv2d-sized feature vector.
    let net = Mlp::new(&[38, 64, 64, 64, 24], &mut rng);
    let x = vec![0.3; 38];
    c.bench_function("fastpath/q_forward_alloc", |b| {
        b.iter(|| net.forward(black_box(&x)))
    });
    let mut scratch = MlpScratch::new();
    let mut out = Vec::new();
    c.bench_function("fastpath/q_forward_into", |b| {
        b.iter(|| net.forward_into(black_box(&x), &mut scratch, &mut out))
    });
    let xs: Vec<f64> = (0..24).flat_map(|i| [0.01 * i as f64; 38]).collect();
    c.bench_function("fastpath/q_forward_batch24", |b| {
        b.iter(|| net.forward_batch(black_box(&xs), &mut scratch, &mut out))
    });

    let mut trainee = net.clone();
    let mut opt = AdaDelta::new(trainee.num_params());
    let ys = vec![0.5; 24 * 24];
    let mut train_scratch = TrainScratch::new();
    c.bench_function("fastpath/q_train_batch24_scratch", |b| {
        b.iter(|| trainee.train_batch_with(black_box(&xs), &ys, &mut opt, &mut train_scratch))
    });
}

criterion_group!(
    fastpath,
    bench_lower_per_candidate,
    bench_pool_throughput,
    bench_q_forward
);
criterion_main!(fastpath);
