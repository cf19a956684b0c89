//! Criterion micro-benchmarks over the substrates whose speed determines
//! exploration cost: lowering, cost-model evaluation, space operations,
//! the Q-network training step (alone and shared with a helper thread),
//! the GBT cost model, and the interpreter.
//!
//! These are the "inner loops" of the system — one exploration trial is
//! roughly `starts × (lower + cost-model)` plus amortized NN training.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use flextensor_autotvm::gbt::Gbt;
use flextensor_explore::space::Space;
use flextensor_interp::machine::run_kernel;
use flextensor_interp::reference::random_inputs;
use flextensor_ir::ops::{self, ConvParams};
use flextensor_nn::{AdaDelta, Mlp, TrainBatch, Trainer};
use flextensor_schedule::config::TargetKind;
use flextensor_schedule::lower::{lower, lower_naive};
use flextensor_sim::library::expert_gpu_config;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_lowering(c: &mut Criterion) {
    let gemm = ops::gemm(1024, 1024, 1024);
    let gemm_cfg = expert_gpu_config(gemm.root_op());
    c.bench_function("lower/gemm_1024_gpu", |b| {
        b.iter(|| lower(black_box(&gemm), black_box(&gemm_cfg), TargetKind::Gpu).unwrap())
    });
    let conv = ops::conv2d(ConvParams::same(1, 256, 512, 3), 28, 28);
    let conv_cfg = expert_gpu_config(conv.root_op());
    c.bench_function("lower/conv2d_c8_gpu", |b| {
        b.iter(|| lower(black_box(&conv), black_box(&conv_cfg), TargetKind::Gpu).unwrap())
    });
    c.bench_function("lower/conv2d_c8_cpu", |b| {
        b.iter(|| lower(black_box(&conv), black_box(&conv_cfg), TargetKind::Cpu).unwrap())
    });
}

fn bench_evaluation(c: &mut Criterion) {
    let conv = ops::conv2d(ConvParams::same(1, 256, 512, 3), 28, 28);
    let cfg = expert_gpu_config(conv.root_op());
    let ev = Evaluator::new(Device::Gpu(v100()));
    c.bench_function("evaluate/conv2d_c8_v100", |b| {
        b.iter(|| ev.evaluate(black_box(&conv), black_box(&cfg)))
    });
}

fn bench_space(c: &mut Criterion) {
    let conv = ops::conv2d(ConvParams::same(1, 256, 512, 3), 28, 28);
    let space = Space::new(&conv, TargetKind::Gpu);
    let mut rng = StdRng::seed_from_u64(0);
    c.bench_function("space/random_point", |b| {
        b.iter(|| space.random_point(black_box(&mut rng)))
    });
    let p = space.start_point();
    let dirs = space.directions().to_vec();
    c.bench_function("space/apply_all_directions", |b| {
        b.iter(|| {
            for &d in &dirs {
                black_box(space.apply(black_box(&p), d));
            }
        })
    });
    c.bench_function("space/features", |b| {
        b.iter(|| space.features(black_box(&p)))
    });
}

/// The Q-network training step at the shapes `optimize()` meets (feature
/// widths and direction counts of Table 3's smallest, a middling and the
/// largest space), 64 rows: on the calling thread alone, and shared with
/// a helper thread that spins for work as the Q-agent's helper does.
fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    for dims in [
        [14, 64, 64, 64, 21],
        [35, 64, 64, 64, 60],
        [43, 64, 64, 64, 82],
    ] {
        let (n_in, n_out) = (dims[0], dims[4]);
        let net = Mlp::new(&dims, &mut rng);
        let opt = AdaDelta::new(net.num_params());
        let xs: Vec<f64> = (0..64 * n_in).map(|i| (i % 7) as f64 / 7.0 - 0.4).collect();
        let ys: Vec<f64> = (0..64 * n_out).map(|i| (i % 5) as f64 / 5.0).collect();
        let mut trainer = Trainer::new(net, opt);
        *trainer.batch() = TrainBatch { xs, ys };
        let shape = format!("{n_in}x{n_out}");
        c.bench_function(&format!("nn/train_step_{shape}_1thread"), |b| {
            b.iter(|| black_box(trainer.train_step()))
        });
        let helper = trainer.helper();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    if !helper.help() {
                        std::hint::spin_loop();
                    }
                }
            });
            c.bench_function(&format!("nn/train_step_{shape}_2threads"), |b| {
                b.iter(|| black_box(trainer.train_step()))
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
    let net = Mlp::new(&[40, 64, 64, 64, 70], &mut rng);
    let x = vec![0.3; 40];
    c.bench_function("nn/q_network_forward", |b| {
        b.iter(|| net.forward(black_box(&x)))
    });
}

fn bench_gbt(c: &mut Criterion) {
    let xs: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            (0..10)
                .map(|j| ((i * 31 + j * 17) % 100) as f64 / 100.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>()).collect();
    c.bench_function("gbt/fit_256x10_20trees", |b| {
        b.iter(|| Gbt::fit(black_box(&xs), black_box(&ys), 20, 4, 0.3))
    });
    let model = Gbt::fit(&xs, &ys, 20, 4, 0.3);
    c.bench_function("gbt/predict", |b| {
        b.iter(|| model.predict(black_box(&xs[0])))
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 8, 8);
    let kernel = lower_naive(&g, TargetKind::Gpu);
    let inputs = random_inputs(&g, 3);
    c.bench_function("interp/conv2d_4x8x8x8", |b| {
        b.iter(|| run_kernel(black_box(&g), black_box(&kernel), black_box(&inputs)).unwrap())
    });
}

fn bench_search_trial(c: &mut Criterion) {
    use flextensor_explore::methods::{search, Method, SearchOptions};
    let g = ops::conv2d(ConvParams::same(1, 64, 128, 3), 14, 14);
    let ev = Evaluator::new(Device::Gpu(v100()));
    c.bench_function("search/q_method_10_trials", |b| {
        b.iter(|| {
            search(
                black_box(&g),
                &ev,
                Method::QMethod,
                &SearchOptions {
                    trials: 10,
                    starts: 4,
                    initial_samples: 8,
                    ..SearchOptions::default()
                },
            )
            .unwrap()
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_lowering, bench_evaluation, bench_space, bench_nn, bench_gbt,
              bench_interpreter, bench_search_trial
}
criterion_main!(benches);
