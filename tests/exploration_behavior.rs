//! Integration tests of exploration behavior across crates: method
//! comparisons, AutoTVM interplay, space-size relationships, and the
//! exploration-time accounting the paper's Figs. 6d/7 rely on.

use flextensor_autotvm::template::Template;
use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_explore::methods::{search, Method, SearchOptions, SearchResult};
use flextensor_explore::space::Space;
use flextensor_ir::ops::{self, ConvParams};
use flextensor_ir::yolo::yolo_layer;
use flextensor_schedule::config::TargetKind;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn gpu_eval() -> Evaluator {
    Evaluator::new(Device::Gpu(v100()))
}

#[test]
fn flextensor_space_dwarfs_autotvm_template_space() {
    // §6.5: the paper measures FlexTensor's C2D space 2027x larger than
    // AutoTVM's on average; ours should be at least two orders larger.
    let mut ratios = Vec::new();
    for name in ["C2", "C8", "C13"] {
        let g = yolo_layer(name).unwrap().graph(1);
        let flex = Space::new(&g, TargetKind::Gpu).size();
        let tpl = Template::new(&g, TargetKind::Gpu).size();
        assert!(flex > 1e9, "{name}: flex space {flex:e}");
        ratios.push(flex / tpl);
    }
    let avg = ratios
        .iter()
        .product::<f64>()
        .powf(1.0 / ratios.len() as f64);
    assert!(avg > 100.0, "avg ratio {avg}");
}

#[test]
fn q_method_is_far_cheaper_than_p_method_per_trial() {
    let g = ops::conv2d(ConvParams::same(1, 32, 64, 3), 14, 14);
    let ev = gpu_eval();
    let opts = SearchOptions {
        trials: 8,
        starts: 4,
        initial_samples: 8,
        ..SearchOptions::default()
    };
    let q = search(&g, &ev, Method::QMethod, &opts).unwrap();
    let p = search(&g, &ev, Method::PMethod, &opts).unwrap();
    assert!(p.measurements > 5 * q.measurements);
    assert!(p.exploration_time_s > 5.0 * q.exploration_time_s);
}

#[test]
fn q_method_reaches_autotvm_performance_faster() {
    // The Fig. 6d protocol on one layer: AutoTVM converges, then Q-method
    // reaches the same performance in less modeled time.
    let g = yolo_layer("C9").unwrap().graph(1);
    let ev = gpu_eval();
    let at = tune(
        &g,
        &ev,
        &TuneOptions {
            rounds: 8,
            batch: 64,
            ..TuneOptions::default()
        },
    )
    .unwrap();
    let q = search(
        &g,
        &ev,
        Method::QMethod,
        &SearchOptions {
            trials: 400,
            starts: 8,
            initial_samples: 16,
            stop_when_seconds: Some(at.best_cost.seconds),
            ..SearchOptions::default()
        },
    )
    .unwrap();
    assert!(
        q.best_cost.seconds <= at.best_cost.seconds * 1.001,
        "Q did not reach AutoTVM's level: {} vs {}",
        q.best_cost.seconds,
        at.best_cost.seconds
    );
    assert!(
        q.exploration_time_s < at.exploration_time_s,
        "Q time {} vs AutoTVM {}",
        q.exploration_time_s,
        at.exploration_time_s
    );
}

#[test]
fn exploration_time_grows_with_measurements() {
    let g = ops::gemm(256, 256, 256);
    let ev = gpu_eval();
    let small = search(
        &g,
        &ev,
        Method::RandomWalk,
        &SearchOptions {
            trials: 5,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    let large = search(
        &g,
        &ev,
        Method::RandomWalk,
        &SearchOptions {
            trials: 40,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    assert!(large.measurements > small.measurements);
    assert!(large.exploration_time_s > small.exploration_time_s);
    // Each measurement costs at least the compile+measure overhead.
    assert!(large.exploration_time_s >= 0.8 * large.measurements as f64);
}

#[test]
fn infeasible_heavy_spaces_still_yield_schedules() {
    // A shape whose naive/basic points are mostly infeasible on GPU
    // (gigantic single loops): search must still find feasible points.
    let g = ops::gemv(65536, 1024);
    let ev = gpu_eval();
    let r = search(
        &g,
        &ev,
        Method::QMethod,
        &SearchOptions {
            trials: 20,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    assert!(r.best_cost.seconds.is_finite());
}

#[test]
fn autotvm_and_flextensor_agree_on_cost_model() {
    // Both tuners score with the same evaluator, so their best configs are
    // comparable; FlexTensor's bigger space should never lose badly given
    // a decent budget.
    let g = yolo_layer("C13").unwrap().graph(1);
    let ev = gpu_eval();
    let at = tune(
        &g,
        &ev,
        &TuneOptions {
            rounds: 6,
            batch: 32,
            ..TuneOptions::default()
        },
    )
    .unwrap();
    let ft = search(
        &g,
        &ev,
        Method::QMethod,
        &SearchOptions {
            trials: 120,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    assert!(
        ft.best_cost.seconds < at.best_cost.seconds * 1.5,
        "flextensor {} vs autotvm {}",
        ft.best_cost.seconds,
        at.best_cost.seconds
    );
}

/// Pinned P-method results at default options: gemm and conv2d on each
/// device model, every run with a history above 10k points. The encoding,
/// cost bits, measurement count and exploration-time bits are what the
/// search history's starting-point sampling decides, so any drift in it
/// (key order, weight sums, draw resolution) moves at least one of them.
#[test]
fn p_method_results_are_pinned() {
    use flextensor_sim::spec::{vu9p, xeon_e5_2699_v4};
    type Pin = (&'static str, &'static [i64], u64, usize, u64);
    let pins: [Pin; 6] = [
        (
            "gemm V100",
            &[
                16, 1, 16, 1, 8, 1, 16, 2, 1, 16, 16, 0, 1, 2, 1, 1, 1, 0, 4, 1,
            ],
            0x3ef0_8062_074c_9da1,
            15992,
            0x40c9_b340_2683_30da,
        ),
        (
            "gemm Xeon",
            &[8, 2, 4, 4, 8, 1, 4, 8, 2, 16, 8, 0, 1, 2, 1, 1, 0, 1, 4, 1],
            0x3f03_8a63_303d_02e8,
            17417,
            0x40cb_4960_1918_7f9f,
        ),
        (
            "gemm VU9P",
            &[
                1, 1, 32, 8, 8, 8, 4, 1, 4, 4, 16, 1, 0, 2, 0, 1, 0, 1, 16, 3,
            ],
            0x3f20_9090_7b01_7290,
            17901,
            0x40cc_1324_ba1e_406b,
        ),
        (
            "conv2d V100",
            &[
                1, 1, 1, 1, 8, 1, 8, 1, 2, 1, 7, 1, 1, 1, 14, 1, 4, 4, 2, 1, 3, 1, 1, 3, 1, 2, 0,
                1, 3, 4, 1, 1, 1, 1, 1, 3,
            ],
            0x3ee8_786d_d950_4bbc,
            21857,
            0x40d1_182b_67b8_81dc,
        ),
        (
            "conv2d Xeon",
            &[
                1, 1, 1, 1, 16, 1, 2, 2, 14, 1, 1, 1, 1, 2, 1, 7, 1, 4, 8, 3, 1, 1, 1, 1, 3, 2, 1,
                0, 3, 2, 0, 1, 0, 1, 1, 1,
            ],
            0x3eeb_6bdf_9e0f_574c,
            22414,
            0x40d1_8c39_d226_22ed,
        ),
        (
            "conv2d VU9P",
            &[
                1, 1, 1, 1, 4, 4, 4, 1, 1, 1, 2, 7, 1, 1, 14, 1, 4, 1, 8, 1, 3, 1, 1, 1, 3, 1, 0,
                2, 3, 2, 0, 1, 0, 1, 16, 3,
            ],
            0x3efc_7d08_8e94_2738,
            24437,
            0x40d3_211a_1792_14f7,
        ),
    ];
    let graphs = [
        ops::gemm(256, 256, 256),
        ops::conv2d(ConvParams::same(1, 32, 64, 3), 14, 14),
    ];
    let devices = [
        Device::Gpu(v100()),
        Device::Cpu(xeon_e5_2699_v4()),
        Device::Fpga(vu9p()),
    ];
    let runs = graphs
        .iter()
        .flat_map(|g| devices.iter().map(move |d| (g, d)));
    for ((g, d), (label, enc, cost_bits, measurements, time_bits)) in runs.zip(pins) {
        let r = search(
            g,
            &Evaluator::new(d.clone()),
            Method::PMethod,
            &SearchOptions::default(),
        )
        .unwrap();
        assert!(r.measurements > 10_000, "{label}: history too small");
        assert_eq!(r.best.encode(), enc, "{label}: best encoding");
        assert_eq!(r.best_cost.seconds.to_bits(), cost_bits, "{label}: cost");
        assert_eq!(r.measurements, measurements, "{label}: measurements");
        assert_eq!(
            r.exploration_time_s.to_bits(),
            time_bits,
            "{label}: exploration time"
        );
    }
}

/// Gemm and conv2d on each device model, in the order of
/// [`p_method_results_are_pinned`].
fn pin_runs() -> Vec<(flextensor_ir::graph::Graph, Device)> {
    use flextensor_sim::spec::{vu9p, xeon_e5_2699_v4};
    let graphs = [
        ops::gemm(256, 256, 256),
        ops::conv2d(ConvParams::same(1, 32, 64, 3), 14, 14),
    ];
    let devices = [
        Device::Gpu(v100()),
        Device::Cpu(xeon_e5_2699_v4()),
        Device::Fpga(vu9p()),
    ];
    graphs
        .iter()
        .flat_map(|g| devices.iter().map(move |d| (g.clone(), d.clone())))
        .collect()
}

/// A pinned search result: label, best encoding, cost bits, measurement
/// count and exploration-time bits.
type Pin = (&'static str, &'static [i64], u64, usize, u64);

fn assert_pinned(
    g: &flextensor_ir::graph::Graph,
    d: &Device,
    m: Method,
    opts: &SearchOptions,
    pin: Pin,
) -> SearchResult {
    let (label, enc, cost_bits, measurements, time_bits) = pin;
    let r = search(g, &Evaluator::new(d.clone()), m, opts).unwrap();
    assert_eq!(r.best.encode(), enc, "{label}: best encoding");
    assert_eq!(r.best_cost.seconds.to_bits(), cost_bits, "{label}: cost");
    assert_eq!(r.measurements, measurements, "{label}: measurements");
    assert_eq!(
        r.exploration_time_s.to_bits(),
        time_bits,
        "{label}: exploration time"
    );
    r
}

/// Pinned Q-method results at default options. Each trial moves every
/// start along one direction the agent picks from the fresh-neighbor
/// mask, so a drift in which neighbors count as applicable or fresh, in
/// the start features, or in the recorded transitions moves the agent's
/// choices and with them at least one pinned value.
#[test]
fn q_method_results_are_pinned() {
    let pins: [Pin; 6] = [
        (
            "gemm V100",
            &[
                8, 1, 32, 1, 8, 1, 32, 1, 1, 1, 256, 0, 1, 2, 0, 1, 1, 1, 8, 3,
            ],
            0x3eea_c91d_2043_b936,
            795,
            0x4083_fd80_8630_3ccc,
        ),
        (
            "gemm Xeon",
            &[8, 1, 16, 2, 8, 2, 2, 8, 2, 32, 4, 0, 1, 2, 1, 1, 0, 0, 2, 2],
            0x3f03_8a63_303d_02e8,
            793,
            0x4083_da8c_c5c9_5937,
        ),
        (
            "gemm VU9P",
            &[
                16, 2, 4, 2, 1, 2, 16, 8, 4, 8, 8, 0, 1, 1, 1, 1, 0, 1, 16, 3,
            ],
            0x3f22_61da_3d7b_8e6f,
            797,
            0x4083_fcf6_bc98_b044,
        ),
        (
            "conv2d V100",
            &[
                1, 1, 1, 1, 8, 1, 8, 1, 2, 1, 7, 1, 7, 1, 2, 1, 2, 2, 8, 3, 1, 1, 1, 1, 3, 2, 0, 3,
                1, 4, 1, 1, 1, 1, 2, 2,
            ],
            0x3eed_1ad5_5220_a1dc,
            795,
            0x4083_ea6b_fbb2_1064,
        ),
        (
            "conv2d Xeon",
            &[
                1, 1, 1, 1, 4, 2, 1, 8, 7, 1, 2, 1, 2, 1, 1, 7, 4, 2, 4, 1, 1, 3, 1, 3, 1, 2, 1, 0,
                3, 4, 1, 1, 0, 1, 16, 3,
            ],
            0x3eeb_d11e_1aeb_86a3,
            793,
            0x4083_d8e5_190e_46c7,
        ),
        (
            "conv2d VU9P",
            &[
                1, 1, 1, 1, 8, 2, 1, 4, 1, 1, 1, 14, 1, 1, 14, 1, 4, 8, 1, 3, 1, 1, 1, 3, 1, 3, 0,
                1, 2, 2, 0, 1, 0, 1, 16, 3,
            ],
            0x3efc_7d08_8e94_2738,
            792,
            0x4083_d402_7122_becd,
        ),
    ];
    for ((g, d), pin) in pin_runs().iter().zip(pins) {
        assert_pinned(g, d, Method::QMethod, &SearchOptions::default(), pin);
    }
}

/// Pinned random-walk results at default options: one uniform draw over
/// each start's fresh neighbors, so the draw's range and the index it
/// resolves to both depend on the exact fresh-neighbor set.
#[test]
fn random_walk_results_are_pinned() {
    let pins: [Pin; 6] = [
        (
            "gemm V100",
            &[
                32, 1, 8, 1, 1, 1, 128, 2, 4, 16, 4, 0, 1, 2, 1, 1, 1, 1, 4, 1,
            ],
            0x3ef1_92ce_420b_e904,
            791,
            0x4083_e19e_fb7e_97ae,
        ),
        (
            "gemm Xeon",
            &[16, 4, 2, 2, 4, 2, 4, 8, 2, 16, 8, 0, 1, 2, 1, 1, 0, 1, 4, 1],
            0x3f03_ca86_8fe3_fa4e,
            796,
            0x4083_fbc3_9f8f_1e4c,
        ),
        (
            "gemm VU9P",
            &[
                8, 4, 8, 1, 1, 2, 8, 16, 4, 64, 1, 1, 0, 2, 0, 1, 0, 1, 16, 3,
            ],
            0x3f22_61da_3d7b_8e6f,
            793,
            0x4083_f61e_3211_3bc2,
        ),
        (
            "conv2d V100",
            &[
                1, 1, 1, 1, 1, 1, 64, 1, 1, 1, 14, 1, 14, 1, 1, 1, 4, 8, 1, 1, 3, 1, 1, 3, 1, 0, 1,
                2, 3, 4, 1, 1, 1, 1, 8, 2,
            ],
            0x3ee9_c495_0c37_ec1f,
            794,
            0x4083_e58e_fd71_b3a6,
        ),
        (
            "conv2d Xeon",
            &[
                1, 1, 1, 1, 4, 2, 8, 1, 14, 1, 1, 1, 1, 1, 1, 14, 2, 16, 1, 1, 1, 3, 1, 1, 3, 2, 1,
                0, 3, 2, 0, 1, 0, 1, 1, 1,
            ],
            0x3eeb_e629_b64e_4fd2,
            796,
            0x4083_f0f1_bcee_527a,
        ),
        (
            "conv2d VU9P",
            &[
                1, 1, 1, 1, 4, 4, 1, 4, 1, 1, 1, 14, 1, 1, 7, 2, 2, 4, 4, 1, 3, 1, 3, 1, 1, 3, 2,
                0, 1, 2, 1, 1, 0, 0, 8, 3,
            ],
            0x3efc_f62f_f28b_f91c,
            796,
            0x4083_f49c_0023_8699,
        ),
    ];
    for ((g, d), pin) in pin_runs().iter().zip(pins) {
        assert_pinned(g, d, Method::RandomWalk, &SearchOptions::default(), pin);
    }
}

/// A pinned warm-started Q-method run on the FPGA model. The warm seed is
/// adapted onto the op as stored, so it is not normalized to the target
/// (vectorize off, shared-memory caching on, a partition factor of 3);
/// the neighbors proposed from it get the target's defaults.
#[test]
fn warm_started_fpga_q_method_is_pinned() {
    use flextensor_sim::spec::vu9p;
    let g = ops::gemm(256, 256, 256);
    let d = Device::Fpga(vu9p());
    let opts = SearchOptions {
        warm_start: vec![vec![
            4, 2, 8, 3, 2, 4, 4, 8, 16, 4, 5, 1, 0, 2, 1, 0, 1, 1, 3, 2,
        ]],
        ..SearchOptions::default()
    };
    let seed = flextensor_explore::warm::adapt_encoding(g.anchor_op(), &opts.warm_start[0])
        .expect("adapts");
    assert!(
        !seed.vectorize && seed.cache_shared && seed.fpga_partition == 3,
        "the adapted seed must not be target-normalized: {seed}"
    );
    let r = assert_pinned(
        &g,
        &d,
        Method::QMethod,
        &opts,
        (
            "warm gemm VU9P",
            &[
                16, 2, 4, 2, 2, 1, 4, 32, 4, 4, 16, 0, 1, 1, 1, 1, 0, 1, 16, 3,
            ],
            0x3f22_61da_3d7b_8e6f,
            799,
            0x4084_0b96_a24a_89ab,
        ),
    );
    assert_eq!(r.warm_seeds, 1, "the warm seed must join the seed batch");
}
