//! Failure-injection tests: malformed kernels, configs and inputs must be
//! rejected with errors — never silently produce wrong results or panic.

use flextensor_explore::qlearn::{QAgent, Transition};
use flextensor_interp::eval::{Buffer, Store};
use flextensor_interp::machine::run_kernel;
use flextensor_interp::reference::random_inputs;
use flextensor_ir::expr::Expr;
use flextensor_ir::graph::Combiner;
use flextensor_ir::ops::{self, ConvParams};
use flextensor_schedule::config::{NodeConfig, TargetKind};
use flextensor_schedule::lower::{lower, lower_naive, LoweredKernel};
use flextensor_schedule::nest::{LoopKind, Stmt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn kernel_with(stmts: Vec<Stmt>) -> LoweredKernel {
    let g = ops::gemm(4, 4, 4);
    let mut k = lower_naive(&g, TargetKind::Cpu);
    k.stmts = stmts;
    k
}

#[test]
fn unbound_variable_is_a_runtime_error() {
    let g = ops::gemm(4, 4, 4);
    let k = kernel_with(vec![Stmt::Store {
        tensor: "O".into(),
        indices: vec![Expr::var("nonexistent"), Expr::int(0)],
        value: Expr::float(1.0),
        reduce: false,
        combiner: Combiner::Sum,
    }]);
    let err = run_kernel(&g, &k, &random_inputs(&g, 0)).unwrap_err();
    assert!(err.0.contains("unbound variable"), "{err}");
}

#[test]
fn unknown_tensor_store_is_a_runtime_error() {
    let g = ops::gemm(4, 4, 4);
    let k = kernel_with(vec![Stmt::Store {
        tensor: "nope".into(),
        indices: vec![Expr::int(0), Expr::int(0)],
        value: Expr::float(1.0),
        reduce: false,
        combiner: Combiner::Sum,
    }]);
    let err = run_kernel(&g, &k, &random_inputs(&g, 0)).unwrap_err();
    assert!(err.0.contains("unknown tensor"), "{err}");
}

#[test]
fn out_of_bounds_store_is_a_runtime_error() {
    let g = ops::gemm(4, 4, 4);
    let k = kernel_with(vec![Stmt::loop_(
        "i",
        10, // extent exceeds the 4x4 output
        LoopKind::Serial,
        vec![Stmt::Store {
            tensor: "O".into(),
            indices: vec![Expr::var("i"), Expr::int(0)],
            value: Expr::float(1.0),
            reduce: false,
            combiner: Combiner::Sum,
        }],
    )]);
    let err = run_kernel(&g, &k, &random_inputs(&g, 0)).unwrap_err();
    assert!(err.0.contains("out of bounds"), "{err}");
}

#[test]
fn rank_mismatch_is_a_runtime_error() {
    let g = ops::gemm(4, 4, 4);
    let k = kernel_with(vec![Stmt::Store {
        tensor: "O".into(),
        indices: vec![Expr::int(0)], // O is 2-D
        value: Expr::float(1.0),
        reduce: false,
        combiner: Combiner::Sum,
    }]);
    let err = run_kernel(&g, &k, &random_inputs(&g, 0)).unwrap_err();
    assert!(err.0.contains("rank mismatch"), "{err}");
}

#[test]
fn wrong_shaped_input_is_rejected() {
    let g = ops::gemm(4, 4, 4);
    let k = lower_naive(&g, TargetKind::Cpu);
    let mut inputs = Store::new();
    inputs.insert("A".into(), Buffer::zeros(&[4, 5])); // wrong k
    inputs.insert("B".into(), Buffer::zeros(&[4, 4]));
    let err = run_kernel(&g, &k, &inputs).unwrap_err();
    assert!(err.0.contains("shape"), "{err}");
}

#[test]
fn invalid_configs_never_reach_execution() {
    let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 6, 6);
    let op = g.root_op();
    // Factor product mismatch.
    let mut c1 = NodeConfig::naive(op);
    c1.spatial_splits[1] = vec![3, 1, 1, 1];
    assert!(lower(&g, &c1, TargetKind::Gpu).is_err());
    // Bad permutation.
    let mut c2 = NodeConfig::naive(op);
    c2.reorder = vec![0, 0, 1, 2];
    assert!(lower(&g, &c2, TargetKind::Gpu).is_err());
    // Pipeline out of range.
    let mut c3 = NodeConfig::naive(op);
    c3.fpga_pipeline = 9;
    assert!(lower(&g, &c3, TargetKind::Fpga).is_err());
}

#[test]
fn search_rejects_nothing_but_still_converges_under_heavy_infeasibility() {
    // A GPU space where most random points are infeasible (huge single
    // axis forces oversized blocks for many configurations).
    use flextensor_explore::methods::{search, Method, SearchOptions};
    use flextensor_sim::model::Evaluator;
    use flextensor_sim::spec::{v100, Device};
    let g = ops::gemm(4096, 2, 4096);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let r = search(
        &g,
        &ev,
        Method::QMethod,
        &SearchOptions {
            trials: 15,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    assert!(r.best_cost.seconds.is_finite());
    // Infeasible evaluations were recorded but never become "best".
    assert!(r.best_cost.gflops() > 0.0);
}

// ---------------------------------------------------------------------------
// Session-server fault isolation: a tune that errors fails only the
// requests for its key; the server keeps serving every other session and
// never writes a partial record for the failed key.

#[test]
fn failing_tune_is_isolated_to_its_key_and_leaves_no_record() {
    use std::sync::Arc;

    use flextensor::serve::{
        task_key, ServeOptions, ServeSource, SessionServer, TuneRunner, Tuned,
    };
    use flextensor::{OptimizeOptions, Task};
    use flextensor_sim::spec::{v100, Device};
    use flextensor_tunedb::{testutil, TuneDb, TuneKey};

    /// Errors on one poisoned key, answers every other key normally.
    struct PoisonedRunner {
        poisoned: TuneKey,
    }

    impl TuneRunner for PoisonedRunner {
        fn tune(&self, task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
            let key = task_key(&task.graph, &task.device);
            if key == self.poisoned {
                return Err("injected evaluator failure".to_string());
            }
            Ok(Tuned {
                config: key.shape.clone(),
                seconds: 1e-5,
            })
        }
    }

    let device = Device::Gpu(v100());
    let bad = ops::gemm(32, 32, 32);
    let good = [ops::gemm(64, 64, 64), ops::gemm(96, 96, 96)];
    let db = Arc::new(TuneDb::open(testutil::temp_dir("poison")).unwrap().0);
    let server = SessionServer::with_runner(
        Arc::clone(&db),
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
        Arc::new(PoisonedRunner {
            poisoned: task_key(&bad, &device),
        }),
    );

    let victim = server.session("victim");
    let bystander = server.session("bystander");
    // The victim asks for the poisoned key twice (fresh + coalesced) and
    // once for a good key; the bystander never touches the poisoned key.
    let v_bad1 = victim.submit(bad.clone(), device.clone());
    let v_bad2 = victim.submit(bad.clone(), device.clone());
    let v_good = victim.submit(good[0].clone(), device.clone());
    let b_good: Vec<_> = good
        .iter()
        .map(|g| bystander.submit(g.clone(), device.clone()))
        .collect();

    // Both poisoned requests fail with the injected error...
    for t in [v_bad1, v_bad2] {
        let err = t.wait().unwrap_err();
        assert!(err.0.contains("injected evaluator failure"), "{err}");
    }
    // ...while every other request, in both sessions, still succeeds.
    assert_eq!(
        v_good.wait().unwrap().source,
        ServeSource::Fresh {
            warm_started: false
        }
    );
    for t in b_good {
        assert!(t.wait().is_ok());
    }

    let stats: std::collections::HashMap<_, _> = server.session_stats().into_iter().collect();
    assert_eq!(stats["victim"].failed, 2);
    assert_eq!(stats["victim"].completed, 1);
    assert_eq!(stats["bystander"].failed, 0);
    assert_eq!(stats["bystander"].completed, 2);

    // No partial record: the failed key is absent from the store; the
    // good keys are all present.
    drop(server);
    assert!(db.peek(&task_key(&bad, &device)).is_none());
    assert_eq!(db.len(), good.len());
    // And the failure is not sticky across servers: a healthy runner
    // tunes the key on the next attempt.
    let server = SessionServer::new(Arc::clone(&db), ServeOptions::default());
    let retry = server.session("retry");
    let r = retry.submit(bad, device).wait().unwrap();
    assert!(matches!(r.source, ServeSource::Fresh { .. }));
}

/// Waits for every ticket on its own helper thread, so a ticket that is
/// never answered fails the test at `bound` instead of hanging it.
fn wait_all_within(
    tickets: Vec<flextensor::serve::Ticket>,
    bound: std::time::Duration,
) -> Vec<Result<flextensor::serve::ServeResult, flextensor::serve::ServeError>> {
    let deadline = std::time::Instant::now() + bound;
    let answers: Vec<_> = tickets
        .into_iter()
        .map(|t| {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(t.wait());
            });
            rx
        })
        .collect();
    answers
        .into_iter()
        .enumerate()
        .map(|(i, rx)| {
            rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now()))
                .unwrap_or_else(|_| panic!("ticket {i} not answered within {bound:?}"))
        })
        .collect()
}

// A panicking tune fails its key — the primary, every coalesced waiter
// and every later request — and the worker that caught it keeps serving.
#[test]
fn panicking_tune_fails_its_key_without_hanging_waiters_or_killing_the_worker() {
    use std::sync::Arc;

    use flextensor::serve::{
        task_key, ServeOptions, ServeSource, SessionServer, TuneRunner, Tuned,
    };
    use flextensor::{OptimizeOptions, Task};
    use flextensor_sim::spec::{v100, Device};
    use flextensor_tunedb::{testutil, TuneDb, TuneKey, TuneRecord};

    /// Panics on one key, answers every other key normally.
    struct PanickingRunner {
        poisoned: TuneKey,
    }

    impl TuneRunner for PanickingRunner {
        fn tune(&self, task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
            let key = task_key(&task.graph, &task.device);
            assert!(key != self.poisoned, "injected runner panic");
            Ok(Tuned {
                config: key.shape.clone(),
                seconds: 1e-5,
            })
        }
    }

    let device = Device::Gpu(v100());
    let bad = ops::gemm(32, 32, 32);
    let stored = ops::gemm(64, 64, 64);
    let db = Arc::new(TuneDb::open(testutil::temp_dir("panic")).unwrap().0);
    db.put(TuneRecord {
        key: task_key(&stored, &device),
        config: vec![1, 2, 3],
        seconds: 0.5,
        seed: 1,
        trials: 0,
        commit: "seeded".to_string(),
    })
    .unwrap();
    let server = SessionServer::with_runner(
        Arc::clone(&db),
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
        Arc::new(PanickingRunner {
            poisoned: task_key(&bad, &device),
        }),
    );
    let s = server.session("client");
    let tickets = vec![
        s.submit(bad.clone(), device.clone()),
        s.submit(bad.clone(), device.clone()),
        s.submit(bad.clone(), device.clone()),
        s.submit(stored, device.clone()),
        s.submit(ops::gemm(96, 96, 96), device.clone()),
    ];
    let answers = wait_all_within(tickets, std::time::Duration::from_secs(10));
    for a in &answers[..3] {
        let err = a.as_ref().unwrap_err();
        assert!(
            err.0.contains("tune panicked: injected runner panic"),
            "{err}"
        );
    }
    assert_eq!(answers[3].as_ref().unwrap().source, ServeSource::Hit);
    assert_eq!(
        answers[4].as_ref().unwrap().source,
        ServeSource::Fresh { warm_started: true }
    );
    // The failed outcome is remembered: a later request fails at once.
    let later = wait_all_within(
        vec![s.submit(bad.clone(), device.clone())],
        std::time::Duration::from_secs(10),
    );
    assert!(later[0].is_err());
    let stats = server.stats();
    assert_eq!((stats.failed, stats.completed), (4, 2));
    drop(server);
    assert!(db.peek(&task_key(&bad, &device)).is_none());
}

// A database append that fails leaves the answer valid and is counted.
// Removing the directory under an open database makes the append fail
// even for a root user, whom read-only permissions would not stop.
#[test]
fn failed_database_append_still_answers_and_is_counted() {
    use std::sync::Arc;

    use flextensor::serve::{ServeOptions, ServeSource, SessionServer, TuneRunner, Tuned};
    use flextensor::{OptimizeOptions, Task};
    use flextensor_sim::spec::{v100, Device};
    use flextensor_tunedb::{testutil, TuneDb};

    struct FixedRunner;

    impl TuneRunner for FixedRunner {
        fn tune(&self, _task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
            Ok(Tuned {
                config: vec![4, 2],
                seconds: 1e-5,
            })
        }
    }

    let dir = testutil::temp_dir("put-fail");
    let db = Arc::new(TuneDb::open(&dir).unwrap().0);
    let server = SessionServer::with_runner(
        Arc::clone(&db),
        ServeOptions::default(),
        Arc::new(FixedRunner),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    let s = server.session("client");
    let r = s
        .submit(ops::gemm(32, 32, 32), Device::Gpu(v100()))
        .wait()
        .unwrap();
    assert_eq!(
        r.source,
        ServeSource::Fresh {
            warm_started: false
        }
    );
    assert_eq!(r.config, vec![4, 2]);
    drop(server);
    let stats = db.stats();
    assert_eq!((stats.puts, stats.put_failures), (0, 1));
}

/// Runs trials until the agent trains, returning that round's loss.
fn train_round(agent: &mut QAgent, rng: &mut StdRng) -> f64 {
    (0..1000)
        .find_map(|_| agent.end_trial(rng))
        .expect("the agent trains within 1000 trials")
}

#[test]
fn nan_reward_yields_a_non_finite_loss_without_touching_the_q_network() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut agent = QAgent::new(3, 4, &mut rng);
    let state = vec![0.2, -0.4, 0.9];
    let step = |action, reward| Transition {
        state: state.clone(),
        action,
        reward,
        next_state: vec![0.3, -0.4, 0.8],
    };
    agent.record(step(1, 0.5));
    assert!(train_round(&mut agent, &mut rng).is_finite());
    let before: Vec<u64> = agent.q_values(&state).iter().map(|q| q.to_bits()).collect();

    // A NaN energy becomes a NaN reward: the round reports a non-finite
    // loss instead of panicking, and the parameters stay as they were.
    agent.record(step(2, f64::NAN));
    assert!(!train_round(&mut agent, &mut rng).is_finite());
    let after: Vec<u64> = agent.q_values(&state).iter().map(|q| q.to_bits()).collect();
    assert_eq!(after, before);
}

#[test]
fn a_malformed_transition_fails_end_trial_promptly_and_the_agent_still_drops() {
    // The agent trains once, so (on two or more cores, with no search in
    // flight) its training helper thread is running; then a transition
    // of the wrong width makes the next round panic. Neither that panic
    // nor dropping the agent afterwards (which joins the helper) may
    // hang: each must arrive within the time bound.
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(13);
        let mut agent = QAgent::new(3, 4, &mut rng);
        let step = |state: Vec<f64>| Transition {
            state,
            action: 1,
            reward: 0.5,
            next_state: vec![0.3, -0.4, 0.8],
        };
        agent.record(step(vec![0.2, -0.4, 0.9]));
        assert!(train_round(&mut agent, &mut rng).is_finite());
        agent.record(step(vec![0.2, -0.4]));
        let round = panic::catch_unwind(AssertUnwindSafe(|| train_round(&mut agent, &mut rng)));
        tx.send("end_trial returned").expect("the test waits");
        assert!(round.is_err(), "a malformed transition must panic");
        drop(agent);
        tx.send("the agent dropped").expect("the test waits");
    });
    let bound = Duration::from_secs(60);
    assert_eq!(rx.recv_timeout(bound), Ok("end_trial returned"));
    assert_eq!(rx.recv_timeout(bound), Ok("the agent dropped"));
    worker
        .join()
        .expect("the round panicked inside catch_unwind");
}
