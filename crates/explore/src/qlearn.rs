//! The Q-learning direction selector (§5.1).
//!
//! States are schedule points (feature vectors from
//! [`Space::features`](crate::space::Space::features)), actions are the
//! space's [`Direction`](crate::space::Direction)s, and the reward for
//! moving from `p` to `e` is the normalized improvement
//! `(E_e - E_p) / E_p`. Q-values are predicted by a four-layer
//! fully-connected ReLU network trained online with AdaDelta every five
//! trials.
//!
//! The paper bootstraps its targets from a frozen *target network* `Y`
//! whose parameters are copied from the online network `X` after each
//! training round (the stabilization of Mnih et al. 2015). Here `X` is
//! only trained inside [`QAgent::end_trial`], and `Y` would be refreshed
//! at the end of every such round, so at the start of every round `Y`
//! equals `X`: the round bootstraps through `X` itself, with the same bits
//! and without a second copy of the network.
//!
//! # Two-thread training
//!
//! Training is most of a Q-method search, and while one search runs the
//! machine's second core would sit idle. So each agent shares its training
//! steps with one helper thread ([`flextensor_nn::Trainer`] cuts every
//! step into items either thread may claim; the bits do not depend on who
//! runs what). The helper takes part only while the gate is open: the
//! process has at least two cores, at most one [`search`] is in flight —
//! the agent's own, or none when the agent is driven outside `search()` —
//! and at most one training round is running, the agent's own. The gate
//! is checked before every step, so a second search or a second agent's
//! round starting up stops the helper within one step: two of them
//! already keep two cores busy, and a spinning helper would only steal
//! from them.
//!
//! While the gate is open the helper never sleeps: it spins inside a
//! round, and between rounds spins with a yield every few microseconds,
//! because a helper that parks and is woken again arrives late and on
//! either core. It parks once the gate closes or its agent has been idle
//! for `IDLE_PARK`. The helper is started on the first step the gate
//! allows and joined when the agent is dropped; a panic on it reaches the
//! caller as a panic from [`QAgent::end_trial`].
//!
//! [`search`]: crate::methods::search

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use flextensor_nn::{AdaDelta, Mlp, MlpScratch, TrainHelper, Trainer};
use rand::Rng;

/// One recorded transition: `(state, action, reward, next_state)`.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Features of the starting point `p`.
    pub state: Vec<f64>,
    /// Index of the direction taken.
    pub action: usize,
    /// Normalized reward `(E_e - E_p) / E_p`.
    pub reward: f64,
    /// Features of the reached point `e`.
    pub next_state: Vec<f64>,
}

/// The online Q-learning agent.
#[derive(Debug)]
pub struct QAgent {
    /// The network `X`, its AdaDelta state and one round's batch.
    trainer: Trainer,
    /// The thread that shares training steps while the gate is open.
    helper: Helper,
    /// Bounded FIFO replay buffer; a ring (`VecDeque`) so eviction of the
    /// oldest transition is O(1) instead of a whole-buffer shift.
    replay: VecDeque<Transition>,
    /// Ping-pong activation scratch for allocation-free inference.
    scratch: MlpScratch,
    /// Output buffer for [`QAgent::choose`]'s Q-value forward pass.
    q_buf: Vec<f64>,
    /// One round's sampled replay indices, reused across rounds.
    indices: Vec<usize>,
    /// Discount factor (the paper's α).
    alpha: f64,
    /// ε-greedy exploration rate (annealed by [`QAgent::set_progress`]).
    epsilon: f64,
    /// Train every this many recorded trials (the paper uses 5).
    train_every: usize,
    trials_since_train: usize,
    num_actions: usize,
    /// Overrides the gate: lets tests force the helper on or off.
    #[cfg(test)]
    force_helper: Option<bool>,
}

/// `search()` calls in flight in this process; see [`SearchInFlight`].
static SEARCHES: AtomicUsize = AtomicUsize::new(0);

/// Counts one `search()` call as in flight for as long as it is held.
#[derive(Debug)]
pub(crate) struct SearchInFlight(());

impl SearchInFlight {
    pub(crate) fn enter() -> SearchInFlight {
        // Relaxed: the count publishes no data; it only steers the gate.
        SEARCHES.fetch_add(1, Ordering::Relaxed);
        SearchInFlight(())
    }
}

impl Drop for SearchInFlight {
    fn drop(&mut self) {
        SEARCHES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Training rounds in flight in this process; see [`RoundInFlight`].
static ROUNDS: AtomicUsize = AtomicUsize::new(0);

/// Counts one training round ([`QAgent::end_trial`]) as in flight for as
/// long as it is held, also while a panic unwinds out of the round.
#[derive(Debug)]
struct RoundInFlight(());

impl RoundInFlight {
    fn enter() -> RoundInFlight {
        ROUNDS.fetch_add(1, Ordering::Relaxed);
        RoundInFlight(())
    }
}

impl Drop for RoundInFlight {
    fn drop(&mut self) {
        ROUNDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether a helper may share training steps now: at least two cores
/// (read once), at most one search in flight, and at most one training
/// round — the caller's own — running.
fn gate_open() -> bool {
    static CORES: OnceLock<bool> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() >= 2));
    cores && SEARCHES.load(Ordering::Relaxed) <= 1 && ROUNDS.load(Ordering::Relaxed) <= 1
}

/// How long a helper keeps yielding after its agent's last round before
/// it parks.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// `spin_loop` hints between two `yield_now` calls of an idle helper.
const IDLE_SPINS: usize = 256;

/// Stack of the helper thread: it runs only the layer kernels.
const HELPER_STACK: usize = 128 * 1024;

/// What the caller tells its helper thread to do.
const HELP: u8 = 0;
const IDLE: u8 = 1;
const PARK: u8 = 2;
const EXIT: u8 = 3;

/// An agent's helper thread, started on the first step the gate allows.
#[derive(Debug)]
enum Helper {
    NotStarted,
    Running(HelperThread),
    /// The thread could not be spawned; the agent trains alone.
    Unavailable,
}

#[derive(Debug)]
struct HelperThread {
    /// [`HELP`], [`IDLE`], [`PARK`] or [`EXIT`]. Relaxed throughout: the
    /// mode only says whether to look for work, and all work is handed
    /// over through the trainer's own job word and locks.
    mode: Arc<AtomicU8>,
    handle: Option<JoinHandle<()>>,
    /// Makes the helper panic once it is asked to help.
    #[cfg(test)]
    panic: Arc<std::sync::atomic::AtomicBool>,
}

impl HelperThread {
    fn spawn(helper: TrainHelper) -> Option<HelperThread> {
        let mode = Arc::new(AtomicU8::new(HELP));
        #[cfg(test)]
        let panic = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handle = thread::Builder::new()
            .name("q-train-helper".into())
            .stack_size(HELPER_STACK)
            .spawn({
                let mode = Arc::clone(&mode);
                #[cfg(test)]
                let panic = Arc::clone(&panic);
                move || {
                    #[cfg(test)]
                    let help = || {
                        assert!(!panic.load(Ordering::Relaxed), "injected helper panic");
                        helper.help()
                    };
                    #[cfg(not(test))]
                    let help = || helper.help();
                    helper_main(help, &mode);
                }
            })
            .ok()?;
        Some(HelperThread {
            mode,
            handle: Some(handle),
            #[cfg(test)]
            panic,
        })
    }

    /// Sets the mode, waking the thread when it should look for work.
    fn set(&self, mode: u8) {
        if self.mode.swap(mode, Ordering::Relaxed) != mode && mode == HELP {
            if let Some(handle) = &self.handle {
                handle.thread().unpark();
            }
        }
    }
}

impl Drop for HelperThread {
    fn drop(&mut self) {
        self.mode.store(EXIT, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            // A panic of the helper was already reported (and passed to
            // `end_trial` when it came in time); `drop` must not panic.
            let _ = handle.join();
        }
    }
}

/// The helper thread's loop: `help` runs any published work and returns
/// whether there was some. It allocates nothing.
fn helper_main(help: impl Fn() -> bool, mode: &AtomicU8) {
    let mut idle_since = None;
    loop {
        match mode.load(Ordering::Relaxed) {
            HELP => {
                idle_since = None;
                if !help() {
                    std::hint::spin_loop();
                }
            }
            IDLE => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() < IDLE_PARK {
                    // Mostly `pause`: a loop of bare `sched_yield` calls
                    // slowed the caller's own work between rounds by up
                    // to ~15% on the 2-vCPU VM.
                    for _ in 0..IDLE_SPINS {
                        std::hint::spin_loop();
                    }
                    thread::yield_now();
                } else {
                    thread::park();
                }
            }
            PARK => thread::park(),
            _ => return,
        }
    }
}

impl QAgent {
    /// Builds the agent for a `feature_dim`-dimensional state space with
    /// `num_actions` directions. The network is the paper's four
    /// fully-connected layers with ReLU.
    pub fn new(feature_dim: usize, num_actions: usize, rng: &mut impl Rng) -> QAgent {
        let hidden = 64;
        let dims = [feature_dim, hidden, hidden, hidden, num_actions];
        let net = Mlp::new(&dims, rng);
        let opt = AdaDelta::new(net.num_params());
        QAgent {
            trainer: Trainer::new(net, opt),
            helper: Helper::NotStarted,
            replay: VecDeque::new(),
            scratch: MlpScratch::new(),
            q_buf: Vec::new(),
            indices: Vec::new(),
            alpha: 0.3,
            epsilon: 0.9,
            train_every: 5,
            trials_since_train: 0,
            num_actions,
            #[cfg(test)]
            force_helper: None,
        }
    }

    /// Number of actions (directions) the agent chooses among.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Current ε of the ε-greedy policy (after any annealing), for
    /// telemetry and diagnostics.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Anneals the exploration rate: ε decays from 0.9 to 0.05 as search
    /// progress (0..1) advances. An untrained Q-network's argmax is an
    /// arbitrary bias, so early exploration must dominate; once the
    /// network has seen rewards, exploitation takes over.
    pub fn set_progress(&mut self, progress: f64) {
        let p = progress.clamp(0.0, 1.0);
        self.epsilon = 0.05 + 0.85 * (-4.0 * p).exp();
    }

    /// Q-values of every action at a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong width.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.trainer
            .forward_into(state, &mut MlpScratch::new(), &mut out);
        out
    }

    /// ε-greedy action choice among the available actions (mask of
    /// applicable directions). Returns `None` when nothing is available.
    /// Takes `&mut self` for the agent's inference scratch buffers —
    /// allocation-free on the exploration hot path.
    pub fn choose(
        &mut self,
        state: &[f64],
        available: &[bool],
        rng: &mut impl Rng,
    ) -> Option<usize> {
        let is_avail = |a: usize| available.get(a).copied().unwrap_or(false);
        let avail_count = (0..self.num_actions).filter(|&a| is_avail(a)).count();
        if avail_count == 0 {
            return None;
        }
        if rng.gen_bool(self.epsilon) {
            let k = rng.gen_range(0..avail_count);
            return (0..self.num_actions).filter(|&a| is_avail(a)).nth(k);
        }
        self.trainer
            .forward_into(state, &mut self.scratch, &mut self.q_buf);
        let q = &self.q_buf;
        (0..self.num_actions)
            .filter(|&a| is_avail(a))
            .max_by(|&a, &b| q[a].partial_cmp(&q[b]).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Records a transition for later training.
    pub fn record(&mut self, t: Transition) {
        // Bounded replay: keep the most recent 4096 transitions.
        if self.replay.len() >= 4096 {
            self.replay.pop_front();
        }
        self.replay.push_back(t);
    }

    /// Signals the end of one exploration trial; every `train_every`
    /// trials the network is trained on a random replay minibatch.
    /// Returns the training loss when training ran.
    ///
    /// # Panics
    ///
    /// Panics if a recorded transition has the wrong width, or if the
    /// helper thread panicked.
    pub fn end_trial(&mut self, rng: &mut impl Rng) -> Option<f64> {
        self.trials_since_train += 1;
        if self.trials_since_train < self.train_every || self.replay.is_empty() {
            return None;
        }
        self.trials_since_train = 0;
        let _round = RoundInFlight::enter();
        // Batch: 64 transitions sampled uniformly from the replay buffer —
        // by index, so no transition is cloned per round.
        self.indices.clear();
        if self.replay.len() <= 64 {
            self.indices.extend(0..self.replay.len());
        } else {
            let n = self.replay.len();
            self.indices.extend((0..64).map(|_| rng.gen_range(0..n)));
        }
        // One forward batch: the states, then the next states.
        {
            let width = self.trainer.input_dim();
            let mut batch = self.trainer.batch();
            batch.xs.clear();
            for &i in &self.indices {
                let t = &self.replay[i];
                assert_eq!(
                    (t.state.len(), t.next_state.len()),
                    (width, width),
                    "input width mismatch"
                );
                batch.xs.extend_from_slice(&t.state);
            }
            for &i in &self.indices {
                batch.xs.extend_from_slice(&self.replay[i].next_state);
            }
        }
        self.sync_helper();
        self.trainer.forward_batch();
        // target = α·max_a X(e)[a] + r, on the taken action; other actions
        // keep the network's own predictions (so only the taken action's
        // error backpropagates meaningfully). The forward left X(states)
        // and then X(next states) in the batch's `ys`.
        {
            let width = self.indices.len() * self.num_actions;
            let mut batch = self.trainer.batch();
            let (targets, next_q) = batch.ys.split_at_mut(width);
            let rows = targets.chunks_exact_mut(self.num_actions);
            for ((row, next_q), &i) in rows
                .zip(next_q.chunks_exact(self.num_actions))
                .zip(&self.indices)
            {
                let t = &self.replay[i];
                let bootstrap = next_q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                row[t.action] = self.alpha * bootstrap + t.reward;
            }
            batch.ys.truncate(width);
        }
        // Several gradient steps per round: the batch is tiny, so a single
        // AdaDelta step learns almost nothing. A non-finite loss (a NaN
        // reward, say) leaves the network untouched and ends the round.
        let mut loss = 0.0;
        for _ in 0..8 {
            self.sync_helper();
            loss = self.trainer.train_step();
            if !loss.is_finite() {
                break;
            }
        }
        if let Helper::Running(h) = &self.helper {
            h.set(IDLE);
        }
        Some(loss)
    }

    /// Checks the gate before a step: starts, wakes or parks the helper,
    /// and passes on its panic if it died.
    fn sync_helper(&mut self) {
        if let Helper::Running(h) = &mut self.helper {
            if h.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                let handle = h.handle.take().expect("checked above");
                self.helper = Helper::Unavailable;
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
        #[cfg(test)]
        let open = self.force_helper.unwrap_or_else(gate_open);
        #[cfg(not(test))]
        let open = gate_open();
        match &self.helper {
            Helper::NotStarted if open => {
                self.helper = HelperThread::spawn(self.trainer.helper())
                    .map_or(Helper::Unavailable, Helper::Running);
            }
            Helper::Running(h) => h.set(if open { HELP } else { PARK }),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn choose_respects_availability() {
        let mut r = rng(0);
        let mut agent = QAgent::new(4, 3, &mut r);
        let s = vec![0.1, 0.2, 0.3, 0.4];
        assert_eq!(agent.choose(&s, &[false, true, false], &mut r), Some(1));
        assert_eq!(agent.choose(&s, &[false, false, false], &mut r), None);
    }

    #[test]
    fn training_runs_every_five_trials() {
        let mut r = rng(1);
        let mut agent = QAgent::new(2, 2, &mut r);
        agent.record(Transition {
            state: vec![0.0, 0.0],
            action: 0,
            reward: 1.0,
            next_state: vec![1.0, 0.0],
        });
        let mut r2 = rng(9);
        for trial in 1..=10 {
            let trained = agent.end_trial(&mut r2).is_some();
            assert_eq!(trained, trial % 5 == 0, "trial {trial}");
        }
    }

    #[test]
    fn learns_to_prefer_rewarding_action() {
        let mut r = rng(2);
        let mut agent = QAgent::new(2, 2, &mut r);
        agent.epsilon = 0.0;
        let s = vec![0.5, 0.5];
        let s2 = vec![0.6, 0.5];
        // Action 0 always yields +1, action 1 always -1. One training
        // round is enough: the fresh network ranks action 0 first by a
        // hair, but with the rewards swapped the same round ranks action
        // 1 first, so the assertions below see what was learned.
        agent.record(Transition {
            state: s.clone(),
            action: 0,
            reward: 1.0,
            next_state: s2.clone(),
        });
        agent.record(Transition {
            state: s.clone(),
            action: 1,
            reward: -1.0,
            next_state: s2.clone(),
        });
        agent.trials_since_train = agent.train_every; // force training
        agent.end_trial(&mut r);
        let q = agent.q_values(&s);
        assert!(q[0] > q[1], "Q-values {q:?}");
        assert_eq!(agent.choose(&s, &[true, true], &mut r), Some(0));
    }

    #[test]
    fn nan_reward_cannot_poison_the_network() {
        let mut r = rng(5);
        let mut agent = QAgent::new(2, 2, &mut r);
        let s = vec![0.5, 0.5];
        let step = |action, reward| Transition {
            state: s.clone(),
            action,
            reward,
            next_state: vec![0.6, 0.5],
        };
        agent.record(step(0, 1.0));
        agent.trials_since_train = agent.train_every; // force training
        assert!(agent.end_trial(&mut r).is_some_and(f64::is_finite));
        let before = (agent.trainer.net(), agent.trainer.optimizer());
        // A NaN energy clamps to a NaN reward; the round must not train.
        agent.record(step(1, f64::NAN));
        agent.trials_since_train = agent.train_every;
        assert!(agent.end_trial(&mut r).is_some_and(f64::is_nan));
        assert_eq!(agent.trainer.net(), before.0);
        assert_eq!(agent.trainer.optimizer(), before.1);
        assert!(agent.q_values(&s).iter().all(|q| q.is_finite()));
    }

    /// Feeds `agent` `rounds` training rounds of seeded transitions,
    /// returning each round's loss bits.
    fn train_rounds(agent: &mut QAgent, rounds: usize, seed: u64) -> Vec<u64> {
        let mut r = rng(seed);
        let dim = agent.trainer.input_dim();
        let mut losses = Vec::new();
        while losses.len() < rounds {
            let state: Vec<f64> = (0..dim).map(|_| r.gen_range(-1.0..1.0)).collect();
            let next_state = state.iter().map(|v| v + r.gen_range(-0.1..0.1)).collect();
            agent.record(Transition {
                state,
                action: r.gen_range(0..agent.num_actions),
                reward: r.gen_range(-1.0..1.0),
                next_state,
            });
            losses.extend(agent.end_trial(&mut r).map(f64::to_bits));
        }
        losses
    }

    #[test]
    fn helper_on_and_off_train_identically() {
        let agents = [true, false].map(|on| {
            let mut agent = QAgent::new(19, 34, &mut rng(6));
            agent.force_helper = Some(on);
            let losses = train_rounds(&mut agent, 40, 7);
            let running = matches!(agent.helper, Helper::Running(_));
            assert_eq!(running, on, "helper running with the gate forced {on}");
            (losses, agent.trainer.net(), agent.trainer.optimizer())
        });
        let [on, off] = agents;
        assert_eq!(on.0, off.0, "losses");
        assert!(on.1 == off.1, "network");
        assert!(on.2 == off.2, "optimizer state");
    }

    #[test]
    fn closing_the_gate_mid_search_keeps_training_identical() {
        let mut flip = QAgent::new(7, 5, &mut rng(8));
        let mut off = QAgent::new(7, 5, &mut rng(8));
        off.force_helper = Some(false);
        for (k, open) in [true, false, true, false].into_iter().enumerate() {
            flip.force_helper = Some(open);
            let seed = 9 + k as u64;
            assert_eq!(
                train_rounds(&mut flip, 5, seed),
                train_rounds(&mut off, 5, seed)
            );
        }
        assert!(flip.trainer.net() == off.trainer.net());
    }

    #[test]
    fn a_helper_panic_makes_end_trial_panic_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut agent = QAgent::new(3, 4, &mut rng(10));
            agent.force_helper = Some(true);
            train_rounds(&mut agent, 1, 11);
            let Helper::Running(h) = &agent.helper else {
                panic!("the helper is running");
            };
            h.panic.store(true, Ordering::Relaxed);
            let rounds = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                train_rounds(&mut agent, 1000, 12)
            }));
            tx.send(rounds.is_err()).expect("the test waits");
        });
        let outcome = rx.recv_timeout(Duration::from_secs(60));
        assert_eq!(outcome, Ok(true), "end_trial must panic, not hang");
    }

    #[test]
    fn two_training_rounds_in_flight_close_the_gate() {
        let rounds = [RoundInFlight::enter(), RoundInFlight::enter()];
        assert!(!gate_open());
        drop(rounds);
    }

    #[test]
    fn replay_is_bounded() {
        let mut r = rng(3);
        let mut agent = QAgent::new(1, 1, &mut r);
        for i in 0..5000 {
            agent.record(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: vec![i as f64],
            });
        }
        assert!(agent.replay.len() <= 4096);
    }

    #[test]
    fn ring_replay_evicts_oldest_first() {
        // The ring buffer must keep exactly the FIFO semantics of the old
        // `Vec::remove(0)` implementation: after overflow, the buffer
        // holds the most recent 4096 transitions in insertion order.
        let mut r = rng(4);
        let mut agent = QAgent::new(1, 1, &mut r);
        for i in 0..5000 {
            agent.record(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: vec![i as f64],
            });
        }
        assert_eq!(agent.replay.len(), 4096);
        // 5000 - 4096 = 904 oldest transitions were evicted.
        assert_eq!(agent.replay.front().unwrap().state, vec![904.0]);
        assert_eq!(agent.replay.back().unwrap().state, vec![4999.0]);
        for (k, t) in agent.replay.iter().enumerate() {
            assert_eq!(t.state[0], (904 + k) as f64);
        }
    }
}
