//! The Q-learning direction selector (§5.1).
//!
//! States are schedule points (feature vectors from
//! [`Space::features`](crate::space::Space::features)), actions are the
//! space's [`Direction`](crate::space::Direction)s, and the reward for
//! moving from `p` to `e` is the normalized improvement
//! `(E_e - E_p) / E_p`. Q-values are predicted by a four-layer
//! fully-connected ReLU network trained online with AdaDelta; training
//! happens every five trials, against a frozen *target network* `Y` whose
//! parameters are refreshed from the online network `X` after each
//! training round (the stabilization of Mnih et al. 2015 the paper cites).

use std::collections::VecDeque;

use flextensor_nn::{AdaDelta, Mlp, MlpScratch, TrainScratch};
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

/// One training round's minibatch (see [`QAgent::end_trial`]): the
/// sampled replay indices, their states and next states, the target
/// network's Q-values at the next states, and the training targets — all
/// row-major, one row per sample.
#[derive(Debug, Clone, Default)]
struct Minibatch {
    indices: Vec<usize>,
    states: Vec<f64>,
    next_states: Vec<f64>,
    next_q: Vec<f64>,
    targets: Vec<f64>,
}

/// The online Q-learning agent.
#[derive(Debug, Clone)]
pub struct QAgent {
    net: Mlp,        // X: trained online
    target_net: Mlp, // Y: frozen copy used for bootstrap targets
    opt: AdaDelta,
    /// Bounded FIFO replay buffer; a ring (`VecDeque`) so eviction of the
    /// oldest transition is O(1) instead of a whole-buffer shift.
    replay: VecDeque<Transition>,
    /// Ping-pong activation scratch for allocation-free inference.
    scratch: MlpScratch,
    /// Output buffer for [`QAgent::choose`]'s Q-value forward pass.
    q_buf: Vec<f64>,
    /// Gradient/activation scratch reused across training rounds.
    train_scratch: TrainScratch,
    /// One training round's minibatch buffers, reused across rounds.
    batch: Minibatch,
    /// Discount factor (the paper's α).
    alpha: f64,
    /// ε-greedy exploration rate (annealed by [`QAgent::set_progress`]).
    epsilon: f64,
    /// Train every this many recorded trials (the paper uses 5).
    train_every: usize,
    trials_since_train: usize,
    num_actions: usize,
}

impl QAgent {
    /// Builds the agent for a `feature_dim`-dimensional state space with
    /// `num_actions` directions. The network is the paper's four
    /// fully-connected layers with ReLU.
    pub fn new(feature_dim: usize, num_actions: usize, rng: &mut impl Rng) -> QAgent {
        let hidden = 64;
        let dims = [feature_dim, hidden, hidden, hidden, num_actions];
        let net = Mlp::new(&dims, rng);
        let target_net = net.clone();
        let opt = AdaDelta::new(net.num_params());
        QAgent {
            net,
            target_net,
            opt,
            replay: VecDeque::new(),
            scratch: MlpScratch::new(),
            q_buf: Vec::new(),
            train_scratch: TrainScratch::new(),
            batch: Minibatch::default(),
            alpha: 0.3,
            epsilon: 0.9,
            train_every: 5,
            trials_since_train: 0,
            num_actions,
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
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.net.forward(state)
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
        self.net
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
    /// trials the online network is trained on a random replay minibatch
    /// and the target network refreshed. Returns the training loss when
    /// training ran.
    pub fn end_trial(&mut self, rng: &mut impl Rng) -> Option<f64> {
        self.trials_since_train += 1;
        if self.trials_since_train < self.train_every || self.replay.is_empty() {
            return None;
        }
        self.trials_since_train = 0;
        // Batch: 64 transitions sampled uniformly from the replay buffer —
        // by index, so no transition is cloned per round.
        let b = &mut self.batch;
        b.indices.clear();
        if self.replay.len() <= 64 {
            b.indices.extend(0..self.replay.len());
        } else {
            b.indices
                .extend((0..64).map(|_| rng.gen_range(0..self.replay.len())));
        }
        b.states.clear();
        b.next_states.clear();
        for &i in &b.indices {
            let t = &self.replay[i];
            assert_eq!(
                (t.state.len(), t.next_state.len()),
                (self.net.input_dim(), self.net.input_dim()),
                "input width mismatch"
            );
            b.states.extend_from_slice(&t.state);
            b.next_states.extend_from_slice(&t.next_state);
        }
        // target = α·max_a Y(e)[a] + r, on the taken action; other actions
        // keep the online net's own predictions (so only the taken
        // action's error backpropagates meaningfully).
        self.net
            .forward_batch(&b.states, &mut self.scratch, &mut b.targets);
        self.target_net
            .forward_batch(&b.next_states, &mut self.scratch, &mut b.next_q);
        let rows = b.targets.chunks_exact_mut(self.num_actions);
        for ((row, next_q), &i) in rows
            .zip(b.next_q.chunks_exact(self.num_actions))
            .zip(&b.indices)
        {
            let t = &self.replay[i];
            let bootstrap = next_q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            row[t.action] = self.alpha * bootstrap + t.reward;
        }
        // Several gradient steps per round: the batch is tiny, so a single
        // AdaDelta step learns almost nothing. A non-finite loss (a NaN
        // reward, say) leaves the network untouched and ends the round.
        let mut loss = 0.0;
        for _ in 0..8 {
            loss = self.net.train_batch_with(
                &b.states,
                &b.targets,
                &mut self.opt,
                &mut self.train_scratch,
            );
            if !loss.is_finite() {
                break;
            }
        }
        // Copy X -> Y (the paper: "the parameters of X are copied to
        // network Y as a backup").
        self.target_net.copy_params_from(&self.net);
        Some(loss)
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
        // Action 0 always yields +1, action 1 always -1.
        for _ in 0..400 {
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
        }
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
        let before = (
            agent.net.clone(),
            agent.target_net.clone(),
            agent.opt.clone(),
        );
        // A NaN energy clamps to a NaN reward; the round must not train.
        agent.record(step(1, f64::NAN));
        agent.trials_since_train = agent.train_every;
        assert!(agent.end_trial(&mut r).is_some_and(f64::is_nan));
        assert_eq!(agent.net, before.0);
        assert_eq!(agent.target_net, before.1);
        assert_eq!(agent.opt, before.2);
        assert!(agent.q_values(&s).iter().all(|q| q.is_finite()));
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
