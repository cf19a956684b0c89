//! Every Q-agent's training helper thread is gone once the agent is
//! dropped. The only test in its binary, so the process's thread count
//! moves with this test's agents alone.

use flextensor_explore::qlearn::{QAgent, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Threads of this process (Linux: one entry per thread).
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

/// Waits up to a second for the thread count to read `want`: a joined
/// thread has finished, but the kernel may list it a moment longer.
fn settles_at(want: usize) -> bool {
    let start = Instant::now();
    while threads() != Some(want) {
        if start.elapsed() > Duration::from_secs(1) {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn dropped_agents_leave_no_helper_thread_alive() {
    let Some(before) = threads() else {
        return; // no per-thread listing on this platform
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = StdRng::seed_from_u64(5);
    for k in 0..200 {
        let mut agent = QAgent::new(6, 4, &mut rng);
        agent.record(Transition {
            state: vec![0.1 * k as f64; 6],
            action: k % 4,
            reward: 1.0,
            next_state: vec![0.2; 6],
        });
        let trained = (0..5).filter_map(|_| agent.end_trial(&mut rng)).count();
        assert_eq!(trained, 1, "agent {k} trains once");
        // No search is in flight, so on two or more cores the gate is
        // open and the agent has started its helper.
        let during = threads().expect("listed above");
        assert_eq!(during, before + usize::from(cores >= 2), "agent {k}");
        drop(agent);
        assert!(settles_at(before), "agent {k} left a thread behind");
    }
}
