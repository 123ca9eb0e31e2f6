//! A cost-only run executes no kernel body, so its ranks are stepped
//! on the calling thread and it spawns none; a full-fidelity run keeps
//! one thread per rank. One test in a binary of its own: thread ids
//! are handed out by a process-wide counter, so the ids of two probe
//! threads bracket the number of threads started between them, as
//! long as nothing else in the process starts any.

use heterosim::core::{run, run_balanced, ExecMode, RunConfig};
use heterosim::raja::Fidelity;
use heterosim::serve::{Request, Server, ServerConfig};

/// Threads started while `f` ran.
fn threads_started_by(f: impl FnOnce()) -> u64 {
    let next_id = || {
        let id = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("probe thread");
        let digits: String = format!("{id:?}")
            .chars()
            .filter(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().expect("ThreadId(n)")
    };
    let before = next_id();
    f();
    next_id() - before - 1
}

#[test]
fn cost_only_runs_spawn_no_thread_and_full_runs_one_per_rank() {
    let mut cfg = RunConfig::sweep((64, 48, 32), ExecMode::hetero());
    cfg.cycles = 3;
    cfg.tile = Some([8, 8]);
    assert_eq!(threads_started_by(|| drop(run(&cfg).expect("run"))), 0);
    let balanced = || drop(run_balanced(&cfg).expect("balanced run"));
    assert_eq!(threads_started_by(balanced), 0);

    // A served miss executes on a worker the server started up front.
    let server = Server::new(ServerConfig {
        workers: 1,
        tile: cfg.tile,
        ..ServerConfig::default()
    });
    let miss = || {
        let response = server
            .submit(Request::balanced(cfg.clone()))
            .expect("serves");
        assert!(!response.cached);
    };
    assert_eq!(threads_started_by(miss), 0);

    // Kernel bodies run in parallel: sixteen ranks, sixteen threads.
    cfg.fidelity = Fidelity::Full;
    cfg.cycles = 1;
    let ranks = run(&cfg).expect("full run").ranks.len() as u64;
    assert_eq!(threads_started_by(|| drop(run(&cfg).expect("run"))), ranks);
}
