//! Shared experiment plumbing: policies by name, grid-search runs, and
//! parallel sweeps.

use crate::config::ExperimentConfig;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use tensorlights::{FifoPolicy, JobOrdering, PriorityPolicy, TlsOne, TlsRr};
use tl_cluster::{table1_placement, Placement, Table1Index};
use tl_dl::{SimOutput, Simulation};
use tl_telemetry::TelemetryConfig;
use tl_workloads::GridSearchConfig;

/// The three network scheduling policies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Default FIFO (no tc configuration) — the baseline.
    Fifo,
    /// TLs-One: static distinct priorities.
    TlsOne,
    /// TLs-RR: priorities rotated every interval T.
    TlsRr,
}

impl PolicyKind {
    /// All policies, baseline first.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Fifo, PolicyKind::TlsOne, PolicyKind::TlsRr]
    }

    /// Display name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::TlsOne => "TLs-One",
            PolicyKind::TlsRr => "TLs-RR",
        }
    }

    /// Instantiate the policy. Grid-search jobs are homogeneous, so the
    /// paper's random priority assignment is used for TLs (seeded for
    /// determinism).
    pub fn build(&self, cfg: &ExperimentConfig) -> Box<dyn PriorityPolicy + Send> {
        let ordering = JobOrdering::Random { seed: cfg.seed };
        match self {
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::TlsOne => Box::new(TlsOne::new(ordering).with_bands(cfg.num_bands)),
            PolicyKind::TlsRr => Box::new(
                TlsRr::new(ordering)
                    .with_bands(cfg.num_bands)
                    .with_interval(cfg.rr_interval),
            ),
        }
    }
}

/// One grid-search run: the paper's 21-job workload (scaled to
/// `cfg.iterations`) on the given placement under the given policy.
pub fn run_grid_search(
    cfg: &ExperimentConfig,
    placement: &Placement,
    policy: PolicyKind,
    batch_size: u32,
    window: Option<(SimTime, SimTime)>,
) -> SimOutput {
    run_grid_search_telemetry(
        cfg,
        placement,
        policy,
        batch_size,
        window,
        TelemetryConfig::disabled(),
    )
}

/// [`run_grid_search`] with an explicit telemetry configuration; the
/// structured events/metrics land in [`SimOutput::telemetry`].
pub fn run_grid_search_telemetry(
    cfg: &ExperimentConfig,
    placement: &Placement,
    policy: PolicyKind,
    batch_size: u32,
    window: Option<(SimTime, SimTime)>,
    telemetry: TelemetryConfig,
) -> SimOutput {
    let mut wl = GridSearchConfig::paper_scaled(cfg.iterations);
    wl.local_batch_size = batch_size;
    let setups = wl.build(placement);
    let mut sim_cfg = cfg.sim_config();
    sim_cfg.active_window = window;
    let mut policy = policy.build(cfg);
    Simulation::new(sim_cfg)
        .jobs(setups)
        .policy_ref(policy.as_mut())
        .telemetry(telemetry)
        .run()
}

/// Grid search on a Table I placement with the paper's batch size 4.
pub fn run_table1(cfg: &ExperimentConfig, index: Table1Index, policy: PolicyKind) -> SimOutput {
    let placement = table1_placement(index, 21, 21);
    run_grid_search(cfg, &placement, policy, 4, None)
}

/// Run independent jobs across a bounded pool of worker threads (at most
/// one per available core), preserving input order in the output. Workers
/// pull from a shared queue, so uneven job costs balance dynamically.
/// Used by the sweep experiments.
///
/// If a closure panics, the panic payload of the *lowest input index* that
/// panicked is re-raised on the calling thread, but only after the entire
/// remaining queue drains — siblings keep running to completion and the
/// original message survives, instead of every worker dying with a
/// misleading "sweep queue poisoned"/"sweep worker panicked". Picking the
/// lowest index (rather than whichever thread lost the race) keeps the
/// surfaced error deterministic across interleavings; the orchestrator's
/// cell isolation relies on the drain guarantee.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    parallel_map_with_workers(inputs, None, f)
}

/// [`parallel_map`] with the worker count forced to `workers` (when
/// `Some`) instead of the available core count. `Some(1)` runs strictly
/// sequentially on the calling thread. Exists so determinism tests can
/// prove results are byte-identical no matter how many threads ran the
/// sweep; everything else should use [`parallel_map`].
pub fn parallel_map_with_workers<I, O, F>(inputs: Vec<I>, workers: Option<usize>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let n = inputs.len();
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(n);
    type Panic = (usize, Box<dyn std::any::Any + Send>);
    // Keep the panic from the lowest input index: deterministic regardless
    // of which worker hit its panic first.
    fn keep_earliest(slot: &mut Option<Panic>, idx: usize, payload: Box<dyn std::any::Any + Send>) {
        match slot {
            Some((held, _)) if *held <= idx => {}
            _ => *slot = Some((idx, payload)),
        }
    }
    if workers <= 1 {
        // Same drain-then-reraise semantics as the threaded path.
        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<Panic> = None;
        for (i, input) in inputs.into_iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(input))) {
                Ok(o) => out.push(o),
                Err(payload) => keep_earliest(&mut first_panic, i, payload),
            }
        }
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        return out;
    }
    let queue = std::sync::Mutex::new(inputs.into_iter().enumerate());
    let first_panic: std::sync::Mutex<Option<Panic>> = std::sync::Mutex::new(None);
    let mut results: Vec<(usize, O)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let queue = &queue;
                let first_panic = &first_panic;
                let f = &f;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // `into_inner` recovers a poisoned queue: the lock
                        // only guards the iterator cursor, which a panic
                        // elsewhere cannot corrupt.
                        let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                        match next {
                            Some((i, input)) => {
                                match catch_unwind(AssertUnwindSafe(|| f(input))) {
                                    Ok(out) => done.push((i, out)),
                                    Err(payload) => keep_earliest(
                                        &mut first_panic
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner()),
                                        i,
                                        payload,
                                    ),
                                }
                            }
                            None => return done,
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker died outside the job closure"))
            .collect()
    });
    if let Some((_, payload)) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::Fifo.label(), "FIFO");
        assert_eq!(PolicyKind::TlsOne.label(), "TLs-One");
        assert_eq!(PolicyKind::TlsRr.label(), "TLs-RR");
    }

    #[test]
    fn policies_have_expected_names() {
        let cfg = ExperimentConfig::quick();
        assert_eq!(PolicyKind::Fifo.build(&cfg).name(), "fifo");
        assert_eq!(PolicyKind::TlsOne.build(&cfg).name(), "tls-one");
        assert_eq!(PolicyKind::TlsRr.build(&cfg).name(), "tls-rr");
    }

    #[test]
    fn quick_grid_search_completes() {
        let cfg = ExperimentConfig::quick();
        let out = run_table1(&cfg, Table1Index(8), PolicyKind::Fifo);
        assert!(out.all_complete());
        assert_eq!(out.jobs.len(), 21);
        for j in &out.jobs {
            assert_eq!(j.iterations, cfg.iterations);
        }
    }

    /// Pins the deterministic work of the paper's grid search on the fluid
    /// backend (Table I #1, 21 jobs x 20 workers, TLs-RR), so a change that
    /// adds engine events or allocator work fails `cargo test`. A change
    /// that moves these counts on purpose updates them and says why.
    #[test]
    fn grid_search_work_counts_are_pinned() {
        let cfg = ExperimentConfig::scaled(3);
        let out = run_table1(&cfg, Table1Index(1), PolicyKind::TlsRr);
        assert!(out.all_complete());
        let a = out.alloc_stats;
        assert_eq!(out.events, 3_969);
        assert_eq!(
            (
                a.invocations,
                a.components_solved,
                a.components_retained,
                a.rounds,
                a.flows_touched
            ),
            (3_872, 3_545, 0, 5_968, 62_970)
        );
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect(), |x: i32| x * x);
        assert_eq!(out, (0..16).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_propagates_original_panic() {
        // Regression: a panicking closure used to surface as "sweep worker
        // panicked" (or poison siblings) — the original payload must win.
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..32).collect(), |x: i32| {
                if x == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic in a sweep job must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("payload is the original format string");
        assert!(msg.contains("boom at 3"), "original panic lost: {msg}");
    }

    #[test]
    fn parallel_map_drains_siblings_after_panic() {
        // Items other than the panicking one still run to completion.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..16).collect(), |x: i32| {
                if x == 0 {
                    panic!("early item panics");
                }
                ran.fetch_add(1, Ordering::SeqCst);
                x
            })
        });
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 15, "remaining items drained");
    }

    #[test]
    fn parallel_map_reraises_lowest_index_panic() {
        // Regression: with several panicking items, the surfaced payload
        // used to be whichever worker reached the shared slot first —
        // nondeterministic across interleavings. The drain guarantee means
        // every item runs, so the lowest panicking index must always win.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for round in 0..24 {
            let ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(|| {
                parallel_map((0..64).collect(), |x: i32| {
                    if x == 7 || x == 23 || x == 55 {
                        panic!("boom at {x}");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                    x
                })
            });
            let payload = result.expect_err("panics must propagate");
            let msg = payload.downcast_ref::<String>().expect("original payload");
            assert!(
                msg.contains("boom at 7"),
                "round {round}: expected lowest-index panic, got {msg}"
            );
            assert_eq!(ran.load(Ordering::SeqCst), 61, "round {round}: queue drained");
        }
    }
}
