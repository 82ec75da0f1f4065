//! The traced run: where a simulation's wall time goes, layer by layer.
//!
//! Traced simulations turn on the simulator's self-profiler
//! (`Simulation::profile`), whose slots time the allocator
//! (`alloc.solve`, with its worker-pool share `alloc.solve_parallel`),
//! the event queue (`queue.heap`), the packet engine (`packet.service`)
//! and event dispatch (`engine.handlers`). The policy is timed from
//! outside by [`TimedPolicy`]. The whole of the partition is the traced
//! wall time of the simulation call, `engine.run_s`: the event queue's
//! pops happen outside `engine.handlers`, so the handlers alone would not
//! contain every named part. `engine.other_s` is what no named part
//! covers.
//!
//! Untraced simulations alternate with the traced ones, which gives the
//! tracing overhead and checks that the work counts do not depend on
//! tracing.

use std::time::{Duration, Instant};

use simcore::{ProfileReport, SimTime};
use tensorlights::{Assignment, JobTrafficInfo, PriorityPolicy};
use tl_dl::Simulation;

use crate::workloads::Inputs;
use crate::{
    check_output, median, report_line, simulate, timed_run, Args, Metric, Outcomes, MIN_SAMPLES,
};

/// Times every `assign` call of the policy it wraps.
struct TimedPolicy<'a> {
    inner: &'a mut dyn PriorityPolicy,
    calls: u64,
    nanos: u64,
}

impl PriorityPolicy for TimedPolicy<'_> {
    fn assign(&mut self, now: SimTime, jobs: &[JobTrafficInfo]) -> Assignment {
        let t0 = Instant::now();
        let assignment = self.inner.assign(now, jobs);
        self.nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        assignment
    }

    fn next_update(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_update(now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Work counts of one simulation. They are deterministic: every
/// simulation of a run must produce the same ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    events: u64,
    alloc_invocations: u64,
    components_solved: u64,
    components_retained: u64,
    rounds: u64,
    flows_touched: u64,
    parallel_dispatches: u64,
    heap_ops: u64,
    packet_services: u64,
    policy_calls: u64,
}

/// One traced simulation's counts and per-layer seconds.
struct Traced {
    counts: Counts,
    run_s: f64,
    handlers_s: f64,
    alloc_s: f64,
    parallel_s: f64,
    heap_s: f64,
    packet_s: f64,
    policy_s: f64,
}

impl Traced {
    /// Seconds no named part covers.
    fn other_s(&self) -> f64 {
        self.run_s - (self.alloc_s + self.heap_s + self.packet_s + self.policy_s)
    }

    /// The partition must hold: the named parts fit inside the traced
    /// wall time, and the parts nested in event dispatch fit inside it.
    fn check_partition(&self) -> Result<(), String> {
        if self.other_s() < 0.0 {
            return Err(format!(
                "named parts exceed engine.run_s {:.6} s by {:.6} s",
                self.run_s,
                -self.other_s()
            ));
        }
        let in_handlers = self.alloc_s + self.packet_s + self.policy_s;
        if in_handlers > self.handlers_s {
            return Err(format!(
                "alloc + packet + policy {in_handlers:.6} s exceed engine.handlers_s {:.6} s",
                self.handlers_s
            ));
        }
        Ok(())
    }
}

/// Print a check's verdict and count it as one operation.
fn check(outcomes: &mut Outcomes, what: &str, result: Result<(), String>) {
    match &result {
        Ok(()) => println!("check ok: {what}"),
        Err(e) => println!("check FAILED: {what}: {e}"),
    }
    outcomes.record(what, result);
}

/// `(count, seconds)` of a profiler slot; zeros if it never fired.
fn slot(report: &ProfileReport, name: &str) -> (u64, f64) {
    report
        .subsystems
        .iter()
        .find(|s| s.name == name)
        .map_or((0, 0.0), |s| (s.count, s.total_nanos as f64 * 1e-9))
}

fn run_traced_once(inputs: Inputs, reference: u64) -> Result<Traced, String> {
    let Inputs {
        sim_cfg,
        setups,
        mut policy,
    } = inputs;
    let mut timed = TimedPolicy {
        inner: policy.as_mut(),
        calls: 0,
        nanos: 0,
    };
    let sim = timed_run(
        Simulation::new(sim_cfg)
            .jobs(setups)
            .policy_ref(&mut timed)
            .profile(true),
    )?;
    check_output(&sim.out, reference)?;
    let report = sim
        .out
        .profile
        .as_ref()
        .ok_or("profiler returned no report")?;
    let (_, handlers_s) = slot(report, "engine.handlers");
    let (_, alloc_s) = slot(report, "alloc.solve");
    let (_, parallel_s) = slot(report, "alloc.solve_parallel");
    let (heap_ops, heap_s) = slot(report, "queue.heap");
    let (packet_services, packet_s) = slot(report, "packet.service");
    let a = sim.out.alloc_stats;
    Ok(Traced {
        counts: Counts {
            events: sim.out.events,
            alloc_invocations: a.invocations,
            components_solved: a.components_solved,
            components_retained: a.components_retained,
            rounds: a.rounds,
            flows_touched: a.flows_touched,
            parallel_dispatches: a.parallel_dispatches,
            heap_ops,
            packet_services,
            policy_calls: timed.calls,
        },
        run_s: sim.wall,
        handlers_s,
        alloc_s,
        parallel_s,
        heap_s,
        packet_s,
        policy_s: timed.nanos as f64 * 1e-9,
    })
}

/// The per-layer run: alternate untraced and traced simulations until
/// `seconds` have passed, check the partition and the bypass
/// predictions, and report the per-layer metrics.
pub fn run_traced(args: &Args, reference: u64, outcomes: &mut Outcomes) -> Vec<Metric> {
    let w = args.workload;
    let mut untraced = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for attempt in 0.. {
        if attempt >= MIN_SAMPLES && Instant::now() >= deadline {
            break;
        }
        let plain = simulate(w.inputs(args.seed)).and_then(|sim| {
            check_output(&sim.out, reference)?;
            Ok(sim)
        });
        match plain {
            Ok(sim) => {
                let a = sim.out.alloc_stats;
                untraced.push((sim.wall, (sim.out.events, a.invocations, a.flows_touched)));
                outcomes.record("untraced simulation", Ok(()));
            }
            Err(e) => outcomes.record("untraced simulation", Err(e)),
        }
        match run_traced_once(w.inputs(args.seed), reference) {
            Ok(t) => {
                traced.push(t);
                outcomes.record("traced simulation", Ok(()));
            }
            Err(e) => outcomes.record("traced simulation", Err(e)),
        }
    }
    let (Some(first), false) = (traced.first(), untraced.is_empty()) else {
        return Vec::new();
    };
    let c = first.counts;

    let repeat = if traced.iter().any(|t| t.counts != c) {
        Err("work counts differ between traced simulations".to_string())
    } else if untraced
        .iter()
        .any(|&(_, u)| u != (c.events, c.alloc_invocations, c.flows_touched))
    {
        Err("work counts differ between traced and untraced simulations".to_string())
    } else {
        Ok(())
    };
    check(outcomes, "work counts repeat in every simulation", repeat);
    let partition = traced.iter().try_for_each(Traced::check_partition);
    check(
        outcomes,
        "partition: alloc.solve_s + queue.heap_s + packet.service_s + policy.assign_s \
         + engine.other_s = engine.run_s with engine.other_s >= 0, and alloc + packet + \
         policy <= engine.handlers_s, in every traced simulation",
        partition,
    );
    let bypass = match (w.is_fluid(), c.alloc_invocations, c.packet_services) {
        (true, _, 0) | (false, 0, _) => Ok(()),
        (true, _, n) => Err(format!("fluid workload ran packet.service {n} times")),
        (false, n, _) => Err(format!("packet workload ran the allocator {n} times")),
    };
    check(
        outcomes,
        "bypass: alloc.invocations = 0 on the packet backend, packet.services = 0 on fluid",
        bypass,
    );

    let per = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let walls: Vec<f64> = untraced.iter().map(|&(wall, _)| wall).collect();
    let run_s = per(&|t| t.run_s);

    println!(
        "per-layer ({}, seed {}), {} traced + {} untraced simulations:",
        w.name(),
        args.seed,
        traced.len(),
        walls.len()
    );
    let mut metrics = Vec::new();
    let mut count = |name: &'static str, v: u64| {
        println!("  {name:<28} {v:>12}");
        metrics.push(Metric::new(name, "count", v as f64));
    };
    count("engine.events", c.events);
    count("alloc.invocations", c.alloc_invocations);
    count("alloc.components_solved", c.components_solved);
    count("alloc.components_retained", c.components_retained);
    count("alloc.rounds", c.rounds);
    count("alloc.flows_touched", c.flows_touched);
    count("alloc.parallel_dispatches", c.parallel_dispatches);
    count("queue.heap_ops", c.heap_ops);
    count("packet.services", c.packet_services);
    count("policy.assign_calls", c.policy_calls);
    let derived = [
        (
            "alloc.retain_ratio",
            "ratio",
            ratio(
                c.components_retained,
                c.components_retained + c.components_solved,
            ),
        ),
        (
            "alloc.flows_per_solve",
            "flows",
            ratio(c.flows_touched, c.components_solved),
        ),
    ];
    for (name, unit, v) in derived {
        println!("  {name:<28} {v:>12.4}");
        metrics.push(Metric::new(name, unit, v));
    }
    let timed: [(&'static str, &'static str, Vec<f64>); 11] = [
        ("engine.run_s", "s", run_s.clone()),
        ("engine.handlers_s", "s", per(&|t| t.handlers_s)),
        ("engine.other_s", "s", per(&|t| t.other_s())),
        (
            "engine.ns_per_event",
            "ns",
            per(&|t| t.handlers_s * 1e9 / c.events.max(1) as f64),
        ),
        ("alloc.solve_s", "s", per(&|t| t.alloc_s)),
        (
            "alloc.ns_per_flow_touched",
            "ns",
            per(&|t| t.alloc_s * 1e9 / c.flows_touched.max(1) as f64),
        ),
        ("alloc.parallel_s", "s", per(&|t| t.parallel_s)),
        ("queue.heap_s", "s", per(&|t| t.heap_s)),
        ("packet.service_s", "s", per(&|t| t.packet_s)),
        ("policy.assign_s", "s", per(&|t| t.policy_s)),
        (
            "trace.overhead_frac",
            "ratio",
            vec![median(&run_s) / median(&walls) - 1.0],
        ),
    ];
    for (name, unit, xs) in timed {
        report_line(name, unit, &xs);
        metrics.push(Metric::new(name, unit, median(&xs)));
    }
    let parts = [
        "alloc.solve_s",
        "queue.heap_s",
        "packet.service_s",
        "policy.assign_s",
        "engine.other_s",
    ];
    let share = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let total = share("engine.run_s");
    let line: Vec<String> = parts
        .iter()
        .map(|p| format!("{p} {:.1}%", 100.0 * share(p) / total))
        .collect();
    println!("  shares of engine.run_s (medians): {}", line.join(", "));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(run_s: f64, handlers_s: f64, alloc_s: f64, heap_s: f64) -> Traced {
        Traced {
            counts: Counts {
                events: 1,
                alloc_invocations: 1,
                components_solved: 1,
                components_retained: 0,
                rounds: 1,
                flows_touched: 1,
                parallel_dispatches: 0,
                heap_ops: 2,
                packet_services: 0,
                policy_calls: 1,
            },
            run_s,
            handlers_s,
            alloc_s,
            parallel_s: 0.0,
            heap_s,
            packet_s: 0.0,
            policy_s: 0.0,
        }
    }

    #[test]
    fn partition_accepts_parts_that_fit() {
        let t = traced(1.0, 0.9, 0.5, 0.2);
        assert!(t.check_partition().is_ok());
        assert!((t.other_s() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn partition_rejects_parts_exceeding_the_run() {
        assert!(traced(1.0, 0.9, 0.8, 0.3).check_partition().is_err());
    }

    #[test]
    fn partition_rejects_nested_parts_exceeding_the_handlers() {
        assert!(traced(1.0, 0.4, 0.5, 0.1).check_partition().is_err());
    }
}
