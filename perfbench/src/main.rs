//! End-to-end benchmark of the TensorLights simulator.
//!
//! ```text
//! tl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation measures one workload (see [`workloads`]). With
//! `--trace 0` it reports the end-to-end metrics: simulation wall time,
//! set-up time, peak memory and the fluid-vs-packet oracle's worst
//! divergence. With `--trace 1` it turns on the simulator's self-profiler
//! and times the policy from outside, and reports the per-layer
//! partition of the traced wall time plus the layers' work counts. The
//! last line of standard output is a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! Every simulation's output is checked: it must finish without a panic
//! or engine error, complete every job, and reproduce the first run's
//! simulated-output digest. At the default seed that digest must also
//! match the committed one (see [`digest`]).

mod digest;
mod layers;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use simcore::SimTime;
use tl_dl::{SimOutput, Simulation};
use workloads::{Inputs, Workload};

/// Fewest timed simulations a run reports, however long each takes.
const MIN_SAMPLES: usize = 3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = digest::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("integer"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("integer"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required: {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Tally of attempted and failed operations, with the reason for each
/// failure.
#[derive(Default)]
pub struct Outcomes {
    attempted: u64,
    failures: Vec<String>,
}

impl Outcomes {
    /// Count one operation; `Err` records it as failed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// One finished simulation: its wall time and output.
pub struct Sim {
    /// Host seconds inside the simulation call.
    pub wall: f64,
    /// What the simulation produced.
    pub out: SimOutput,
}

/// Time `sim`'s run. Panics and engine errors become `Err`.
pub fn timed_run(sim: Simulation<'_>) -> Result<Sim, String> {
    let run = AssertUnwindSafe(move || {
        let t0 = Instant::now();
        let out = sim.try_run();
        let wall = t0.elapsed().as_secs_f64();
        out.map(|out| Sim { wall, out }).map_err(|e| e.to_string())
    });
    catch_unwind(run).unwrap_or_else(|p| Err(panic_message(&p)))
}

/// Run `inputs` to completion untraced.
pub fn simulate(inputs: Inputs) -> Result<Sim, String> {
    let Inputs {
        sim_cfg,
        setups,
        mut policy,
    } = inputs;
    timed_run(
        Simulation::new(sim_cfg)
            .jobs(setups)
            .policy_ref(policy.as_mut()),
    )
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string payload".to_string());
    format!("panicked: {msg}")
}

/// Check a finished simulation's output: every job done, no invariant
/// violation, and the simulated-output digest equal to `expected`.
pub fn check_output(out: &SimOutput, expected: u64) -> Result<(), String> {
    let unfinished = out.jobs.iter().filter(|j| j.completion.is_none()).count();
    if unfinished > 0 {
        return Err(format!(
            "{unfinished} of {} jobs unfinished",
            out.jobs.len()
        ));
    }
    if let Some(v) = out.invariant_violations.first() {
        return Err(format!("invariant violation: {v}"));
    }
    let got = digest::digest(out);
    if got != expected {
        return Err(format!(
            "output digest {got:016x} != expected {expected:016x}"
        ));
    }
    Ok(())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile, by linear interpolation
/// between order statistics.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Print one metric's summary line for a human reader.
pub fn report_line(name: &str, unit: &str, xs: &[f64]) {
    let (q1, med, q3) = quartiles(xs);
    println!(
        "  {name:<28} median {med:>12.6} {unit:<6} q1 {q1:.6}  q3 {q3:.6}  n={}",
        xs.len()
    );
}

/// The set-up cost: generate the inputs and run them with a zero time
/// horizon, which builds the topology, network, CPU engine and policy
/// state and stops. Timed `SETUP_REPS` times; returns every sample.
fn measure_setup(w: Workload, seed: u64, outcomes: &mut Outcomes) -> Vec<f64> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut inputs = w.inputs(seed);
        inputs.sim_cfg.max_sim_time = SimTime::ZERO;
        let result = simulate(inputs);
        samples.push(t0.elapsed().as_secs_f64());
        outcomes.record("setup", result.map(|_| ()));
    }
    samples
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run the 32-scenario fluid-vs-packet validation matrix once (its fixed
/// default configuration) and return the worst per-job relative JCT
/// divergence. Each scenario counts as one operation.
fn oracle(outcomes: &mut Outcomes) -> Option<f64> {
    let cfg = tl_experiments::ExperimentConfig::default();
    let result = catch_unwind(|| tl_experiments::validate::run(&cfg));
    match result {
        Ok(res) => {
            for row in &res.rows {
                let verdict = if row.pass {
                    Ok(())
                } else {
                    Err(format!(
                        "divergence {} / error {:?}",
                        row.max_rel_divergence, row.error
                    ))
                };
                outcomes.record(&format!("oracle scenario {}", row.id), verdict);
            }
            res.rows
                .iter()
                .map(|r| r.max_rel_divergence)
                .reduce(f64::max)
        }
        Err(p) => {
            outcomes.record("oracle", Err(panic_message(&p)));
            None
        }
    }
}

/// A metric for the final JSON line.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    /// A named metric value.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The untraced run: one warm-up simulation whose output becomes the
/// reference and whose peak memory is reported, the set-up timings, then
/// timed simulations until `seconds` have passed, then the oracle.
fn run_untraced(args: &Args, outcomes: &mut Outcomes) -> Vec<Metric> {
    let w = args.workload;
    let Some(reference) = warm_up(args, outcomes) else {
        return Vec::new();
    };
    // Peak memory of one simulation: later ones reuse a heap that earlier
    // ones fragmented, so their peak depends on how many ran before.
    let rss = peak_rss_mb();
    let setup = measure_setup(w, args.seed, outcomes);
    let mut walls = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for attempt in 0.. {
        if attempt >= MIN_SAMPLES && Instant::now() >= deadline {
            break;
        }
        match simulate(w.inputs(args.seed)) {
            Ok(sim) => {
                outcomes.record("simulation", check_output(&sim.out, reference));
                walls.push(sim.wall);
            }
            Err(e) => outcomes.record("simulation", Err(e)),
        }
    }
    let div = oracle(outcomes);

    println!("end-to-end ({}, seed {}):", w.name(), args.seed);
    let mut metrics = Vec::new();
    if !walls.is_empty() {
        report_line("wall_s", "s", &walls);
        metrics.push(Metric::new("wall_s", "s", median(&walls)));
    }
    report_line("setup_s", "s", &setup);
    metrics.push(Metric::new("setup_s", "s", median(&setup)));
    if let Some(rss) = rss {
        println!("  {:<28} {rss:.3} MB", "peak_rss_mb");
        metrics.push(Metric::new("peak_rss_mb", "MB", rss));
    }
    if let Some(div) = div {
        println!("  {:<28} {div:.6}", "oracle_max_rel_div");
        metrics.push(Metric::new("oracle_max_rel_div", "ratio", div));
    }
    let failed = outcomes.failures.len() as f64 / outcomes.attempted.max(1) as f64;
    println!(
        "  {:<28} {failed:.6} ({} of {})",
        "failed_frac",
        outcomes.failures.len(),
        outcomes.attempted
    );
    metrics
}

/// Run the workload once untimed: fills the allocator's caches and pins
/// the digest every later simulation of the run must reproduce. At the
/// default seed that digest must equal the committed one.
fn warm_up(args: &Args, outcomes: &mut Outcomes) -> Option<u64> {
    let name = args.workload.name();
    let sim = match simulate(args.workload.inputs(args.seed)) {
        Ok(sim) => sim,
        Err(e) => {
            outcomes.record("warm-up simulation", Err(e));
            return None;
        }
    };
    let got = digest::digest(&sim.out);
    println!("digest {name} seed {}: {got:016x}", args.seed);
    let expected = if args.seed == digest::DEFAULT_SEED {
        match digest::committed(name) {
            Some(d) => d,
            None => {
                outcomes.record(
                    "warm-up simulation",
                    Err(format!("no committed digest for {name}")),
                );
                return None;
            }
        }
    } else {
        got
    };
    let result = check_output(&sim.out, expected);
    let ok = result.is_ok();
    outcomes.record("warm-up simulation", result);
    ok.then_some(got)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Outcomes::default();
    let metrics = if args.trace {
        match warm_up(&args, &mut outcomes) {
            Some(reference) => layers::run_traced(&args, reference, &mut outcomes),
            None => Vec::new(),
        }
    } else {
        run_untraced(&args, &mut outcomes)
    };

    let mut body = Vec::new();
    for m in &metrics {
        if m.value.is_finite() {
            body.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        } else {
            outcomes.record(m.name, Err(format!("non-finite value {}", m.value)));
        }
    }
    for f in &outcomes.failures {
        println!("failure: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.failures.is_empty(),
        outcomes.attempted,
        outcomes.failures.len(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
