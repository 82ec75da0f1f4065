//! Digest of a simulation's simulated results, and the committed
//! digests it is checked against.
//!
//! The digest covers only what the simulation computes about the
//! simulated cluster: per-job completion time (ns), JCT (f64 bits) and
//! global steps, plus the end time. It leaves out the event count and the
//! allocator counters, which a change that only speeds the simulator up
//! may legitimately move.

use tl_dl::SimOutput;

/// The seed whose outputs are pinned by [`COMMITTED`].
pub const DEFAULT_SEED: u64 = 1;

/// Digest of each workload's simulated output at [`DEFAULT_SEED`].
pub const COMMITTED: [(&str, u64); 4] = [
    ("grid_rr", 0x17ee_062e_3606_cd5c),
    ("giant_component", 0x7ad1_4eb5_d298_f774),
    ("xl_fabric", 0x053e_eb78_59c2_3869),
    ("packet_grid", 0x4d1d_a0fd_6895_2a11),
];

/// The committed digest of `workload`, if one is recorded.
pub fn committed(workload: &str) -> Option<u64> {
    COMMITTED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, d)| d)
}

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of `out`'s simulated results. An unfinished job hashes a
/// sentinel in place of its completion time and JCT.
pub fn digest(out: &SimOutput) -> u64 {
    let mut h = Fnv::new();
    h.word(out.jobs.len() as u64);
    for job in &out.jobs {
        h.word(u64::from(job.id.0));
        h.word(job.completion.map_or(u64::MAX, |t| t.as_nanos()));
        h.word(job.jct_secs().map_or(u64::MAX, f64::to_bits));
        h.word(job.global_steps);
    }
    h.word(out.end_time.as_nanos());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use simcore::SimTime;
    use tl_dl::Simulation;

    fn small_run() -> SimOutput {
        let mut inputs = Workload::GridRr.inputs(DEFAULT_SEED);
        for s in &mut inputs.setups {
            s.spec.target_global_steps = 40;
        }
        Simulation::new(inputs.sim_cfg)
            .jobs(inputs.setups)
            .policy_ref(inputs.policy.as_mut())
            .run()
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(digest(&small_run()), digest(&small_run()));
    }

    #[test]
    fn digest_fires_on_altered_output() {
        let out = small_run();
        let base = digest(&out);
        let altered: [fn(&mut SimOutput); 5] = [
            |o| {
                o.jobs[3].completion = o.jobs[3]
                    .completion
                    .map(|t| SimTime::from_nanos(t.as_nanos() + 1))
            },
            |o| o.jobs[0].launch = SimTime::from_nanos(o.jobs[0].launch.as_nanos() + 1),
            |o| o.jobs[20].global_steps += 1,
            |o| o.end_time = SimTime::from_nanos(o.end_time.as_nanos() - 1),
            |o| o.jobs[7].completion = None,
        ];
        assert!(crate::check_output(&out, base).is_ok());
        for (i, alter) in altered.iter().enumerate() {
            let mut o = small_run();
            alter(&mut o);
            assert!(
                crate::check_output(&o, base).is_err(),
                "alteration {i} went unnoticed"
            );
        }
        // Counters outside the simulated results may move freely.
        let mut o = out;
        o.events += 1;
        o.alloc_stats.invocations += 1;
        assert!(crate::check_output(&o, base).is_ok());
    }

    #[test]
    fn every_workload_has_a_committed_digest() {
        for w in Workload::ALL {
            assert!(committed(w.name()).is_some(), "{} has no digest", w.name());
        }
    }
}
