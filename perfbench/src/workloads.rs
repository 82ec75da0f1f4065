//! The four named workloads and their input generators.
//!
//! Every workload is one closed-batch simulation whose inputs (job set,
//! placement, engine and policy configuration) are generated here from
//! the benchmark's `--seed`. The seed becomes the experiment seed, which
//! drives the simulator's compute and per-flow weight noise and the
//! TLs-RR priority ordering. Engine tuning is left at its defaults.

use simcore::SimDuration;
use tensorlights::PriorityPolicy;
use tl_cluster::{grouped_placement, table1_group_sizes, JobPlacement, Placement, Table1Index};
use tl_dl::{JobSetup, NetBackendKind, SimConfig, TopologySpec};
use tl_experiments::{ExperimentConfig, PolicyKind};
use tl_net::HostId;
use tl_workloads::GridSearchConfig;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's grid search: 21 hosts, 21 jobs x 20 workers, Table I #1.
    GridRr,
    /// 500 hosts x 200 jobs x 20 workers, three PS groups.
    GiantComponent,
    /// 10,000 hosts as a 250-rack 2:1 leaf-spine, 5,000 rack-local jobs.
    XlFabric,
    /// The `grid_rr` job set on the chunk-level packet backend.
    PacketGrid,
}

/// Synchronous iterations per job in `grid_rr` and `packet_grid`: the
/// scaled default the `repro` harness runs.
const GRID_ITERS: u64 = 300;
/// Iterations per job in `giant_component` (the scale sweep's cells).
const GIANT_ITERS: u64 = 5;
/// Iterations per job in `xl_fabric`: a third of the scale sweep's XL
/// cell, so that one run times several simulations.
const XL_ITERS: u64 = 1;
/// Racks in the `xl_fabric` leaf-spine.
const XL_RACKS: u32 = 250;
/// Hosts per rack in `xl_fabric`.
const XL_HOSTS_PER_RACK: u32 = 40;
/// Concurrent jobs in `xl_fabric`.
const XL_JOBS: u32 = 5_000;
/// Workers per `xl_fabric` job.
const XL_WORKERS_PER_JOB: u32 = 4;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::GridRr,
        Workload::GiantComponent,
        Workload::XlFabric,
        Workload::PacketGrid,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridRr => "grid_rr",
            Workload::GiantComponent => "giant_component",
            Workload::XlFabric => "xl_fabric",
            Workload::PacketGrid => "packet_grid",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the fluid (max-min) backend.
    pub fn is_fluid(self) -> bool {
        self != Workload::PacketGrid
    }

    /// Generate the workload's inputs from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::GridRr | Workload::PacketGrid => {
                let ecfg = ExperimentConfig {
                    seed,
                    ..ExperimentConfig::scaled(GRID_ITERS)
                };
                let placement = tl_cluster::table1_placement(Table1Index(1), 21, 21);
                let setups = GridSearchConfig::paper_scaled(GRID_ITERS).build(&placement);
                let mut inputs = Inputs::new(&ecfg, setups);
                if self == Workload::PacketGrid {
                    inputs.sim_cfg.backend = NetBackendKind::Packet;
                }
                inputs
            }
            Workload::GiantComponent => {
                let ecfg = ExperimentConfig {
                    seed,
                    iterations: GIANT_ITERS,
                    rr_interval: SimDuration::from_secs(5),
                    ..ExperimentConfig::default()
                };
                let placement =
                    grouped_placement(500, 20, &table1_group_sizes(Table1Index(4), 200));
                let mut wl = GridSearchConfig::paper_scaled(GIANT_ITERS);
                wl.num_jobs = 200;
                Inputs::new(&ecfg, wl.build(&placement))
            }
            Workload::XlFabric => {
                let ecfg = ExperimentConfig {
                    seed,
                    iterations: XL_ITERS,
                    rr_interval: SimDuration::from_secs(5),
                    topology: TopologySpec::LeafSpine {
                        racks: XL_RACKS,
                        hosts_per_rack: XL_HOSTS_PER_RACK,
                        oversub: 2.0,
                    },
                    ..ExperimentConfig::default()
                };
                let mut wl = GridSearchConfig::paper_scaled(XL_ITERS);
                wl.num_jobs = XL_JOBS;
                wl.workers_per_job = XL_WORKERS_PER_JOB;
                Inputs::new(&ecfg, wl.build(&xl_placement()))
            }
        }
    }
}

/// Rack-local placement of the `xl_fabric` jobs: 20 jobs per rack, each a
/// PS plus four workers on hosts of its own rack, so every rack is an
/// independent flow component. Same shape as the scale sweep's XL cell.
fn xl_placement() -> Placement {
    let jobs_per_rack = XL_JOBS / XL_RACKS;
    let jobs = (0..XL_JOBS)
        .map(|i| {
            let rack = i / jobs_per_rack;
            let slot = i % jobs_per_rack;
            let base = rack * XL_HOSTS_PER_RACK;
            let ps_off = (slot % (jobs_per_rack / 2)) * 4 % XL_HOSTS_PER_RACK;
            let workers = (0..XL_WORKERS_PER_JOB)
                .map(|w| HostId(base + (ps_off + 1 + slot + w) % XL_HOSTS_PER_RACK))
                .collect();
            JobPlacement::new(HostId(base + ps_off), workers)
        })
        .collect();
    Placement { jobs }
}

/// One simulation's generated inputs.
pub struct Inputs {
    /// Engine configuration.
    pub sim_cfg: SimConfig,
    /// Jobs and their placements.
    pub setups: Vec<JobSetup>,
    /// The TLs-RR policy every workload runs.
    pub policy: Box<dyn PriorityPolicy + Send>,
}

impl Inputs {
    fn new(ecfg: &ExperimentConfig, setups: Vec<JobSetup>) -> Self {
        Inputs {
            sim_cfg: ecfg.sim_config(),
            setups,
            policy: PolicyKind::TlsRr.build(ecfg),
        }
    }
}
