//! # tl-dl — distributed deep learning application model
//!
//! The PS/worker training system of the paper, simulated end to end:
//!
//! * [`model::ModelSpec`] — a model zoo (ResNet-32 as in the paper, plus
//!   larger models for heterogeneous-mix experiments);
//! * [`job::JobSpec`] — job configuration (workers, local batch size,
//!   target global steps, sync/async mode);
//! * [`compute::ComputeModel`] — calibrated per-step compute costs;
//! * [`metrics::BarrierTracker`] — the paper's barrier wait-time
//!   measurement (per-barrier mean and standard variance across workers);
//! * [`engine::Simulation`] — builder-style entry point to the
//!   discrete-event engine wiring job state machines to the network
//!   ([`tl_net`]) and CPU ([`tl_cluster`]) substrates under a
//!   [`tensorlights::PriorityPolicy`];
//! * [`backend::NetBackend`] — the pluggable network surface: the same
//!   simulation runs on the fluid max-min model or the chunk-level packet
//!   oracle (`SimConfig::backend`), which the differential-validation
//!   harness cross-checks.

#![warn(missing_docs)]

pub mod backend;
pub mod compute;
pub mod engine;
pub mod job;
pub mod metrics;
pub mod model;
pub mod pattern;

pub use backend::{NetBackend, NetBackendKind};
pub use compute::ComputeModel;
pub use engine::{ConfigError, JobResult, JobSetup, SimConfig, SimError, SimOutput, Simulation};
pub use tl_faults::{BarrierLossPolicy, FaultPlan, FaultSpec, RetryConfig};
pub use job::{JobId, JobSpec, TrainingMode};
pub use metrics::BarrierTracker;
pub use model::ModelSpec;
pub use pattern::{TopologySpec, TrafficPattern};
