//! # tl-net — network substrate for the TensorLights reproduction
//!
//! Models the paper's testbed network (single non-blocking switch, uniform
//! 10 Gbps NICs) at two levels of abstraction:
//!
//! * [`fluid::FluidNet`] — a fluid (rate-based) model driven by a
//!   [`maxmin::MaxMinAllocator`] implementing weighted max-min fairness with
//!   strict egress priority bands. This is the engine the full experiments
//!   run on; it captures exactly the bandwidth-sharing effects the paper
//!   studies (burst overlap at colocated PSes, priority serialization,
//!   work conservation).
//! * [`packet::PacketSim`] — a chunk-level single-link simulator with
//!   pfifo_fast / prio / DRR disciplines, used for Figure-4-style timelines
//!   and to cross-validate the fluid model on small scenarios.
//! * [`pnet::PacketNet`] — the multi-host chunk-level engine, with the
//!   same driving surface as `FluidNet` (mid-run arrivals, band rotations,
//!   capacity changes, aborts), so the full training engine can run on
//!   either model; the differential-validation harness and the
//!   fluid-vs-packet tests cross-check them.
//!
//! [`tc::TcConfig`] renders the actual Linux `tc` command lines (htb
//! classes plus u32 sport filters) for real deployment, including the
//! minimal filter diffs a TLs-RR rotation applies.

#![warn(missing_docs)]

pub mod fluid;
pub mod maxmin;
pub mod packet;
pub mod pnet;
pub mod tc;
pub mod topology;
pub mod types;

pub use fluid::{CompletedFlow, FlowSpec, FluidNet};
pub use maxmin::{AllocStats, FlowDemand, MaxMinAllocator};
pub use packet::{PacketRun, PacketSim, Qdisc, Rotation, TimelineEntry, Transfer, TransferOutcome};
pub use pnet::PacketNet;
pub use tc::{PortBands, TcConfig};
pub use topology::{Topology, TopologyBuilder};
pub use types::{Band, Bandwidth, EgressDiscipline, FlowId, HostId, LinkId};
