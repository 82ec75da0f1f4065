//! Pluggable network backends for the training engine.
//!
//! The engine drives the network substrate through the [`NetBackend`]
//! trait, so the *same* simulation — barriers, compute, priority
//! rotations, faults — can run on either of two independently built
//! models:
//!
//! * [`FluidNet`] — the rate-based weighted max-min model the paper's
//!   experiments use (fast; one event per flow completion);
//! * [`PacketNet`] — a chunk-level store-and-forward model with TCP-like
//!   windows (slow; internal events per chunk hop, though the engine only
//!   wakes it at flow completions), used as an *oracle* to differentially
//!   validate the fluid model end to end (see `repro --experiment
//!   validate`).
//!
//! The engine is generic over the backend (monomorphized), so the fluid
//! fast path pays nothing for the indirection.
//!
//! Semantics the packet oracle does **not** reproduce — scenarios meant
//! for cross-checking must avoid them (the validate harness does):
//!
//! * per-flow *weights* (its round-robin is unweighted — set
//!   `net_weight_sigma = 0`);
//! * the legacy aggregate `core_capacity` cap (ignored: chunks only queue
//!   at NICs and routed fabric links). Per-link leaf–spine fabric *is*
//!   modelled on both backends (serial servers in the packet engine,
//!   water-filled link capacities in the fluid one).

use simcore::{InvariantChecker, Profiler, SimTime};
use tl_net::{
    AllocStats, Band, Bandwidth, CompletedFlow, FlowId, FlowSpec, FluidNet, HostId, PacketNet,
    Topology,
};
use tl_telemetry::Telemetry;

/// Which network model a [`crate::Simulation`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetBackendKind {
    /// The fluid max-min model (the default; what the paper's numbers use).
    #[default]
    Fluid,
    /// The chunk-level packet model (the differential-validation oracle).
    Packet,
}

/// The network surface the training engine drives. Both engines implement
/// it with identical semantics for flow lifecycle, band rotation, capacity
/// changes, and aborts; they differ only in how bandwidth is shared.
pub trait NetBackend {
    /// Integrate network state up to `now`.
    fn advance(&mut self, now: SimTime);
    /// The topology the engine runs over.
    fn topology(&self) -> &Topology;
    /// Rate-allocator perf counters (all-zero for the packet model, which
    /// has no allocator).
    fn alloc_stats(&self) -> AllocStats;
    /// Advance to `now` and drain flows that completed by then.
    fn take_completions(&mut self, now: SimTime) -> Vec<CompletedFlow>;
    /// Start a flow.
    fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId;
    /// Start a flow rate-limited at the sender to `max_rate` bytes/sec.
    fn start_flow_with_cap(&mut self, now: SimTime, spec: FlowSpec, max_rate: f64) -> FlowId;
    /// Re-band every active flow with `tag`; returns how many changed.
    fn set_band_for_tag(&mut self, now: SimTime, tag: u64, band: Band) -> usize;
    /// Change a host's NIC capacity in both directions.
    fn set_host_capacity(
        &mut self,
        now: SimTime,
        host: HostId,
        egress: Bandwidth,
        ingress: Bandwidth,
    );
    /// When the network next needs the driver's attention, if ever.
    ///
    /// `horizon` is the earliest instant at which anything outside the
    /// network can happen (`None`: unbounded). The backend may process its
    /// own internal events strictly before it; the answer is then a flow
    /// completion before the horizon, or a time at or after it. The caller
    /// must wake at the answer before touching the network again.
    fn next_event_time(&mut self, horizon: Option<SimTime>) -> Option<SimTime>;
    /// Whether the last `next_event_time` call processed internal events
    /// (see [`PacketNet::ran_ahead`]); the caller then schedules the wake-up
    /// after everything else it schedules at the current instant.
    fn ran_ahead(&self) -> bool;
    /// Abort all flows matching `pred`; returns `(id, tag)` per abort.
    fn abort_flows_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(FlowId, &FlowSpec) -> bool,
    ) -> Vec<(FlowId, u64)>;
    /// Cumulative egress bytes per host.
    fn egress_bytes(&self) -> &[f64];
    /// Cumulative ingress bytes per host.
    fn ingress_bytes(&self) -> &[f64];
    /// Cumulative bytes per fabric link (empty on single-switch
    /// topologies), indexed by `LinkId`.
    fn fabric_bytes(&self) -> &[f64];
    /// Attach a telemetry handle.
    fn set_telemetry(&mut self, telemetry: Telemetry);
    /// Attach an invariant checker.
    fn set_invariants(&mut self, invariants: InvariantChecker);
    /// Attach a self-profiling handle (per-subsystem wall-time
    /// histograms; free when disabled).
    fn set_profiler(&mut self, profiler: Profiler);
}

impl NetBackend for FluidNet {
    fn advance(&mut self, now: SimTime) {
        FluidNet::advance(self, now);
    }
    fn topology(&self) -> &Topology {
        FluidNet::topology(self)
    }
    fn alloc_stats(&self) -> AllocStats {
        FluidNet::alloc_stats(self)
    }
    fn take_completions(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        FluidNet::take_completions(self, now)
    }
    fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        FluidNet::start_flow(self, now, spec)
    }
    fn start_flow_with_cap(&mut self, now: SimTime, spec: FlowSpec, max_rate: f64) -> FlowId {
        FluidNet::start_flow_with_cap(self, now, spec, max_rate)
    }
    fn set_band_for_tag(&mut self, now: SimTime, tag: u64, band: Band) -> usize {
        FluidNet::set_band_for_tag(self, now, tag, band)
    }
    fn set_host_capacity(
        &mut self,
        now: SimTime,
        host: HostId,
        egress: Bandwidth,
        ingress: Bandwidth,
    ) {
        FluidNet::set_host_capacity(self, now, host, egress, ingress);
    }
    /// The horizon is ignored: the fluid engine's next event is already a
    /// flow completion.
    fn next_event_time(&mut self, _horizon: Option<SimTime>) -> Option<SimTime> {
        FluidNet::next_event_time(self)
    }
    fn ran_ahead(&self) -> bool {
        false
    }
    fn abort_flows_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(FlowId, &FlowSpec) -> bool,
    ) -> Vec<(FlowId, u64)> {
        FluidNet::abort_flows_where(self, now, pred)
    }
    fn egress_bytes(&self) -> &[f64] {
        FluidNet::egress_bytes(self)
    }
    fn ingress_bytes(&self) -> &[f64] {
        FluidNet::ingress_bytes(self)
    }
    fn fabric_bytes(&self) -> &[f64] {
        FluidNet::fabric_bytes(self)
    }
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        FluidNet::set_telemetry(self, telemetry);
    }
    fn set_invariants(&mut self, invariants: InvariantChecker) {
        FluidNet::set_invariants(self, invariants);
    }
    fn set_profiler(&mut self, profiler: Profiler) {
        FluidNet::set_profiler(self, profiler);
    }
}

impl NetBackend for PacketNet {
    fn advance(&mut self, now: SimTime) {
        PacketNet::advance(self, now);
    }
    fn topology(&self) -> &Topology {
        PacketNet::topology(self)
    }
    fn alloc_stats(&self) -> AllocStats {
        PacketNet::alloc_stats(self)
    }
    fn take_completions(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        PacketNet::take_completions(self, now)
    }
    fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        PacketNet::start_flow(self, now, spec)
    }
    fn start_flow_with_cap(&mut self, now: SimTime, spec: FlowSpec, max_rate: f64) -> FlowId {
        PacketNet::start_flow_with_cap(self, now, spec, max_rate)
    }
    fn set_band_for_tag(&mut self, now: SimTime, tag: u64, band: Band) -> usize {
        PacketNet::set_band_for_tag(self, now, tag, band)
    }
    fn set_host_capacity(
        &mut self,
        now: SimTime,
        host: HostId,
        egress: Bandwidth,
        ingress: Bandwidth,
    ) {
        PacketNet::set_host_capacity(self, now, host, egress, ingress);
    }
    fn next_event_time(&mut self, horizon: Option<SimTime>) -> Option<SimTime> {
        PacketNet::next_event_time(self, horizon)
    }
    fn ran_ahead(&self) -> bool {
        PacketNet::ran_ahead(self)
    }
    fn abort_flows_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(FlowId, &FlowSpec) -> bool,
    ) -> Vec<(FlowId, u64)> {
        PacketNet::abort_flows_where(self, now, pred)
    }
    fn egress_bytes(&self) -> &[f64] {
        PacketNet::egress_bytes(self)
    }
    fn ingress_bytes(&self) -> &[f64] {
        PacketNet::ingress_bytes(self)
    }
    fn fabric_bytes(&self) -> &[f64] {
        PacketNet::fabric_bytes(self)
    }
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        PacketNet::set_telemetry(self, telemetry);
    }
    fn set_invariants(&mut self, invariants: InvariantChecker) {
        PacketNet::set_invariants(self, invariants);
    }
    fn set_profiler(&mut self, profiler: Profiler) {
        PacketNet::set_profiler(self, profiler);
    }
}
