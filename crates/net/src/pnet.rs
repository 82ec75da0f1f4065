//! Interactive chunk-level packet network engine.
//!
//! The multi-host network model at packet granularity (the single-link
//! [`crate::packet`] engine covers one egress only). `PacketNet` exposes
//! the *same driving surface as [`crate::fluid::FluidNet`]* — flows start
//! mid-run, bands rotate, capacities change, flows abort — so the full
//! training engine in `tl-dl` can run unmodified on either model and the
//! two can be differentially validated end to end (the `repro --experiment
//! validate` harness and `tests/fluid_vs_packet.rs`). The two engines share
//! no code beyond the type definitions, so agreement is meaningful
//! evidence.
//!
//! Every flow is a stream of fixed-size chunks passing through two serial
//! servers (sender egress, receiver ingress) with a store-and-forward
//! switch in between, a per-flow sliding window for TCP-like
//! self-clocking, strict-priority or fair round-robin egress scheduling
//! ([`EgressDiscipline`]), and FIFO ingress. At a congested ingress,
//! per-flow fairness *emerges* from the window: each flow keeps at most
//! `window` chunks circulating, so FIFO service converges to equal
//! per-flow rates once a flow is longer than its window. Flows that fit in
//! one window behave like unthrottled bursts and share the ingress in
//! proportion to their senders' arrival rates, as sub-window TCP bursts
//! do. On top of that, this engine has the interactive pieces the DL
//! workload needs:
//!
//! * **loopback flows** (colocated PS/worker) complete at the topology's
//!   loopback rate without touching the NIC servers or byte counters,
//!   matching the fluid engine's semantics;
//! * **rate caps** ([`PacketNet::start_flow_with_cap`]) are modelled as
//!   sender pacing: a capped flow schedules its next chunk no earlier than
//!   `chunk / cap` after the previous one, leaving the idle egress slots
//!   to other flows;
//! * **aborts** drop queued and in-flight chunks; bytes of a dead flow
//!   never count as delivered;
//! * **fabric hops**: on a leaf–spine topology ([`Topology::route`]), a
//!   cross-rack chunk passes through one FIFO serial server per routed
//!   fabric link (rack uplink, then destination-rack downlink) between the
//!   sender's egress and the receiver's ingress — store-and-forward at
//!   every tier, so in-fabric contention serializes chunks exactly where
//!   the fluid model water-fills link capacity.
//!
//! The engine is driven like the fluid one: after any mutation the caller
//! asks [`PacketNet::next_event_time`] and schedules a wake-up; on wake-up
//! it calls [`PacketNet::take_completions`]. Every chunk is served through
//! its own internal queue events (one per serial server it crosses), and
//! chunk events that tie at one instant fire in the queue's insertion
//! order, so a run is deterministic. The caller passes the next instant at
//! which anything else can happen (its *horizon*); `next_event_time` runs
//! the chunk events before it and returns only at a flow completion or at
//! the horizon, so the caller wakes per completion, not per chunk. The
//! chunk events still cost wall time — this backend is an oracle, not a
//! replacement.

use crate::topology::Topology;
use crate::types::{Band, Bandwidth, EgressDiscipline, FlowId, HostId, LinkId};
use crate::fluid::{CompletedFlow, FlowSpec};
use simcore::{EventHandle, EventQueue, InvariantChecker, Profiler, SimDuration, SimTime};
use std::collections::VecDeque;
use tl_telemetry::{SimEvent, Telemetry};

/// Default chunk size: 64 KiB, matching the single-link packet simulator.
pub const DEFAULT_CHUNK_BYTES: u64 = 64 * 1024;
/// Default per-flow window: 16 chunks in flight.
pub const DEFAULT_WINDOW: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Active,
    Finished,
    Aborted,
}

#[derive(Debug)]
struct PFlow {
    spec: FlowSpec,
    total: u64,
    /// Bytes not yet handed to the egress server.
    to_send: u64,
    /// Chunks sent but not yet fully received.
    in_flight: u32,
    /// Bytes fully received.
    received: u64,
    started: SimTime,
    max_rate: f64,
    /// Pacing gate for capped flows: no chunk before this instant.
    next_allowed: SimTime,
    status: Status,
}

/// A chunk occupying a NIC server, with enough context to re-rate it when
/// the host's capacity changes mid-service.
#[derive(Debug, Clone, Copy)]
struct Service {
    /// Flow index of the chunk in service.
    flow: u32,
    /// Chunk size, bytes.
    chunk: u64,
    /// Scheduled completion instant.
    finish: SimTime,
    /// Rate the schedule assumed, bytes/sec.
    rate: f64,
    /// Handle of the scheduled completion event (for rescheduling).
    handle: EventHandle,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PEv {
    /// The egress server of host `h` finished serializing a chunk.
    EgressDone(u32),
    /// The ingress server of host `h` finished receiving a chunk.
    IngressDone(u32),
    /// A loopback flow delivered its last byte.
    LoopbackDone(u32),
    /// A pacing gate on host `h` opened; re-examine its egress.
    Pace(u32),
    /// Fabric link `l`'s serial server finished forwarding a chunk.
    FabricDone(u32),
}

/// The interactive chunk-level network engine. API mirrors
/// [`FluidNet`](crate::fluid::FluidNet); see the module docs.
#[derive(Debug)]
pub struct PacketNet {
    topo: Topology,
    chunk_bytes: u64,
    window: u32,
    discipline: EgressDiscipline,
    flows: Vec<PFlow>,
    /// Alive flow indices in creation order (deterministic iteration).
    active: Vec<u32>,
    /// Per host: its alive non-loopback flows in creation order — the
    /// candidates its egress server picks from.
    senders: Vec<Vec<u32>>,
    queue: EventQueue<PEv>,
    /// Per-host egress server: the chunk in service, if any.
    egress_busy: Vec<Option<Service>>,
    egress_cursor: Vec<u32>,
    /// Per-host ingress FIFO of (flow index, chunk size).
    ingress_q: Vec<VecDeque<(u32, u64)>>,
    /// Per-host ingress server: the chunk in service (the FIFO's front).
    ingress_busy: Vec<Option<Service>>,
    /// Per-fabric-link FIFO of (flow index, chunk size).
    fab_q: Vec<VecDeque<(u32, u64)>>,
    /// Per-fabric-link serial server (the FIFO's front).
    fab_busy: Vec<Option<Service>>,
    /// Earliest scheduled pace wake-up per host (dedup, not correctness).
    pace_wake: Vec<Option<SimTime>>,
    /// Completions accumulated since the last `take_completions`.
    done: Vec<CompletedFlow>,
    last_advance: SimTime,
    /// Whether the last `next_event_time` call fired internal events.
    ran_ahead: bool,
    egress_bytes: Vec<f64>,
    ingress_bytes: Vec<f64>,
    /// Cumulative bytes forwarded per fabric link.
    fabric_bytes: Vec<f64>,
    telemetry: Telemetry,
    invariants: InvariantChecker,
    /// Self-profiling handle (wall-times packet service); disabled by
    /// default.
    profiler: Profiler,
}

impl PacketNet {
    /// Create an engine over `topo` with default chunking (64 KiB chunks,
    /// 16-chunk window, strict-priority egress — the discipline the
    /// TensorLights policies assume).
    pub fn new(topo: Topology) -> Self {
        Self::with_chunking(
            topo,
            DEFAULT_CHUNK_BYTES,
            DEFAULT_WINDOW,
            EgressDiscipline::Priority,
        )
    }

    /// Create an engine with explicit chunk size, window, and discipline.
    pub fn with_chunking(
        topo: Topology,
        chunk_bytes: u64,
        window: u32,
        discipline: EgressDiscipline,
    ) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        assert!(window > 0, "window must be positive");
        let n = topo.num_hosts();
        let nf = topo.num_fabric_links();
        PacketNet {
            topo,
            chunk_bytes,
            window,
            discipline,
            flows: Vec::new(),
            active: Vec::new(),
            senders: vec![Vec::new(); n],
            queue: EventQueue::new(),
            egress_busy: vec![None; n],
            egress_cursor: vec![0; n],
            ingress_q: vec![VecDeque::new(); n],
            ingress_busy: vec![None; n],
            fab_q: vec![VecDeque::new(); nf],
            fab_busy: vec![None; nf],
            pace_wake: vec![None; n],
            done: Vec::new(),
            last_advance: SimTime::ZERO,
            ran_ahead: false,
            egress_bytes: vec![0.0; n],
            ingress_bytes: vec![0.0; n],
            fabric_bytes: vec![0.0; nf],
            telemetry: Telemetry::disabled(),
            invariants: InvariantChecker::disabled(),
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a telemetry handle (flow lifecycle + rotation events).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attach an invariant checker (per-flow byte conservation, window
    /// bounds).
    pub fn set_invariants(&mut self, invariants: InvariantChecker) {
        self.invariants = invariants;
    }

    /// Attach a self-profiling handle; every `advance` (chunk service
    /// sweep) is then wall-timed under the `packet.service` slot.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The topology this engine runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    /// Rate-allocator counters, for API parity with the fluid engine.
    /// The packet model has no allocator, so these are always zero.
    pub fn alloc_stats(&self) -> crate::maxmin::AllocStats {
        crate::maxmin::AllocStats::default()
    }

    /// Cumulative egress bytes per host since engine creation.
    pub fn egress_bytes(&self) -> &[f64] {
        &self.egress_bytes
    }

    /// Cumulative ingress bytes per host since engine creation.
    pub fn ingress_bytes(&self) -> &[f64] {
        &self.ingress_bytes
    }

    /// Cumulative bytes forwarded per fabric link since engine creation,
    /// indexed by [`LinkId`]. Empty on single-switch topologies.
    pub fn fabric_bytes(&self) -> &[f64] {
        &self.fabric_bytes
    }

    /// Remaining (undelivered) bytes of a flow; `None` once finished or
    /// aborted.
    pub fn remaining_of(&self, id: FlowId) -> Option<f64> {
        self.flows.get(id.0 as usize).and_then(|f| {
            (f.status == Status::Active).then(|| (f.total - f.received) as f64)
        })
    }

    /// Start a flow at time `now`.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.start_flow_with_cap(now, spec, f64::INFINITY)
    }

    /// Start a flow whose average rate the sender limits to `max_rate`
    /// bytes/sec by pacing its chunks.
    pub fn start_flow_with_cap(&mut self, now: SimTime, spec: FlowSpec, max_rate: f64) -> FlowId {
        assert!(spec.bytes > 0.0 && spec.bytes.is_finite(), "invalid size");
        assert!(max_rate > 0.0, "rate cap must be positive");
        assert!(
            self.topo.contains(spec.src) && self.topo.contains(spec.dst),
            "flow endpoints outside topology"
        );
        self.advance(now);
        let idx = self.flows.len() as u32;
        let total = spec.bytes.ceil().max(1.0) as u64;
        self.flows.push(PFlow {
            spec,
            total,
            to_send: total,
            in_flight: 0,
            received: 0,
            started: now,
            max_rate,
            next_allowed: now,
            status: Status::Active,
        });
        self.active.push(idx);
        let id = FlowId(idx as u64);
        self.telemetry.emit_with(now, || SimEvent::FlowStart {
            flow: id.0,
            tag: spec.tag,
            src: spec.src.0,
            dst: spec.dst.0,
            bytes: spec.bytes,
            band: spec.band.0,
        });
        if spec.src == spec.dst {
            // Colocated endpoints: deliver at the loopback rate, bypassing
            // both NIC servers (mirrors the fluid engine).
            let secs = spec.bytes / self.topo.loopback().bytes_per_sec();
            self.queue
                .schedule(now + SimDuration::from_secs_f64(secs), PEv::LoopbackDone(idx));
        } else {
            self.senders[spec.src.0 as usize].push(idx);
            self.kick_egress(now, spec.src.0);
        }
        id
    }

    /// Change host `h`'s NIC capacity (both directions) at `now`. A chunk
    /// in service is re-rated: its remaining bytes drain at the new speed
    /// (the fluid engine does the same, and a real NIC's wire rate change
    /// applies to unsent bytes — without this, a chunk that starts during
    /// a brownout would hold its near-zero rate long after recovery).
    pub fn set_host_capacity(
        &mut self,
        now: SimTime,
        h: HostId,
        egress: Bandwidth,
        ingress: Bandwidth,
    ) {
        assert!(self.topo.contains(h), "host outside topology");
        self.advance(now);
        self.topo.set_host_capacity(h, egress, ingress);
        self.rerate_service(now, h.0, /* egress: */ true);
        self.rerate_service(now, h.0, /* egress: */ false);
    }

    /// Reschedule the chunk in service at `h`'s egress or ingress server
    /// to the host's current rate, preserving the bytes already on the
    /// wire under the old rate.
    fn rerate_service(&mut self, now: SimTime, h: u32, egress: bool) {
        let new_rate = if egress {
            self.topo.egress(HostId(h)).bytes_per_sec()
        } else {
            self.topo.ingress(HostId(h)).bytes_per_sec()
        };
        let slot = if egress {
            &mut self.egress_busy[h as usize]
        } else {
            &mut self.ingress_busy[h as usize]
        };
        let Some(svc) = slot.as_mut() else { return };
        if svc.rate == new_rate {
            return;
        }
        debug_assert!(svc.finish > now, "stale service survived advance()");
        let remaining_bytes = svc.finish.since(now).as_secs_f64() * svc.rate;
        let finish = now + SimDuration::from_secs_f64(remaining_bytes / new_rate);
        self.queue.cancel(svc.handle);
        svc.rate = new_rate;
        svc.finish = finish;
        svc.handle = self.queue.schedule(
            finish,
            if egress {
                PEv::EgressDone(h)
            } else {
                PEv::IngressDone(h)
            },
        );
    }

    /// Abort every active flow for which `pred` holds, returning ids and
    /// tags in creation order. Queued and in-flight chunks of aborted
    /// flows are dropped; no `FlowFinish` is emitted.
    pub fn abort_flows_where(
        &mut self,
        now: SimTime,
        mut pred: impl FnMut(FlowId, &FlowSpec) -> bool,
    ) -> Vec<(FlowId, u64)> {
        self.advance(now);
        let mut aborted = Vec::new();
        for &idx in &self.active {
            let f = &mut self.flows[idx as usize];
            if !pred(FlowId(idx as u64), &f.spec) {
                continue;
            }
            aborted.push((FlowId(idx as u64), f.spec.tag));
            f.status = Status::Aborted;
            f.to_send = 0;
        }
        if !aborted.is_empty() {
            let flows = &mut self.flows;
            self.active
                .retain(|&idx| flows[idx as usize].status != Status::Aborted);
            for list in &mut self.senders {
                list.retain(|&idx| flows[idx as usize].status != Status::Aborted);
            }
            // Drop queued (not-in-service) chunks of dead flows. The chunk
            // currently in service at each busy server completes on the
            // wire and is discarded on arrival.
            for h in 0..self.ingress_q.len() {
                let keep_front = self.ingress_busy[h].is_some();
                let mut kept = 0usize;
                self.ingress_q[h].retain(|&(i, _)| {
                    kept += 1;
                    (keep_front && kept == 1) || flows[i as usize].status != Status::Aborted
                });
            }
            for l in 0..self.fab_q.len() {
                let keep_front = self.fab_busy[l].is_some();
                let mut kept = 0usize;
                self.fab_q[l].retain(|&(i, _)| {
                    kept += 1;
                    (keep_front && kept == 1) || flows[i as usize].status != Status::Aborted
                });
            }
            // Freed egress slots and windows may unblock surviving flows.
            for h in 0..self.egress_busy.len() {
                self.kick_egress(now, h as u32);
            }
        }
        aborted
    }

    /// Reassign the band of every active flow with the given tag; returns
    /// the number of flows affected. Chunks already queued or in service
    /// keep their position; future chunks compete in the new band.
    pub fn set_band_for_tag(&mut self, now: SimTime, tag: u64, band: Band) -> usize {
        self.advance(now);
        let mut changed = 0;
        for &idx in &self.active {
            let f = &mut self.flows[idx as usize];
            if f.spec.tag == tag && f.spec.band != band {
                f.spec.band = band;
                changed += 1;
            }
        }
        if changed > 0 {
            self.telemetry.emit_with(now, || SimEvent::PriorityRotation {
                tag,
                band: band.0,
                flows: changed as u32,
            });
        }
        changed
    }

    /// Process all internal chunk events up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        let service_timer = self.profiler.start();
        self.process_through(now);
        self.profiler.stop("packet.service", service_timer);
    }

    /// Run ahead to the next instant the caller must see, and return it.
    ///
    /// Processes internal chunk events strictly before `horizon`, one whole
    /// instant at a time, and stops after the first instant at which a flow
    /// completes, returning that instant. Otherwise returns the next
    /// internal event time, which is then at or after `horizon`; an event
    /// tied with the horizon is left for the wake-up. `None` means no
    /// horizon: run to the next completion. While completions wait to be
    /// drained it does not run ahead and returns the instant it reached.
    ///
    /// The caller must not advance the engine, or change it, before the
    /// returned instant: it only runs ahead because nothing else can happen
    /// before the horizon.
    pub fn next_event_time(&mut self, horizon: Option<SimTime>) -> Option<SimTime> {
        self.ran_ahead = false;
        if !self.done.is_empty() {
            return Some(self.last_advance);
        }
        let service_timer = self.profiler.start();
        let next = loop {
            let Some(t) = self.queue.peek_time() else {
                break None;
            };
            if horizon.is_some_and(|h| t >= h) {
                break Some(t);
            }
            self.process_through(t);
            self.ran_ahead = true;
            if !self.done.is_empty() {
                break Some(t);
            }
        };
        self.profiler.stop("packet.service", service_timer);
        next
    }

    /// Whether the last [`next_event_time`](Self::next_event_time) call
    /// fired internal events. A caller that woke at every internal event
    /// would then have asked for this wake-up at the last of them, after
    /// everything it schedules at its current instant; a caller that orders
    /// tied wake-ups by scheduling sequence must schedule it last to keep
    /// that order.
    pub fn ran_ahead(&self) -> bool {
        self.ran_ahead
    }

    /// Advance to `now` and drain all flows that finished by then, in
    /// completion order.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        self.advance(now);
        std::mem::take(&mut self.done)
    }

    // ---- internal event handlers ---------------------------------------

    /// Fire every internal event at or before `now`, in time order and, at
    /// one instant, in insertion order.
    fn process_through(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "packet engine cannot move backwards: {now} < {}",
            self.last_advance
        );
        while let Some(t) = self.queue.peek_time() {
            if t > now {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event vanished");
            match ev {
                PEv::EgressDone(h) => self.on_egress_done(t, h),
                PEv::IngressDone(h) => self.on_ingress_done(t, h),
                PEv::LoopbackDone(i) => self.on_loopback_done(t, i),
                PEv::Pace(h) => {
                    if self.pace_wake[h as usize] == Some(t) {
                        self.pace_wake[h as usize] = None;
                    }
                    if self.egress_busy[h as usize].is_none() {
                        self.kick_egress(t, h);
                    }
                }
                PEv::FabricDone(l) => self.on_fabric_done(t, l),
            }
        }
        self.last_advance = now;
    }

    fn on_egress_done(&mut self, now: SimTime, h: u32) {
        let svc = self.egress_busy[h as usize].take().expect("egress was busy");
        let (i, chunk) = (svc.flow, svc.chunk);
        let f = &self.flows[i as usize];
        if f.status != Status::Aborted {
            self.egress_bytes[h as usize] += chunk as f64;
            let dst = f.spec.dst.0 as usize;
            // Cross-rack chunks enter the routed uplink's serial server;
            // everything else goes straight to the receiver's ingress.
            match self.topo.route(f.spec.src, f.spec.dst)[0] {
                Some(up) => {
                    self.fab_q[up.0 as usize].push_back((i, chunk));
                    self.kick_fab(now, up.0);
                }
                None => {
                    self.ingress_q[dst].push_back((i, chunk));
                    self.kick_ingress(now, dst as u32);
                }
            }
        }
        self.kick_egress(now, h);
    }

    fn on_fabric_done(&mut self, now: SimTime, l: u32) {
        let (i, chunk) = self.fab_q[l as usize]
            .pop_front()
            .expect("fabric link completed a chunk");
        self.fab_busy[l as usize] = None;
        let f = &self.flows[i as usize];
        if f.status != Status::Aborted {
            self.fabric_bytes[l as usize] += chunk as f64;
            let [up, down] = self.topo.route(f.spec.src, f.spec.dst);
            let dst = f.spec.dst.0 as usize;
            if up == Some(LinkId(l)) {
                // Leaving the source rack: hop to the destination rack's
                // downlink (store-and-forward at the spine).
                let down = down.expect("routed uplink implies a downlink").0;
                self.fab_q[down as usize].push_back((i, chunk));
                self.kick_fab(now, down);
            } else {
                self.ingress_q[dst].push_back((i, chunk));
                self.kick_ingress(now, dst as u32);
            }
        }
        self.kick_fab(now, l);
    }

    fn on_ingress_done(&mut self, now: SimTime, h: u32) {
        let (i, chunk) = self.ingress_q[h as usize]
            .pop_front()
            .expect("ingress completed a chunk");
        self.ingress_busy[h as usize] = None;
        let f = &mut self.flows[i as usize];
        if f.status != Status::Aborted {
            f.in_flight -= 1;
            f.received += chunk;
            self.ingress_bytes[h as usize] += chunk as f64;
            if f.received >= f.total && f.status == Status::Active {
                self.finish_flow(now, i);
            } else {
                // The window opened: the sender may proceed.
                let src = self.flows[i as usize].spec.src.0;
                if self.egress_busy[src as usize].is_none() {
                    self.kick_egress(now, src);
                }
            }
        }
        self.kick_ingress(now, h);
    }

    fn on_loopback_done(&mut self, now: SimTime, i: u32) {
        if self.flows[i as usize].status == Status::Active {
            self.flows[i as usize].received = self.flows[i as usize].total;
            self.finish_flow(now, i);
        }
    }

    fn finish_flow(&mut self, now: SimTime, i: u32) {
        let f = &mut self.flows[i as usize];
        f.status = Status::Finished;
        self.invariants.check(
            now,
            "pnet.conservation",
            || f.received == f.total,
            || {
                format!(
                    "flow {i} finished with {} of {} bytes delivered",
                    f.received, f.total
                )
            },
        );
        let done = CompletedFlow {
            id: FlowId(i as u64),
            tag: f.spec.tag,
            src: f.spec.src,
            dst: f.spec.dst,
            started: f.started,
            finished: now,
            bytes: f.spec.bytes,
        };
        self.active.retain(|&k| k != i);
        if done.src != done.dst {
            self.senders[done.src.0 as usize].retain(|&k| k != i);
        }
        self.done.push(done);
        self.telemetry.emit_with(now, || SimEvent::FlowFinish {
            flow: done.id.0,
            tag: done.tag,
            src: done.src.0,
            dst: done.dst.0,
            bytes: done.bytes,
            started: done.started,
        });
        // A finished flow frees its sender for lower-priority work.
        let src = done.src.0;
        if src != done.dst.0 && self.egress_busy[src as usize].is_none() {
            self.kick_egress(now, src);
        }
    }

    /// Put the next eligible chunk into host `h`'s egress server, if it is
    /// idle and a flow is ready. Schedules a pace wake-up when every ready
    /// flow is gated by its cap.
    fn kick_egress(&mut self, now: SimTime, h: u32) {
        if self.egress_busy[h as usize].is_some() {
            return;
        }
        // A flow is ready when it has bytes left AND window room AND its
        // pacing gate has opened — a window-stalled high-band flow releases
        // the link to lower bands (work conservation, htb-style). Eligible
        // flows are the ready ones in the best band (every ready flow under
        // FIFO); round-robin picks the first eligible index strictly after
        // the cursor, else wraps to the first. One pass tracks the best
        // band with its first eligible flow and its first one after the
        // cursor.
        let priority = self.discipline == EgressDiscipline::Priority;
        let cursor = self.egress_cursor[h as usize];
        let mut pick: Option<(Band, u32, Option<u32>)> = None;
        let mut next_gate: Option<SimTime> = None;
        for &idx in &self.senders[h as usize] {
            let f = &self.flows[idx as usize];
            if f.to_send == 0 || f.in_flight >= self.window {
                continue;
            }
            if f.next_allowed > now {
                next_gate = Some(next_gate.map_or(f.next_allowed, |t| t.min(f.next_allowed)));
                continue;
            }
            let band = if priority { f.spec.band } else { Band(0) };
            match &mut pick {
                Some((best, _, after)) if band == *best => {
                    if after.is_none() && idx > cursor {
                        *after = Some(idx);
                    }
                }
                Some((best, _, _)) if band > *best => {}
                _ => pick = Some((band, idx, (idx > cursor).then_some(idx))),
            }
        }
        let Some((_, first, after)) = pick else {
            if let Some(t) = next_gate {
                // Only paced flows are pending: wake when the earliest gate
                // opens (dedup so repeated kicks don't pile up events).
                if self.pace_wake[h as usize].is_none_or(|w| t < w) {
                    self.pace_wake[h as usize] = Some(t);
                    self.queue.schedule(t, PEv::Pace(h));
                }
            }
            return;
        };
        let i = after.unwrap_or(first);
        self.egress_cursor[h as usize] = i;
        let f = &mut self.flows[i as usize];
        let chunk = self.chunk_bytes.min(f.to_send);
        f.to_send -= chunk;
        f.in_flight += 1;
        if f.max_rate.is_finite() {
            f.next_allowed = now + SimDuration::from_secs_f64(chunk as f64 / f.max_rate);
        }
        self.invariants.check(
            now,
            "pnet.window",
            || self.flows[i as usize].in_flight <= self.window,
            || format!("flow {i} exceeded its window"),
        );
        let rate = self.topo.egress(HostId(h)).bytes_per_sec();
        let finish = now + SimDuration::from_secs_f64(chunk as f64 / rate);
        let handle = self.queue.schedule(finish, PEv::EgressDone(h));
        self.egress_busy[h as usize] = Some(Service {
            flow: i,
            chunk,
            finish,
            rate,
            handle,
        });
    }

    /// Put the next queued chunk into fabric link `l`'s serial server, if
    /// it is idle and its FIFO is nonempty.
    fn kick_fab(&mut self, now: SimTime, l: u32) {
        if self.fab_busy[l as usize].is_some() {
            return;
        }
        if let Some(&(i, chunk)) = self.fab_q[l as usize].front() {
            let rate = self.topo.fabric_capacity(LinkId(l)).bytes_per_sec();
            let finish = now + SimDuration::from_secs_f64(chunk as f64 / rate);
            let handle = self.queue.schedule(finish, PEv::FabricDone(l));
            self.fab_busy[l as usize] = Some(Service {
                flow: i,
                chunk,
                finish,
                rate,
                handle,
            });
        }
    }

    fn kick_ingress(&mut self, now: SimTime, h: u32) {
        if self.ingress_busy[h as usize].is_some() {
            return;
        }
        if let Some(&(i, chunk)) = self.ingress_q[h as usize].front() {
            let rate = self.topo.ingress(HostId(h)).bytes_per_sec();
            let finish = now + SimDuration::from_secs_f64(chunk as f64 / rate);
            let handle = self.queue.schedule(finish, PEv::IngressDone(h));
            self.ingress_busy[h as usize] = Some(Service {
                flow: i,
                chunk,
                finish,
                rate,
                handle,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Bandwidth;

    const LINK: f64 = 1.25e9;

    fn net(hosts: usize) -> PacketNet {
        PacketNet::new(Topology::uniform(hosts, Bandwidth::from_gbps(10.0)))
    }

    fn spec(src: u32, dst: u32, bytes: f64, band: u8, tag: u64) -> FlowSpec {
        FlowSpec {
            src: HostId(src),
            dst: HostId(dst),
            bytes,
            band: Band(band),
            weight: 1.0,
            tag,
        }
    }

    fn drain(net: &mut PacketNet) -> Vec<CompletedFlow> {
        let mut done = Vec::new();
        while let Some(t) = net.next_event_time(None) {
            done.extend(net.take_completions(t));
        }
        done
    }

    fn fifo_net(hosts: usize, window: u32) -> PacketNet {
        PacketNet::with_chunking(
            Topology::uniform(hosts, Bandwidth::from_gbps(10.0)),
            DEFAULT_CHUNK_BYTES,
            window,
            EgressDiscipline::FifoFair,
        )
    }

    /// Finish instants in seconds, in flow-start order.
    fn finish_secs(done: &[CompletedFlow]) -> Vec<f64> {
        let mut by_id: Vec<_> = done.iter().map(|d| (d.id, d.finished)).collect();
        by_id.sort();
        by_id.into_iter().map(|(_, t)| t.as_secs_f64()).collect()
    }

    #[test]
    fn single_flow_is_pipelined_through_two_links() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 125e6, 0, 1));
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        // Egress and ingress overlap chunk by chunk: serialization time
        // plus one chunk of store-and-forward latency.
        let want = 125e6 / LINK + DEFAULT_CHUNK_BYTES as f64 / LINK;
        let got = done[0].finished.as_secs_f64();
        assert!((got - want).abs() < 1e-3, "got {got}, want {want}");
    }

    #[test]
    fn priority_staircases_shared_egress() {
        let mut n = net(3);
        n.start_flow(SimTime::ZERO, spec(0, 1, 50e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(0, 2, 50e6, 1, 2));
        let done = drain(&mut n);
        let half = 50e6 / LINK;
        let by_tag = |t: u64| {
            done.iter()
                .find(|d| d.tag == t)
                .unwrap()
                .finished
                .as_secs_f64()
        };
        assert!((by_tag(1) - half).abs() < 0.01);
        assert!((by_tag(2) - 2.0 * half).abs() < 0.01);
    }

    #[test]
    fn mid_run_arrival_and_band_rotation() {
        let mut n = net(3);
        n.start_flow(SimTime::ZERO, spec(0, 1, 250e6, 0, 1));
        // Arrives mid-run at lower priority; then rotation promotes it.
        n.start_flow(SimTime::from_millis(50), spec(0, 2, 125e6, 1, 2));
        let t_rot = SimTime::from_millis(100);
        n.advance(t_rot);
        assert_eq!(n.set_band_for_tag(t_rot, 1, Band(1)), 1);
        assert_eq!(n.set_band_for_tag(t_rot, 2, Band(0)), 1);
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        // Tag 2 (promoted) finishes before tag 1, which started 2x larger.
        let f1 = done.iter().find(|d| d.tag == 1).unwrap().finished;
        let f2 = done.iter().find(|d| d.tag == 2).unwrap().finished;
        assert!(f2 < f1, "promoted flow must finish first: {f2} vs {f1}");
    }

    #[test]
    fn loopback_bypasses_nic_and_counters() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 0, 1e9, 0, 1));
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert!(done[0].finished.as_secs_f64() < 0.1, "loopback is fast");
        assert_eq!(n.egress_bytes()[0], 0.0);
        assert_eq!(n.ingress_bytes()[0], 0.0);
    }

    #[test]
    fn abort_drops_in_flight_chunks() {
        let mut n = net(3);
        let a = n.start_flow(SimTime::ZERO, spec(0, 1, 125e6, 0, 1));
        let b = n.start_flow(SimTime::ZERO, spec(2, 1, 125e6, 0, 2));
        let t = SimTime::from_millis(10);
        let aborted = n.abort_flows_where(t, |_, s| s.src == HostId(0));
        assert_eq!(aborted, vec![(a, 1)]);
        assert_eq!(n.active_flow_count(), 1);
        assert!(n.remaining_of(a).is_none());
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
        // Survivor monopolizes the shared ingress after the abort: it must
        // finish well before the fair-share schedule (0.2 s).
        assert!(done[0].finished.as_secs_f64() < 0.15);
        assert!(n.remaining_of(b).is_none(), "finished flows do not resolve");
    }

    #[test]
    fn rate_cap_paces_sender() {
        let mut n = net(2);
        // 125 MB at a quarter-link cap: ~0.4 s instead of ~0.1 s.
        n.start_flow_with_cap(SimTime::ZERO, spec(0, 1, 125e6, 0, 1), LINK / 4.0);
        let done = drain(&mut n);
        let got = done[0].finished.as_secs_f64();
        let want = 125e6 / (LINK / 4.0);
        assert!((got - want).abs() < 0.01, "got {got}, want {want}");
    }

    #[test]
    fn capped_flow_leaves_slots_to_others() {
        let mut n = net(3);
        n.start_flow_with_cap(SimTime::ZERO, spec(0, 1, 62.5e6, 0, 1), LINK / 2.0);
        n.start_flow(SimTime::ZERO, spec(0, 2, 62.5e6, 1, 2));
        let done = drain(&mut n);
        // Uncapped lower-band flow fills the pacing gaps: both finish near
        // 0.1 s instead of serializing to 0.15 s.
        for d in &done {
            assert!(
                d.finished.as_secs_f64() < 0.115,
                "tag {} too slow: {}",
                d.tag,
                d.finished
            );
        }
    }

    /// Regression: the differential harness caught a 52 s JCT divergence
    /// (scenario: LinkFlap fault, 24 ms brownout to 1e-6 × capacity). A
    /// chunk that entered service during the brownout kept its near-zero
    /// service rate after recovery — 64 KiB at 1.25 kB/s ≈ 52 s — because
    /// capacity changes never re-rated chunks already in service.
    #[test]
    fn capacity_recovery_rerates_chunk_in_service() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, 10e6, 0, 1));
        // Brownout 1 ms in: both directions collapse to 1e-6 x nominal.
        let down = Bandwidth::from_bytes_per_sec(LINK * 1e-6);
        n.set_host_capacity(SimTime::from_millis(1), HostId(0), down, down);
        n.set_host_capacity(SimTime::from_millis(1), HostId(1), down, down);
        // Recovery 24 ms later (the seeded LinkFlap's down window).
        let up = Bandwidth::from_bytes_per_sec(LINK);
        n.set_host_capacity(SimTime::from_millis(25), HostId(0), up, up);
        n.set_host_capacity(SimTime::from_millis(25), HostId(1), up, up);
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        let got = done[0].finished.as_secs_f64();
        // ~1 ms at full rate + 24 ms stalled + remaining ~7 ms at full
        // rate; anything near a chunk/1e-6-rate timescale (>> 1 s) means
        // the brownout rate leaked past recovery.
        assert!(got < 0.1, "chunk kept its brownout rate: finished at {got}s");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n = net(4);
            for k in 0..8u32 {
                n.start_flow(
                    SimTime::from_millis(u64::from(k) * 3),
                    spec(k % 3, 3, 5e6 + f64::from(k) * 1e6, (k % 3) as u8, u64::from(k)),
                );
            }
            drain(&mut n)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conservation_invariant_is_clean() {
        let inv = InvariantChecker::enabled();
        let mut n = net(3);
        n.set_invariants(inv.clone());
        n.start_flow(SimTime::ZERO, spec(0, 1, 10e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(2, 1, 10e6, 0, 2));
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        assert_eq!(inv.violation_count(), 0);
    }

    #[test]
    fn abort_drops_the_dying_flow_only() {
        let mut n = net(4);
        n.start_flow(SimTime::ZERO, spec(0, 1, 50e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(2, 3, 50e6, 0, 2));
        let aborted = n.abort_flows_where(SimTime::from_millis(7), |_, s| s.tag == 1);
        assert_eq!(aborted.len(), 1);
        assert!(n.remaining_of(FlowId(0)).is_none());
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
    }

    #[test]
    fn window_of_one_halves_throughput() {
        let mut n = fifo_net(2, 1);
        n.start_flow(SimTime::ZERO, spec(0, 1, 125e6, 0, 1));
        // Stop-and-wait: each chunk is serialized twice sequentially.
        let want = 2.0 * 125e6 / LINK;
        let got = finish_secs(&drain(&mut n))[0];
        assert!((got - want).abs() < 1e-2, "got {got}, want {want}");
    }

    #[test]
    fn fanout_shares_egress_fairly() {
        let mut n = fifo_net(3, DEFAULT_WINDOW);
        n.start_flow(SimTime::ZERO, spec(0, 1, 50e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(0, 2, 50e6, 0, 2));
        let total = 100e6 / LINK;
        for t in finish_secs(&drain(&mut n)) {
            assert!(
                (t - total).abs() < 0.01,
                "both finish near the end under fair sharing: {t}"
            );
        }
    }

    #[test]
    fn fanin_shares_ingress() {
        // Two senders into one receiver: the ingress serializes them; both
        // finish near total/ingress-rate.
        let mut n = fifo_net(3, DEFAULT_WINDOW);
        n.start_flow(SimTime::ZERO, spec(0, 2, 50e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(1, 2, 50e6, 0, 2));
        let total = 100e6 / LINK;
        for t in finish_secs(&drain(&mut n)) {
            assert!((t - total).abs() < 0.02, "ingress-bound: {t}");
        }
    }

    #[test]
    fn window_decouples_sender_from_congested_receiver() {
        // Flow A: 0 -> 2 (receiver shared with B, so A runs at half rate).
        // Flow C: 0 -> 3, band 1 (lower priority than A at their shared
        // egress). Because A's window stalls it at the congested receiver,
        // C picks up the idle egress — work conservation at chunk level.
        let mut n = PacketNet::with_chunking(
            Topology::uniform(4, Bandwidth::from_gbps(10.0)),
            DEFAULT_CHUNK_BYTES,
            2,
            EgressDiscipline::Priority,
        );
        n.start_flow(SimTime::ZERO, spec(0, 2, 50e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(1, 2, 50e6, 0, 2));
        n.start_flow(SimTime::ZERO, spec(0, 3, 50e6, 1, 3));
        // C must finish well before a fully serialized schedule (A then C =
        // 0.08 s + 0.04 s): it borrows A's stalled egress slots.
        let c_done = finish_secs(&drain(&mut n))[2];
        assert!(c_done < 0.085, "work conservation through windows: {c_done}");
    }

    /// Regression: with uniform links and 64 KiB chunks, egress and
    /// ingress completions often tie at one instant, and the order they
    /// fire in decides which flow's chunk an ingress FIFO serves next. A
    /// service path that rescheduled in-flight chunk events out of their
    /// original insertion order finished the first flow here one chunk
    /// time late (4,011,105 ns).
    #[test]
    fn tied_chunk_events_fire_in_insertion_order() {
        let mut n = fifo_net(4, DEFAULT_WINDOW);
        n.start_flow(SimTime::ZERO, spec(1, 3, 3_244_390.0, 0, 1));
        n.start_flow(SimTime::ZERO, spec(2, 1, 3_642_497.0, 0, 2));
        n.start_flow(SimTime::ZERO, spec(2, 3, 1_791_494.0, 0, 3));
        let mut done = drain(&mut n);
        done.sort_by_key(|d| d.id);
        let ns: Vec<u64> = done.iter().map(|d| d.finished.as_nanos()).collect();
        assert_eq!(ns, [3_958_676, 4_399_639, 4_081_152]);
    }

    const NS: SimDuration = SimDuration::from_nanos(1);

    /// Ten chunks.
    const TEN: f64 = 10.0 * DEFAULT_CHUNK_BYTES as f64;

    #[test]
    fn run_ahead_stops_before_the_horizon() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, TEN, 0, 1));
        // A horizon before the first chunk event: nothing fires, and the
        // answer is that event.
        let first = n.next_event_time(Some(SimTime::ZERO + NS)).unwrap();
        assert!(!n.ran_ahead());
        assert_eq!(n.egress_bytes()[0], 0.0);
        // A horizon just past it fires that instant only, and answers the
        // next chunk event, at or after the horizon.
        let second = n.next_event_time(Some(first + NS)).unwrap();
        assert!(n.ran_ahead());
        assert!(second > first);
        assert_eq!(n.egress_bytes()[0], DEFAULT_CHUNK_BYTES as f64);
        assert_eq!(n.ingress_bytes()[1], 0.0);
        assert_eq!(n.remaining_of(FlowId(0)), Some(TEN));
    }

    #[test]
    fn run_ahead_leaves_an_event_tied_with_the_horizon_for_the_wake() {
        let mut n = net(2);
        n.start_flow(SimTime::ZERO, spec(0, 1, TEN, 0, 1));
        let first = n.next_event_time(Some(SimTime::ZERO + NS)).unwrap();
        assert_eq!(n.next_event_time(Some(first)), Some(first));
        assert!(!n.ran_ahead());
        assert_eq!(n.egress_bytes()[0], 0.0, "the tied event has not fired");
        // The wake fires it.
        assert!(n.take_completions(first).is_empty());
        assert_eq!(n.egress_bytes()[0], DEFAULT_CHUNK_BYTES as f64);
    }

    #[test]
    fn run_ahead_returns_at_the_first_completing_instant() {
        let mut n = net(4);
        n.start_flow(SimTime::ZERO, spec(0, 1, 2e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(2, 3, 1e6, 0, 2));
        // Far horizon: stop after the short flow's last chunk, not later.
        let t = n.next_event_time(Some(SimTime::from_secs(1))).unwrap();
        assert!(n.ran_ahead());
        let remaining = n.remaining_of(FlowId(0)).unwrap();
        assert!(remaining > 0.0 && remaining < 2e6);
        // Undrained completions pin the answer: no further run-ahead.
        assert_eq!(n.next_event_time(None), Some(t));
        assert!(!n.ran_ahead());
        assert_eq!(n.remaining_of(FlowId(0)), Some(remaining));
        let done = n.take_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].tag, done[0].finished), (2, t));
        assert_eq!(finish_secs(&drain(&mut n)).len(), 1);
    }

    /// Running ahead to completions (`None` horizon) and waking at every
    /// chunk event (a horizon 1 ns past each wake) finish every flow at the
    /// same nanosecond as `tied_chunk_events_fire_in_insertion_order`.
    #[test]
    fn run_ahead_matches_waking_at_every_chunk_event() {
        let start = |n: &mut PacketNet| {
            n.start_flow(SimTime::ZERO, spec(1, 3, 3_244_390.0, 0, 1));
            n.start_flow(SimTime::ZERO, spec(2, 1, 3_642_497.0, 0, 2));
            n.start_flow(SimTime::ZERO, spec(2, 3, 1_791_494.0, 0, 3));
        };
        let ns = |mut done: Vec<CompletedFlow>| -> Vec<u64> {
            done.sort_by_key(|d| d.id);
            done.iter().map(|d| d.finished.as_nanos()).collect()
        };
        let mut ahead = fifo_net(4, DEFAULT_WINDOW);
        start(&mut ahead);
        let mut stepped = fifo_net(4, DEFAULT_WINDOW);
        start(&mut stepped);
        let mut done = Vec::new();
        let mut wakes = 0;
        let mut horizon = SimTime::ZERO;
        while let Some(t) = stepped.next_event_time(Some(horizon)) {
            done.extend(stepped.take_completions(t));
            horizon = t + NS;
            wakes += 1;
        }
        let want = [3_958_676, 4_399_639, 4_081_152];
        assert_eq!(ns(drain(&mut ahead)), want);
        assert_eq!(ns(done), want);
        assert!(wakes > 100, "stepped once per chunk event: {wakes} wakes");
    }

    #[test]
    fn telemetry_captures_lifecycle() {
        use tl_telemetry::TelemetryConfig;
        let telemetry = Telemetry::from_config(TelemetryConfig::events());
        let mut n = net(2);
        n.set_telemetry(telemetry.clone());
        n.start_flow(SimTime::ZERO, spec(0, 1, 1e6, 0, 7));
        drain(&mut n);
        let out = telemetry.take_output();
        assert_eq!(out.events_of_kind("flow_start").len(), 1);
        assert_eq!(out.events_of_kind("flow_finish").len(), 1);
    }

    // ---- fabric (leaf-spine) tests --------------------------------------

    /// 2 racks x 2 hosts, 10 Gbps NICs, given oversubscription.
    fn leaf_spine(oversub: f64) -> PacketNet {
        PacketNet::new(
            crate::topology::TopologyBuilder::leaf_spine(2, 2, oversub)
                .link(Bandwidth::from_gbps(10.0))
                .build(),
        )
    }

    #[test]
    fn oversubscribed_uplink_serializes_cross_rack_flows() {
        // Hosts 0,1 in rack 0; 2,3 in rack 1. At 2:1 the shared 10 Gbps
        // uplink halves two concurrent 10 Gbps cross-rack senders.
        let mut n = leaf_spine(2.0);
        n.start_flow(SimTime::ZERO, spec(0, 2, 125e6, 0, 1));
        n.start_flow(SimTime::ZERO, spec(1, 3, 125e6, 0, 2));
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        for d in &done {
            let got = d.finished.as_secs_f64();
            // Each flow effectively gets half the uplink: ~0.2 s, not the
            // NIC-limited ~0.1 s. Store-and-forward adds a few chunk times.
            assert!(
                (0.19..0.22).contains(&got),
                "tag {} finished at {got}s, want ~0.2s",
                d.tag
            );
        }
        // Bytes crossed rack 0's uplink and rack 1's downlink; the reverse
        // pair idled.
        assert!(n.fabric_bytes()[0] > 2.4e8, "rack0 uplink");
        assert!(n.fabric_bytes()[3] > 2.4e8, "rack1 downlink");
        assert_eq!(n.fabric_bytes()[1], 0.0, "rack0 downlink idle");
        assert_eq!(n.fabric_bytes()[2], 0.0, "rack1 uplink idle");
    }

    #[test]
    fn rack_local_flow_skips_the_fabric() {
        let mut n = leaf_spine(4.0);
        n.start_flow(SimTime::ZERO, spec(0, 1, 125e6, 0, 1));
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        // NIC-limited, untouched by the 2.5 Gbps fabric.
        assert!(done[0].finished.as_secs_f64() < 0.11);
        assert!(n.fabric_bytes().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn abort_purges_fabric_queues() {
        // 4:1 oversubscription backs chunks up in the uplink FIFO; abort
        // the flow mid-run and the survivor must still finish cleanly.
        let mut n = leaf_spine(4.0);
        let a = n.start_flow(SimTime::ZERO, spec(0, 2, 125e6, 0, 1));
        n.start_flow(SimTime::from_millis(5), spec(1, 3, 50e6, 0, 2));
        let aborted = n.abort_flows_where(SimTime::from_millis(20), |_, s| s.tag == 1);
        assert_eq!(aborted, vec![(a, 1)]);
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 2);
    }

    #[test]
    fn one_to_one_leaf_spine_matches_single_switch_bitwise() {
        let run = |n: &mut PacketNet| {
            for k in 0..6u32 {
                n.start_flow(
                    SimTime::from_millis(u64::from(k) * 2),
                    spec(k % 4, (k + 1) % 4, 4e6 + f64::from(k) * 1e6, (k % 2) as u8, u64::from(k)),
                );
            }
            let done = drain(n);
            (
                done.iter().map(|d| (d.tag, d.finished)).collect::<Vec<_>>(),
                n.egress_bytes().iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
            )
        };
        let mut flat = net(4);
        let mut tiered = leaf_spine(1.0);
        assert_eq!(tiered.topology().num_fabric_links(), 0);
        assert_eq!(run(&mut flat), run(&mut tiered));
    }
}
