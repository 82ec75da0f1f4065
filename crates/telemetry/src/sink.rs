//! Event emission: the [`Telemetry`] handle and the [`EventSink`] trait.
//!
//! A simulation owns one [`Telemetry`] handle and clones it into every
//! engine that emits events (the clones share storage via `Rc`). When
//! telemetry is disabled the handle holds no storage at all and
//! [`Telemetry::emit`] reduces to a branch on a bool, so instrumented hot
//! loops pay nothing — the property the `telemetry` bench guards.
//!
//! [`Telemetry`] is deliberately `!Send`: it lives inside one
//! single-threaded simulation. Results cross threads as the plain-data
//! [`TelemetryOutput`] extracted by [`Telemetry::take_output`].

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{Profiler, SimDuration, SimTime};

use crate::event::{SimEvent, TimedEvent};
use crate::export;
use crate::metrics::MetricsRegistry;

/// What a simulation should collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record typed [`SimEvent`]s.
    pub events: bool,
    /// Sample the metrics registry every interval; `None` disables
    /// metrics collection entirely.
    pub metrics_interval: Option<SimDuration>,
}

impl TelemetryConfig {
    /// Collect nothing (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Collect events only.
    pub fn events() -> Self {
        TelemetryConfig {
            events: true,
            metrics_interval: None,
        }
    }

    /// Collect metrics only, sampled every `interval`.
    pub fn metrics(interval: SimDuration) -> Self {
        TelemetryConfig {
            events: false,
            metrics_interval: Some(interval),
        }
    }

    /// Collect events and metrics.
    pub fn full(interval: SimDuration) -> Self {
        TelemetryConfig {
            events: true,
            metrics_interval: Some(interval),
        }
    }

    /// Whether anything at all is collected.
    pub fn any(&self) -> bool {
        self.events || self.metrics_interval.is_some()
    }
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<TimedEvent>,
    metrics: MetricsRegistry,
}

/// Cheaply clonable emission handle shared by the engines of one
/// simulation. Disabled handles carry no storage.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
    events_on: bool,
    /// Self-profiling handle; event pushes are timed under the
    /// `telemetry.sink` slot. Set it *before* cloning the handle into
    /// engines — the field is per-clone.
    profiler: Profiler,
}

impl Telemetry {
    /// A handle that records nothing; every emit is a cheap no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Build a handle per `config`; disabled config yields a storage-free
    /// handle.
    pub fn from_config(config: TelemetryConfig) -> Self {
        if !config.any() {
            return Self::disabled();
        }
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
            events_on: config.events,
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a self-profiling handle; event recording is then timed
    /// under the `telemetry.sink` slot. Call before cloning this handle
    /// into engines (clones made earlier keep the previous profiler).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Whether events are being recorded. Engines use this to skip
    /// constructing event payloads on the hot path.
    pub fn is_enabled(&self) -> bool {
        self.events_on
    }

    /// Whether a metrics registry is attached (events may still be off).
    pub fn metrics_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record `event` at `at`; no-op when events are disabled.
    pub fn emit(&self, at: SimTime, event: SimEvent) {
        if self.events_on {
            if let Some(inner) = &self.inner {
                let timer = self.profiler.start();
                inner.borrow_mut().events.push(TimedEvent { at, event });
                self.profiler.stop("telemetry.sink", timer);
            }
        }
    }

    /// Record the event built by `make` at `at`; `make` only runs when
    /// events are enabled, for payloads that are costly to construct.
    pub fn emit_with(&self, at: SimTime, make: impl FnOnce() -> SimEvent) {
        if self.events_on {
            if let Some(inner) = &self.inner {
                let timer = self.profiler.start();
                inner.borrow_mut().events.push(TimedEvent {
                    at,
                    event: make(),
                });
                self.profiler.stop("telemetry.sink", timer);
            }
        }
    }

    /// Run `f` against the metrics registry; returns `None` (without
    /// running `f`) when metrics are disabled.
    pub fn metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut inner.borrow_mut().metrics))
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().events.len())
    }

    /// Drain everything collected into an owned, `Send` output. Other
    /// clones of this handle keep working but start from empty storage.
    pub fn take_output(&self) -> TelemetryOutput {
        match &self.inner {
            Some(inner) => {
                let mut inner = inner.borrow_mut();
                TelemetryOutput {
                    events: std::mem::take(&mut inner.events),
                    metrics: std::mem::take(&mut inner.metrics),
                }
            }
            None => TelemetryOutput::default(),
        }
    }
}

/// Everything a simulation collected: plain owned data, safe to move
/// across threads and attach to `SimOutput`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOutput {
    /// Events in emission order.
    pub events: Vec<TimedEvent>,
    /// Metrics registry with sampled timeseries.
    pub metrics: MetricsRegistry,
}

impl TelemetryOutput {
    /// Events of one `kind` (see [`SimEvent::kind`]).
    pub fn events_of_kind(&self, kind: &str) -> Vec<&TimedEvent> {
        self.events
            .iter()
            .filter(|ev| ev.event.kind() == kind)
            .collect()
    }

    /// JSONL export: one flat JSON object per line, in emission order.
    pub fn to_jsonl(&self) -> String {
        export::events_to_jsonl(&self.events)
    }

    /// Chrome `trace_event` JSON export (open in Perfetto or
    /// `chrome://tracing`), including counter tracks for any sampled
    /// fabric-link utilization gauges.
    pub fn to_chrome_trace(&self) -> String {
        export::chrome_trace_with_metrics(&self.events, &self.metrics)
    }

    /// Metrics registry as pretty JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// Human-readable log, one `"{time} [{scope}] {message}"` line per
    /// event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "{} [{}] {}\n",
                ev.at,
                ev.event.scope(),
                ev.event.describe()
            ));
        }
        out
    }
}

/// Minimal push interface for engines that take an abstract sink instead
/// of the shared [`Telemetry`] handle.
pub trait EventSink {
    /// Whether emitting is worthwhile; callers may skip payload
    /// construction when false.
    fn enabled(&self) -> bool;
    /// Record `event` at `at`.
    fn emit(&mut self, at: SimTime, event: SimEvent);
}

/// Sink that drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&mut self, _at: SimTime, _event: SimEvent) {}
}

impl EventSink for Telemetry {
    fn enabled(&self) -> bool {
        self.is_enabled()
    }
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        Telemetry::emit(self, at, event);
    }
}

impl EventSink for Vec<TimedEvent> {
    fn enabled(&self) -> bool {
        true
    }
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        self.push(TimedEvent { at, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.metrics_enabled());
        t.emit(SimTime::ZERO, SimEvent::JobArrival { job: 0 });
        assert_eq!(t.event_count(), 0);
        assert!(t.metrics(|_| ()).is_none());
        assert!(t.take_output().events.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let t = Telemetry::from_config(TelemetryConfig::events());
        let engine_handle = t.clone();
        engine_handle.emit(SimTime::from_millis(5), SimEvent::JobArrival { job: 1 });
        t.emit_with(SimTime::from_millis(9), || SimEvent::JobCompletion {
            job: 1,
            iterations: 4,
        });
        assert_eq!(t.event_count(), 2);
        let out = t.take_output();
        assert_eq!(out.events.len(), 2);
        assert_eq!(out.events[0].event.kind(), "job_arrival");
        assert_eq!(out.events[1].event.kind(), "job_completion");
        assert_eq!(t.event_count(), 0, "take_output drains shared storage");
    }

    #[test]
    fn metrics_only_mode_skips_events() {
        let t = Telemetry::from_config(TelemetryConfig::metrics(SimDuration::from_millis(100)));
        assert!(!t.is_enabled());
        assert!(t.metrics_enabled());
        t.emit(SimTime::ZERO, SimEvent::JobArrival { job: 0 });
        let registered = t.metrics(|reg| {
            let id = reg.register("g", crate::metrics::MetricKind::Gauge);
            reg.set(id, 2.5);
            reg.value(id)
        });
        assert_eq!(registered, Some(2.5));
        let out = t.take_output();
        assert!(out.events.is_empty());
        assert_eq!(out.metrics.len(), 1);
    }

    #[test]
    fn emit_with_is_lazy_when_disabled() {
        let t = Telemetry::disabled();
        let mut ran = false;
        t.emit_with(SimTime::ZERO, || {
            ran = true;
            SimEvent::JobArrival { job: 0 }
        });
        assert!(!ran, "payload closure must not run when disabled");
    }

    #[test]
    fn render_matches_legacy_shape() {
        let t = Telemetry::from_config(TelemetryConfig::events());
        t.emit(SimTime::from_secs_f64(1.0), SimEvent::JobArrival { job: 0 });
        let out = t.take_output();
        assert!(out.render().contains("[job] job0 launched"), "{}", out.render());
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink: Vec<TimedEvent> = Vec::new();
        assert!(EventSink::enabled(&sink));
        EventSink::emit(&mut sink, SimTime::ZERO, SimEvent::JobArrival { job: 7 });
        assert_eq!(sink.len(), 1);
        let mut null = NullSink;
        assert!(!null.enabled());
        EventSink::emit(&mut null, SimTime::ZERO, SimEvent::JobArrival { job: 7 });
    }
}
