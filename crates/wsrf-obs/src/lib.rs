//! # wsrf-obs
//!
//! Grid-wide observability for the WSRF testbed: a lock-cheap metrics
//! registry threaded through the container dispatch pipeline
//! (Figure 1), the transports, the notification broker, and the UVaCG
//! scheduler (Figure 3).
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost ≈ one atomic op.** Handles ([`Counter`],
//!    [`Gauge`], [`Histogram`]) are `Arc`s onto pre-registered atomics;
//!    recording never takes a lock. The registry's `RwLock` is touched
//!    only at registration and snapshot time.
//! 2. **Opt-out is free.** A registry built from
//!    [`ObsConfig::disabled`] hands out empty handles whose record
//!    methods are a branch on a `None` — no atomics, no allocation, so
//!    instrumented code needs no `if` of its own.
//! 3. **Virtual and real time are separate truths.** The testbed runs
//!    simulated costs against [`simclock::Clock`]; a [`Timer`] span
//!    therefore records *two* histograms, `<name>.virt_ns` (what the
//!    simulation says happened) and `<name>.real_ns` (what the host
//!    actually spent), so "the protocol costs 400 virtual ms" and "the
//!    container overhead is 3 real µs" never get conflated.
//!
//! Histograms use fixed log-scale (power-of-two) buckets, one per bit
//! position of the recorded value, like HdrHistogram's coarsest
//! configuration: bucket `i` covers `[2^i, 2^(i+1))` nanoseconds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use simclock::{Clock, SimTime};

pub mod events;
pub mod expose;
pub mod slo;
pub mod tracing;

pub use events::{Event, EventKind, EventLog, Severity};
pub use expose::{LenSink, MetricSink, MetricsJsonError};
pub use slo::{SloConfig, SloHandle, SloHealth, SloTracker};
pub use tracing::{ActiveSpan, FinishedSpan, SpanContext, TraceConfig, TraceSnapshot, Tracer};

/// Number of log-scale buckets: one per bit of a `u64` nanosecond
/// value (bucket 63 absorbs everything ≥ 2^63).
pub const BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Default per-severity retention of the structured event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Whether a [`MetricsRegistry`] records anything, and how much the
/// attached event log and SLO tracker retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    enabled: bool,
    event_capacity: usize,
    slo: SloConfig,
}

impl ObsConfig {
    /// Recording on (the default).
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            slo: SloConfig::default(),
        }
    }

    /// Recording off: every handle the registry hands out is a no-op.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            event_capacity: 0,
            slo: SloConfig::default(),
        }
    }

    /// Retain up to `n` events per severity in the structured event
    /// log (`0` disables the log while keeping metrics on).
    pub fn with_event_capacity(mut self, n: usize) -> Self {
        self.event_capacity = n;
        self
    }

    /// Override the SLO window geometry/objective.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn event_capacity(&self) -> usize {
        self.event_capacity
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::enabled()
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Monotonic counter. Cloning shares the underlying atomic.
#[derive(Clone, Default)]
pub struct Counter {
    inner: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A detached no-op counter (what disabled registries hand out).
    pub fn noop() -> Self {
        Counter { inner: None }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if let Some(a) = &self.inner {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A bounded-cardinality family of counters `<prefix>.<label>.<suffix>`.
///
/// Labels come from open sets (topic roots, authorities, tenants): a
/// million-label run must not mint a million counters. The first `cap`
/// distinct labels each get their own counter; every label past the cap
/// shares a single `<prefix>.other.<suffix>` overflow counter, so the
/// registry stays bounded no matter what the traffic looks like.
/// Handles are cached, so the hot path — a label past the cap included —
/// is one read-locked map probe, with no per-increment name formatting.
pub struct CounterFamily {
    prefix: String,
    suffix: String,
    cap: usize,
    slots: RwLock<BTreeMap<String, Counter>>,
    overflow: Counter,
    registry: Arc<MetricsRegistry>,
}

impl CounterFamily {
    /// The counter for `label`, creating it unless the family is at
    /// capacity (then the shared overflow counter).
    pub fn counter(&self, label: &str) -> Counter {
        if !self.registry.is_enabled() {
            return Counter::noop();
        }
        {
            let slots = self.slots.read();
            if let Some(c) = slots.get(label) {
                return c.clone();
            }
            // Slots are never removed: a full family stays full.
            if slots.len() >= self.cap {
                return self.overflow.clone();
            }
        }
        let mut slots = self.slots.write();
        if let Some(c) = slots.get(label) {
            return c.clone();
        }
        if slots.len() >= self.cap {
            return self.overflow.clone();
        }
        let c = self
            .registry
            .counter(&format!("{}.{label}.{}", self.prefix, self.suffix));
        slots.insert(label.to_string(), c.clone());
        c
    }

    /// Number of distinct labels holding their own counter.
    pub fn distinct(&self) -> usize {
        self.slots.read().len()
    }
}

/// A bounded-cardinality family of histograms `<prefix>.<label><suffix>`
/// — [`CounterFamily`]'s rule applied to histograms. The suffix is
/// appended verbatim (e.g. `_ns`), matching names like
/// `transport.inproc.modeled.<authority>_ns`; past `cap` distinct
/// labels every new label shares the `<prefix>.other<suffix>` overflow
/// histogram. Handles are cached, so the hot path — a label past the
/// cap included — is one read-locked map probe, with no per-record name
/// formatting.
pub struct HistogramFamily {
    prefix: String,
    suffix: String,
    cap: usize,
    slots: RwLock<BTreeMap<String, Histogram>>,
    overflow: Histogram,
    registry: Arc<MetricsRegistry>,
}

impl HistogramFamily {
    /// The histogram for `label`, creating it unless the family is at
    /// capacity (then the shared overflow histogram).
    pub fn histogram(&self, label: &str) -> Histogram {
        if !self.registry.is_enabled() {
            return Histogram::noop();
        }
        {
            let slots = self.slots.read();
            if let Some(h) = slots.get(label) {
                return h.clone();
            }
            if slots.len() >= self.cap {
                return self.overflow.clone();
            }
        }
        let mut slots = self.slots.write();
        if let Some(h) = slots.get(label) {
            return h.clone();
        }
        if slots.len() >= self.cap {
            return self.overflow.clone();
        }
        let h = self
            .registry
            .histogram(&format!("{}.{label}{}", self.prefix, self.suffix));
        slots.insert(label.to_string(), h.clone());
        h
    }

    /// Number of distinct labels holding their own histogram.
    pub fn distinct(&self) -> usize {
        self.slots.read().len()
    }
}

/// Last-value gauge (signed, so it can count in-flight work down as
/// well as up).
#[derive(Clone, Default)]
pub struct Gauge {
    inner: Option<Arc<AtomicI64>>,
}

impl Gauge {
    pub fn noop() -> Self {
        Gauge { inner: None }
    }

    pub fn set(&self, v: i64) {
        if let Some(a) = &self.inner {
            a.store(v, Ordering::Relaxed);
        }
    }

    pub fn add(&self, n: i64) {
        if let Some(a) = &self.inner {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    pub fn get(&self) -> i64 {
        self.inner
            .as_ref()
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Fixed log-scale-bucket histogram of `u64` values (nanoseconds by
/// convention). Cloning shares the underlying buckets.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Option<Arc<HistogramCore>>,
}

/// Bucket index for a value: its bit length, so bucket `i` holds
/// values in `[2^i, 2^(i+1))`; zero lands in bucket 0.
pub fn bucket_index(value: u64) -> usize {
    (63 - value.max(1).leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_floor(i: usize) -> u64 {
    1u64 << i
}

impl Histogram {
    pub fn noop() -> Self {
        Histogram { inner: None }
    }

    pub fn record(&self, value: u64) {
        let Some(core) = &self.inner else { return };
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|c| c.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Point-in-time estimate of the `q`-quantile (`quantile(0.5)` is
    /// the median), at log-bucket resolution like the `p50/p90/p99`
    /// fields of [`Histogram::stats`]. `0` on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(core) = &self.inner else { return 0 };
        let buckets: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        percentile_from_buckets(&buckets, count, q.clamp(0.0, 1.0))
    }

    /// Consistent-enough point-in-time stats (values recorded while
    /// snapshotting may appear partially — counts never go backwards
    /// and `sum/count` stays a valid mean of *some* prefix).
    pub fn stats(&self) -> HistogramStats {
        let Some(core) = &self.inner else {
            return HistogramStats::default();
        };
        let buckets: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive count from the bucket vector itself so percentile
        // math is internally consistent even mid-write.
        let count: u64 = buckets.iter().sum();
        let sum = core.sum.load(Ordering::Relaxed);
        let min = core.min.load(Ordering::Relaxed);
        let max = core.max.load(Ordering::Relaxed);
        HistogramStats {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            p50: percentile_from_buckets(&buckets, count, 0.50),
            p90: percentile_from_buckets(&buckets, count, 0.90),
            p99: percentile_from_buckets(&buckets, count, 0.99),
        }
    }
}

fn percentile_from_buckets(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            // Midpoint of the bucket's span as the estimate.
            let lo = bucket_floor(i);
            return lo + lo / 2;
        }
    }
    bucket_floor(BUCKETS - 1)
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramStats {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A pair of histograms measuring the same span in two time bases:
/// virtual (simulated cost, from [`simclock::Clock`]) and real (host
/// wall clock).
#[derive(Clone, Default)]
pub struct Timer {
    virt: Histogram,
    real: Histogram,
}

impl Timer {
    pub fn noop() -> Self {
        Timer::default()
    }

    /// Starts a span; record by dropping the returned guard (or
    /// calling [`Span::finish`]). On a disabled registry this reads
    /// neither clock.
    pub fn start(&self, clock: &Clock) -> Span {
        if self.virt.inner.is_none() && self.real.inner.is_none() {
            return Span { live: None };
        }
        Span {
            live: Some(LiveSpan {
                timer: self.clone(),
                clock: clock.clone(),
                virt_start: clock.now(),
                real_start: Instant::now(),
            }),
        }
    }

    /// Records a span measured externally.
    pub fn record(&self, virt: Duration, real: Duration) {
        self.virt.record_duration(virt);
        self.real.record_duration(real);
    }

    pub fn virt_stats(&self) -> HistogramStats {
        self.virt.stats()
    }

    pub fn real_stats(&self) -> HistogramStats {
        self.real.stats()
    }

    pub fn count(&self) -> u64 {
        self.virt.count()
    }
}

struct LiveSpan {
    timer: Timer,
    clock: Clock,
    virt_start: SimTime,
    real_start: Instant,
}

/// Guard for an in-flight [`Timer`] span.
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    /// Explicit end (equivalent to dropping).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let virt = live.clock.now().since(live.virt_start);
            let real = live.real_start.elapsed();
            live.timer.record(virt, real);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn value(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(h.stats()),
        }
    }
}

/// Named metrics for one deployment (a grid, a bench run, a test).
/// Cheap to share via `Arc`; handle lookups lock briefly, recording
/// through handles never does.
pub struct MetricsRegistry {
    enabled: bool,
    metrics: RwLock<BTreeMap<String, Metric>>,
    tracer: Tracer,
    events: EventLog,
    slo: SloTracker,
}

impl MetricsRegistry {
    pub fn new(config: ObsConfig) -> Arc<Self> {
        Self::with_tracing(config, TraceConfig::disabled())
    }

    /// A registry that also hands out a [`Tracer`]. The tracer's
    /// `trace.*` counters live in this registry (and are no-ops when
    /// `config` disables metrics — spans still record). The structured
    /// [`EventLog`] and [`SloTracker`] attach the same way: their
    /// counters register here, and a disabled registry makes both
    /// no-ops.
    pub fn with_tracing(config: ObsConfig, trace: TraceConfig) -> Arc<Self> {
        let mut reg = MetricsRegistry {
            enabled: config.is_enabled(),
            metrics: RwLock::new(BTreeMap::new()),
            tracer: Tracer::noop(),
            events: EventLog::noop(),
            slo: SloTracker::noop(),
        };
        reg.tracer = Tracer::new(trace, &reg);
        if config.is_enabled() {
            reg.events = EventLog::new(config.event_capacity, &reg);
            reg.slo = SloTracker::new(config.slo, &reg);
        }
        Arc::new(reg)
    }

    /// An enabled registry (the common case).
    pub fn enabled() -> Arc<Self> {
        Self::new(ObsConfig::enabled())
    }

    /// A registry whose handles are all no-ops.
    pub fn disabled() -> Arc<Self> {
        Self::new(ObsConfig::disabled())
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// This deployment's tracer (disabled unless the registry was
    /// built with [`MetricsRegistry::with_tracing`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This deployment's structured event log (a no-op on a disabled
    /// registry, or when [`ObsConfig::with_event_capacity`] is 0).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// This deployment's SLO tracker (a no-op on a disabled registry).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Gets or creates the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        if let Some(Metric::Counter(c)) = self.metrics.read().get(name) {
            return c.clone();
        }
        let mut metrics = self.metrics.write();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter {
                inner: Some(Arc::new(AtomicU64::new(0))),
            })
        }) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// A bounded family of counters named `<prefix>.<label>.<suffix>`;
    /// at most `cap` distinct labels, the rest collapse into
    /// `<prefix>.other.<suffix>`.
    pub fn counter_family(
        self: &Arc<Self>,
        prefix: &str,
        suffix: &str,
        cap: usize,
    ) -> CounterFamily {
        CounterFamily {
            prefix: prefix.to_string(),
            suffix: suffix.to_string(),
            cap,
            slots: RwLock::new(BTreeMap::new()),
            overflow: self.counter(&format!("{prefix}.other.{suffix}")),
            registry: self.clone(),
        }
    }

    /// A bounded family of histograms named `<prefix>.<label><suffix>`
    /// (suffix verbatim, e.g. `_ns`); at most `cap` distinct labels,
    /// the rest collapse into `<prefix>.other<suffix>`.
    pub fn histogram_family(
        self: &Arc<Self>,
        prefix: &str,
        suffix: &str,
        cap: usize,
    ) -> HistogramFamily {
        HistogramFamily {
            prefix: prefix.to_string(),
            suffix: suffix.to_string(),
            cap,
            slots: RwLock::new(BTreeMap::new()),
            overflow: self.histogram(&format!("{prefix}.other{suffix}")),
            registry: self.clone(),
        }
    }

    /// Gets or creates the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        if let Some(Metric::Gauge(g)) = self.metrics.read().get(name) {
            return g.clone();
        }
        let mut metrics = self.metrics.write();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge {
                inner: Some(Arc::new(AtomicI64::new(0))),
            })
        }) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        if let Some(Metric::Histogram(h)) = self.metrics.read().get(name) {
            return h.clone();
        }
        let mut metrics = self.metrics.write();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram {
                inner: Some(Arc::new(HistogramCore::new())),
            })
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Gets or creates a virtual+real timer pair: `<name>.virt_ns` and
    /// `<name>.real_ns`.
    pub fn timer(&self, name: &str) -> Timer {
        if !self.enabled {
            return Timer::noop();
        }
        Timer {
            virt: self.histogram(&format!("{name}.virt_ns")),
            real: self.histogram(&format!("{name}.real_ns")),
        }
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.read();
        let entries = metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.value()))
            .collect();
        MetricsSnapshot { entries }
    }
}

/// One rendered metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramStats),
}

/// Sorted point-in-time view of a registry, renderable as a table or
/// as flat JSON ([`MetricsSnapshot::to_json`] and its inverse
/// [`MetricsSnapshot::from_json`], in [`expose`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub entries: Vec<(String, MetricValue)>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    pub fn histogram(&self, name: &str) -> Option<HistogramStats> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(*h),
            _ => None,
        })
    }

    /// Fixed-width table, for a human reading a dump.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<52} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "metric", "count", "mean", "p50", "p99", "max"
        );
        let _ = writeln!(out, "{}", "-".repeat(116));
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name:<52} {c:>10}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name:<52} {g:>10}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{:<52} {:>10} {:>12} {:>12} {:>12} {:>12}",
                        name,
                        h.count,
                        fmt_ns(h.mean() as u64),
                        fmt_ns(h.p50),
                        fmt_ns(h.p99),
                        fmt_ns(h.max),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::enabled();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        let g = reg.gauge("a.gauge");
        g.set(7);
        g.sub(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("a.gauge"), Some(5));
    }

    #[test]
    fn counter_family_caps_cardinality() {
        let reg = MetricsRegistry::enabled();
        let fam = reg.counter_family("broker.topic", "publishes", 2);
        fam.counter("a").inc();
        fam.counter("b").add(2);
        fam.counter("a").inc(); // cached handle, same counter
        fam.counter("c").inc(); // over cap → overflow
        fam.counter("d").inc(); // over cap → overflow
        assert_eq!(fam.distinct(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("broker.topic.a.publishes"), Some(2));
        assert_eq!(snap.counter("broker.topic.b.publishes"), Some(2));
        assert_eq!(snap.counter("broker.topic.other.publishes"), Some(2));
        assert_eq!(snap.counter("broker.topic.c.publishes"), None);
    }

    #[test]
    fn counter_family_overflow_bucket_semantics() {
        // Past the cap, every new label shares ONE overflow counter:
        // increments from different labels land in the same atomic,
        // re-probing an in-cap label still returns its own counter, and
        // `distinct` never moves past the cap.
        let reg = MetricsRegistry::enabled();
        let fam = reg.counter_family("fam", "hits", 2);
        fam.counter("a").inc();
        fam.counter("b").inc();
        for label in ["c", "d", "e", "c", "c"] {
            fam.counter(label).inc();
        }
        assert_eq!(fam.distinct(), 2, "cap holds under overflow traffic");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("fam.other.hits"),
            Some(5),
            "all past-cap labels share the overflow atomic"
        );
        assert_eq!(snap.counter("fam.a.hits"), Some(1));
        // In-cap labels stay addressable after overflow began.
        fam.counter("a").add(9);
        assert_eq!(reg.snapshot().counter("fam.a.hits"), Some(10));
        // No per-label metric was ever minted past the cap.
        for ghost in ["fam.c.hits", "fam.d.hits", "fam.e.hits"] {
            assert_eq!(reg.snapshot().counter(ghost), None, "{ghost}");
        }
    }

    #[test]
    fn histogram_family_caps_cardinality() {
        let reg = MetricsRegistry::enabled();
        let fam = reg.histogram_family("transport.inproc.modeled", "_ns", 2);
        fam.histogram("machine01").record(100);
        fam.histogram("machine02").record(200);
        fam.histogram("machine01").record(100); // cached handle
        fam.histogram("rogue1").record(999); // over cap → overflow
        fam.histogram("rogue2").record(999);
        assert_eq!(fam.distinct(), 2);
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram("transport.inproc.modeled.machine01_ns")
                .unwrap()
                .count,
            2
        );
        assert_eq!(
            snap.histogram("transport.inproc.modeled.other_ns")
                .unwrap()
                .count,
            2,
            "past-cap labels share the overflow histogram"
        );
        assert!(snap
            .histogram("transport.inproc.modeled.rogue1_ns")
            .is_none());
        // Disabled registries hand out free noops.
        let off = MetricsRegistry::disabled();
        let fam = off.histogram_family("f", "_ns", 4);
        fam.histogram("a").record(1);
        assert_eq!(fam.distinct(), 0);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn families_past_their_cap_resolve_under_the_read_lock() {
        let reg = MetricsRegistry::enabled();
        let counters = reg.counter_family("fam", "hits", 2);
        let histograms = reg.histogram_family("lat", "_ns", 2);
        for label in ["a", "b"] {
            counters.counter(label).inc();
            histograms.histogram(label).record(1);
        }
        // This thread holds both families' read locks, so a lookup that
        // took a write lock would wait for them.
        let held = (counters.slots.read(), histograms.slots.read());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                for label in ["c", "d", "c"] {
                    counters.counter(label).inc();
                    histograms.histogram(label).record(5);
                }
                tx.send(()).unwrap();
            });
            let done = rx.recv_timeout(Duration::from_secs(10));
            drop(held);
            assert!(done.is_ok(), "a lookup past the cap took the write lock");
        });
        assert_eq!((counters.distinct(), histograms.distinct()), (2, 2));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fam.other.hits"), Some(3));
        assert_eq!(snap.histogram("lat.other_ns").unwrap().count, 3);
        assert_eq!(snap.counter("fam.c.hits"), None);
        assert!(snap.histogram("lat.c_ns").is_none());
    }

    #[test]
    fn counter_family_on_disabled_registry_is_noop() {
        let reg = MetricsRegistry::disabled();
        let fam = reg.counter_family("f", "s", 4);
        fam.counter("a").inc();
        assert_eq!(fam.distinct(), 0);
        assert_eq!(reg.snapshot().counter("f.a.s"), None);
    }

    #[test]
    fn same_name_returns_shared_handle() {
        let reg = MetricsRegistry::enabled();
        reg.counter("x").inc();
        reg.counter("x").inc();
        assert_eq!(reg.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn disabled_registry_is_invisible() {
        let reg = MetricsRegistry::new(ObsConfig::disabled());
        reg.counter("x").add(100);
        reg.histogram("h").record(5);
        reg.gauge("g").set(3);
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        assert_eq!(reg.counter("x").get(), 0);
    }

    #[test]
    fn timer_span_records_both_bases() {
        let reg = MetricsRegistry::enabled();
        let clock = Clock::manual();
        let t = reg.timer("op");
        {
            let _span = t.start(&clock);
            clock.advance(Duration::from_millis(250));
        }
        let virt = t.virt_stats();
        assert_eq!(virt.count, 1);
        assert_eq!(virt.sum, 250_000_000);
        assert_eq!(t.real_stats().count, 1);
        // Real time for an in-process advance is well under 250 virtual ms.
        assert!(t.real_stats().sum < 250_000_000);
    }

    #[test]
    fn snapshot_table_renders_all_kinds() {
        let reg = MetricsRegistry::enabled();
        reg.counter("c").add(3);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(1500);
        let table = reg.snapshot().render();
        assert!(table.contains("c") && table.contains("3"));
        assert!(table.contains("-2"));
        assert!(table.contains("1.50us") || table.contains("us"), "{table}");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i covers [2^i, 2^(i+1)); zero joins bucket 0.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for i in 0..BUCKETS {
            let lo = bucket_floor(i);
            assert_eq!(bucket_index(lo), i, "floor of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(lo * 2 - 1), i, "ceiling of bucket {i}");
                assert_eq!(bucket_index(lo * 2), i + 1, "first value past bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);

        // Recorded values land where the index math says they do.
        let reg = MetricsRegistry::enabled();
        let h = reg.histogram("b");
        for v in [0u64, 1, 2, 3, 1023, 1024, 1025] {
            h.record(v);
        }
        let stats = h.stats();
        assert_eq!(stats.count, 7);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 1025);
        assert_eq!(stats.sum, 0 + 1 + 2 + 3 + 1023 + 1024 + 1025);
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = MetricsRegistry::enabled();
        crossbeam::scope(|s| {
            for _ in 0..THREADS {
                let reg = &reg;
                s.spawn(move |_| {
                    // Mix shared-handle and by-name lookups so the
                    // registry's read-then-write insert race is
                    // exercised too.
                    let c = reg.counter("hot");
                    for i in 0..PER_THREAD {
                        if i % 2 == 0 {
                            c.inc();
                        } else {
                            reg.counter("hot").inc();
                        }
                        reg.histogram("lat").record(i);
                    }
                });
            }
        })
        .unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hot"), Some(THREADS as u64 * PER_THREAD));
        assert_eq!(
            snap.histogram("lat").unwrap().count,
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn snapshot_while_writing_stays_consistent() {
        let reg = MetricsRegistry::enabled();
        let stop = AtomicU64::new(0);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let reg = &reg;
                let stop = &stop;
                s.spawn(move |_| {
                    let h = reg.histogram("h");
                    let c = reg.counter("c");
                    while stop.load(Ordering::Relaxed) == 0 {
                        h.record(500);
                        c.inc();
                    }
                });
            }
            // Snapshots taken mid-write must be internally coherent:
            // percentiles derive from the same bucket vector as the
            // count, and counts never move backwards.
            let mut last_count = 0;
            for _ in 0..200 {
                let snap = reg.snapshot();
                if let Some(stats) = snap.histogram("h") {
                    assert!(stats.count >= last_count, "count went backwards");
                    last_count = stats.count;
                    if stats.count > 0 {
                        // 500 lives in bucket 8 ([256, 512)); the
                        // midpoint estimate for every percentile is 384.
                        assert_eq!(stats.p50, 384);
                        assert_eq!(stats.p99, 384);
                        assert_eq!(stats.min, 500);
                        assert_eq!(stats.max, 500);
                    }
                }
            }
            stop.store(1, Ordering::Relaxed);
        })
        .unwrap();
        let final_snap = reg.snapshot();
        assert_eq!(
            final_snap.histogram("h").unwrap().count,
            final_snap.counter("c").unwrap()
        );
    }

    #[test]
    fn virtual_and_real_spans_stay_separate() {
        // A span covering a large virtual advance but trivial real time
        // must not leak one base into the other (and vice versa a
        // real-time sleep must not advance the virtual histogram).
        let reg = MetricsRegistry::enabled();
        let clock = Clock::manual();
        let t = reg.timer("mixed");
        {
            let span = t.start(&clock);
            clock.advance(Duration::from_secs(3600));
            span.finish();
        }
        {
            let span = t.start(&clock);
            std::thread::sleep(Duration::from_millis(5));
            span.finish();
        }
        let virt = t.virt_stats();
        let real = t.real_stats();
        assert_eq!(virt.count, 2);
        assert_eq!(real.count, 2);
        assert_eq!(virt.max, 3_600_000_000_000, "virtual hour recorded exactly");
        assert_eq!(virt.min, 0, "sleep span advanced no virtual time");
        assert!(
            real.max < 3_600_000_000_000,
            "real base not polluted by virtual"
        );
        assert!(real.max >= 5_000_000, "real sleep recorded");
        // And they surface as distinct snapshot entries.
        let snap = reg.snapshot();
        assert!(snap.histogram("mixed.virt_ns").is_some());
        assert!(snap.histogram("mixed.real_ns").is_some());
    }

    #[test]
    fn quantile_edge_cases() {
        // Detached (no-op) histogram: every quantile is 0.
        assert_eq!(Histogram::noop().quantile(0.5), 0);

        let reg = MetricsRegistry::enabled();
        let h = reg.histogram("q");
        // Empty histogram: 0 regardless of q.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0, "empty at q={q}");
        }

        // Single sample: every quantile resolves to its bucket's
        // midpoint estimate (500 lives in [256, 512) → 384).
        h.record(500);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 384, "single sample at q={q}");
        }

        // q = 0.0 clamps to rank 1 (the lowest bucket), q = 1.0 to the
        // highest occupied bucket.
        h.record(4); // bucket 2 → midpoint 6
        h.record(100_000); // bucket 16 → midpoint 98304
        assert_eq!(h.quantile(0.0), 6);
        assert_eq!(h.quantile(1.0), 98304);

        // Out-of-range q clamps rather than panicking or extrapolating.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(42.0), h.quantile(1.0));
    }

    #[test]
    fn registry_with_tracing_hands_out_live_tracer() {
        let reg = MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::enabled());
        assert!(reg.tracer().is_enabled());
        let clock = Clock::manual();
        reg.tracer().start_root("r", "svc", &clock).finish();
        assert_eq!(reg.snapshot().counter("trace.spans_finished"), Some(1));
        // Plain construction keeps tracing off.
        assert!(!MetricsRegistry::enabled().tracer().is_enabled());
        // Metrics-off + tracing-on: spans record, counters are no-ops.
        let quiet = MetricsRegistry::with_tracing(ObsConfig::disabled(), TraceConfig::enabled());
        quiet.tracer().start_root("r", "svc", &clock).finish();
        assert_eq!(quiet.tracer().snapshot().len(), 1);
        assert!(quiet.snapshot().is_empty());
    }
}
