//! Scheduling policies.
//!
//! The paper's Scheduler uses "a straightforward algorithm \[that]
//! chooses the fastest, most available machine" from the Node Info
//! Service snapshot. That policy is [`FastestAvailable`]; the others
//! are the baselines experiment E6 compares it against.
//!
//! [`MetricsFeedback`] closes the loop the paper leaves open: the
//! Scheduler reports every dispatched job's per-machine outcome back
//! through [`SchedulingPolicy::observe`], and placement starts from the
//! `FastestAvailable` score but divides it by a penalty derived from
//! each machine's recent observed latencies (EWMA of dispatch/makespan,
//! median observed transfer time from the `wsrf-obs` transport
//! histograms) relative to the fleet median, plus a decaying failure
//! count. Machines whose observed behaviour lags the fleet lose work;
//! machines that recover win it back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use wsrf_obs::MetricsRegistry;
use wsrf_soap::Uri;

/// One row of the Node Info Service snapshot the Scheduler polls
/// before each placement (step 2 of Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Machine name.
    pub machine: String,
    /// CPU speed in MHz.
    pub cpu_mhz: u32,
    /// Core count.
    pub cores: u32,
    /// RAM in MB.
    pub ram_mb: u32,
    /// Current utilization in `[0,1]`.
    pub utilization: f64,
    /// Virtual time (seconds) of the machine's last utilization
    /// report; `0` if it has never reported since registration.
    pub updated_at: f64,
    /// Address of the machine's Execution Service.
    pub execution: String,
    /// Address of the machine's File System Service.
    pub filesystem: String,
}

/// What the Scheduler observed about one job placed on one machine —
/// the feedback channel from execution back into placement.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutcome {
    /// Machine the job ran on (NIS `Machine` name).
    pub machine: String,
    /// What happened.
    pub kind: OutcomeKind,
}

/// Outcome categories the Scheduler reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// The Execution Service `Run` call returned; `virt_ns` is the
    /// virtual dispatch latency (`scheduler.es_run`). Zero on a manual
    /// clock, where synchronous calls don't advance virtual time.
    Dispatch {
        /// Virtual nanoseconds from pick to `Run` returning.
        virt_ns: u64,
    },
    /// The job exited cleanly; `virt_ns` is dispatch→exit (the
    /// per-job makespan on that machine).
    Makespan {
        /// Virtual nanoseconds from dispatch to the exit event.
        virt_ns: u64,
    },
    /// The job exited nonzero or faulted on the machine.
    Failure,
    /// The watchdog expired the job (machine presumed dead or wedged).
    Timeout,
}

/// One row of the per-machine penalty table (queryable from the
/// Scheduler's `feedback` resource as `{UVACG}MachinePenalty`).
#[derive(Debug, Clone, PartialEq)]
pub struct PenaltyRow {
    /// Machine name.
    pub machine: String,
    /// EWMA of observed latencies (dispatch + makespan), nanoseconds.
    pub ewma_ns: u64,
    /// Latency observations folded into the EWMA.
    pub observations: u64,
    /// Decaying failure count (halved on each success).
    pub failures: f64,
    /// Score divisor currently applied to the machine (`1.0` = no
    /// penalty, relative to the fleet observed so far).
    pub penalty: f64,
}

/// A placement policy: pick one node from the snapshot.
pub trait SchedulingPolicy: Send + Sync {
    /// Index of the chosen node, or `None` if nothing is acceptable.
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize>;

    /// Policy name for bench tables.
    fn name(&self) -> &'static str;

    /// Feedback channel: the Scheduler reports every dispatched job's
    /// per-machine outcome here. Feedback-less policies ignore it.
    fn observe(&self, _outcome: &MachineOutcome) {}

    /// Late binding of the deployment's metrics registry, for policies
    /// that read observed transport latencies. Default: ignored.
    fn bind_metrics(&self, _registry: &Arc<MetricsRegistry>) {}

    /// The current per-machine penalty table; empty for feedback-less
    /// policies. The Scheduler mirrors this into its `feedback`
    /// resource's `{UVACG}MachinePenalty` properties.
    fn penalties(&self) -> Vec<PenaltyRow> {
        Vec::new()
    }
}

/// The paper's policy: maximize spare speed, `cpu_mhz × cores ×
/// (1 − utilization)`. Ties (notably a fully saturated grid, where
/// every score is zero) are broken by raw speed, so overflow work
/// piles onto the fastest machine rather than an arbitrary one.
#[derive(Debug, Default)]
pub struct FastestAvailable;

fn spare_speed(n: &NodeSnapshot) -> f64 {
    n.cpu_mhz as f64 * n.cores as f64 * (1.0 - n.utilization).max(0.0)
}

/// Argmax over `score` with `FastestAvailable`'s tie-breaks: raw
/// speed, then lower utilization, then machine name.
fn max_by_score(nodes: &[NodeSnapshot], score: impl Fn(usize) -> f64) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .max_by(|(i, a), (j, b)| {
            let speed = |n: &NodeSnapshot| n.cpu_mhz as u64 * n.cores as u64;
            score(*i)
                .partial_cmp(&score(*j))
                .unwrap()
                .then(speed(a).cmp(&speed(b)))
                .then(b.utilization.partial_cmp(&a.utilization).unwrap())
                .then(b.machine.cmp(&a.machine))
        })
        .map(|(i, _)| i)
}

impl SchedulingPolicy for FastestAvailable {
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize> {
        max_by_score(nodes, |i| spare_speed(&nodes[i]))
    }

    fn name(&self) -> &'static str {
        "fastest-available"
    }
}

/// Cycle through nodes regardless of load.
#[derive(Debug, Default)]
pub struct RoundRobin {
    counter: AtomicUsize,
}

impl SchedulingPolicy for RoundRobin {
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        Some(self.counter.fetch_add(1, Ordering::Relaxed) % nodes.len())
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Uniform random choice (xorshift; no ambient entropy so runs are
/// reproducible from the seed).
#[derive(Debug)]
pub struct Random {
    state: AtomicU64,
}

impl Random {
    /// Seeded RNG policy.
    pub fn new(seed: u64) -> Self {
        Random {
            state: AtomicU64::new(seed.max(1)),
        }
    }
}

impl Default for Random {
    fn default() -> Self {
        Random::new(0x9E3779B97F4A7C15)
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl SchedulingPolicy for Random {
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        // One atomic step per pick: concurrent selectors each advance
        // the state exactly once, so no two can emit the same draw.
        let prev = self
            .state
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(xorshift(x)))
            .unwrap();
        let x = xorshift(prev);
        // Widening multiply maps the draw onto [0, len) without the
        // modulo bias `x % len` has for non-power-of-two fleets.
        Some(((x as u128 * nodes.len() as u128) >> 64) as usize)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Minimize utilization; ties broken by speed.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl SchedulingPolicy for LeastLoaded {
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize> {
        nodes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let speed = |n: &NodeSnapshot| n.cpu_mhz as u64 * n.cores as u64;
                a.utilization
                    .partial_cmp(&b.utilization)
                    .unwrap()
                    .then(speed(b).cmp(&speed(a)))
                    .then(a.machine.cmp(&b.machine))
            })
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Per-machine feedback record.
#[derive(Debug, Default, Clone)]
struct MachineRecord {
    /// EWMA of observed latencies, nanoseconds.
    ewma_ns: f64,
    /// Latency observations folded in.
    observations: u64,
    /// Decaying failure count.
    failures: f64,
}

impl MachineRecord {
    fn record_latency(&mut self, ns: f64, alpha: f64) {
        self.observations += 1;
        self.ewma_ns = if self.observations == 1 {
            ns
        } else {
            alpha * ns + (1.0 - alpha) * self.ewma_ns
        };
    }
}

/// Below this, fleet-median latencies are too small to steer on —
/// avoids penalty blow-ups when the grid is effectively instantaneous.
const LATENCY_FLOOR_NS: f64 = 100e6; // 100 virtual ms

/// `FastestAvailable` steered by observed behaviour.
///
/// Score = spare speed ÷ penalty, where the penalty grows with how far
/// the machine's observed latencies sit above the fleet median:
///
/// ```text
/// penalty = 1 + w·excess(ewma) + w·excess(transfer_p50) + w_f·failures
///             + w_b·max(0, burn − 1)
/// excess(x) = max(0, x − fleet_median) / max(fleet_median, 100ms)
/// ```
///
/// * `ewma` comes from Scheduler feedback ([`OutcomeKind::Dispatch`]
///   and [`OutcomeKind::Makespan`] via [`SchedulingPolicy::observe`]);
/// * `transfer_p50` is the median modeled transfer time to the
///   machine's authority, read live from the deployment's
///   `transport.inproc.modeled.<authority>_ns` histogram;
/// * `failures` counts [`OutcomeKind::Failure`]/[`OutcomeKind::Timeout`]
///   reports and halves on each success;
/// * `burn` is the machine's SLO burn rate from the deployment's
///   rolling [`wsrf_obs::SloTracker`] window (the same signal the
///   `{UVACG}Health` monitoring property publishes) — a machine
///   burning its error budget faster than allowed is penalized even
///   while its EWMA still looks healthy.
///
/// With no observations at all the penalty is `1.0` everywhere and the
/// policy is exactly [`FastestAvailable`]. Medians are taken over the
/// *candidate* machines with unobserved ones counted as zero, so a
/// single slow machine is penalized from its first observed sample.
pub struct MetricsFeedback {
    /// EWMA smoothing factor for new latency observations.
    alpha: f64,
    /// Weight of each latency-excess penalty term.
    latency_weight: f64,
    /// Weight of the failure-count penalty term.
    failure_weight: f64,
    /// Weight of the SLO burn-rate penalty term.
    burn_weight: f64,
    fleet: Mutex<HashMap<String, MachineRecord>>,
    registry: Mutex<Option<Arc<MetricsRegistry>>>,
}

impl Default for MetricsFeedback {
    fn default() -> Self {
        MetricsFeedback {
            alpha: 0.3,
            latency_weight: 4.0,
            failure_weight: 4.0,
            burn_weight: 2.0,
            fleet: Mutex::new(HashMap::new()),
            registry: Mutex::new(None),
        }
    }
}

impl MetricsFeedback {
    /// Feedback policy with default weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Median modeled transfer time (ns) to a node's authority, or 0
    /// when the deployment records no metrics / has no traffic yet.
    fn transfer_p50(registry: Option<&Arc<MetricsRegistry>>, node: &NodeSnapshot) -> f64 {
        let Some(reg) = registry.filter(|r| r.is_enabled()) else {
            return 0.0;
        };
        let Some(uri) = Uri::parse(&node.execution) else {
            return 0.0;
        };
        reg.histogram(&wsrf_transport::modeled_metric_name(&uri.authority))
            .quantile(0.5) as f64
    }

    /// How far `x` sits above the fleet median, in medians.
    fn excess(x: f64, median: f64) -> f64 {
        (x - median).max(0.0) / median.max(LATENCY_FLOOR_NS)
    }

    /// Excess SLO burn for `machine` from the deployment's rolling
    /// windows: 0 while the machine stays inside its error budget,
    /// `burn − 1` (capped) once it burns faster than allowed. `now_ns`
    /// anchors the window; callers pass the freshest NIS timestamp.
    fn slo_burn(registry: Option<&Arc<MetricsRegistry>>, machine: &str, now_ns: u64) -> f64 {
        const BURN_CAP: f64 = 10.0;
        let Some(reg) = registry.filter(|r| r.is_enabled()) else {
            return 0.0;
        };
        match reg.slo().health(machine, now_ns) {
            Some(h) if h.burn_rate > 1.0 => h.burn_rate.min(BURN_CAP) - 1.0,
            _ => 0.0,
        }
    }

    fn penalty_terms(&self, ewma: f64, med_ewma: f64, transfer: f64, med_transfer: f64) -> f64 {
        self.latency_weight * Self::excess(ewma, med_ewma)
            + self.latency_weight * Self::excess(transfer, med_transfer)
    }
}

/// Lower median: with an even count this takes the smaller middle
/// element, so when half the fleet is degraded the degraded half still
/// shows positive excess.
fn lower_median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[(sorted.len() - 1) / 2]
}

impl SchedulingPolicy for MetricsFeedback {
    fn select(&self, nodes: &[NodeSnapshot]) -> Option<usize> {
        if nodes.is_empty() {
            return None;
        }
        let mut fleet = self.fleet.lock();
        // Seed a record for every candidate so the fleet median in
        // `penalties()` matches the one placement uses here.
        for n in nodes {
            fleet.entry(n.machine.clone()).or_default();
        }
        let registry = self.registry.lock().clone();
        let ewmas: Vec<f64> = nodes
            .iter()
            .map(|n| fleet.get(&n.machine).map_or(0.0, |r| r.ewma_ns))
            .collect();
        let transfers: Vec<f64> = nodes
            .iter()
            .map(|n| Self::transfer_p50(registry.as_ref(), n))
            .collect();
        let med_ewma = lower_median(&ewmas);
        let med_transfer = lower_median(&transfers);
        // Anchor the SLO window at the freshest NIS report: candidate
        // snapshots are the only virtual-time signal a policy sees.
        let now_ns = nodes
            .iter()
            .map(|n| (n.updated_at.max(0.0) * 1e9) as u64)
            .max()
            .unwrap_or(0);
        let scores: Vec<f64> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let failures = fleet.get(&n.machine).map_or(0.0, |r| r.failures);
                let burn = Self::slo_burn(registry.as_ref(), &n.machine, now_ns);
                let penalty = 1.0
                    + self.penalty_terms(ewmas[i], med_ewma, transfers[i], med_transfer)
                    + self.failure_weight * failures
                    + self.burn_weight * burn;
                spare_speed(n) / penalty
            })
            .collect();
        max_by_score(nodes, |i| scores[i])
    }

    fn name(&self) -> &'static str {
        "metrics-feedback"
    }

    fn observe(&self, outcome: &MachineOutcome) {
        // Manual-clock deployments see synchronous dispatch as
        // instantaneous; a zero sample carries no signal.
        if matches!(outcome.kind, OutcomeKind::Dispatch { virt_ns: 0 }) {
            return;
        }
        let mut fleet = self.fleet.lock();
        let rec = fleet.entry(outcome.machine.clone()).or_default();
        match outcome.kind {
            OutcomeKind::Dispatch { virt_ns } => rec.record_latency(virt_ns as f64, self.alpha),
            OutcomeKind::Makespan { virt_ns } => {
                rec.record_latency(virt_ns as f64, self.alpha);
                rec.failures *= 0.5;
            }
            OutcomeKind::Failure | OutcomeKind::Timeout => rec.failures += 1.0,
        }
    }

    fn bind_metrics(&self, registry: &Arc<MetricsRegistry>) {
        *self.registry.lock() = Some(registry.clone());
    }

    fn penalties(&self) -> Vec<PenaltyRow> {
        let fleet = self.fleet.lock();
        let ewmas: Vec<f64> = fleet.values().map(|r| r.ewma_ns).collect();
        let med_ewma = lower_median(&ewmas);
        let mut rows: Vec<PenaltyRow> = fleet
            .iter()
            .map(|(machine, rec)| PenaltyRow {
                machine: machine.clone(),
                ewma_ns: rec.ewma_ns as u64,
                observations: rec.observations,
                failures: rec.failures,
                penalty: 1.0
                    + self.latency_weight * Self::excess(rec.ewma_ns, med_ewma)
                    + self.failure_weight * rec.failures,
            })
            .collect();
        rows.sort_by(|a, b| a.machine.cmp(&b.machine));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(machine: &str, mhz: u32, cores: u32, util: f64) -> NodeSnapshot {
        NodeSnapshot {
            machine: machine.into(),
            cpu_mhz: mhz,
            cores,
            ram_mb: 1024,
            utilization: util,
            updated_at: 0.0,
            execution: format!("inproc://{machine}/Execution"),
            filesystem: format!("inproc://{machine}/FileSystem"),
        }
    }

    #[test]
    fn fastest_available_prefers_spare_speed() {
        let nodes = vec![
            node("slow-idle", 1000, 1, 0.0), // score 1000
            node("fast-busy", 3000, 1, 0.9), // score 300
            node("fast-idle", 3000, 1, 0.1), // score 2700
            node("many-core", 1000, 4, 0.5), // score 2000
        ];
        assert_eq!(FastestAvailable.select(&nodes), Some(2));
    }

    #[test]
    fn fastest_available_saturated_grid_still_picks_something() {
        let nodes = vec![node("a", 1000, 1, 1.0), node("b", 2000, 1, 1.0)];
        assert!(FastestAvailable.select(&nodes).is_some());
    }

    #[test]
    fn policies_return_none_on_empty() {
        let empty: Vec<NodeSnapshot> = Vec::new();
        assert_eq!(FastestAvailable.select(&empty), None);
        assert_eq!(RoundRobin::default().select(&empty), None);
        assert_eq!(Random::default().select(&empty), None);
        assert_eq!(LeastLoaded.select(&empty), None);
        assert_eq!(MetricsFeedback::new().select(&empty), None);
    }

    #[test]
    fn round_robin_cycles() {
        let nodes = vec![
            node("a", 1, 1, 0.0),
            node("b", 1, 1, 0.0),
            node("c", 1, 1, 0.0),
        ];
        let rr = RoundRobin::default();
        let picks: Vec<usize> = (0..6).map(|_| rr.select(&nodes).unwrap()).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_is_seed_deterministic_and_in_range() {
        let nodes = vec![node("a", 1, 1, 0.0), node("b", 1, 1, 0.0)];
        let r1 = Random::new(7);
        let r2 = Random::new(7);
        let p1: Vec<usize> = (0..10).map(|_| r1.select(&nodes).unwrap()).collect();
        let p2: Vec<usize> = (0..10).map(|_| r2.select(&nodes).unwrap()).collect();
        assert_eq!(p1, p2);
        assert!(p1.iter().all(|&i| i < 2));
    }

    #[test]
    fn random_concurrent_selects_never_duplicate_rng_states() {
        // The old load→xorshift→store sequence lost updates under
        // contention: two threads could read the same state and emit
        // identical draws. With fetch_update every select consumes
        // exactly one xorshift step, so the multiset of states drawn
        // by N threads equals the serial sequence of the same length.
        use std::collections::HashSet;
        use std::sync::Barrier;

        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;

        // 1021 nodes (prime) also exercises the non-power-of-two
        // index mapping.
        let nodes: Vec<NodeSnapshot> = (0..1021)
            .map(|i| node(&format!("m{i}"), 1, 1, 0.0))
            .collect();
        let policy = Arc::new(Random::new(42));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let policy = policy.clone();
                let nodes = nodes.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..PER_THREAD {
                        assert!(policy.select(&nodes).unwrap() < nodes.len());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Exactly THREADS*PER_THREAD xorshift steps were consumed, so
        // the final state matches the serial walk — and because
        // xorshift64 is a permutation with period 2^64−1, that also
        // proves no step was drawn twice.
        let mut serial = 42u64;
        let mut seen = HashSet::new();
        for _ in 0..THREADS * PER_THREAD {
            serial = xorshift(serial);
            assert!(seen.insert(serial), "duplicated RNG state {serial}");
        }
        assert_eq!(policy.state.load(Ordering::Relaxed), serial);
    }

    #[test]
    fn random_index_mapping_is_unbiased_across_full_range() {
        // The widening multiply maps u64 draws onto [0, len) without
        // the bias `x % len` shows near the top of the range; spot-
        // check the endpoints of the mapping itself.
        let map = |x: u64, len: usize| ((x as u128 * len as u128) >> 64) as usize;
        assert_eq!(map(0, 3), 0);
        assert_eq!(map(u64::MAX, 3), 2);
        assert_eq!(map(u64::MAX / 2, 3), 1);
    }

    #[test]
    fn least_loaded_ignores_speed_until_tied() {
        let nodes = vec![node("fast", 3000, 2, 0.6), node("slow", 500, 1, 0.1)];
        assert_eq!(LeastLoaded.select(&nodes), Some(1));
        let tied = vec![node("a", 1000, 1, 0.5), node("b", 2000, 1, 0.5)];
        assert_eq!(LeastLoaded.select(&tied), Some(1), "ties broken by speed");
    }

    #[test]
    fn least_loaded_tie_break_survives_huge_cpu_rows() {
        // cpu_mhz * cores used to be computed in u32, which panics in
        // debug builds for adversarial NIS rows like this one.
        let nodes = vec![
            node("giant-a", u32::MAX, 4, 0.5),
            node("giant-b", u32::MAX, 8, 0.5),
        ];
        assert_eq!(LeastLoaded.select(&nodes), Some(1), "more cores wins tie");
        assert_eq!(FastestAvailable.select(&nodes), Some(1));
    }

    #[test]
    fn metrics_feedback_cold_start_equals_fastest_available() {
        let nodes = vec![
            node("slow-idle", 1000, 1, 0.0),
            node("fast-busy", 3000, 1, 0.9),
            node("fast-idle", 3000, 1, 0.1),
            node("many-core", 1000, 4, 0.5),
        ];
        let mf = MetricsFeedback::new();
        assert!(mf.penalties().is_empty(), "nothing observed yet");
        assert_eq!(mf.select(&nodes), FastestAvailable.select(&nodes));
        let rows = mf.penalties();
        assert_eq!(rows.len(), nodes.len(), "select seeds the fleet table");
        assert!(rows.iter().all(|r| r.penalty == 1.0), "{rows:?}");
    }

    #[test]
    fn metrics_feedback_penalizes_slow_makespans() {
        let nodes = vec![node("fast", 3000, 2, 0.0), node("steady", 1500, 1, 0.0)];
        let mf = MetricsFeedback::new();
        // "fast" looks great on paper but its observed makespans are
        // far above the fleet median (median counts "steady" as 0).
        for _ in 0..3 {
            mf.observe(&MachineOutcome {
                machine: "fast".into(),
                kind: OutcomeKind::Makespan {
                    virt_ns: 30_000_000_000,
                },
            });
        }
        assert_eq!(mf.select(&nodes), Some(1), "steers off the slow machine");
        let rows = mf.penalties();
        assert_eq!(rows.len(), 2);
        let fast = rows.iter().find(|r| r.machine == "fast").unwrap();
        let steady = rows.iter().find(|r| r.machine == "steady").unwrap();
        assert!(fast.penalty > steady.penalty, "{rows:?}");
        assert_eq!(steady.penalty, 1.0);
        assert_eq!(fast.observations, 3);
    }

    #[test]
    fn metrics_feedback_timeouts_penalize_and_successes_forgive() {
        let nodes = vec![node("flaky", 3000, 2, 0.0), node("steady", 1500, 1, 0.0)];
        let mf = MetricsFeedback::new();
        assert_eq!(mf.select(&nodes), Some(0), "prefers raw speed at first");
        mf.observe(&MachineOutcome {
            machine: "flaky".into(),
            kind: OutcomeKind::Timeout,
        });
        assert_eq!(mf.select(&nodes), Some(1), "timeout steers work away");
        // Successes decay the failure count back down; spare speed
        // (6000 vs 1000) wins again once the penalty drops below 6x.
        for _ in 0..4 {
            mf.observe(&MachineOutcome {
                machine: "flaky".into(),
                kind: OutcomeKind::Makespan { virt_ns: 0 },
            });
        }
        assert_eq!(mf.select(&nodes), Some(0), "recovered machine wins back");
    }

    #[test]
    fn metrics_feedback_ignores_zero_dispatch_samples() {
        let mf = MetricsFeedback::new();
        mf.observe(&MachineOutcome {
            machine: "m".into(),
            kind: OutcomeKind::Dispatch { virt_ns: 0 },
        });
        assert!(mf.penalties().is_empty(), "zero dispatch carries no signal");
        mf.observe(&MachineOutcome {
            machine: "m".into(),
            kind: OutcomeKind::Dispatch { virt_ns: 5_000 },
        });
        assert_eq!(mf.penalties()[0].observations, 1);
    }

    #[test]
    fn metrics_feedback_reads_transfer_latency_from_registry() {
        use std::time::Duration;
        let nodes = vec![node("far", 3000, 2, 0.0), node("near", 1500, 1, 0.0)];
        let registry = MetricsRegistry::enabled();
        // Simulate what InProcNetwork records: messages to "far" take
        // 15 virtual seconds, "near" is instantaneous.
        let h = registry.histogram(&wsrf_transport::modeled_metric_name("far"));
        for _ in 0..4 {
            h.record_duration(Duration::from_secs(15));
        }
        let mf = MetricsFeedback::new();
        assert_eq!(mf.select(&nodes), Some(0), "no registry bound yet");
        mf.bind_metrics(&registry);
        assert_eq!(mf.select(&nodes), Some(1), "observed slow link penalized");
    }
}
