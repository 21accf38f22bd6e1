//! Runs a workload's rounds and turns them into the ledger's metrics:
//! the end-to-end numbers (median over untraced rounds) and the
//! per-layer numbers (traced pass, allocation round, replay rows).

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use crate::loadgen::peak_rss_mb;
use crate::stats::{median, percentile_sorted, quintile_bounds, round_spread, slope, sort};
use crate::sut;
use crate::trace::{Leaf, Recording, Tracer, ROOT};
use crate::workloads::{out_dir, run_round, Round, RoundPlan};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// The same four on every workload; "op" is defined per workload.
///
/// The bounds are what this host can hold, not what one would wish:
/// over ten seeds the quartile spread of these metrics reaches 0.13 on
/// the workloads whose latency is mostly thread wake-ups on two shared
/// vCPUs (fig3_tcp, rpc_read_http) or that share the disk with the
/// journal (rpc_write_wal_tcp), and a bound must sit well clear of the
/// spread to mean anything. p90 spread reached 0.20 and is therefore a
/// `loadgen.*` diagnostic, not a gate.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("ops_per_s", "ops/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricDef; 60] = [
    layer("xml.scan_ns_per_kb", "ns/KiB", Lower),
    layer("xml.dom_build_ns_per_kb", "ns/KiB", Lower),
    layer("xml.render_ns_per_kb", "ns/KiB", Lower),
    layer("xml.parse_events_per_op", "count", Lower),
    layer("xml.dom_builds_per_op", "count", Lower),
    layer("soap.lazy_scan_us_per_msg", "us", Lower),
    layer("soap.envelope_parse_us_per_msg", "us", Lower),
    layer("soap.write_into_us_per_msg", "us", Lower),
    layer("soap.wire_len_us_per_msg", "us", Lower),
    layer("soap.renders_per_op", "count", Lower),
    layer("soap.wire_bytes_per_op", "bytes", Lower),
    layer("soap.client_stub_self_us_per_op", "us", Lower),
    layer("transport.tcp.exchanges_per_op", "count", Lower),
    layer("transport.tcp.self_us_per_exchange", "us", Lower),
    layer("transport.tcp.connections", "count", Lower),
    layer("transport.http.self_us_per_exchange", "us", Lower),
    layer("transport.http.connects_per_op", "count", Lower),
    layer("transport.inproc.msgs_per_op", "count", Lower),
    layer("transport.inproc.self_us_per_msg", "us", Lower),
    layer("core.dispatch_wire_us.read", "us", Lower),
    layer("core.dispatch_wire_us.write", "us", Lower),
    layer("core.service.self_us_per_op", "us", Lower),
    layer("core.store.calls_per_op", "count", Lower),
    layer("core.store.docs_loaded_per_op", "count", Lower),
    layer("core.store.self_us_per_op", "us", Lower),
    layer("core.wal.append_us", "us", Lower),
    layer("core.wal.bytes_per_op", "bytes", Lower),
    layer("core.wal.replay_ms_per_10k", "ms", Lower),
    layer("notify.broker.self_us_per_publish", "us", Lower),
    layer("notify.publish_call_us", "us", Lower),
    layer("notify.deliveries_per_publish", "count", Lower),
    layer("notify.delivery_lag_us", "us", Lower),
    layer("notify.listener.self_us_per_delivery", "us", Lower),
    layer("uvacg.scheduler.self_us_per_op", "us", Lower),
    layer("uvacg.es.self_us_per_op", "us", Lower),
    layer("uvacg.fss.self_us_per_op", "us", Lower),
    layer("uvacg.nis.self_us_per_op", "us", Lower),
    layer("uvacg.client.self_us_per_op", "us", Lower),
    layer("uvacg.msgs_per_op", "count", Lower),
    layer("uvacg.first_100_p50_us", "us", Lower),
    layer("uvacg.history_slope_us_per_100ops", "us", Lower),
    layer("simclock.advance_self_us_per_op", "us", Lower),
    layer("obs.cost_us_per_op", "us", Lower),
    layer("proc.allocs_per_op", "count", Lower),
    layer("proc.alloc_bytes_per_op", "bytes", Lower),
    layer("proc.peak_rss_mb", "MiB", Lower),
    layer("loadgen.samples", "count", Higher),
    layer("loadgen.latency_p90_us", "us", Lower),
    layer("loadgen.latency_p99_us", "us", Lower),
    layer("loadgen.latency_max_us", "us", Lower),
    layer("loadgen.late_p50_us", "us", Lower),
    layer("loadgen.late_p99_us", "us", Lower),
    layer("loadgen.round_spread", "ratio", Lower),
    layer("loadgen.trace_overhead", "ratio", Lower),
    layer("loadgen.failed_share", "ratio", Lower),
    layer("loadgen.traced_ops", "count", Higher),
    layer("waterfall.accounted_share", "ratio", Higher),
    layer("waterfall.unaccounted_us_per_op", "us", Lower),
    layer("waterfall.root_us_per_op", "us", Lower),
    layer("waterfall.rows_sum_us_per_op", "us", Lower),
];

/// Rounds per run; every end-to-end metric is the median over them.
/// Many short rounds rather than a few long ones: on a shared two-core
/// host a whole round lands fast or slow together (thread placement,
/// neighbours), so the median needs many draws to hold still.
pub const ROUNDS: u64 = 15;
const WARMUP: Duration = Duration::from_millis(200);

/// A metric's value and, for end-to-end metrics, the per-round values
/// it is the median of.
#[derive(Clone, Debug, Default)]
pub struct Value {
    pub value: f64,
    pub rounds: Vec<f64>,
}

/// Everything one workload's run produced.
#[derive(Default)]
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, Value>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub waterfall: Option<Waterfall>,
    pub by_depth: Option<ByDepth>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        for f in &round.check_failures {
            if self.check_failures.len() < 16 {
                self.check_failures.push(f.clone());
            }
        }
    }
}

fn plan(seed: u64, round: u64, timed: Duration) -> RoundPlan {
    RoundPlan {
        seed,
        round,
        warmup: WARMUP,
        timed,
        tracer: None,
        count_allocs: false,
        obs: true,
    }
}

/// End-to-end values of one round, in `END_TO_END` order.
fn round_values(round: &Round) -> [f64; 4] {
    let mut lat = round.latencies_us.clone();
    sort(&mut lat);
    let ops = round.ops.max(1) as f64;
    [
        round.ops as f64 / round.wall_s,
        percentile_sorted(&lat, 0.5),
        round.cpu_s * 1e6 / ops,
        round.setup_s,
    ]
}

fn p50(round: &Round) -> f64 {
    round_values(round)[1]
}

/// The gated pass: `ROUNDS` untraced rounds, each a fresh fixture,
/// `seconds / ROUNDS` timed each; every metric the median over rounds.
pub fn run_end_to_end(workload: &str, seed: u64, seconds: f64, out: &mut Outcome) -> Vec<Round> {
    let timed = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|r| {
            let round = run_round(workload, &plan(seed, r, timed));
            out.absorb(&round);
            round
        })
        .collect();
    let per_round: Vec<[f64; 4]> = rounds.iter().map(round_values).collect();
    for (i, def) in END_TO_END.iter().enumerate() {
        let values: Vec<f64> = per_round.iter().map(|r| r[i]).collect();
        out.end_to_end.insert(
            def.name,
            Value {
                value: median(&values),
                rounds: values,
            },
        );
    }
    rounds
}

/// The per-layer pass. `baseline` is the untraced rounds to compare
/// the traced one against; when empty (the driver's `--trace 1` asks
/// for this pass alone) one untraced round is run first.
pub fn run_per_layer(
    workload: &str,
    seed: u64,
    seconds: f64,
    mut baseline: Vec<Round>,
    out: &mut Outcome,
) {
    // Every round of every pass is timed alike: a Figure 3 round's
    // latencies depend on how much history it lives to accumulate.
    let timed = Duration::from_secs_f64(seconds / ROUNDS as f64);
    if baseline.is_empty() {
        let round = run_round(workload, &plan(seed, 0, timed));
        out.absorb(&round);
        baseline.push(round);
    }

    let tracer = Tracer::new();
    let traced = run_round(
        workload,
        &RoundPlan {
            tracer: Some(tracer.clone()),
            ..plan(seed, ROUNDS, timed)
        },
    );
    out.absorb(&traced);
    let recording = tracer.snapshot();
    if let Err(e) = recording.write_json(&out_dir().join(format!("trace_{workload}.json"))) {
        out.check_failures.push(format!("writing trace: {e}"));
    }

    let counted = run_round(
        workload,
        &RoundPlan {
            count_allocs: true,
            ..plan(seed, ROUNDS + 1, timed)
        },
    );
    out.absorb(&counted);

    // `obs.cost`: the same in-process round with observability off.
    let obs_off = (workload == "fig3_inproc").then(|| {
        let round = run_round(
            workload,
            &RoundPlan {
                obs: false,
                ..plan(seed, ROUNDS + 2, timed)
            },
        );
        out.absorb(&round);
        round
    });

    let dispatch = sut::dispatch_wire_rows(Duration::from_millis(200));
    let m = &mut out.per_layer;
    for def in &PER_LAYER {
        m.insert(def.name, 0.0);
    }
    derive_layers(workload, &baseline, &traced, &recording, m);
    m.insert("core.dispatch_wire_us.read", dispatch.0);
    m.insert("core.dispatch_wire_us.write", dispatch.1);
    let counted_ops = counted.ops.max(1) as f64;
    m.insert("proc.allocs_per_op", counted.allocs as f64 / counted_ops);
    m.insert(
        "proc.alloc_bytes_per_op",
        counted.alloc_bytes as f64 / counted_ops,
    );
    m.insert("proc.peak_rss_mb", peak_rss_mb());
    if let Some(off) = &obs_off {
        let on = median(&baseline.iter().map(p50).collect::<Vec<_>>());
        m.insert("obs.cost_us_per_op", on - p50(off));
    }
    m.insert(
        "loadgen.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    // On notify_openloop the spans run on several threads at once and
    // hang off no root, so the waterfall is taken against the process
    // CPU a delivery cost rather than against a root span.
    let cpu_us_per_op =
        (workload == "notify_openloop").then(|| traced.cpu_s * 1e6 / traced.ops.max(1) as f64);
    let w = waterfall(&recording, traced.op_range, traced.ops, cpu_us_per_op);
    m.insert("waterfall.accounted_share", w.accounted_share());
    m.insert("waterfall.unaccounted_us_per_op", w.unaccounted_us);
    m.insert("waterfall.root_us_per_op", w.root_us);
    m.insert("waterfall.rows_sum_us_per_op", w.rows_sum_us());
    out.waterfall = Some(w);
    if workload.starts_with("fig3") {
        out.by_depth = Some(by_depth(&recording, traced.op_range));
    }
}

fn derive_layers(
    workload: &str,
    baseline: &[Round],
    traced: &Round,
    rec: &Recording,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let ops = traced.ops.max(1) as f64;
    let totals = rec.totals(traced.op_range);
    let leaves = rec.leaf_totals(traced.op_range);
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let self_us_per_op =
        |names: &[&str]| names.iter().map(|n| span(n).self_ns).sum::<u64>() as f64 / 1e3 / ops;
    let self_us_each = |name: &str| {
        let t = span(name);
        t.self_ns as f64 / 1e3 / t.count.max(1) as f64
    };
    let fact = |round: &Round, name: &str| round.facts.get(name).copied().unwrap_or(0.0);
    // Counts come from the untraced rounds: the traced pass renders and
    // clones for its capture.
    let base = &baseline[0];
    let base_ops = base.ops.max(1) as f64;

    if let Some(r) = &traced.replay {
        m.insert("xml.scan_ns_per_kb", r.scan_ns_per_kb);
        m.insert("xml.dom_build_ns_per_kb", r.dom_build_ns_per_kb);
        m.insert("xml.render_ns_per_kb", r.render_ns_per_kb);
        m.insert("soap.lazy_scan_us_per_msg", r.lazy_scan_us_per_msg);
        m.insert(
            "soap.envelope_parse_us_per_msg",
            r.envelope_parse_us_per_msg,
        );
        m.insert("soap.write_into_us_per_msg", r.write_into_us_per_msg);
        m.insert("soap.wire_len_us_per_msg", r.wire_len_us_per_msg);
        m.insert("transport.inproc.self_us_per_msg", r.inproc_call_us_per_msg);
    }
    m.insert(
        "xml.parse_events_per_op",
        base.counters.parse_events as f64 / base_ops,
    );
    m.insert(
        "xml.dom_builds_per_op",
        base.counters.dom_builds as f64 / base_ops,
    );
    m.insert(
        "soap.renders_per_op",
        base.counters.renders as f64 / base_ops,
    );
    m.insert("soap.wire_bytes_per_op", fact(base, "wire_bytes_per_op"));
    m.insert(
        "soap.client_stub_self_us_per_op",
        self_us_per_op(&[sut::SPAN_CLIENT_STUB]),
    );

    m.insert(
        "transport.tcp.exchanges_per_op",
        fact(base, "tcp_exchanges_per_op"),
    );
    m.insert(
        "transport.tcp.self_us_per_exchange",
        self_us_each(sut::SPAN_TCP),
    );
    m.insert("transport.tcp.connections", fact(base, "tcp_connections"));
    m.insert(
        "transport.http.self_us_per_exchange",
        self_us_each(sut::SPAN_HTTP),
    );
    m.insert(
        "transport.http.connects_per_op",
        fact(base, "http_connects_per_op"),
    );
    let inproc_per_op = match base.facts.get("inproc_msgs_per_op") {
        Some(per_set) => *per_set,
        None => fact(base, "inproc_msgs_total") / base_ops,
    };
    m.insert("transport.inproc.msgs_per_op", inproc_per_op);

    m.insert(
        "core.service.self_us_per_op",
        self_us_per_op(&[sut::SPAN_RPC_SERVICE]),
    );
    let stores = store_total(&leaves);
    m.insert("core.store.calls_per_op", stores.calls as f64 / ops);
    m.insert("core.store.docs_loaded_per_op", stores.docs as f64 / ops);
    m.insert("core.store.self_us_per_op", stores.ns as f64 / 1e3 / ops);
    if let (Some(outer), Some(inner)) =
        (leaves.get(sut::STORE_RPC), leaves.get(sut::STORE_RPC_INNER))
    {
        // Durable store time less the store it wraps, per write.
        m.insert(
            "core.wal.append_us",
            outer.ns.saturating_sub(inner.ns) as f64 / 1e3 / ops,
        );
    }
    m.insert("core.wal.bytes_per_op", fact(base, "wal_bytes_per_op"));
    m.insert(
        "core.wal.replay_ms_per_10k",
        fact(base, "wal_replay_ms_per_10k"),
    );

    let broker = span(sut::SPAN_BROKER);
    let deliveries = span(sut::SPAN_LISTENER).count + span(sut::SPAN_SCHEDULER_LISTENER).count;
    m.insert(
        "notify.broker.self_us_per_publish",
        self_us_each(sut::SPAN_BROKER),
    );
    let publish = span(sut::SPAN_PUBLISH);
    m.insert(
        "notify.publish_call_us",
        publish.total_ns as f64 / 1e3 / publish.count.max(1) as f64,
    );
    m.insert(
        "notify.deliveries_per_publish",
        deliveries as f64 / broker.count.max(1) as f64,
    );
    let mut lag = base.lag_us.clone();
    sort(&mut lag);
    m.insert("notify.delivery_lag_us", percentile_sorted(&lag, 0.5));
    m.insert(
        "notify.listener.self_us_per_delivery",
        self_us_each(sut::SPAN_LISTENER),
    );

    m.insert(
        "uvacg.scheduler.self_us_per_op",
        self_us_per_op(&[sut::SPAN_SCHEDULER, sut::SPAN_SCHEDULER_LISTENER]),
    );
    m.insert("uvacg.es.self_us_per_op", self_us_per_op(&[sut::SPAN_ES]));
    m.insert("uvacg.fss.self_us_per_op", self_us_per_op(&[sut::SPAN_FSS]));
    m.insert("uvacg.nis.self_us_per_op", self_us_per_op(&[sut::SPAN_NIS]));
    m.insert(
        "uvacg.client.self_us_per_op",
        self_us_per_op(&[sut::SPAN_SUBMIT, sut::SPAN_POLL]),
    );
    m.insert(
        "simclock.advance_self_us_per_op",
        self_us_per_op(&[sut::SPAN_ADVANCE]),
    );
    if workload.starts_with("fig3") {
        m.insert("uvacg.msgs_per_op", inproc_per_op);
        let first: Vec<f64> = base.latencies_us.iter().take(100).cloned().collect();
        let mut sorted = first;
        sort(&mut sorted);
        m.insert("uvacg.first_100_p50_us", percentile_sorted(&sorted, 0.5));
        m.insert(
            "uvacg.history_slope_us_per_100ops",
            slope(&base.latencies_us) * 100.0,
        );
    }

    let mut lat = base.latencies_us.clone();
    sort(&mut lat);
    m.insert("loadgen.samples", lat.len() as f64);
    m.insert("loadgen.latency_p90_us", percentile_sorted(&lat, 0.9));
    m.insert("loadgen.latency_p99_us", percentile_sorted(&lat, 0.99));
    m.insert("loadgen.latency_max_us", percentile_sorted(&lat, 1.0));
    let mut late = base.late_us.clone();
    sort(&mut late);
    m.insert("loadgen.late_p50_us", percentile_sorted(&late, 0.5));
    m.insert("loadgen.late_p99_us", percentile_sorted(&late, 0.99));
    let p50s: Vec<f64> = baseline.iter().map(p50).collect();
    m.insert("loadgen.round_spread", round_spread(&p50s));
    m.insert("loadgen.trace_overhead", p50(traced) / median(&p50s));
    m.insert("loadgen.traced_ops", traced.ops as f64);
}

// ---------------------------------------------------------------------
// Waterfall
// ---------------------------------------------------------------------

/// All store calls of a pass, less the store nested under the durable
/// one, whose time is already inside its wrapper's.
fn store_total(leaves: &HashMap<&'static str, Leaf>) -> Leaf {
    let mut total = Leaf::default();
    for (name, leaf) in leaves {
        if *name != sut::STORE_RPC_INNER {
            total.add(leaf);
        }
    }
    total
}

/// Which waterfall row a span name lands in; store (leaf) time gets a
/// row of its own after these.
const ROWS: [(&str, &[&str]); 11] = [
    ("uvacg client", &[sut::SPAN_SUBMIT, sut::SPAN_POLL]),
    (
        "uvacg scheduler",
        &[sut::SPAN_SCHEDULER, sut::SPAN_SCHEDULER_LISTENER],
    ),
    ("uvacg es", &[sut::SPAN_ES]),
    ("uvacg fss", &[sut::SPAN_FSS]),
    ("uvacg nis", &[sut::SPAN_NIS]),
    (
        "ws-notification",
        &[sut::SPAN_BROKER, sut::SPAN_LISTENER, sut::SPAN_PUBLISH],
    ),
    ("grid-node + simclock", &[sut::SPAN_ADVANCE]),
    ("wsrf-soap client stub", &[sut::SPAN_CLIENT_STUB]),
    ("wsrf-core service", &[sut::SPAN_RPC_SERVICE]),
    ("wsrf-transport tcp", &[sut::SPAN_TCP]),
    ("wsrf-transport http", &[sut::SPAN_HTTP]),
];
const STORE_ROW: &str = "wsrf-core store";

/// Per-op self time by layer; rows + unaccounted = the root span.
pub struct Waterfall {
    /// (layer, µs per op), zero rows dropped.
    pub rows: Vec<(&'static str, f64)>,
    /// The root span's own self time: the load generator's loop body.
    pub unaccounted_us: f64,
    /// Mean duration of the root span.
    pub root_us: f64,
}

impl Waterfall {
    pub fn rows_sum_us(&self) -> f64 {
        self.rows.iter().map(|(_, us)| us).sum()
    }

    pub fn accounted_share(&self) -> f64 {
        let total = self.rows_sum_us() + self.unaccounted_us;
        if total == 0.0 {
            0.0
        } else {
            self.rows_sum_us() / total
        }
    }
}

/// `measured_us` overrides the root span as what the rows are held
/// against; unaccounted is then whatever of it the rows do not cover.
fn waterfall(
    rec: &Recording,
    ops_range: (u32, u32),
    ops: u64,
    measured_us: Option<f64>,
) -> Waterfall {
    let ops = ops.max(1) as f64;
    let totals = rec.totals(ops_range);
    let leaves = rec.leaf_totals(ops_range);
    let mut rows: Vec<(&'static str, u64)> = ROWS
        .iter()
        .map(|(row, names)| {
            let self_ns = names
                .iter()
                .filter_map(|n| totals.get(n))
                .map(|t| t.self_ns);
            (*row, self_ns.sum())
        })
        .collect();
    rows.push((STORE_ROW, store_total(&leaves).ns));
    let rows: Vec<(&'static str, f64)> = rows
        .into_iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|(row, ns)| (row, ns as f64 / 1e3 / ops))
        .collect();
    let root = totals.get(ROOT).copied().unwrap_or_default();
    match measured_us {
        None => Waterfall {
            rows,
            unaccounted_us: root.self_ns as f64 / 1e3 / ops,
            root_us: root.total_ns as f64 / 1e3 / ops,
        },
        Some(measured) => {
            let covered: f64 = rows.iter().map(|(_, us)| us).sum();
            Waterfall {
                rows,
                unaccounted_us: (measured - covered).max(0.0),
                root_us: measured,
            }
        }
    }
}

/// `uvacg.*` and `core.store.*` by history quintile within the round.
pub struct ByDepth {
    /// Column headers: op index ranges.
    pub quintiles: Vec<String>,
    /// (row label, value per quintile).
    pub rows: Vec<(String, Vec<f64>)>,
}

fn by_depth(rec: &Recording, ops_range: (u32, u32)) -> ByDepth {
    let n = (ops_range.1 - ops_range.0) as usize;
    let bounds = quintile_bounds(n);
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (q, (from, to)) in bounds.iter().enumerate() {
        let range = (from + ops_range.0 as usize, to + ops_range.0 as usize);
        let ops = (range.1 - range.0).max(1) as f64;
        let range = (range.0 as u32, range.1 as u32);
        let mut put = |label: String, value: f64| {
            rows.entry(label).or_insert_with(|| vec![0.0; 5])[q] = value;
        };
        let totals = rec.totals(range);
        for (row, names) in ROWS {
            if !row.starts_with("uvacg") {
                continue;
            }
            let ns: u64 = names
                .iter()
                .filter_map(|n| totals.get(n))
                .map(|t| t.self_ns)
                .sum();
            put(format!("{row} self us/op"), ns as f64 / 1e3 / ops);
        }
        if let Some(root) = totals.get(ROOT) {
            put("op us".to_string(), root.total_ns as f64 / 1e3 / ops);
        }
        for (store, leaf) in rec.leaf_totals(range) {
            put(
                format!("store {store}: docs loaded/op"),
                leaf.docs as f64 / ops,
            );
            put(format!("store {store}: calls/op"), leaf.calls as f64 / ops);
            put(format!("store {store}: us/op"), leaf.ns as f64 / 1e3 / ops);
        }
    }
    ByDepth {
        quintiles: bounds.iter().map(|(a, b)| format!("ops {a}-{b}")).collect(),
        rows: rows.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn waterfall_rows_and_unaccounted_sum_to_the_root() {
        // Two ops, each: op [0,100] → submit [5,45] → scheduler [10,40]
        let mut spans = Vec::new();
        for op in 0..2u32 {
            let base = op as u64 * 1000;
            let id = op * 3;
            let mk = |i: u32, parent: u32, name: &'static str, s: u64, e: u64| Span {
                id: id + i,
                parent,
                op,
                name,
                start_ns: base + s,
                end_ns: base + e,
                leaf_ns: 0,
            };
            spans.push(mk(1, 0, ROOT, 0, 100_000));
            spans.push(mk(2, id + 1, sut::SPAN_SUBMIT, 5_000, 45_000));
            spans.push(mk(3, id + 2, sut::SPAN_SCHEDULER, 10_000, 40_000));
        }
        let rec = Recording {
            spans,
            leaves: vec![],
        };
        let w = waterfall(&rec, (0, 2), 2, None);
        assert_eq!(w.root_us, 100.0);
        assert_eq!(w.unaccounted_us, 60.0);
        assert_eq!(
            w.rows,
            vec![("uvacg client", 10.0), ("uvacg scheduler", 30.0)]
        );
        assert_eq!(w.rows_sum_us() + w.unaccounted_us, w.root_us);
        assert_eq!(w.accounted_share(), 0.4);
        // Held against a measured figure instead of the root span.
        let w = waterfall(&rec, (0, 2), 2, Some(50.0));
        assert_eq!((w.root_us, w.unaccounted_us), (50.0, 10.0));
    }
}
