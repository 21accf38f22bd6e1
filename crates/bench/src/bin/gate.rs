//! Metrics regression gate.
//!
//! Compares a freshly generated `BENCH_metrics.json` (written by
//! `harness metrics`) against the checked-in snapshot at
//! `scripts/bench_baseline.json` and fails when the model drifts:
//!
//! * **virtual-time** metrics (`*.virt_ns`, `transport.inproc.modeled*`,
//!   `scheduler.step.*`, `scheduler.makespan_ns`) and all counters are
//!   exact model outputs of a deterministic simulation — both the
//!   sample count and the mean must stay within `TOLERANCE` (±10 %) of
//!   the baseline,
//! * **real-time** histograms are wall-clock samples and are not
//!   compared here: wall-clock regressions are judged per PR by the
//!   `benchmark/` ledger (see `BENCHMARK.json`),
//! * a counter or histogram present in the baseline but missing from
//!   the fresh run is always a failure (instrumentation was dropped).
//!
//! ```text
//! cargo run -p bench --bin gate                  # compare
//! cargo run -p bench --bin gate -- --write-baseline   # refresh snapshot
//! cargo run -p bench --bin gate -- --bless       # regenerate + refresh
//! ```
//!
//! `--write-baseline` copies an *existing* fresh run into the
//! baseline; `--bless` first re-runs `harness metrics` (the
//! sibling binary) so the baseline is regenerated in place from the
//! current tree in one step.

use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(f64),
    Gauge,
    Histogram { count: f64, mean: f64 },
}

/// Pull the numeric value following `"key":` out of a JSON object
/// fragment. The snapshot writer emits one flat object per line, so a
/// linear scan is all the parsing this needs.
fn field(body: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let at = body.find(&tag)? + tag.len();
    let rest = body[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the flat one-metric-per-line JSON written by
/// `MetricsSnapshot::to_json` into name → metric.
fn parse(contents: &str) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    for line in contents.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, body)) = rest.split_once("\":") else {
            continue;
        };
        let metric = if body.contains("\"counter\"") {
            match field(body, "value") {
                Some(v) => Metric::Counter(v),
                None => continue,
            }
        } else if body.contains("\"histogram\"") {
            match (field(body, "count"), field(body, "mean")) {
                (Some(count), Some(mean)) => Metric::Histogram { count, mean },
                _ => continue,
            }
        } else {
            Metric::Gauge
        };
        out.insert(name.to_string(), metric);
    }
    out
}

/// Allowed relative drift of a counter or a virtual-time histogram.
const TOLERANCE: f64 = 0.10;

/// Virtual-time metrics are deterministic model outputs.
fn is_virtual(name: &str) -> bool {
    name.ends_with(".virt_ns")
        || name.contains(".modeled")
        || name.starts_with("scheduler.step.")
        || name == "scheduler.makespan_ns"
}

/// Relative deviation of `fresh` from `base`, guarding tiny baselines.
fn rel(fresh: f64, base: f64) -> f64 {
    (fresh - base).abs() / base.abs().max(1.0)
}

fn main() -> ExitCode {
    let mut fresh_path = "BENCH_metrics.json".to_string();
    let mut base_path = "scripts/bench_baseline.json".to_string();
    let mut write_baseline = false;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fresh" => fresh_path = args.next().expect("--fresh needs a path"),
            "--baseline" => base_path = args.next().expect("--baseline needs a path"),
            "--write-baseline" => write_baseline = true,
            "--bless" => bless = true,
            other => {
                eprintln!("gate: unknown argument {other:?}");
                eprintln!(
                    "usage: gate [--fresh PATH] [--baseline PATH] [--write-baseline] [--bless]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if bless {
        // Regenerate the fresh snapshot with the sibling harness
        // binary before adopting it as the baseline.
        let harness = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("harness")))
            .filter(|p| p.exists());
        let Some(harness) = harness else {
            eprintln!(
                "gate: --bless needs the harness binary built alongside gate \
                 (cargo build -p bench --bins); or run `harness metrics` \
                 then `gate --write-baseline`"
            );
            return ExitCode::FAILURE;
        };
        match std::process::Command::new(&harness).arg("metrics").status() {
            Ok(status) if status.success() => write_baseline = true,
            Ok(status) => {
                eprintln!("gate: harness metrics failed with {status}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("gate: cannot run {}: {e}", harness.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let fresh_raw = match std::fs::read_to_string(&fresh_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gate: cannot read {fresh_path}: {e} (run `harness metrics` first)");
            return ExitCode::FAILURE;
        }
    };
    if write_baseline {
        if let Err(e) = std::fs::write(&base_path, &fresh_raw) {
            eprintln!("gate: cannot write {base_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("gate: wrote {base_path} from {fresh_path}");
        return ExitCode::SUCCESS;
    }
    let base_raw = match std::fs::read_to_string(&base_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gate: cannot read {base_path}: {e} (run with --write-baseline to create)");
            return ExitCode::FAILURE;
        }
    };

    let fresh = parse(&fresh_raw);
    let base = parse(&base_raw);

    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (name, b) in &base {
        let Some(f) = fresh.get(name) else {
            if !matches!(b, Metric::Gauge) {
                failures.push(format!(
                    "{name}: present in baseline, missing from fresh run"
                ));
            }
            continue;
        };
        match (b, f) {
            (Metric::Counter(bv), Metric::Counter(fv)) => {
                checked += 1;
                if rel(*fv, *bv) > TOLERANCE {
                    failures.push(format!(
                        "{name}: counter {fv} vs baseline {bv} (> {:.0}% drift)",
                        TOLERANCE * 100.0
                    ));
                }
            }
            (
                Metric::Histogram {
                    count: bc,
                    mean: bm,
                },
                Metric::Histogram {
                    count: fc,
                    mean: fm,
                },
            ) if is_virtual(name) => {
                checked += 1;
                if rel(*fc, *bc) > TOLERANCE || rel(*fm, *bm) > TOLERANCE {
                    failures.push(format!(
                        "{name}: virtual histogram count {fc}/mean {fm:.0} vs baseline \
                         count {bc}/mean {bm:.0} (> {:.0}% drift)",
                        TOLERANCE * 100.0
                    ));
                }
            }
            _ => {} // gauges and real-time histograms are informational
        }
    }

    if failures.is_empty() {
        println!(
            "gate: OK — {checked} metrics within ±{:.0}% of {base_path}",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("gate: {} regression(s) vs {base_path}:", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        eprintln!("(refresh intentionally changed baselines with `gate --write-baseline`)");
        ExitCode::FAILURE
    }
}
