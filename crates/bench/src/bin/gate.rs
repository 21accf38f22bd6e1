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
//!   the fresh run is always a failure (instrumentation was dropped),
//! * so is a line of either file that `MetricsSnapshot::from_json`
//!   cannot read; the failure names the line.
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

use std::process::ExitCode;

use wsrf_obs::{MetricValue, MetricsSnapshot};

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

    match compare(&fresh_raw, &base_raw) {
        Ok(checked) => {
            println!(
                "gate: OK — {checked} metrics within ±{:.0}% of {base_path}",
                TOLERANCE * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(failures) => {
            eprintln!("gate: {} failure(s) vs {base_path}:", failures.len());
            for f in &failures {
                eprintln!("  - {f}");
            }
            eprintln!("(refresh intentionally changed baselines with `gate --write-baseline`)");
            ExitCode::FAILURE
        }
    }
}

/// Parse both dumps and hold every pinned metric of `base` against
/// `fresh`: `Ok(n)` when all `n` checked metrics hold, else every
/// failure. A line either file cannot parse is a failure naming that
/// line — it would otherwise unpin its metric silently.
fn compare(fresh: &str, base: &str) -> Result<usize, Vec<String>> {
    let parse = |which: &str, text: &str| {
        MetricsSnapshot::from_json(text).map_err(|e| vec![format!("{which}: {e}")])
    };
    let fresh = parse("fresh run", fresh)?;
    let base = parse("baseline", base)?;

    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (name, b) in &base.entries {
        let Some((_, f)) = fresh.entries.iter().find(|(n, _)| n == name) else {
            if !matches!(b, MetricValue::Gauge(_)) {
                failures.push(format!(
                    "{name}: present in baseline, missing from fresh run"
                ));
            }
            continue;
        };
        match (b, f) {
            (MetricValue::Counter(bv), MetricValue::Counter(fv)) => {
                checked += 1;
                if rel(*fv as f64, *bv as f64) > TOLERANCE {
                    failures.push(format!(
                        "{name}: counter {fv} vs baseline {bv} (> {:.0}% drift)",
                        TOLERANCE * 100.0
                    ));
                }
            }
            (MetricValue::Histogram(bh), MetricValue::Histogram(fh)) if is_virtual(name) => {
                checked += 1;
                let (bc, bm, fc, fm) = (bh.count as f64, bh.mean(), fh.count as f64, fh.mean());
                if rel(fc, bc) > TOLERANCE || rel(fm, bm) > TOLERANCE {
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
        Ok(checked)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "{\n  \"a.count\": {\"type\": \"counter\", \"value\": 10},\n  \"x.virt_ns\": {\"type\": \"histogram\", \"count\": 4, \"sum\": 400, \"min\": 100, \"max\": 100, \"mean\": 100.0, \"p50\": 96, \"p90\": 96, \"p99\": 96},\n  \"y.real_ns\": {\"type\": \"histogram\", \"count\": 1, \"sum\": 9, \"min\": 9, \"max\": 9, \"mean\": 9.0, \"p50\": 12, \"p90\": 12, \"p99\": 12},\n  \"z.depth\": {\"type\": \"gauge\", \"value\": -1}\n}";

    #[test]
    fn pins_counters_and_virtual_histograms() {
        assert_eq!(compare(BASE, BASE), Ok(2));
        let drifted = BASE.replace("\"value\": 10", "\"value\": 12");
        let failures = compare(&drifted, BASE).unwrap_err();
        assert!(
            failures[0].starts_with("a.count: counter 12"),
            "{failures:?}"
        );
    }

    #[test]
    fn an_unparseable_line_fails_and_is_named() {
        // A truncated histogram line fails; skipping it would unpin it.
        let torn = BASE.replace(", \"p50\": 96, \"p90\": 96, \"p99\": 96}", "");
        for (fresh, base, which) in [(&*torn, BASE, "fresh run"), (BASE, &*torn, "baseline")] {
            let failures = compare(fresh, base).unwrap_err();
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(
                failures[0].starts_with(&format!("{which}: line 3: "))
                    && failures[0].contains("x.virt_ns"),
                "{failures:?}"
            );
        }
    }
}
