//! What the ledger prints and writes, and `bench agree`.

use std::path::Path;

use crate::json::Json;
use crate::ledger::{Better, MetricDef, Outcome, END_TO_END, PER_LAYER};
use crate::stats::round_spread;
use crate::workloads::WORKLOADS;

// ---------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------

fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

fn fmt(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.1}"),
        a if a >= 0.1 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

pub fn print_outcome(out: &Outcome) {
    println!("\n## {}\n", out.workload);
    if !out.end_to_end.is_empty() {
        let rows: Vec<Vec<String>> = END_TO_END
            .iter()
            .filter_map(|d| out.end_to_end.get(d.name).map(|v| (d, v)))
            .map(|(d, v)| {
                vec![
                    d.name.to_string(),
                    d.unit.to_string(),
                    fmt(v.value),
                    v.rounds
                        .iter()
                        .map(|r| fmt(*r))
                        .collect::<Vec<_>>()
                        .join(" "),
                    format!("{:.3}", round_spread(&v.rounds)),
                ]
            })
            .collect();
        table(
            &["end-to-end", "unit", "median", "rounds", "(max-min)/median"],
            &rows,
        );
        println!(
            "\nattempted {}  failed {}  failed_share {}",
            out.attempted,
            out.failed,
            fmt(out.failed as f64 / out.attempted.max(1) as f64)
        );
    }
    if !out.per_layer.is_empty() {
        println!();
        let rows: Vec<Vec<String>> = PER_LAYER
            .iter()
            .filter_map(|d| out.per_layer.get(d.name).map(|v| (d, v)))
            .map(|(d, v)| vec![d.name.to_string(), d.unit.to_string(), fmt(*v)])
            .collect();
        table(&["per-layer", "unit", "value"], &rows);
    }
    if let Some(w) = &out.waterfall {
        println!("\nwaterfall (traced pass, self time per op)\n");
        let total = w.rows_sum_us() + w.unaccounted_us;
        let mut rows: Vec<Vec<String>> = w
            .rows
            .iter()
            .map(|(label, us)| {
                vec![
                    label.to_string(),
                    fmt(*us),
                    format!("{:.1} %", 100.0 * us / total),
                ]
            })
            .collect();
        rows.push(vec![
            "unaccounted".into(),
            fmt(w.unaccounted_us),
            format!("{:.1} %", 100.0 * w.unaccounted_us / total),
        ]);
        rows.push(vec!["sum".into(), fmt(total), "100.0 %".into()]);
        rows.push(vec!["measured".into(), fmt(w.root_us), String::new()]);
        table(&["layer", "us/op", "share"], &rows);
    }
    for failure in &out.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "\n{}: {}",
        out.workload,
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}

pub fn print_by_depth(out: &Outcome) {
    let Some(d) = &out.by_depth else {
        println!("\n(--by-depth applies to the fig3 workloads)");
        return;
    };
    println!("\nby history depth (traced pass, quintiles of the round's ops)\n");
    let mut headers = vec!["row"];
    headers.extend(d.quintiles.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = d
        .rows
        .iter()
        .map(|(label, values)| {
            let mut row = vec![label.clone()];
            row.extend(values.iter().map(|v| fmt(*v)));
            row
        })
        .collect();
    table(&headers, &rows);
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

fn metric_json(def: &MetricDef, value: f64, rounds: Option<&[f64]>) -> Json {
    let mut pairs = vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(def.unit.to_string())),
    ];
    if let Some(rounds) = rounds {
        pairs.push((
            "rounds",
            Json::Arr(rounds.iter().map(|r| Json::Num(*r)).collect()),
        ));
    }
    Json::object(pairs)
}

/// The one line the driver reads: end-to-end metrics for `--trace 0`,
/// per-layer metrics for `--trace 1`.
pub fn driver_line(out: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        Json::object(
            PER_LAYER
                .iter()
                .map(|d| (d.name, metric_json(d, out.per_layer[d.name], None))),
        )
    } else {
        Json::object(
            END_TO_END
                .iter()
                .map(|d| (d.name, metric_json(d, out.end_to_end[d.name].value, None))),
        )
    };
    Json::object([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

fn outcome_json(out: &Outcome) -> Json {
    Json::object([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "checks",
            Json::Arr(out.check_failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "end_to_end",
            Json::object(
                END_TO_END
                    .iter()
                    .filter_map(|d| out.end_to_end.get(d.name).map(|v| (d, v)))
                    .map(|(d, v)| (d.name, metric_json(d, v.value, Some(&v.rounds)))),
            ),
        ),
        (
            "per_layer",
            Json::object(
                PER_LAYER
                    .iter()
                    .filter_map(|d| out.per_layer.get(d.name).map(|v| (d, v)))
                    .map(|(d, v)| (d.name, metric_json(d, *v, None))),
            ),
        ),
    ])
}

/// Provenance every result set carries.
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub git_sha: String,
}

impl RunInfo {
    fn json(&self, workloads: Json) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::object([
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("rounds", Json::Num(crate::ledger::ROUNDS as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("workloads", workloads),
        ])
    }
}

pub fn write_result_set(path: &Path, info: &RunInfo, outcomes: &[&Outcome]) -> std::io::Result<()> {
    let workloads = Json::object(
        outcomes
            .iter()
            .map(|o| (o.workload.clone(), outcome_json(o))),
    );
    std::fs::write(path, info.json(workloads).render() + "\n")
}

/// Merge single-workload result sets (one per child process) into one.
pub fn merge_result_sets(
    path: &Path,
    info: &RunInfo,
    parts: &[std::path::PathBuf],
) -> Result<(), String> {
    let mut workloads = Vec::new();
    for part in parts {
        let text = std::fs::read_to_string(part).map_err(|e| format!("{}: {e}", part.display()))?;
        let set = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        if let Some(map) = set.get("workloads").and_then(Json::as_object) {
            workloads.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
    }
    std::fs::write(path, info.json(Json::object(workloads)).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// agree
// ---------------------------------------------------------------------

/// By how much of `a` is `b` worse? Negative = better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Failed operations may not rise above this share of those attempted.
const FAILED_SHARE_LIMIT: f64 = 0.001;

/// Compare result set B (the change) against A (the parent), metric by
/// metric and workload by workload, against the ledger's bounds.
/// Returns the rendered table rows and the number of breaches.
pub fn agree(a: &Json, b: &Json) -> (Vec<Vec<String>>, usize) {
    let mut rows = Vec::new();
    let mut breaches = 0;
    let empty = Default::default();
    let wa = a
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&empty);
    let wb = b
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&empty);
    for (workload, _) in WORKLOADS {
        let (Some(oa), Some(ob)) = (wa.get(workload), wb.get(workload)) else {
            continue;
        };
        let value = |o: &Json, name: &str| o.get("end_to_end")?.get(name)?.get("value")?.as_f64();
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (value(oa, def.name), value(ob, def.name)) else {
                continue;
            };
            let worse = worsening(def, va, vb);
            let breach = worse > def.bound;
            breaches += breach as usize;
            rows.push(vec![
                workload.to_string(),
                def.name.to_string(),
                fmt(va),
                fmt(vb),
                format!("{:+.1} %", 100.0 * worse),
                format!("{:.0} %", 100.0 * def.bound),
                if breach { "BREACH" } else { "ok" }.to_string(),
            ]);
        }
        let share = |o: &Json| {
            let failed = o.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let attempted = o.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed / attempted.max(1.0)
        };
        let (sa, sb) = (share(oa), share(ob));
        let breach =
            sb > sa.max(FAILED_SHARE_LIMIT) || ob.get("correct") != Some(&Json::Bool(true));
        breaches += breach as usize;
        rows.push(vec![
            workload.to_string(),
            "failed_share / correct".to_string(),
            fmt(sa),
            fmt(sb),
            String::new(),
            format!("{FAILED_SHARE_LIMIT}"),
            if breach { "BREACH" } else { "ok" }.to_string(),
        ]);
    }
    (rows, breaches)
}

pub fn print_agree(rows: &[Vec<String>]) {
    table(
        &["workload", "metric", "A", "B", "B worse by", "bound", ""],
        rows,
    );
}

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

/// The root `BENCHMARK.json` must say what this program measures.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let j = Json::parse(text)?;
    let names = |key: &str| -> Vec<String> {
        j.get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect()
    };
    let expect = |key: &str, want: Vec<&str>| {
        if names(key) == want {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json '{key}' is {:?}, the program has {want:?}",
                names(key)
            ))
        }
    };
    expect("workloads", WORKLOADS.iter().map(|(n, _)| *n).collect())?;
    expect("end_to_end", END_TO_END.iter().map(|d| d.name).collect())?;
    expect("per_layer", PER_LAYER.iter().map(|d| d.name).collect())?;
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (entry, def) in j
            .get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .zip(defs)
        {
            let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap_or("");
            if field("unit") != def.unit || field("better") != def.better.as_str() {
                return Err(format!(
                    "BENCHMARK.json disagrees on unit/direction of {}",
                    def.name
                ));
            }
            if key == "end_to_end" && entry.get("bound").and_then(Json::as_f64) != Some(def.bound) {
                return Err(format!(
                    "BENCHMARK.json disagrees on the bound of {}",
                    def.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10 % worse is inside every bound, 30 % worse outside.
    fn set(ops: f64, p50: f64, failed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"rpc_read_tcp": {{"correct": true, "attempted": 1000, "failed": {failed},
            "end_to_end": {{"ops_per_s": {{"value": {ops}}}, "latency_p50_us": {{"value": {p50}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn agree_flags_only_worsening_beyond_the_bound() {
        // 10 % slower, 10 % fewer ops: inside the bounds.
        assert_eq!(agree(&set(1000.0, 40.0, 0.0), &set(900.0, 44.0, 0.0)).1, 0);
        // Better is never a breach, however large.
        assert_eq!(agree(&set(1000.0, 40.0, 0.0), &set(2000.0, 10.0, 0.0)).1, 0);
        // 30 % slower p50 is; so is a failure share above 0.001.
        assert_eq!(agree(&set(1000.0, 40.0, 0.0), &set(1000.0, 52.0, 0.0)).1, 1);
        assert_eq!(agree(&set(1000.0, 40.0, 0.0), &set(1000.0, 40.0, 5.0)).1, 1);
        // 30 % fewer ops/s breaches the higher-is-better bound.
        assert_eq!(agree(&set(1000.0, 40.0, 0.0), &set(700.0, 40.0, 0.0)).1, 1);
    }
}
