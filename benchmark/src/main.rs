//! The performance ledger. See `benchmark/README.md`.
//!
//! ```text
//! bench run <workload|all> [--seed N] [--seconds S] [--traced] [--by-depth] [--out FILE]
//! bench selftest
//! bench agree A.json B.json
//! bench --workload <name> --seed N --seconds S --trace 0|1     (what BENCHMARK.json runs)
//! ```

mod alloc;
mod json;
mod ledger;
mod loadgen;
mod report;
mod selftest;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::Outcome;
use report::RunInfo;
use workloads::{is_workload, out_dir, runs_pinned, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Timed seconds per run when `--seconds` is not given: one per round.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench run <workload|all> [--seed N] [--seconds S] [--traced] [--by-depth] [--out FILE]\n  bench selftest\n  bench agree A.json B.json\n  bench --workload <name> --seed N --seconds S --trace 0|1\nworkloads: {}",
        WORKLOADS.map(|(n, _)| n).join(" ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags after the positional arguments.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: '{v}'")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("selftest") => Ok(selftest::run()),
        Some("agree") => agree(&args[1..]),
        Some(flag) if flag.starts_with("--") => driver(&Flags(args)),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            usage()
        }
    }
}

/// Called before the workload's process has spawned any thread.
fn pin_if_asked(workload: &str) {
    if runs_pinned(workload) {
        match loadgen::pin_to_one_cpu() {
            Some(cpu) => println!("{workload}: pinned to cpu {cpu}"),
            None => println!("{workload}: could not pin to one cpu; expect noisier numbers"),
        }
    }
}

/// The contract `BENCHMARK.json` names: one workload, one pass, one
/// JSON object as the last line of standard output.
fn driver(flags: &Flags) -> Result<bool, String> {
    let workload = flags.value("--workload").ok_or("--workload is required")?;
    if !is_workload(workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = flags.parsed("--seed", 1u64)?;
    let seconds = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let traced = flags.parsed("--trace", 0u8)? != 0;
    pin_if_asked(workload);
    let mut out = Outcome {
        workload: workload.to_string(),
        ..Outcome::default()
    };
    if traced {
        ledger::run_per_layer(workload, seed, seconds, Vec::new(), &mut out);
    } else {
        ledger::run_end_to_end(workload, seed, seconds, &mut out);
    }
    report::print_outcome(&out);
    println!("{}", report::driver_line(&out, traced));
    Ok(out.correct())
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn run(args: &[String]) -> Result<bool, String> {
    let target = args.first().ok_or("run needs a workload or 'all'")?;
    let flags = Flags(args[1..].to_vec());
    let info = RunInfo {
        seed: flags.parsed("--seed", 1u64)?,
        seconds: flags.parsed("--seconds", DEFAULT_SECONDS)?,
        git_sha: git_sha(),
    };
    if target == "all" {
        return run_all(&flags, &info);
    }
    if !is_workload(target) {
        return Err(format!("unknown workload '{target}'"));
    }
    pin_if_asked(target);
    let mut out = Outcome {
        workload: target.clone(),
        ..Outcome::default()
    };
    // `--traced` is the quick look: the traced pass alone, no gated
    // rounds. Without it, both, and every metric is printed.
    let baseline = if flags.has("--traced") {
        Vec::new()
    } else {
        ledger::run_end_to_end(target, info.seed, info.seconds, &mut out)
    };
    ledger::run_per_layer(target, info.seed, info.seconds, baseline, &mut out);
    report::print_outcome(&out);
    if flags.has("--by-depth") {
        report::print_by_depth(&out);
    }
    let path = flags.value("--out").map_or_else(
        || out_dir().join(format!("result_{target}.json")),
        PathBuf::from,
    );
    report::write_result_set(&path, &info, &[&out]).map_err(|e| e.to_string())?;
    println!("results: {}", path.display());
    Ok(out.correct())
}

/// One process per workload: peak RSS, allocator state and leftover
/// threads of one workload never reach the next.
fn run_all(flags: &Flags, info: &RunInfo) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut parts = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let part = out_dir().join(format!("result_{workload}.json"));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", workload])
            .args(["--seed", &info.seed.to_string()])
            .args(["--seconds", &info.seconds.to_string()])
            .arg("--out")
            .arg(&part);
        for passthrough in ["--traced", "--by-depth"] {
            if flags.has(passthrough) {
                child.arg(passthrough);
            }
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        all_correct &= status.success();
        parts.push(part);
    }
    let path = flags
        .value("--out")
        .map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    report::merge_result_sets(&path, info, &parts)?;
    println!(
        "\nall workloads: {}\nresults: {}",
        if all_correct { "correct" } else { "INCORRECT" },
        path.display()
    );
    Ok(all_correct)
}

fn agree(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("agree needs two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, breaches) = report::agree(&load(a)?, &load(b)?);
    report::print_agree(&rows);
    println!("\n{breaches} breach(es)");
    Ok(breaches == 0 && !rows.is_empty())
}
