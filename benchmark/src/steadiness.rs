//! `placebench steadiness`: runs each workload in two sets of runs, each
//! run in its own process with its own seed, and reports per metric each
//! set's quartiles and whether the two sets agree within the metric's
//! bound from `BENCHMARK.json`.

use crate::stats::quartiles;
use crate::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

struct Run {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    // The run's summary: attempted and failed operations by reason.
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{workload} seed {seed}: no result line (exit {:?})",
            out.status.code()
        )
    })?;
    if v["correct"].as_bool() != Some(true) {
        return Err(format!("{workload} seed {seed}: outputs not correct"));
    }
    let metrics = v["metrics"]
        .as_object()
        .ok_or("no metrics object")?
        .iter()
        .map(|(k, m)| (k.clone(), m["value"].as_f64().unwrap_or(f64::NAN)))
        .collect();
    Ok(Run {
        attempted: v["attempted"].as_f64().unwrap_or(0.0),
        failed: v["failed"].as_f64().unwrap_or(0.0),
        metrics,
    })
}

/// Runs per set: two sets make ten runs per workload, seeds 1 to 10.
const RUNS: u64 = 5;

/// Returns whether every workload agreed between its two sets.
pub fn main(args: &[String]) -> Result<bool, String> {
    if let Some(arg) = args.first() {
        return Err(format!("takes no arguments, got {arg}"));
    }
    let bench: Value = serde_json::from_str(
        &std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?,
    )
    .map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let seconds = bench["run_seconds"]
        .as_u64()
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let bounds: Vec<(String, f64, bool)> = bench["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap_or("").to_string(),
                m["bound"].as_f64().unwrap_or(0.0),
                m["better"].as_str() == Some("lower"),
            )
        })
        .collect();
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut sets: Vec<Vec<Run>> = Vec::new();
        for set in 0..2 {
            let mut rs = Vec::new();
            for i in 0..RUNS {
                let seed = 1 + set * RUNS + i;
                rs.push(run_once(w, seed, seconds)?);
            }
            sets.push(rs);
        }
        let share = |rs: &[Run]| {
            let (f, a) = rs
                .iter()
                .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
            (f, a, f / a)
        };
        let ((f1, a1, s1), (f2, a2, s2)) = (share(&sets[0]), share(&sets[1]));
        let same_share = sets
            .iter()
            .flatten()
            .all(|r| r.failed * a1 == f1 * r.attempted);
        println!(
            "{w}: failed {f1}/{a1} and {f2}/{a2} ({:.4} vs {:.4}), every run the same share: {same_share}",
            s1, s2
        );
        println!(
            "  {:<12} {:>11} {:>11} {:>11} {:>7} | {:>11} {:>11} {:>11} {:>7} | {:>7} {:>6} {:>6}  verdict",
            "metric", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "pooled", "drift", "bound"
        );
        all_ok &= same_share;
        for (name, bound, lower_better) in &bounds {
            let values = |rs: &[&Run]| rs.iter().map(|r| r.metrics[name]).collect::<Vec<_>>();
            let (a, b) = (
                quartiles(&values(&sets[0].iter().collect::<Vec<_>>())),
                quartiles(&values(&sets[1].iter().collect::<Vec<_>>())),
            );
            let pooled = quartiles(&values(&sets.iter().flatten().collect::<Vec<_>>()));
            // Quartile distance as a share of the median.
            let spread = |x: (f64, f64, f64)| (x.2 - x.0) / x.1;
            // How much worse the second set's median is than the first's.
            let drift = if *lower_better {
                b.1 / a.1 - 1.0
            } else {
                a.1 / b.1 - 1.0
            };
            // Agreement as the bound states it; "steady" asks for a spread
            // under a third of the bound, so that agreement holds with room.
            let within = spread(a) <= *bound && spread(b) <= *bound;
            let ok = within && drift <= *bound;
            let steady = spread(pooled) < bound / 3.0;
            all_ok &= ok;
            println!(
                "  {name:<12} {:>11.5} {:>11.5} {:>11.5} {:>7.4} | {:>11.5} {:>11.5} {:>11.5} {:>7.4} | {:>7.4} {:>6.3} {:>6.3}  {}{}",
                a.0, a.1, a.2, spread(a), b.0, b.1, b.2, spread(b), spread(pooled), drift, bound,
                if ok { "agree" } else { "DISAGREE" },
                if steady { "" } else { ", spread over a third of the bound" }
            );
        }
    }
    Ok(all_ok)
}
