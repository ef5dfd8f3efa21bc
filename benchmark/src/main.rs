//! Placement benchmark for the pesto workspace.
//!
//! ```text
//! placebench --workload <mono-transformer|exact-tiny|serve-mix> --seed N --seconds S --trace 0|1
//! placebench steadiness
//! ```
//!
//! A workload run measures for `--seconds` seconds in whole rounds of the
//! same operations, checks every shipped plan, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer ones with `--trace 1`). The
//! README next to this file describes the workloads and metrics.

mod checks;
mod library;
mod probe;
mod serve;
mod stats;
mod steadiness;
mod trace;

use checks::Fault;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order the steadiness command runs them.
pub const WORKLOADS: [&str; 3] = ["mono-transformer", "exact-tiny", "serve-mix"];

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured and how its operations fared.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Failed operations per fault tag.
    pub failures: BTreeMap<&'static str, u64>,
    /// Distinct fault descriptions, for the log.
    pub notes: BTreeSet<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one operation and its outcome.
    pub fn record(&mut self, label: &str, outcome: Result<(), Fault>) {
        self.attempted += 1;
        if let Err(fault) = outcome {
            *self.failures.entry(fault.tag()).or_default() += 1;
            self.notes
                .insert(format!("{} {label}: {}", fault.tag(), fault.detail()));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Outputs are correct when every failure is a plan slower than a
    /// baseline: the one known fault (the monolithic pipeline tail has no
    /// baseline guard). Any other fault means a wrong output.
    fn correct(&self) -> bool {
        self.failures
            .keys()
            .all(|&tag| tag == "slower_than_baseline")
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// Scratch space for one run inside the checkout: serve data, traces.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_run").join(std::process::id().to_string())
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &RunArgs) -> Report {
    let started = Instant::now();
    let mut report = match args.workload.as_str() {
        "mono-transformer" => library::mono_transformer(args),
        "exact-tiny" => library::exact_tiny(args),
        "serve-mix" => serve::serve_mix(args),
        _ => unreachable!("workload validated"),
    };
    if !args.trace {
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    eprintln!(
        "{}: seed {} ran {:.1} s; attempted {}, failed {} ({})",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64(),
        report.attempted,
        report.failed(),
        [
            "not_completed",
            "invalid_plan",
            "below_lower_bound",
            "slower_than_baseline"
        ]
        .iter()
        .map(|t| format!("{t} {}", report.failures.get(t).copied().unwrap_or(0)))
        .collect::<Vec<_>>()
        .join(", ")
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steadiness") {
        return match steadiness::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("placebench steadiness: {e}");
                ExitCode::from(2)
            }
        };
    }
    let run_args = match parse_run_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("placebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&run_args);
    let _ = std::fs::remove_dir_all(scratch_dir());
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.record("a", Ok(()));
        r.record("b", Err(Fault::SlowerThanBaseline("x".into())));
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.record("c", Err(Fault::InvalidPlan("y".into())));
        assert!(!r.correct());
    }

    #[test]
    fn run_args_are_validated() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok =
            parse_run_args(&v("--workload exact-tiny --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3);
        assert!(parse_run_args(&v("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(
            parse_run_args(&v("--workload exact-tiny --seed 3 --seconds 0 --trace 0")).is_err()
        );
        assert!(parse_run_args(&v("--workload exact-tiny --seconds 5 --trace 0")).is_err());
    }
}
