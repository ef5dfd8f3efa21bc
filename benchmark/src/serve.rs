//! `serve-mix`: an in-process `pesto-serve` with 2 workers, driven over
//! HTTP by a closed loop of 2 client threads.

use crate::checks::{self, Fault};
use crate::library::{Problem, SplitMix};
use crate::probe::{self, Layers};
use crate::stats::{cpu_seconds, geomean, median, percentile};
use crate::trace::Tracer;
use crate::{scratch_dir, Report, RunArgs};
use pesto::cost::{CommModel, Profiler};
use pesto::graph::{Cluster, DeviceId, FrozenGraph};
use pesto::models::ModelSpec;
use pesto::PestoConfig;
use pesto_serve::http::client_request;
use pesto_serve::{JobSpec, Server, ServerConfig, TerminalRecord};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Service workers and client threads; the host has 2 cores.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// A run measures at least this many jobs, so that the 90th percentile has
/// ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Status poll interval: small against the shortest job (~70 ms); the
/// stock `wait_terminal` helper's 20 ms would quantize latency.
const POLL: Duration = Duration::from_millis(5);
/// Seed of every job: the seed the never-worse losses were found under.
const JOB_SEED: u64 = 7;
/// Region cap of the sharded jobs.
const SHARD_CAP: usize = 300;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One job of the mix.
struct Job {
    label: String,
    body: String,
    /// The graph the service places: the submitted one, or its profiled
    /// estimate when the job asks for profiling (the service then treats
    /// the estimate as the truth it simulates on).
    placed: FrozenGraph,
    profile: Option<usize>,
    shard_cap: Option<usize>,
    /// Plan checks, prepared before the loop.
    best_baseline: Option<(&'static str, f64)>,
}

fn job(spec: ModelSpec, gen_seed: u64, profile: Option<usize>, shard_cap: Option<usize>) -> Job {
    let graph = spec.generate(spec.paper_batch(), gen_seed);
    let mut body = format!(
        "{{\"graph\":{},\"seed\":{JOB_SEED}",
        pesto::graph::to_json(&graph)
    );
    if let Some(iters) = profile {
        body.push_str(&format!(",\"profiler_iterations\":{iters}"));
    }
    if let Some(cap) = shard_cap {
        body.push_str(&format!(",\"shard_region_cap\":{cap}"));
    }
    body.push('}');
    let label = format!(
        "{spec} gen {gen_seed}{}{}",
        profile.map_or(String::new(), |i| format!(" profiled {i}")),
        shard_cap.map_or(String::new(), |c| format!(" shard {c}"))
    );
    Job {
        label,
        body,
        placed: graph,
        profile,
        shard_cap,
        best_baseline: None,
    }
}

/// The job mix of one round. Each round submits every job once, in an
/// order drawn from the run seed.
fn mix(seed: u64) -> Vec<Job> {
    // Small and medium graphs with inputs that are the same for every
    // seed: under the service defaults (no profiling) they are the known
    // never-worse losses. The profiled copies repeat every round, so the
    // service's profile cache serves all but the first.
    let mut jobs = Vec::new();
    for (spec, profiled) in [
        (ModelSpec::rnnlm(1, 32), 1),
        (ModelSpec::transformer(1, 2, 64), 1),
        (ModelSpec::nasnet(2, 8), 2),
    ] {
        jobs.push(job(spec, JOB_SEED, None, None));
        for _ in 0..profiled {
            jobs.push(job(spec, JOB_SEED, Some(100), None));
        }
    }
    // NASNet-6-148 with seed-drawn op-time jitter; its step moves with the
    // annealing budget. Sharded at a 300-op region cap it takes
    // `pesto-shard`. Latencies fall in three groups: 5 small-graph jobs of
    // 0.08–0.11 s, the 4 plain NASNet-6-148 ones of 0.13–0.18 s, and 5 (2
    // RNNLM, 3 sharded) of 1.2–1.6 s. The median lies in the middle of the
    // second group and the 90th percentile inside the third, not on a gap
    // between groups.
    for k in 0..4 {
        jobs.push(job(
            ModelSpec::nasnet(6, 148),
            seed.wrapping_add(k),
            None,
            None,
        ));
    }
    for k in 0..3 {
        jobs.push(job(
            ModelSpec::nasnet(6, 148),
            seed.wrapping_add(k),
            None,
            Some(SHARD_CAP),
        ));
    }
    jobs
}

/// Client-side observations of one job.
struct Done {
    job: usize,
    latency_ms: f64,
    submit_ms: f64,
    polls_ms: Vec<f64>,
    rejections: usize,
    record: Result<TerminalRecord, String>,
}

/// Set-up: build the mix, pay the request JSON round trip the service
/// pays (`JobSpec::from_request_json` parses and validates, then the
/// worker decodes the graph), start the server and wait for `/healthz`.
fn setup(seed: u64, data_dir: &Path) -> (Vec<Job>, Server, f64, f64) {
    let t0 = Instant::now();
    let jobs = mix(seed);
    let t1 = Instant::now();
    for j in &jobs {
        let spec = JobSpec::from_request_json(&j.body).expect("valid job body");
        std::hint::black_box(spec.graph().expect("graph decodes"));
    }
    let json_s = t1.elapsed().as_secs_f64();
    let _ = fs::remove_dir_all(data_dir);
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        data_dir: data_dir.to_path_buf(),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    while !client_request(&addr, "GET", "/healthz", None, TIMEOUT).is_ok_and(|r| r.status == 200) {
        thread::sleep(Duration::from_millis(1));
    }
    (jobs, server, (t1 - t0).as_secs_f64(), json_s)
}

/// Plan checks of one finished job against what the service placed.
fn check(
    job: &Job,
    cluster: &Cluster,
    record: &Result<TerminalRecord, String>,
) -> Result<(), Fault> {
    let record = record
        .as_ref()
        .map_err(|e| Fault::NotCompleted(e.clone()))?;
    if record.state != "completed" {
        return Err(Fault::NotCompleted(format!(
            "state {} ({})",
            record.state,
            record
                .error
                .as_deref()
                .or(record.degradation.as_deref())
                .unwrap_or("")
        )));
    }
    let (Some(placement), Some(step_us)) = (&record.placement, record.makespan_us) else {
        return Err(Fault::InvalidPlan("completed record without a plan".into()));
    };
    let devices: Vec<DeviceId> = placement
        .iter()
        .map(|&d| DeviceId::from_index(d as usize))
        .collect();
    checks::check_placement(&job.placed, cluster, &devices)?;
    checks::check_lower_bounds(&job.placed, cluster, step_us)?;
    checks::check_never_worse(step_us, job.best_baseline)
}

/// Submits `job` (retrying after a 429 as told), polls until it is
/// terminal, then reads the durable terminal record.
fn run_job(addr: &str, data_dir: &Path, jobs: &[Job], k: usize, tracer: &Tracer) -> Done {
    let _job_span = tracer.span("pesto-serve.job");
    let start = Instant::now();
    let mut rejections = 0;
    let (id, submit_ms) = loop {
        let t0 = Instant::now();
        let resp = {
            let _s = tracer.span("pesto-serve.submit");
            client_request(addr, "POST", "/jobs", Some(&jobs[k].body), TIMEOUT)
        };
        let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(r) if r.status == 202 => {
                let v: Value = serde_json::from_str(&r.body).expect("202 body is JSON");
                break (v["id"].as_str().expect("job id").to_string(), submit_ms);
            }
            Ok(r) if r.status == 429 => {
                rejections += 1;
                let wait: u64 = r
                    .header("Retry-After")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1);
                thread::sleep(Duration::from_millis(wait.clamp(1, 1000)));
            }
            other => {
                return Done {
                    job: k,
                    latency_ms: start.elapsed().as_secs_f64() * 1e3,
                    submit_ms,
                    polls_ms: Vec::new(),
                    rejections,
                    record: Err(format!("submit failed: {other:?}")),
                }
            }
        }
    };
    let mut polls_ms = Vec::new();
    let mut cursor = 0u64;
    let terminal = loop {
        let t0 = Instant::now();
        let resp = {
            let _s = tracer.span("pesto-serve.poll");
            client_request(
                addr,
                "GET",
                &format!("/jobs/{id}?events_since={cursor}"),
                None,
                TIMEOUT,
            )
        };
        polls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let v: Value = match resp.map(|r| serde_json::from_str(&r.body)) {
            Ok(Ok(v)) => v,
            other => break Err(format!("poll failed: {other:?}")),
        };
        cursor = v["events_next"].as_u64().unwrap_or(cursor);
        match v["state"].as_str() {
            Some("completed" | "degraded" | "failed" | "cancelled") => break Ok(()),
            _ if start.elapsed() > TIMEOUT => break Err("not terminal within 30 s".to_string()),
            _ => thread::sleep(POLL),
        }
    };
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    // The terminal record lands on disk just after the state turns
    // terminal.
    let record = terminal.and_then(|()| {
        let path = data_dir.join(&id).join("result.json");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(text) = fs::read_to_string(&path) {
                if let Ok(r) = serde_json::from_str::<TerminalRecord>(&text) {
                    break Ok(r);
                }
            }
            if Instant::now() > deadline {
                break Err(format!("no terminal record at {}", path.display()));
            }
            thread::sleep(Duration::from_millis(1));
        }
    });
    Done {
        job: k,
        latency_ms,
        submit_ms,
        polls_ms,
        rejections,
        record,
    }
}

/// Hands out job slots round by round; once `seconds` have passed and
/// `MIN_JOBS` are done, no new round starts, so every run runs whole
/// rounds.
struct Slots {
    order: Vec<Vec<usize>>,
    next: usize,
    stop_round: Option<usize>,
}

/// The closed loop: `CLIENTS` threads, each submitting its next job only
/// after the previous one is terminal.
struct LoopResult {
    done: Vec<Done>,
    wall_s: f64,
    cpu_s: f64,
    rounds: usize,
    scrapes_ms: Vec<f64>,
}

fn closed_loop(
    addr: &str,
    data_dir: &Path,
    jobs: &[Job],
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    tracer: &Tracer,
) -> LoopResult {
    let n = jobs.len();
    let slots = Mutex::new(Slots {
        order: Vec::new(),
        next: 0,
        stop_round: None,
    });
    let finished = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let scrapes = Mutex::new(Vec::new());
    let (c0, t0) = (cpu_seconds(), Instant::now());
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let (k, first_of_round) = {
                    let mut s = slots.lock().expect("slot lock");
                    let round = s.next / n;
                    let first_of_round = s.next.is_multiple_of(n);
                    if first_of_round && round > 0 && s.stop_round.is_none() {
                        let enough = finished.load(Ordering::SeqCst) >= min_jobs;
                        if enough && t0.elapsed().as_secs_f64() >= seconds {
                            s.stop_round = Some(round);
                        }
                    }
                    if s.stop_round.is_some_and(|r| round >= r) {
                        break;
                    }
                    if s.order.len() <= round {
                        s.order.push(shuffled(
                            n,
                            seed.wrapping_mul(1_000_003).wrapping_add(round as u64),
                        ));
                    }
                    let k = s.order[round][s.next % n];
                    s.next += 1;
                    (k, first_of_round)
                };
                if first_of_round {
                    // Once per round, scrape /metrics as a monitor would.
                    let t = Instant::now();
                    let r = {
                        let _s = tracer.span("pesto-obs.metrics_scrape");
                        client_request(addr, "GET", "/metrics", None, TIMEOUT)
                    };
                    assert!(r.is_ok_and(|r| r.status == 200), "/metrics scrape failed");
                    scrapes
                        .lock()
                        .expect("scrape lock")
                        .push(t.elapsed().as_secs_f64() * 1e3);
                }
                let d = run_job(addr, data_dir, jobs, k, tracer);
                finished.fetch_add(1, Ordering::SeqCst);
                done.lock().expect("done lock").push(d);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - c0;
    let done = done.into_inner().expect("done lock");
    let rounds = done.len() / n;
    assert_eq!(done.len(), rounds * n, "a run runs whole rounds");
    LoopResult {
        done,
        wall_s,
        cpu_s,
        rounds,
        scrapes_ms: scrapes.into_inner().expect("scrape lock"),
    }
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

fn dir_kb(dir: &Path) -> f64 {
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).into_iter().flatten().flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => bytes += m.len(),
                Err(_) => {}
            }
        }
    }
    bytes as f64 / 1024.0
}

pub fn serve_mix(args: &RunArgs) -> Report {
    let cluster = Cluster::homogeneous(2, ServerConfig::default().gpu_memory_bytes);
    let comm = CommModel::default_v100();
    let root: PathBuf = scratch_dir();
    let mut setups = Vec::new();
    let (mut generate, mut json) = (Vec::new(), Vec::new());
    let mut running = None;
    for rep in 0..SETUPS {
        let dir = root.join(format!("serve-{rep}"));
        let t0 = Instant::now();
        let (jobs, server, g, j) = setup(args.seed, &dir);
        setups.push(t0.elapsed().as_secs_f64());
        generate.push(g * 1e3);
        json.push(j * 1e3);
        if let Some((_, old, old_dir)) = running.replace((jobs, server, dir)) {
            Server::stop(old);
            let _ = fs::remove_dir_all(old_dir);
        }
    }
    let (mut jobs, server, data_dir) = running.expect("at least one set-up");
    let addr = server.addr().to_string();

    // Check preparation, outside every timing: the placed graph of each
    // job and its best constructive baseline.
    for j in &mut jobs {
        if let Some(iters) = j.profile {
            j.placed = Profiler::new(iters, JOB_SEED)
                .profile(&j.placed)
                .apply_to(j.placed.clone());
        }
        j.best_baseline = checks::best_baseline(&j.placed, &j.placed, &cluster, comm, JOB_SEED);
    }

    let mut report = Report::default();
    let tracer = Tracer::new(args.trace);
    let mut results = Vec::new();
    if args.trace {
        results.push(closed_loop(
            &addr,
            &data_dir,
            &jobs,
            args.seed,
            args.seconds / 2.0,
            MIN_JOBS / 2,
            &Tracer::new(false),
        ));
    }
    let main = closed_loop(
        &addr,
        &data_dir,
        &jobs,
        args.seed,
        if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        if args.trace { MIN_JOBS / 2 } else { MIN_JOBS },
        &tracer,
    );
    let healthz = client_request(&addr, "GET", "/healthz", None, TIMEOUT)
        .ok()
        .and_then(|r| serde_json::from_str::<Value>(&r.body).ok())
        .expect("/healthz answers JSON");
    let storage_kb = dir_kb(&data_dir);
    server.stop();
    let _ = fs::remove_dir_all(&data_dir);

    let mut step_us: BTreeMap<usize, f64> = BTreeMap::new();
    let mut completed = 0usize;
    for d in results.iter().chain([&main]).flat_map(|r| &r.done) {
        let outcome = check(&jobs[d.job], &cluster, &d.record);
        if let Ok(r) = &d.record {
            if r.state == "completed" {
                step_us.entry(d.job).or_insert(r.makespan_us.unwrap_or(0.0));
            }
        }
        report.record(&jobs[d.job].label, outcome);
    }
    for d in &main.done {
        completed += usize::from(d.record.as_ref().is_ok_and(|r| r.state == "completed"));
    }
    let latencies: Vec<f64> = main.done.iter().map(|d| d.latency_ms).collect();
    let mut by_job: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for d in &main.done {
        by_job
            .entry(&jobs[d.job].label)
            .or_default()
            .push(d.latency_ms);
    }
    for (label, l) in &by_job {
        eprintln!(
            "  latency {label}: median {:.1} ms over {}",
            median(l),
            l.len()
        );
    }

    if !args.trace {
        let steps: Vec<f64> = step_us.values().copied().collect();
        report.metric("place_s", main.wall_s / main.rounds as f64, "s");
        report.metric("place_cpu_s", main.cpu_s / main.done.len() as f64, "s");
        report.metric("step_ms", geomean(&steps) / 1e3, "ms");
        report.metric("setup_s", median(&setups), "s");
        report.metric("goodput_jps", completed as f64 / main.wall_s, "jobs/s");
        report.metric("job_p50_ms", percentile(&latencies, 0.5), "ms");
        report.metric("job_p90_ms", percentile(&latencies, 0.9), "ms");
        return report;
    }

    let mut layers = Layers::default();
    layers.set("models.generate_ms", median(&generate));
    layers.set("graph.json_roundtrip_ms", median(&json));
    let all_polls: Vec<f64> = main
        .done
        .iter()
        .flat_map(|d| d.polls_ms.iter().copied())
        .collect();
    let server_ms: Vec<f64> = main
        .done
        .iter()
        .filter_map(|d| d.record.as_ref().ok().map(|r| r.duration_ms as f64))
        .collect();
    let overhead: Vec<f64> = main
        .done
        .iter()
        .filter_map(|d| {
            d.record
                .as_ref()
                .ok()
                .map(|r| d.latency_ms - r.duration_ms as f64)
        })
        .collect();
    layers.set(
        "serve.submit_ms",
        median(&main.done.iter().map(|d| d.submit_ms).collect::<Vec<_>>()),
    );
    layers.set("serve.poll_ms", median(&all_polls));
    layers.set("serve.server_ms", median(&server_ms));
    layers.set("serve.overhead_ms", median(&overhead));
    layers.set(
        "serve.rejections",
        main.done.iter().map(|d| d.rejections).sum::<usize>() as f64,
    );
    layers.set(
        "serve.profile_cache_hits",
        healthz["profile_cache_hits"].as_f64().unwrap_or(0.0),
    );
    layers.set("serve.storage_kb", storage_kb);
    layers.set("serve.metrics_scrape_ms", median(&main.scrapes_ms));
    let plain_p50 = percentile(
        &results[0]
            .done
            .iter()
            .map(|d| d.latency_ms)
            .collect::<Vec<_>>(),
        0.5,
    );
    layers.set(
        "trace.overhead_pct",
        (percentile(&latencies, 0.5) / plain_p50 - 1.0) * 100.0,
    );

    // Layer probes on the mix's own graphs, with the service's job
    // settings: the plain NASNet job for the pipeline, the sharded job for
    // the sharder.
    let service = PestoConfig {
        seed: JOB_SEED,
        profiler_iterations: None,
        ..PestoConfig::fast()
    };
    let nasnet = jobs
        .iter()
        .find(|j| j.label.starts_with("NASNet-6-148") && j.shard_cap.is_none())
        .expect("NASNet job");
    let problems = [Problem {
        label: nasnet.label.clone(),
        graph: nasnet.placed.clone(),
        config: service,
    }];
    probe::pipeline(&tracer, &problems, &cluster, comm, &mut layers);
    let sharded = jobs
        .iter()
        .find(|j| j.shard_cap.is_some())
        .expect("sharded job");
    probe::shard(
        &tracer,
        &sharded.placed,
        SHARD_CAP,
        JOB_SEED,
        &cluster,
        comm,
        &mut layers,
    );
    layers.finish(&tracer, args, &mut report);
    report
}
