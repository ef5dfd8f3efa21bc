//! The library workloads: placement problems handed to `Pesto::place` in
//! process, as `pesto place graph.json` does.

use crate::checks::{self, Fault};
use crate::probe;
use crate::stats::{cpu_seconds, geomean, median, percentile};
use crate::trace::Tracer;
use crate::{Report, RunArgs};
use pesto::cost::{CommModel, Profiler};
use pesto::graph::{Cluster, DeviceKind, FrozenGraph, OpGraph, OpId};
use pesto::ilp::{IlpModel, MemoryRule, SolvePath};
use pesto::models::ModelSpec;
use pesto::sim::Simulator;
use pesto::{Pesto, PestoConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One placement problem of a workload.
pub struct Problem {
    pub label: String,
    /// The graph as `Pesto::place` receives it, after the JSON round trip.
    pub graph: FrozenGraph,
    pub config: PestoConfig,
}

/// What every shipped plan of a problem is checked against, computed once
/// before the measured loop.
struct Expect {
    best_baseline: Option<(&'static str, f64)>,
    /// Exhaustive optimum (all placements, balanced placements) and the
    /// proven-optimal model makespan of the benchmark's own exact solve.
    exact: Option<((f64, f64), Option<f64>)>,
}

/// Times spent in set-up, by part; every part repeats `reps` times and the
/// medians are reported.
pub struct Setup {
    pub setup_s: f64,
    pub generate_ms: f64,
    pub json_ms: f64,
}

/// Runs `make` (which returns `(generated, round-tripped)` times in
/// seconds) `reps` times, keeping the last result.
fn timed_setup<T>(reps: usize, mut make: impl FnMut() -> (T, f64, f64)) -> (T, Setup) {
    let mut total = Vec::new();
    let mut generate = Vec::new();
    let mut json = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (value, g, j) = make();
        total.push(t0.elapsed().as_secs_f64());
        generate.push(g);
        json.push(j);
        last = Some(value);
    }
    let setup = Setup {
        setup_s: median(&total),
        generate_ms: median(&generate) * 1e3,
        json_ms: median(&json) * 1e3,
    };
    (last.expect("at least one set-up"), setup)
}

/// The JSON round trip `pesto place graph.json` pays: write, then parse.
fn json_round_trip(graph: &FrozenGraph) -> FrozenGraph {
    pesto::graph::from_json(&pesto::graph::to_json(graph)).expect("graph JSON round-trips")
}

/// Transformer-10-8-1024 at the paper's batch, generation seed 1, with the
/// `pesto place` defaults except that `--seed` is the pipeline seed
/// (profiling noise and the search streams). The graph stays fixed: with
/// other generation seeds the shipped plan loses to mSCT on some seeds and
/// not others, and a loss that depends on the seed cannot be counted
/// steadily.
pub fn mono_transformer(args: &RunArgs) -> Report {
    let spec = ModelSpec::transformer(10, 8, 1024);
    let (graph, setup) = timed_setup(25, || {
        let t0 = Instant::now();
        let g = spec.generate(spec.paper_batch(), 1);
        let t1 = Instant::now();
        let g = json_round_trip(&g);
        (g, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
    });
    let problems = vec![Problem {
        label: format!("{spec} pipeline seed {}", args.seed),
        graph,
        config: PestoConfig {
            seed: args.seed,
            ..PestoConfig::default()
        },
    }];
    run_library(args, problems, &setup)
}

/// B&B node cap for `exact-tiny`: the MILP's 60 s clock never binds, so
/// every solve ends on a proof or on this count.
const EXACT_NODE_LIMIT: usize = 30;
/// `(ops, generator seed)` of the instances that are the same for every
/// run seed. They carry most of the B&B work, whose cost varies a
/// hundredfold between instances, so the pass time does not follow the
/// run seed. With the 6 jittered instances (each 7–25 ms) they make 15 per
/// pass. The median placement then falls between the 7th- and 8th-fastest,
/// in a group of three of 90–115 ms, and the 90th percentile inside the
/// pair of 280–360 ms (6 ops, seeds 4 and 13) below the slowest (~400
/// ms). The 8-op instance, whose deeper B&B nodes push the LP kernels onto
/// a second thread, swings between 150 and 450 ms with the second core's
/// availability; while it stays below the slowest, the pair keeps it from
/// moving the 90th percentile far.
/// The 8-op instance is not brute-forced.
const EXACT_FIXED: [(usize, u64); 9] = [
    (5, 10),
    (6, 1),
    (6, 2),
    (6, 3),
    (6, 4),
    (6, 5),
    (6, 7),
    (6, 13),
    (8, 1),
];
/// Generator seeds of the 4-op instances whose op times `--seed` jitters
/// by ±10%, as the model generators' seeds do.
const EXACT_JITTERED: [u64; 6] = [101, 102, 103, 104, 105, 106];

/// Seeded random DAGs of GPU ops on 2 GPUs, small enough that
/// `Pesto::place` takes the exact ILP path.
pub fn exact_tiny(args: &RunArgs) -> Report {
    let specs: Vec<(usize, u64, Option<u64>)> = EXACT_FIXED
        .into_iter()
        .map(|(n, s)| (n, s, None))
        .chain(EXACT_JITTERED.into_iter().map(|s| (4, s, Some(args.seed))))
        .collect();
    // Set-up takes well under a millisecond here, so it is repeated for
    // about a second in all: a short stall of the host then moves few of
    // the samples the median is taken over.
    let (graphs, setup) = timed_setup(2001, || {
        let t0 = Instant::now();
        let gs: Vec<FrozenGraph> = specs
            .iter()
            .map(|&(n, s, jitter)| random_dag(n, s, jitter))
            .collect();
        let t1 = Instant::now();
        let gs: Vec<FrozenGraph> = gs.iter().map(json_round_trip).collect();
        (gs, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
    });
    let mut config = PestoConfig::default();
    config.placer.ilp.milp.node_limit = EXACT_NODE_LIMIT;
    let problems = graphs
        .into_iter()
        .map(|graph| Problem {
            label: graph.name().to_string(),
            graph,
            config: config.clone(),
        })
        .collect();
    run_library(args, problems, &setup)
}

/// A random DAG of `n` GPU ops: compute 50–1000 us, 1–4 MB each, and each
/// forward pair joined with probability 0.35 by a 0.1–8 MB tensor. With
/// `jitter`, every compute time is then scaled by a factor in [0.9, 1.1)
/// drawn from that seed.
pub fn random_dag(n: usize, seed: u64, jitter: Option<u64>) -> FrozenGraph {
    let mut rng = SplitMix(seed);
    let mut scale = jitter.map(SplitMix);
    let name = match jitter {
        Some(j) => format!("dag{n}-{seed}-jitter{j}"),
        None => format!("dag{n}-{seed}"),
    };
    let mut g = OpGraph::new(name);
    let ids: Vec<OpId> = (0..n)
        .map(|i| {
            let factor = scale.as_mut().map_or(1.0, |r| 0.9 + 0.2 * r.unit());
            let compute = (50.0 + 950.0 * rng.unit()) * factor;
            let mem = (1.0 + 3.0 * rng.unit()) * (1 << 20) as f64;
            g.add_op(format!("op{i}"), DeviceKind::Gpu, compute, mem as u64)
        })
        .collect();
    for j in 1..n {
        for i in 0..j {
            if rng.unit() < 0.35 {
                let bytes = (0.1 + 7.9 * rng.unit()) * 1e6;
                g.add_edge(ids[i], ids[j], bytes as u64)
                    .expect("forward edge");
            }
        }
    }
    g.freeze().expect("forward edges make a DAG")
}

/// splitmix64: small, seedable, and independent of the program's RNGs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The graph a pipeline plans with: its profiled estimate, computed the way
/// `Pesto::place` profiles.
pub fn planning_graph(graph: &FrozenGraph, config: &PestoConfig) -> FrozenGraph {
    match config.profiler_iterations {
        Some(iters) => Profiler::new(iters.max(2), config.seed)
            .profile(graph)
            .apply_to(graph.clone()),
        None => graph.clone(),
    }
}

fn expect(problem: &Problem, cluster: &Cluster, comm: CommModel) -> Expect {
    let planning = planning_graph(&problem.graph, &problem.config);
    let best_baseline = checks::best_baseline(
        &problem.graph,
        &planning,
        cluster,
        comm,
        problem.config.seed,
    );
    let exact = (problem.graph.op_count() <= 6).then(|| {
        let ilp = &problem.config.placer.ilp;
        let slack = match ilp.memory {
            MemoryRule::Balance { slack } => slack,
            _ => 0.5,
        };
        let optimum = checks::brute_force_optimum(&problem.graph, cluster, comm, slack);
        let model =
            IlpModel::build(&problem.graph, cluster, &comm, ilp).expect("2-GPU model builds");
        let cmax = model
            .solve(&ilp.milp)
            .ok()
            .and_then(|o| o.proven_optimal.then_some(o.cmax_us));
        (optimum, cmax)
    });
    Expect {
        best_baseline,
        exact,
    }
}

/// Checks one placement and returns the step time the benchmark itself
/// simulates for the shipped plan.
fn check(
    problem: &Problem,
    expect: &Expect,
    cluster: &Cluster,
    comm: CommModel,
    outcome: &Result<pesto::PestoOutcome, pesto::PestoError>,
) -> Result<f64, Fault> {
    let out = outcome
        .as_ref()
        .map_err(|e| Fault::NotCompleted(e.to_string()))?;
    if let Some(reason) = &out.degradation {
        return Err(Fault::NotCompleted(format!("degraded: {reason}")));
    }
    let exact =
        cluster.gpu_count() == 2 && problem.graph.op_count() <= problem.config.placer.exact_max_ops;
    if exact && out.path != SolvePath::Exact {
        // The placer falls back to the hybrid plan when the model fails
        // to build or solve; that would read as a faster exact path.
        return Err(Fault::NotCompleted(format!(
            "took the {:?} path, not the exact one",
            out.path
        )));
    }
    if exact && out.placement_time >= problem.config.placer.ilp.milp.time_limit {
        return Err(Fault::NotCompleted(format!(
            "placement took {:.1} s, so the MILP may have stopped on its clock",
            out.placement_time.as_secs_f64()
        )));
    }
    checks::check_plan(&problem.graph, cluster, &out.plan)?;
    let step_us = Simulator::new(&problem.graph, cluster, comm)
        .with_seed(problem.config.seed)
        .run(&out.plan)
        .map_err(|e| Fault::InvalidPlan(format!("shipped plan does not simulate: {e}")))?
        .makespan_us;
    if step_us != out.makespan_us {
        return Err(Fault::InvalidPlan(format!(
            "reports a {:.3} us step, simulates to {step_us:.3} us",
            out.makespan_us
        )));
    }
    checks::check_lower_bounds(&problem.graph, cluster, step_us)?;
    if let Some((optimum, cmax)) = expect.exact {
        checks::check_exact_optimum(step_us, cmax, optimum)?;
    }
    checks::check_never_worse(step_us, expect.best_baseline)?;
    Ok(step_us)
}

/// Per-pass measurements of the loop.
#[derive(Default)]
struct Loop {
    pass_wall: Vec<f64>,
    pass_cpu: Vec<f64>,
    latencies: Vec<f64>,
    completed: usize,
    step_us: BTreeMap<usize, f64>,
}

/// Whole passes over `problems` until `seconds` have gone by.
fn measure(
    problems: &[Problem],
    expects: &[Expect],
    cluster: &Cluster,
    comm: CommModel,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Loop {
    let start = Instant::now();
    let mut m = Loop::default();
    while m.pass_wall.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        let mut wall = 0.0;
        let mut cpu = 0.0;
        let _pass = tracer.span("bench.pass");
        for (i, p) in problems.iter().enumerate() {
            let c0 = cpu_seconds();
            let t0 = Instant::now();
            let outcome = {
                let _s = tracer.span("pesto.place");
                Pesto::new(p.config.clone()).place(&p.graph, cluster)
            };
            let dt = t0.elapsed().as_secs_f64();
            cpu += cpu_seconds() - c0;
            wall += dt;
            m.latencies.push(dt);
            m.completed += usize::from(outcome.is_ok());
            let checked = check(p, &expects[i], cluster, comm, &outcome);
            if let Ok(step_us) = checked {
                m.step_us.entry(i).or_insert(step_us);
            }
            report.record(&p.label, checked.map(|_| ()));
        }
        m.pass_wall.push(wall);
        m.pass_cpu.push(cpu);
    }
    m
}

fn run_library(args: &RunArgs, problems: Vec<Problem>, setup: &Setup) -> Report {
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();
    let expects: Vec<Expect> = problems.iter().map(|p| expect(p, &cluster, comm)).collect();
    let mut report = Report::default();
    if !args.trace {
        let m = measure(
            &problems,
            &expects,
            &cluster,
            comm,
            args.seconds,
            &Tracer::new(false),
            &mut report,
        );
        for (i, p) in problems.iter().enumerate() {
            let own: Vec<f64> = m
                .latencies
                .iter()
                .skip(i)
                .step_by(problems.len())
                .copied()
                .collect();
            eprintln!(
                "  latency {}: median {:.1} ms over {}",
                p.label,
                median(&own) * 1e3,
                own.len()
            );
        }
        let steps: Vec<f64> = m.step_us.values().copied().collect();
        let placed: f64 = m.pass_wall.iter().sum();
        report.metric("place_s", median(&m.pass_wall), "s");
        report.metric("place_cpu_s", median(&m.pass_cpu), "s");
        report.metric("step_ms", geomean(&steps) / 1e3, "ms");
        report.metric("setup_s", setup.setup_s, "s");
        report.metric("goodput_jps", m.completed as f64 / placed, "jobs/s");
        report.metric("job_p50_ms", percentile(&m.latencies, 0.5) * 1e3, "ms");
        report.metric("job_p90_ms", percentile(&m.latencies, 0.9) * 1e3, "ms");
        return report;
    }
    // Traced run: half the time untraced, half traced, for the overhead;
    // then one probe of each layer on the workload's own graphs.
    let tracer = Tracer::new(true);
    let plain = measure(
        &problems,
        &expects,
        &cluster,
        comm,
        args.seconds / 2.0,
        &Tracer::new(false),
        &mut report,
    );
    let traced = measure(
        &problems,
        &expects,
        &cluster,
        comm,
        args.seconds / 2.0,
        &tracer,
        &mut report,
    );
    let mut layers = probe::Layers::default();
    layers.set("models.generate_ms", setup.generate_ms);
    layers.set("graph.json_roundtrip_ms", setup.json_ms);
    probe::pipeline(&tracer, &problems, &cluster, comm, &mut layers);
    if problems
        .iter()
        .any(|p| p.graph.op_count() <= p.config.placer.exact_max_ops)
    {
        probe::exact(&tracer, &problems, &cluster, comm, &mut layers);
    }
    let overhead = median(&traced.pass_wall) / median(&plain.pass_wall) - 1.0;
    layers.set("trace.overhead_pct", overhead * 100.0);
    layers.finish(&tracer, args, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto::DegradationReason;

    #[test]
    fn check_rejects_misreported_fallen_back_and_degraded_outcomes() {
        let mut config = PestoConfig::default();
        config.placer.ilp.milp.node_limit = EXACT_NODE_LIMIT;
        let problem = Problem {
            label: "dag5".into(),
            graph: random_dag(5, 10, None),
            config,
        };
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let expect = expect(&problem, &cluster, comm);
        let out = Pesto::new(problem.config.clone())
            .place(&problem.graph, &cluster)
            .expect("places");
        let verdict = |out: &pesto::PestoOutcome| {
            check(&problem, &expect, &cluster, comm, &Ok(out.clone())).map_err(|f| f.tag())
        };
        assert_eq!(verdict(&out), Ok(out.makespan_us));

        let mut misreported = out.clone();
        misreported.makespan_us *= 0.9;
        assert_eq!(verdict(&misreported), Err("invalid_plan"));

        let mut fallen_back = out.clone();
        fallen_back.path = SolvePath::Hybrid;
        assert_eq!(verdict(&fallen_back), Err("not_completed"));

        let mut degraded = out.clone();
        degraded.degradation = Some(DegradationReason::DeadlineDuringSearch);
        assert_eq!(verdict(&degraded), Err("not_completed"));

        let mut on_the_clock = out;
        on_the_clock.placement_time = problem.config.placer.ilp.milp.time_limit;
        assert_eq!(verdict(&on_the_clock), Err("not_completed"));
    }
}
