//! Per-layer probes for traced runs: one call into each layer's public
//! entry point, on the workload's own graphs, under a span named after the
//! layer. The pipeline's own stages (profile, coarsen, the anneal, refine,
//! schedule, the final simulation) are read from the `stage_timings` of one
//! `Pesto::place` call, so they time the search the pipeline really runs.

use crate::library::{planning_graph, Problem};
use crate::stats::{cpu_seconds, median};
use crate::trace::Tracer;
use crate::{scratch_dir, Report, RunArgs};
use pesto::coarsen::{coarsen_with_stats, CoarsenConfig};
use pesto::cost::CommModel;
use pesto::graph::{Cluster, LinkType, Placement};
use pesto::ilp::{etf_schedule, IlpModel, SolvePath};
use pesto::sim::Simulator;
use pesto::Pesto;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric and its unit, in print order. A layer that does
/// no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.generate_ms", "ms"),
    ("graph.json_roundtrip_ms", "ms"),
    ("cost.profile_ms", "ms"),
    ("coarsen.ms", "ms"),
    ("coarsen.ops_after", "count"),
    ("baselines.seeds_ms", "ms"),
    ("ilp.anneal_ms", "ms"),
    ("ilp.anneal_cpu_s", "s"),
    ("ilp.etf_coarse_us", "us"),
    ("ilp.etf_fine_us", "us"),
    ("sim.eval_coarse_us", "us"),
    ("sim.eval_fine_us", "us"),
    ("sim.final_ms", "ms"),
    ("pipeline.refine_ms", "ms"),
    ("pipeline.schedule_ms", "ms"),
    ("pipeline.simulate_ms", "ms"),
    ("ilp.build_ms", "ms"),
    ("milp.solve_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.ms_per_node", "ms"),
    ("milp.proven", "count"),
    ("lp.root_ms", "ms"),
    ("lp.root_cpu_ms", "ms"),
    ("shard.partition_ms", "ms"),
    ("shard.solve_ms", "ms"),
    ("shard.stitch_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejections", "count"),
    ("serve.profile_cache_hits", "count"),
    ("serve.storage_kb", "kB"),
    ("serve.metrics_scrape_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Repeats of each micro-timed call (ETF, simulator run, root LP).
const MICRO_REPS: usize = 5;

/// Per-layer values collected by a traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values.insert(key, value);
    }

    /// Writes the trace files and moves every per-layer metric into
    /// `report`.
    pub fn finish(self, tracer: &Tracer, args: &RunArgs, report: &mut Report) {
        let dir = scratch_dir()
            .parent()
            .expect("scratch under .bench_run")
            .join("traces");
        let stem = format!("{}-{}", args.workload, args.seed);
        match tracer.write(&dir, &stem) {
            Ok(table) => eprintln!("per-layer spans ({}):\n{table}", dir.join(&stem).display()),
            Err(e) => eprintln!("cannot write the trace: {e}"),
        }
        for (name, unit) in PER_LAYER {
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Median wall time of `MICRO_REPS` calls, in seconds.
fn micro<T>(tracer: &Tracer, span: &str, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    for _ in 0..MICRO_REPS {
        let _s = tracer.span(span);
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// One `Pesto::place` per problem, whose `stage_timings` give profile,
/// coarsen, solve (the anneal) and the tail stages, then one call each of
/// the seeds and of ETF and the simulator on the coarse and fine graphs;
/// the median over problems is reported.
pub fn pipeline(
    tracer: &Tracer,
    problems: &[Problem],
    cluster: &Cluster,
    comm: CommModel,
    layers: &mut Layers,
) {
    let mut rows: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in problems {
        let mut row = |name: &'static str, v: f64| rows.entry(name).or_default().push(v);
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let outcome = {
            let _s = tracer.span("pesto.place");
            Pesto::new(p.config.clone())
                .place(&p.graph, cluster)
                .expect("place")
        };
        let (place_cpu, place_wall) = (cpu_seconds() - c0, t0.elapsed().as_secs_f64());
        // On the exact path the solve stage holds the ILP as well, so the
        // anneal is read from hybrid-path placements only.
        let hybrid = outcome.path == SolvePath::Hybrid;
        for st in &outcome.stage_timings {
            let ms = st.wall_us / 1e3;
            match st.stage {
                "profile" => row("cost.profile_ms", ms),
                "coarsen" => row("coarsen.ms", ms),
                "solve" if hybrid => {
                    row("ilp.anneal_ms", ms);
                    // Only the anneal's chains leave the calling thread, so
                    // the rest of the call costs about its wall time in CPU.
                    row("ilp.anneal_cpu_s", place_cpu - (place_wall - ms / 1e3));
                }
                "refine" => row("pipeline.refine_ms", ms),
                "schedule" => row("pipeline.schedule_ms", ms),
                "simulate" => row("pipeline.simulate_ms", ms),
                _ => {}
            }
        }
        row("coarsen.ops_after", outcome.coarse_op_count as f64);

        // The graphs for the micro-timings: the profiled estimate the
        // pipeline plans with, and a coarsening of it to the pipeline's
        // target (at least ~4x, at most the configured target, edges
        // inflated by the fixed transfer latency).
        let estimated = {
            let _s = tracer.span("pesto-cost.profile");
            planning_graph(&p.graph, &p.config)
        };
        let gg = comm.fit(LinkType::GpuToGpu);
        let target = p
            .config
            .coarsen_target
            .min((estimated.op_count() / 4).max(200));
        let config = CoarsenConfig {
            parallel_edge_penalty_bytes: if gg.beta1 > 0.0 {
                (gg.beta0 / gg.beta1) as u64
            } else {
                0
            },
            ..CoarsenConfig::to_target(target)
        };
        let (coarsening, _) = {
            let _s = tracer.span("pesto-coarsen.coarsen");
            coarsen_with_stats(&estimated, &config)
        };
        let coarse = coarsening.coarse();

        let t0 = Instant::now();
        {
            let _s = tracer.span("pesto-baselines.seeds");
            std::hint::black_box(pesto::baselines::m_sct(&estimated, cluster, &comm));
            std::hint::black_box(pesto::baselines::m_sct(coarse, cluster, &comm));
            std::hint::black_box(pesto::baselines::m_etf(coarse, cluster, &comm));
        }
        row("baselines.seeds_ms", t0.elapsed().as_secs_f64() * 1e3);

        // The shipped placement, and its projection onto the coarse graph
        // (each vertex on the device of its first member).
        let fine_placement = outcome.plan.placement.clone();
        let mut coarse_placement = Placement::affinity_default(coarse, cluster);
        for cv in coarse.op_ids() {
            coarse_placement.set_device(cv, fine_placement.device(coarsening.members(cv)[0]));
        }
        let coarse_sim = Simulator::new(coarse, cluster, comm).with_memory_check(false);
        let coarse_plan = etf_schedule(
            coarse,
            cluster,
            &comm,
            coarse_placement.clone(),
            &coarse_sim,
        )
        .expect("etf")
        .plan;
        row(
            "ilp.etf_coarse_us",
            1e6 * micro(tracer, "pesto-ilp.etf_schedule", || {
                etf_schedule(
                    coarse,
                    cluster,
                    &comm,
                    coarse_placement.clone(),
                    &coarse_sim,
                )
                .expect("etf")
            }),
        );
        row(
            "sim.eval_coarse_us",
            1e6 * micro(tracer, "pesto-sim.run", || {
                coarse_sim.run(&coarse_plan).expect("sim")
            }),
        );
        let fine_sim = Simulator::new(&estimated, cluster, comm).with_memory_check(false);
        let fine = etf_schedule(
            &estimated,
            cluster,
            &comm,
            fine_placement.clone(),
            &fine_sim,
        )
        .expect("etf");
        row(
            "ilp.etf_fine_us",
            1e6 * micro(tracer, "pesto-ilp.etf_schedule", || {
                etf_schedule(
                    &estimated,
                    cluster,
                    &comm,
                    fine_placement.clone(),
                    &fine_sim,
                )
                .expect("etf")
            }),
        );
        row(
            "sim.eval_fine_us",
            1e6 * micro(tracer, "pesto-sim.run", || {
                fine_sim.run(&fine.plan).expect("sim")
            }),
        );
        let truth_sim = Simulator::new(&p.graph, cluster, comm).with_seed(p.config.seed);
        row(
            "sim.final_ms",
            1e3 * micro(tracer, "pesto-sim.run", || {
                truth_sim.run(&outcome.plan).expect("sim")
            }),
        );
    }
    for (name, values) in rows {
        layers.set(name, median(&values));
    }
}

/// The exact path's layers on every problem: the ILP build, the B&B solve
/// under the workload's node cap, and the root LP relaxation.
pub fn exact(
    tracer: &Tracer,
    problems: &[Problem],
    cluster: &Cluster,
    comm: CommModel,
    layers: &mut Layers,
) {
    let mut build = Vec::new();
    let mut solve = Vec::new();
    let mut root = Vec::new();
    let mut root_cpu = Vec::new();
    let (mut nodes, mut proven) = (0usize, 0usize);
    for p in problems {
        let estimated = planning_graph(&p.graph, &p.config);
        let ilp = &p.config.placer.ilp;
        let t0 = Instant::now();
        let model = {
            let _s = tracer.span("pesto-ilp.ilp_build");
            IlpModel::build(&estimated, cluster, &comm, ilp).expect("2-GPU model builds")
        };
        build.push(t0.elapsed().as_secs_f64() * 1e3);
        let lp = model.milp().lp();
        eprintln!(
            "{}: ILP of {} vars x {} rows",
            p.label,
            lp.var_count(),
            lp.constraint_count()
        );
        let c0 = cpu_seconds();
        root.push(1e3 * micro(tracer, "pesto-lp.root_solve", || model.milp().lp().solve()));
        root_cpu.push((cpu_seconds() - c0) * 1e3 / MICRO_REPS as f64);
        let t0 = Instant::now();
        let outcome = {
            let _s = tracer.span("pesto-milp.solve");
            model.solve(&ilp.milp)
        };
        solve.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Ok(o) = outcome {
            nodes += o.nodes_explored;
            proven += usize::from(o.proven_optimal);
        }
    }
    layers.set("ilp.build_ms", median(&build));
    layers.set("milp.solve_ms", median(&solve));
    layers.set("milp.nodes", nodes as f64);
    layers.set(
        "milp.ms_per_node",
        solve.iter().sum::<f64>() / nodes.max(1) as f64,
    );
    layers.set("milp.proven", proven as f64);
    layers.set("lp.root_ms", median(&root));
    layers.set("lp.root_cpu_ms", median(&root_cpu));
}

/// `Sharder::place` on `graph` with the pipeline's region settings.
pub fn shard(
    tracer: &Tracer,
    graph: &pesto::graph::FrozenGraph,
    region_cap: usize,
    seed: u64,
    cluster: &Cluster,
    comm: CommModel,
    layers: &mut Layers,
) {
    let sharder = pesto::shard::Sharder::new(
        comm,
        pesto::shard::ShardConfig {
            region_cap,
            ..Default::default()
        },
    );
    let run = pesto::shard::ShardRun {
        seed,
        ..Default::default()
    };
    let outcome = {
        let _s = tracer.span("pesto-shard.place");
        sharder.place(graph, cluster, &run).expect("shard")
    };
    layers.set("shard.partition_ms", outcome.report.partition_ms);
    layers.set("shard.solve_ms", outcome.report.solve_ms);
    layers.set("shard.stitch_ms", outcome.report.stitch_ms);
}
