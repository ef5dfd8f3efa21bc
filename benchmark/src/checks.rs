//! Independent output checkers. Each recomputes what it needs from the
//! graph itself (op kinds, sizes, times, edges) instead of trusting the
//! program's own validators, so a bug shared by the program's validator and
//! its planner still shows here.

use pesto::cost::CommModel;
use pesto::graph::{Cluster, DeviceId, DeviceKind, FrozenGraph, OpId, Placement, Plan};
use pesto::sim::Simulator;

/// Relative tolerance for comparing simulated times.
const REL_EPS: f64 = 1e-9;

/// Why a shipped plan failed a check; the tag is what runs report.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A job did not reach `completed`.
    NotCompleted(String),
    /// The plan breaks a hard rule of the problem.
    InvalidPlan(String),
    /// The step time is below a bound no schedule can beat.
    BelowLowerBound(String),
    /// The step time is slower than a constructive baseline.
    SlowerThanBaseline(String),
}

impl Fault {
    /// The failure bucket this fault is counted in.
    pub fn tag(&self) -> &'static str {
        match self {
            Fault::NotCompleted(_) => "not_completed",
            Fault::InvalidPlan(_) => "invalid_plan",
            Fault::BelowLowerBound(_) => "below_lower_bound",
            Fault::SlowerThanBaseline(_) => "slower_than_baseline",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            Fault::NotCompleted(s)
            | Fault::InvalidPlan(s)
            | Fault::BelowLowerBound(s)
            | Fault::SlowerThanBaseline(s) => s,
        }
    }
}

fn worse(a: f64, b: f64) -> bool {
    a > b * (1.0 + REL_EPS) + 1e-9
}

/// Plan validity: every op sits on a device of its kind, per-device memory
/// recomputed from op sizes fits the device, and an explicit per-device
/// order lists each op once on its own device and, together with the
/// graph's edges, admits an execution (no op waits on one ordered after it).
pub fn check_plan(graph: &FrozenGraph, cluster: &Cluster, plan: &Plan) -> Result<(), Fault> {
    check_placement(graph, cluster, plan.placement.as_slice())?;
    let Some(order) = &plan.order else {
        return Ok(());
    };
    let n = graph.op_count();
    if order.device_count() != cluster.device_count() {
        return Err(Fault::InvalidPlan(format!(
            "order covers {} devices, cluster has {}",
            order.device_count(),
            cluster.device_count()
        )));
    }
    // Successor lists: graph edges plus "next on the same device".
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut seen = vec![false; n];
    for (u, v, _) in graph.edges() {
        succ[u.index()].push(v.index());
    }
    for d in 0..cluster.device_count() {
        let ops = order.on_device(DeviceId::from_index(d));
        for (k, &op) in ops.iter().enumerate() {
            let i = op.index();
            if i >= n || seen[i] {
                return Err(Fault::InvalidPlan(format!(
                    "op {i} ordered twice or unknown"
                )));
            }
            seen[i] = true;
            if plan.placement.device(op).index() != d {
                return Err(Fault::InvalidPlan(format!(
                    "op {i} ordered on device {d} but placed on {}",
                    plan.placement.device(op).index()
                )));
            }
            if let Some(next) = ops.get(k + 1) {
                succ[i].push(next.index());
            }
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(Fault::InvalidPlan(format!(
            "op {missing} missing from the order"
        )));
    }
    // Kahn's algorithm: a cycle means some op is ordered before an op it
    // (transitively) depends on, and the plan would deadlock.
    let mut indeg = vec![0usize; n];
    for s in &succ {
        for &v in s {
            indeg[v] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0;
    while let Some(u) = ready.pop() {
        done += 1;
        for &v in &succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    if done < n {
        return Err(Fault::InvalidPlan(format!(
            "order contradicts the graph's edges ({} ops deadlocked)",
            n - done
        )));
    }
    Ok(())
}

/// The placement half of [`check_plan`], for outputs that carry no order
/// (the service's terminal record).
pub fn check_placement(
    graph: &FrozenGraph,
    cluster: &Cluster,
    device_of: &[DeviceId],
) -> Result<(), Fault> {
    if device_of.len() != graph.op_count() {
        return Err(Fault::InvalidPlan(format!(
            "placement has {} entries for {} ops",
            device_of.len(),
            graph.op_count()
        )));
    }
    let mut used = vec![0u128; cluster.device_count()];
    for (i, &d) in device_of.iter().enumerate() {
        let Some(device) = cluster.devices().get(d.index()) else {
            return Err(Fault::InvalidPlan(format!(
                "op {i} on unknown device {}",
                d.index()
            )));
        };
        let op = graph.op(OpId::from_index(i));
        let wants_gpu = op.kind() == DeviceKind::Gpu;
        if wants_gpu != device.is_gpu() {
            return Err(Fault::InvalidPlan(format!(
                "op {i} ({:?}) on device {} of the wrong kind",
                op.kind(),
                d.index()
            )));
        }
        used[d.index()] += u128::from(op.memory_bytes());
    }
    for (d, &bytes) in used.iter().enumerate() {
        let cap = u128::from(cluster.devices()[d].memory_bytes());
        if bytes > cap {
            return Err(Fault::InvalidPlan(format!(
                "device {d} holds {bytes} bytes, capacity {cap}"
            )));
        }
    }
    Ok(())
}

/// Longest path through the graph counting compute time only.
pub fn critical_path_us(graph: &FrozenGraph) -> f64 {
    let n = graph.op_count();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, v, _) in graph.edges() {
        preds[v.index()].push(u.index());
    }
    // Edges run forward in some order; relax until stable in topological
    // order computed here, not taken from the graph.
    let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, v, _) in graph.edges() {
        succ[u.index()].push(v.index());
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut finish = vec![0.0f64; n];
    while let Some(u) = ready.pop() {
        let start = preds[u].iter().map(|&p| finish[p]).fold(0.0, f64::max);
        finish[u] = start + graph.op(OpId::from_index(u)).compute_us();
        for &v in &succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    finish.into_iter().fold(0.0, f64::max)
}

/// Step-time lower bounds: no schedule beats the critical path's compute
/// or the GPU compute spread evenly over the GPUs.
pub fn check_lower_bounds(
    graph: &FrozenGraph,
    cluster: &Cluster,
    step_us: f64,
) -> Result<(), Fault> {
    let cp = critical_path_us(graph);
    let gpu_work: f64 = graph
        .op_ids()
        .filter(|&id| graph.op(id).kind() == DeviceKind::Gpu)
        .map(|id| graph.op(id).compute_us())
        .sum();
    let work = gpu_work / cluster.gpu_count().max(1) as f64;
    for (name, bound) in [("critical path", cp), ("GPU work / GPUs", work)] {
        if worse(bound, step_us) {
            return Err(Fault::BelowLowerBound(format!(
                "step {step_us:.3} us below the {name} bound {bound:.3} us"
            )));
        }
    }
    Ok(())
}

/// The fastest constructive baseline that fits in memory: mSCT, mETF,
/// mTOPO and Expert planned on `planning` (the times the pipeline planned
/// with) and simulated on `truth` under `seed`, exactly as the shipped plan
/// was. `None` when no baseline fits.
pub fn best_baseline(
    truth: &FrozenGraph,
    planning: &FrozenGraph,
    cluster: &Cluster,
    comm: CommModel,
    seed: u64,
) -> Option<(&'static str, f64)> {
    use pesto::baselines::{expert, m_etf, m_sct, m_topo};
    let baselines = [
        ("mSCT", m_sct(planning, cluster, &comm)),
        ("mETF", m_etf(planning, cluster, &comm)),
        ("mTOPO", m_topo(planning, cluster)),
        ("Expert", expert(planning, cluster)),
    ];
    let mut best: Option<(&'static str, f64)> = None;
    for (name, plan) in baselines {
        if check_placement(truth, cluster, plan.placement.as_slice()).is_err() {
            continue;
        }
        let Ok(report) = Simulator::new(truth, cluster, comm)
            .with_seed(seed)
            .run(&plan)
        else {
            continue;
        };
        if best.is_none_or(|(_, b)| report.makespan_us < b) {
            best = Some((name, report.makespan_us));
        }
    }
    best
}

/// Never-worse: the shipped step may not be slower than the best
/// baseline (see [`best_baseline`]).
pub fn check_never_worse(step_us: f64, best: Option<(&'static str, f64)>) -> Result<(), Fault> {
    match best {
        Some((name, b)) if worse(step_us, b) => Err(Fault::SlowerThanBaseline(format!(
            "ships {:.3} ms, {name} {:.3} ms",
            step_us / 1e3,
            b / 1e3
        ))),
        _ => Ok(()),
    }
}

/// Exhaustive optimum of a small all-GPU instance: every placement of the
/// ops on the GPUs times every per-device order consistent with the
/// edges, each simulated. Returns `(best over all placements, best over
/// placements whose GPU memory shares lie within 0.5 ± slack)`; the
/// second is the optimum of the ILP's own feasible set (its memory-balance
/// constraint), which a proven-optimal `cmax_us` may not exceed.
pub fn brute_force_optimum(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: CommModel,
    balance_slack: f64,
) -> (f64, f64) {
    let n = graph.op_count();
    assert!(
        n <= 6
            && graph
                .op_ids()
                .all(|id| graph.op(id).kind() == DeviceKind::Gpu),
        "brute force takes small all-GPU graphs"
    );
    let gpus = cluster.gpus();
    let sim = Simulator::new(graph, cluster, comm).with_memory_check(false);
    let total_mem: f64 = graph
        .op_ids()
        .map(|id| graph.op(id).memory_bytes() as f64)
        .sum();
    let mut best = f64::INFINITY;
    let mut best_balanced = f64::INFINITY;
    let combos = gpus.len().pow(n as u32);
    for code in 0..combos {
        let mut c = code;
        let device_of: Vec<DeviceId> = (0..n)
            .map(|_| {
                let d = gpus[c % gpus.len()];
                c /= gpus.len();
                d
            })
            .collect();
        let mem1: f64 = (0..n)
            .filter(|&i| device_of[i] == gpus[1])
            .map(|i| graph.op(OpId::from_index(i)).memory_bytes() as f64)
            .sum();
        let balanced = total_mem <= 0.0
            || ((0.5 - balance_slack) * total_mem - 1e-6
                ..=(0.5 + balance_slack) * total_mem + 1e-6)
                .contains(&mem1);
        let placement = Placement::from_vec(device_of.clone());
        let per_gpu: Vec<Vec<OpId>> = gpus
            .iter()
            .map(|&g| {
                graph
                    .op_ids()
                    .filter(|&id| device_of[id.index()] == g)
                    .collect()
            })
            .collect();
        let orders: Vec<Vec<Vec<OpId>>> = per_gpu
            .iter()
            .map(|ops| linear_extensions(graph, ops))
            .collect();
        let mut idx = vec![0usize; orders.len()];
        loop {
            let mut per_device = vec![Vec::new(); cluster.device_count()];
            for (k, &g) in gpus.iter().enumerate() {
                per_device[g.index()] = orders[k][idx[k]].clone();
            }
            let plan = Plan::with_order(
                placement.clone(),
                pesto::graph::ScheduleOrder::from_vecs(per_device),
            );
            if let Ok(report) = sim.run(&plan) {
                best = best.min(report.makespan_us);
                if balanced {
                    best_balanced = best_balanced.min(report.makespan_us);
                }
            }
            // Odometer over the per-GPU order choices.
            let mut k = 0;
            while k < idx.len() {
                idx[k] += 1;
                if idx[k] < orders[k].len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == idx.len() {
                break;
            }
        }
    }
    (best, best_balanced)
}

/// Every ordering of `ops` in which no op precedes one it depends on.
fn linear_extensions(graph: &FrozenGraph, ops: &[OpId]) -> Vec<Vec<OpId>> {
    fn rec(
        graph: &FrozenGraph,
        left: &mut Vec<OpId>,
        prefix: &mut Vec<OpId>,
        out: &mut Vec<Vec<OpId>>,
    ) {
        if left.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for k in 0..left.len() {
            let op = left[k];
            if left.iter().any(|&o| o != op && graph.reachable(o, op)) {
                continue;
            }
            left.remove(k);
            prefix.push(op);
            rec(graph, left, prefix, out);
            prefix.pop();
            left.insert(k, op);
        }
    }
    let mut out = Vec::new();
    rec(graph, &mut ops.to_vec(), &mut Vec::new(), &mut out);
    out
}

/// Theorem 3.1 and the brute-force optimum on one exact instance: the
/// shipped step may not beat the exhaustive optimum, and a proven-optimal
/// model makespan may not exceed the optimum of the model's feasible set.
pub fn check_exact_optimum(
    step_us: f64,
    proven_cmax_us: Option<f64>,
    optimum: (f64, f64),
) -> Result<(), Fault> {
    let (best, best_balanced) = optimum;
    if worse(best, step_us) {
        return Err(Fault::BelowLowerBound(format!(
            "step {step_us:.3} us beats the exhaustive optimum {best:.3} us"
        )));
    }
    if let Some(cmax) = proven_cmax_us {
        if worse(cmax, best_balanced) {
            return Err(Fault::InvalidPlan(format!(
                "proven-optimal C_max {cmax:.3} us exceeds the exhaustive optimum {best_balanced:.3} us of its feasible set"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto::graph::{OpGraph, ScheduleOrder};

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    /// a -> b -> c chain plus an independent d, all on GPUs; known answers:
    /// critical path 100 + 200 + 300 = 600 us, GPU work 1000 / 2 = 500 us.
    fn chain() -> FrozenGraph {
        let mut g = OpGraph::new("chain");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 10);
        let b = g.add_op("b", DeviceKind::Gpu, 200.0, 10);
        let c = g.add_op("c", DeviceKind::Gpu, 300.0, 10);
        let _d = g.add_op("d", DeviceKind::Gpu, 400.0, 10);
        g.add_edge(a, b, 1 << 20).unwrap();
        g.add_edge(b, c, 1 << 20).unwrap();
        g.freeze().unwrap()
    }

    fn on(placement: &[usize], cluster: &Cluster) -> Placement {
        Placement::from_vec(placement.iter().map(|&i| cluster.gpu(i)).collect())
    }

    #[test]
    fn lower_bounds_on_a_known_graph() {
        let g = chain();
        let cluster = Cluster::two_gpus();
        assert_eq!(critical_path_us(&g), 600.0);
        assert!(check_lower_bounds(&g, &cluster, 600.0).is_ok());
        let err = check_lower_bounds(&g, &cluster, 599.0).unwrap_err();
        assert_eq!(err.tag(), "below_lower_bound");
        // The work bound binds when it exceeds the path bound.
        let err = check_lower_bounds(&g, &Cluster::homogeneous(1, 1 << 30), 900.0).unwrap_err();
        assert!(err.detail().contains("GPU work"), "{err:?}");
    }

    #[test]
    fn valid_plan_passes_and_broken_plans_fail() {
        let g = chain();
        let cluster = Cluster::two_gpus();
        let placement = on(&[0, 0, 0, 1], &cluster);
        let ids: Vec<OpId> = g.op_ids().collect();
        let mut per_device = vec![Vec::new(); cluster.device_count()];
        per_device[cluster.gpu(0).index()] = vec![ids[0], ids[1], ids[2]];
        per_device[cluster.gpu(1).index()] = vec![ids[3]];
        let good = Plan::with_order(
            placement.clone(),
            ScheduleOrder::from_vecs(per_device.clone()),
        );
        assert!(check_plan(&g, &cluster, &good).is_ok());

        // Order contradicting an edge: c before b on the same GPU.
        per_device[cluster.gpu(0).index()] = vec![ids[0], ids[2], ids[1]];
        let reversed = Plan::with_order(placement.clone(), ScheduleOrder::from_vecs(per_device));
        assert_eq!(
            check_plan(&g, &cluster, &reversed).unwrap_err().tag(),
            "invalid_plan"
        );

        // A GPU op on the CPU.
        let mut cpu = placement.clone();
        cpu.set_device(ids[3], cluster.cpu());
        assert!(check_plan(&g, &cluster, &Plan::placement_only(cpu)).is_err());

        // Memory over capacity: 4 x 10 bytes on one 25-byte GPU.
        let tiny = Cluster::homogeneous(2, 25);
        let all0 = on(&[0, 0, 0, 0], &tiny);
        assert!(check_plan(&g, &tiny, &Plan::placement_only(all0)).is_err());
        assert!(check_plan(&g, &tiny, &Plan::placement_only(on(&[0, 0, 1, 1], &tiny))).is_ok());
    }

    #[test]
    fn cross_device_deadlock_is_caught() {
        // a -> b and c -> d with a, d on GPU 0 and b, c on GPU 1; ordering
        // d before a on GPU 0 and b before c on GPU 1 deadlocks through the
        // edges even though no single device orders an edge backwards.
        let mut g = OpGraph::new("x");
        let a = g.add_op("a", DeviceKind::Gpu, 1.0, 1);
        let b = g.add_op("b", DeviceKind::Gpu, 1.0, 1);
        let c = g.add_op("c", DeviceKind::Gpu, 1.0, 1);
        let d = g.add_op("d", DeviceKind::Gpu, 1.0, 1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(c, d, 1).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let placement = on(&[0, 1, 1, 0], &cluster);
        let mut per_device = vec![Vec::new(); cluster.device_count()];
        per_device[cluster.gpu(0).index()] = vec![d, a];
        per_device[cluster.gpu(1).index()] = vec![b, c];
        let plan = Plan::with_order(placement, ScheduleOrder::from_vecs(per_device));
        assert_eq!(
            check_plan(&g, &cluster, &plan).unwrap_err().tag(),
            "invalid_plan"
        );
    }

    #[test]
    fn brute_force_finds_the_known_optimum() {
        // a -> b over a 512 MB tensor: the optimum runs both on one GPU
        // (200 us, no transfer). Together they hold all the memory, which
        // a 0.2-slack balance rule forbids, so the balanced optimum splits
        // them and pays the transfer.
        let mut g = OpGraph::new("pair");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 1000);
        let b = g.add_op("b", DeviceKind::Gpu, 100.0, 1000);
        g.add_edge(a, b, 512 << 20).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let (best, balanced) = brute_force_optimum(&g, &cluster, comm(), 0.2);
        assert!((best - 200.0).abs() < 1e-6, "{best}");
        assert!(balanced > best + 1000.0, "{balanced}");
        assert!(check_exact_optimum(200.0, Some(balanced), (best, balanced)).is_ok());
        // A shipped step faster than the exhaustive optimum is impossible.
        assert!(check_exact_optimum(199.0, None, (best, balanced)).is_err());
        // A "proven" C_max above the optimum of its own feasible set
        // breaks Theorem 3.1.
        assert!(check_exact_optimum(200.0, Some(balanced + 1.0), (best, balanced)).is_err());
    }

    #[test]
    fn brute_force_respects_dependencies_and_transfers() {
        let g = chain();
        let cluster = Cluster::two_gpus();
        let (best, _) = brute_force_optimum(&g, &cluster, comm(), 0.5);
        // The chain runs serially on one GPU and d alongside on the other:
        // exactly the critical path, no transfer on it.
        assert!((best - 600.0).abs() < 1e-6, "{best}");
        assert_eq!(
            linear_extensions(&g, &g.op_ids().collect::<Vec<_>>()).len(),
            4
        );
    }

    #[test]
    fn never_worse_flags_a_plan_slower_than_a_baseline() {
        let g = chain();
        let cluster = Cluster::two_gpus();
        let best = best_baseline(&g, &g, &cluster, comm(), 1);
        // 600 us is optimal: no baseline beats it.
        assert!(check_never_worse(600.0, best).is_ok());
        // Everything serial on one GPU (1000 us) loses to the baselines.
        let err = check_never_worse(1000.0, best).unwrap_err();
        assert_eq!(err.tag(), "slower_than_baseline");
    }
}
