//! The figure workloads: one untraced run through `run_config`, exactly
//! as the `fig6_per_kernel` binary makes it, and a traced run that
//! rebuilds `run_config` from its public calls with a span around each.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use accel_sim::engine::{simulate_cluster_traced, EngineError};
use accel_sim::node::{simulate_node_traced, NodeConfig};
use accel_sim::{Context, RankTrace, Segment};
use repro_bench::{run_config, summarize_events, write_trace, RunConfig, RunOutcome};
use scenario::Scenario;
use toast_core::dispatch::{ImplKind, KernelId};
use toast_core::kernels::ExecCtx;
use toast_core::pipeline::{benchmark_pipeline_passes, Pipeline};
use toast_core::workspace::Workspace;

use crate::spans::Spans;
use crate::stats::{median, percentile, Checks};
use crate::workloads::{figure_scenarios, Workload};
use crate::Args;

/// The implementations whose kernels get their own per-layer metric.
pub const KERNEL_IMPLS: [ImplKind; 3] = [ImplKind::Cpu, ImplKind::OmpTarget, ImplKind::Jit];

/// Scenario resolution: the workload's scenarios and their configs.
pub fn setup(w: Workload, seed: u64) -> Result<Vec<(Scenario, RunConfig)>, String> {
    figure_scenarios(w, seed)
        .into_iter()
        .map(|s| {
            let cfg = RunConfig::from_scenario(&s).map_err(|e| e.to_string())?;
            Ok((s, cfg))
        })
        .collect()
}

/// Whether a workload exports a trace after each configuration, as
/// `fig6 --trace-out` does.
fn writes_trace(w: Workload) -> bool {
    w == Workload::Fig6CpuOmp
}

fn trace_path(dir: &Path, s: &Scenario) -> std::path::PathBuf {
    dir.join(format!("trace-{}.json", s.kind))
}

/// Makespan bits and per-label stats of one configuration, hashed: every
/// repetition of a configuration must produce the same digest. The std
/// hasher is deterministic within one build, and every digest compared
/// comes from the same binary.
pub fn digest(out: &RunOutcome, flip_bit: bool) -> String {
    let mut h = DefaultHasher::new();
    match &out.node_wall {
        Ok(w) => (w.to_bits() ^ u64::from(flip_bit)).hash(&mut h),
        Err(e) => e.hash(&mut h),
    }
    out.comm_seconds.to_bits().hash(&mut h);
    for (label, s) in &out.per_label {
        (label, s.calls, s.seconds.to_bits(), s.bytes.to_bits()).hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

/// One configuration's result check: a run that did not fit counts every
/// rank as failed.
fn count_ranks(cfg: &RunConfig, out: &RunOutcome, checks: &mut Checks) {
    let ranks = u64::from(cfg.procs_per_node);
    checks.attempted += ranks;
    if let Err(e) = &out.node_wall {
        eprintln!("{}: {e}", cfg.kind);
        checks.failed += ranks;
    }
}

/// What one untraced run of a figure workload measured.
pub struct RunSample {
    pub wall_s: f64,
    pub jobs_s: Vec<f64>,
    pub digests: Vec<String>,
}

/// One untraced run: each configuration through `run_config`, then its
/// trace export when the workload writes one. Each configuration is one
/// job.
pub fn run_once(
    w: Workload,
    configs: &[(Scenario, RunConfig)],
    dir: &Path,
    flip_bit: bool,
    checks: &mut Checks,
) -> Result<RunSample, String> {
    let t0 = Instant::now();
    let mut jobs_s = Vec::new();
    let mut digests = Vec::new();
    for (s, cfg) in configs {
        let t = Instant::now();
        let out = run_config(cfg).map_err(|e| e.to_string())?;
        if writes_trace(w) {
            write_trace(&trace_path(dir, s), &out.traces, out.timeline.as_ref())
                .map_err(|e| format!("write_trace: {e}"))?;
        }
        jobs_s.push(t.elapsed().as_secs_f64());
        count_ranks(cfg, &out, checks);
        digests.push(digest(&out, flip_bit));
    }
    Ok(RunSample {
        wall_s: t0.elapsed().as_secs_f64(),
        jobs_s,
        digests,
    })
}

/// Counters read from the rank contexts of a traced configuration.
#[derive(Default)]
struct Counts {
    jit_calls: u64,
    jit_compiles: u64,
    stage_launches: u64,
    transfer_bytes: f64,
    transfers: u64,
    workspace_bytes: u64,
}

/// The result of a traced configuration, plus rank 0's workspace and
/// execution context after the full pipeline.
struct TracedRun {
    out: RunOutcome,
    rank0: Option<(Workspace, ExecCtx)>,
    counts: Counts,
}

/// `run_config` rebuilt from its public calls, with a span around each:
/// `rank_workspace`, `Context::new` plus the fixed device allocation,
/// `ExecCtx::new`, `Pipeline::run` per observation, the node replay and
/// `summarize_events`. Ranks run one after another in rank order, which
/// is the order `run_config` merges them in, so the result must match
/// `run_config`'s bit for bit.
fn run_traced(cfg: &RunConfig, spans: &mut Spans, root: usize) -> Result<TracedRun, String> {
    let threads = cfg.threads().map_err(|e| e.to_string())?;
    let calib = cfg.node_calib();
    let procs = cfg.procs_per_node;
    let fw = calib.framework;
    let total_ranks = cfg.nodes.unwrap_or(cfg.problem.nodes) * procs;
    let map_bytes = (cfg.problem.geometry().map_len() * 8) as f64;
    let collective_solo =
        accel_sim::comm::allreduce_seconds(&cfg.net_calib(), total_ranks, map_bytes)
            * cfg.problem.scale;

    let mut traces: Vec<RankTrace> = Vec::with_capacity(procs as usize);
    let mut per_label: BTreeMap<String, accel_sim::context::LabelStats> = BTreeMap::new();
    let mut transfer_bytes = 0.0;
    let mut counts = Counts::default();
    let mut rank0 = None;
    let mut rank_oom = None;
    for rank in 0..procs {
        let rank_span = spans.open("core.rank", Some(root));
        let (mut ws, _) = spans.time("satsim.workspace", Some(rank_span), || {
            cfg.problem.rank_workspace(rank, procs)
        });
        counts.workspace_bytes += ws.total_bytes();
        let mut ctx = Context::new(calib);
        let fixed = match cfg.kind {
            ImplKind::Jit => fw.jit_process_device_bytes as u64,
            ImplKind::OmpTarget => fw.omp_process_device_bytes as u64,
            _ => 0,
        };
        let mut result = Ok(());
        if fixed > 0 {
            result = ctx
                .device_alloc(fixed, true)
                .map_err(|e| format!("rank {rank}: {e}"));
        }
        let mut exec = ExecCtx::new(cfg.kind, threads);
        let host = cfg.problem.host_seconds_per_rank(&ws, procs);
        let pipe = benchmark_pipeline_passes(host, cfg.problem.passes).with_policy(cfg.movement);
        for _ in 0..cfg.problem.n_obs {
            if result.is_err() {
                break;
            }
            let (step, _) = spans.time("core.pipeline", Some(rank_span), || {
                pipe.run(&mut ctx, &mut exec, &mut ws)
            });
            result = step.map_err(|e| format!("rank {rank}: {e}"));
            if result.is_ok() && cfg.nodes.is_some() {
                ctx.collective("mpi_allreduce_zmap", map_bytes, collective_solo);
            }
        }
        if result.is_ok() && cfg.nodes.is_some() {
            ctx.collective("mpi_allreduce_amplitudes", map_bytes, collective_solo);
        }
        spans.close(rank_span);
        if let Err(e) = result {
            rank_oom = Some(e);
            break;
        }
        for (label, stat) in ctx.stats() {
            let e = per_label.entry(label.clone()).or_default();
            e.calls += stat.calls;
            e.seconds += stat.seconds;
            e.bytes += stat.bytes;
            if label.ends_with("/dispatch") {
                counts.jit_calls += stat.calls;
            } else if label.ends_with("/jit_compile") {
                counts.jit_compiles += stat.calls;
            }
        }
        transfer_bytes += ctx.trace().transfer_bytes();
        match cfg.kind {
            ImplKind::Jit => counts.stage_launches += ctx.trace().kernel_count() as u64,
            ImplKind::OmpTarget => {
                counts.transfer_bytes += ctx.trace().transfer_bytes();
                counts.transfers += ctx
                    .trace()
                    .segments
                    .iter()
                    .filter(|s| matches!(s, Segment::Transfer { .. }))
                    .count() as u64;
            }
            _ => {}
        }
        traces.push(ctx.into_trace());
        if rank == 0 {
            rank0 = Some((ws, exec));
        }
    }

    let comm_seconds = if cfg.nodes.is_some() {
        0.0
    } else {
        (cfg.problem.n_obs as f64 + 1.0) * collective_solo
    };
    let sim_err_msg = |e: EngineError| match e.as_oom() {
        Some(oom) => format!(
            "GPU {}: ranks demand {} B of {} B",
            oom.gpu, oom.demanded, oom.capacity
        ),
        None => e.to_string(),
    };
    let node_cfg = NodeConfig {
        calib,
        gpus: cfg.gpus,
        mps: cfg.mps,
        schedule: cfg.schedule,
        overlap_transfers: cfg.overlap_transfers,
    };
    let (node_wall, gpu_busy, timeline, cluster) = match (rank_oom, cfg.nodes) {
        (Some(e), _) => (Err(e), Vec::new(), None, None),
        (None, None) => {
            let (replayed, _) = spans.time("engine.replay", Some(root), || {
                simulate_node_traced(&traces, &node_cfg)
            });
            match replayed {
                Ok((res, tl)) => (Ok(res.wall_seconds), res.gpu_busy, Some(tl), None),
                Err(e) => (Err(sim_err_msg(e)), Vec::new(), None, None),
            }
        }
        (None, Some(n)) => {
            let node_traces: Vec<Vec<RankTrace>> = (0..n.max(1)).map(|_| traces.clone()).collect();
            let (replayed, _) = spans.time("engine.replay", Some(root), || {
                simulate_cluster_traced(&node_traces, &node_cfg)
            });
            match replayed {
                Ok((res, tl)) => (
                    Ok(res.wall_seconds),
                    res.gpu_busy.clone(),
                    Some(tl),
                    Some(res),
                ),
                Err(e) => (Err(sim_err_msg(e)), Vec::new(), None, None),
            }
        }
    };
    let (metrics, _) = spans.time("metrics.summarize", Some(root), || {
        summarize_events(&traces)
    });
    Ok(TracedRun {
        out: RunOutcome {
            node_wall,
            comm_seconds,
            per_label,
            gpu_busy,
            transfer_bytes,
            metrics,
            traces,
            timeline,
            cluster,
        },
        rank0,
        counts,
    })
}

/// Segments the replay stepped through: every rank's segments, on every
/// replayed node.
fn replayed_segments(cfg: &RunConfig, out: &RunOutcome) -> u64 {
    let per_node: usize = out.traces.iter().map(|t| t.segments.len()).sum();
    per_node as u64 * u64::from(cfg.nodes.unwrap_or(1).max(1))
}

/// The rank outputs the implementations must agree on.
struct RankOutputs {
    signal: Vec<f64>,
    zmap: Vec<f64>,
    amp_out: Vec<f64>,
}

impl RankOutputs {
    fn of(ws: &Workspace) -> Self {
        RankOutputs {
            signal: ws.obs.signal.clone(),
            zmap: ws.zmap.clone(),
            amp_out: ws.amp_out.clone(),
        }
    }
}

/// Rank 0 of `cfg`'s problem through the cpu baseline.
fn cpu_baseline(cfg: &RunConfig) -> Result<RankOutputs, String> {
    let procs = cfg.procs_per_node;
    let p = &cfg.problem;
    let mut ws = p.rank_workspace(0, procs);
    let mut ctx = Context::new(cfg.node_calib());
    let mut exec = ExecCtx::new(ImplKind::Cpu, cfg.threads().map_err(|e| e.to_string())?);
    let pipe = benchmark_pipeline_passes(p.host_seconds_per_rank(&ws, procs), p.passes)
        .with_policy(cfg.movement);
    for _ in 0..p.n_obs {
        pipe.run(&mut ctx, &mut exec, &mut ws)
            .map_err(|e| e.to_string())?;
    }
    Ok(RankOutputs::of(&ws))
}

/// Compare a port's rank outputs with the cpu baseline at the
/// cross-implementation tolerances; each array is one check.
fn compare_outputs(kind: ImplKind, base: &RankOutputs, port: &RankOutputs, checks: &mut Checks) {
    for (name, a, b, tol) in [
        ("signal", &base.signal, &port.signal, 1e-10),
        ("zmap", &base.zmap, &port.zmap, 1e-9),
        ("amp_out", &base.amp_out, &port.amp_out, 1e-9),
    ] {
        let ok = a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0));
        checks.check(ok, || {
            format!("{kind} {name} differs from the cpu baseline")
        });
    }
}

/// Time each kernel alone: a one-kernel pipeline over rank 0's filled
/// workspace, on the execution context the full pipeline used, called
/// once per observation.
fn time_kernels(
    cfg: &RunConfig,
    ws: &mut Workspace,
    exec: &mut ExecCtx,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    for k in KernelId::ALL {
        let pipe = Pipeline::new().with_policy(cfg.movement).kernel(k);
        let mut ctx = Context::new(cfg.node_calib());
        let t = Instant::now();
        for _ in 0..cfg.problem.n_obs {
            pipe.run(&mut ctx, exec, ws)
                .map_err(|e| format!("{}: {e}", k.name()))?;
        }
        out.insert(kernel_metric(k, cfg.kind), t.elapsed().as_secs_f64());
    }
    Ok(())
}

pub fn kernel_metric(k: KernelId, kind: ImplKind) -> String {
    format!("core.kernel.{}.{kind}_s", k.name())
}

/// One traced repetition: the untraced run for reference, then the
/// traced rebuild of every configuration, the output checks and the
/// per-kernel timings. Returns this repetition's per-layer values.
pub fn traced_rep(
    w: Workload,
    configs: &[(Scenario, RunConfig)],
    dir: &Path,
    spans: &mut Spans,
    flip_bit: bool,
    checks: &mut Checks,
) -> Result<BTreeMap<String, f64>, String> {
    let untraced = run_once(w, configs, dir, false, checks)?;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let add = |m: &mut BTreeMap<String, f64>, k: &str, v: f64| {
        *m.entry(k.to_string()).or_default() += v;
    };
    let mut traced_wall = 0.0;
    let mut baseline: Option<RankOutputs> = None;
    for ((s, cfg), want) in configs.iter().zip(&untraced.digests) {
        let root = spans.open("run", None);
        let traced = run_traced(cfg, spans, root)?;
        if writes_trace(w) {
            let path = trace_path(dir, s);
            let (written, secs) = spans.time("traceout.write", Some(root), || {
                write_trace(&path, &traced.out.traces, traced.out.timeline.as_ref())
            });
            written.map_err(|e| format!("write_trace: {e}"))?;
            add(&mut m, "traceout.write_s", secs);
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            add(&mut m, "traceout.bytes", bytes as f64);
        }
        traced_wall += spans.close(root);

        count_ranks(cfg, &traced.out, checks);
        let got = digest(&traced.out, flip_bit);
        checks.check(&got == want, || {
            format!(
                "{}: traced run digest {got} != run_config's {want}",
                cfg.kind
            )
        });
        add(
            &mut m,
            "engine.segments",
            replayed_segments(cfg, &traced.out) as f64,
        );
        let c = &traced.counts;
        add(&mut m, "satsim.workspace_bytes", c.workspace_bytes as f64);
        add(&mut m, "arrayjit.calls", c.jit_calls as f64);
        add(&mut m, "arrayjit.compiles", c.jit_compiles as f64);
        add(&mut m, "arrayjit.stage_launches", c.stage_launches as f64);
        add(&mut m, "offload.transfer_bytes", c.transfer_bytes);
        add(&mut m, "offload.transfers", c.transfers as f64);

        // A run that did not fit has no complete rank outputs; its ranks
        // already count as failed.
        let Some((mut ws, mut exec)) = traced.rank0.filter(|_| traced.out.node_wall.is_ok()) else {
            continue;
        };
        let outputs = RankOutputs::of(&ws);
        match cfg.kind {
            ImplKind::Cpu => baseline = Some(outputs),
            kind => {
                if baseline.is_none() {
                    baseline = Some(cpu_baseline(cfg)?);
                }
                compare_outputs(
                    kind,
                    baseline.as_ref().expect("set above"),
                    &outputs,
                    checks,
                );
            }
        }
        time_kernels(cfg, &mut ws, &mut exec, &mut m)?;
    }

    let run = spans.run;
    for (metric, span) in [
        ("satsim.workspace_s", "satsim.workspace"),
        ("core.pipeline_s", "core.pipeline"),
        ("engine.replay_s", "engine.replay"),
        ("metrics.summarize_s", "metrics.summarize"),
    ] {
        m.insert(metric.into(), spans.durations(span, run).iter().sum());
    }
    let ranks = spans.durations("core.rank", run);
    m.insert(
        "core.rank_max_s".into(),
        ranks.iter().copied().fold(0.0, f64::max),
    );
    let replay_s = m["engine.replay_s"];
    let segments = m["engine.segments"];
    m.insert(
        "engine.segments_per_s".into(),
        if replay_s > 0.0 {
            segments / replay_s
        } else {
            0.0
        },
    );
    let calls = m["arrayjit.calls"];
    if calls > 0.0 {
        m.insert(
            "arrayjit.cache_hit_ratio".into(),
            1.0 - m["arrayjit.compiles"] / calls,
        );
    }
    m.insert("trace.overhead_s".into(), traced_wall - untraced.wall_s);
    Ok(m)
}

/// The traced run of a figure workload: traced repetitions until
/// `a.seconds` have passed (at least two, so that the pooled rank times
/// have ten samples beyond their median), each per-layer value the
/// median over repetitions, and rank times pooled over all of them.
pub fn traced(
    a: &Args,
    w: Workload,
    spans: &mut Spans,
    checks: &mut Checks,
    beyond: &mut BTreeMap<String, usize>,
) -> Result<BTreeMap<String, f64>, String> {
    let configs = setup(w, a.seed)?;
    let dir = Path::new(&a.dir);
    let mut reps: Vec<BTreeMap<String, f64>> = Vec::new();
    let t0 = Instant::now();
    while reps.len() < 2 || t0.elapsed().as_secs_f64() < a.seconds {
        spans.run = reps.len() as u64;
        let flip = a.flip_bit && reps.is_empty();
        reps.push(traced_rep(w, &configs, dir, spans, flip, checks)?);
    }
    let mut m = BTreeMap::new();
    for name in reps[0].keys() {
        let xs: Vec<f64> = reps
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        m.insert(name.clone(), median(&xs));
    }
    let (p50, n) = percentile(&spans.durations("core.rank", None), 50.0);
    m.insert("core.rank_p50_s".into(), p50);
    beyond.insert("core.rank_p50_s".into(), n);
    Ok(m)
}
