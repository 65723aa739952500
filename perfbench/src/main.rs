//! `perfbench` — the measuring half of the repository benchmark.
//! `perfbench/run.py` builds it, starts it and aggregates what it prints.
//!
//! ```text
//! perfbench run   --workload <fig6_jax|fig6_cpu_omp> --seed <n> --dir <d> [--flip-bit]
//! perfbench trace --workload <w> --seed <n> --seconds <s> --dir <d> --spans <file> [--flip-bit]
//! ```
//!
//! `run` makes one untraced run of a workload (the caller starts a fresh
//! process per run, so the process's peak memory is the run's); `trace`
//! makes the traced run that yields the per-layer metrics. Each prints one JSON object as
//! its last line. `--flip-bit` flips one bit of an output before it is
//! checked, so the benchmark's tests can show a mismatch is counted.

#![forbid(unsafe_code)]

mod figure;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

use stats::Checks;
use toast_core::dispatch::KernelId;
use workloads::Workload;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// layer a workload does not exercise reports 0.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "satsim.workspace_s",
        "satsim.workspace_bytes",
        "core.pipeline_s",
        "core.rank_p50_s",
        "core.rank_max_s",
    ]
    .map(String::from)
    .to_vec();
    for k in KernelId::ALL {
        for kind in figure::KERNEL_IMPLS {
            names.push(figure::kernel_metric(k, kind));
        }
    }
    names.extend(
        [
            "arrayjit.calls",
            "arrayjit.compiles",
            "arrayjit.cache_hit_ratio",
            "arrayjit.stage_launches",
            "offload.transfer_bytes",
            "offload.transfers",
            "engine.replay_s",
            "engine.segments",
            "engine.segments_per_s",
            "metrics.summarize_s",
            "traceout.write_s",
            "traceout.bytes",
            "whatif.record_s",
            "whatif.read_s",
            "whatif.recording_bytes",
            "analyze.check_workload_s",
            "analyze.check_scenario_s",
            "sweep.compile_s",
            "sweep.run_s",
            "sweep.points",
            "sweep.points_per_s",
            "sweep.evaluated_ratio",
            "serve.admit_p50_s",
            "serve.admit_p90_s",
            "serve.queue_wait_p50_s",
            "serve.drain_s",
            "serve.batches",
            "serve.sweep_compiles",
            "serve.coalesced_ratio",
            "trace.overhead_s",
        ]
        .map(String::from),
    );
    names
}

/// The command line of one `perfbench` invocation.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub dir: String,
    pub spans: Option<String>,
    pub flip_bit: bool,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 1.0,
        dir: String::new(),
        spans: None,
        flip_bit: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--flip-bit" {
            a.flip_bit = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("malformed value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.parse()?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--dir" => a.dir = value.clone(),
            "--spans" => a.spans = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.dir.is_empty() {
        return Err("--dir is required".into());
    }
    std::fs::create_dir_all(&a.dir).map_err(|e| format!("create {}: {e}", a.dir))?;
    Ok(a)
}

fn list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(","))
}

/// The sample line `run` prints.
fn sample_json(
    setup_s: &[f64],
    wall_s: &[f64],
    jobs_s: &[f64],
    checks: &Checks,
    digest: &str,
) -> String {
    format!(
        "{{\"setup_s\":{},\"wall_s\":{},\"jobs_s\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{digest}\"}}",
        list(setup_s),
        list(wall_s),
        list(jobs_s),
        checks.attempted,
        checks.failed
    )
}

fn cmd_run(a: &Args) -> Result<String, String> {
    let w = a.workload.ok_or("--workload is required")?;
    let mut checks = Checks::default();
    let t = Instant::now();
    let configs = figure::setup(w, a.seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let run = figure::run_once(w, &configs, Path::new(&a.dir), a.flip_bit, &mut checks)?;
    Ok(sample_json(
        &[setup_s],
        &[run.wall_s],
        &run.jobs_s,
        &checks,
        &run.digests.join(","),
    ))
}

fn cmd_trace(a: &Args) -> Result<String, String> {
    let w = a.workload.ok_or("--workload is required")?;
    let mut checks = Checks::default();
    let mut spans = spans::Spans::new();
    let mut values: BTreeMap<String, f64> =
        per_layer_names().into_iter().map(|n| (n, 0.0)).collect();
    // Samples beyond each reported percentile.
    let mut beyond: BTreeMap<String, usize> = BTreeMap::new();
    values.extend(figure::traced(a, w, &mut spans, &mut checks, &mut beyond)?);
    // The serving layers are measured here, after the figure repetitions;
    // serving is not a timed workload of its own.
    if w == Workload::Fig6CpuOmp {
        values.extend(serve::serve_traced(
            a,
            &mut spans,
            &mut checks,
            &mut beyond,
        )?);
    }
    if let Some(path) = &a.spans {
        spans
            .write_jsonl(Path::new(path))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    let known = per_layer_names();
    if let Some(extra) = values.keys().find(|k| !known.contains(k)) {
        return Err(format!("unlisted per-layer metric {extra}"));
    }
    let metrics: Vec<String> = known
        .iter()
        .map(|n| format!("\"{n}\":{:?}", values[n]))
        .collect();
    let beyond: Vec<String> = beyond.iter().map(|(n, k)| format!("\"{n}\":{k}")).collect();
    Ok(format!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"beyond\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics.join(","),
        beyond.join(",")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let Some(cmd) = argv.get(1) else {
        eprintln!("usage: perfbench <run|trace> [flags]");
        exit(2);
    };
    let result = parse_args(&argv[2..]).and_then(|a| match cmd.as_str() {
        "run" => cmd_run(&a),
        "trace" => cmd_trace(&a),
        other => Err(format!("unknown command '{other}'")),
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}
