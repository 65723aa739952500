//! Sweep-throughput bench: batched (compile-once / reprice-many) vs naive
//! (re-parse + re-compile per point) evaluation of the same what-if grid.
//!
//! The unit is *sweep points per second*: one point is one
//! (calibration, gpus, schedule) replay of the recorded workload, so the
//! number is comparable across engine rewrites and directly answers "how
//! fast can we search the hardware space?". The naive path is exactly
//! what a script looping `whatif --replay --calib X --gpus N` pays per
//! point: parse the JSONL recording, reprice the traces, rebuild the
//! segment arena, replay. The batched path is `accel_sim::sweep::sweep`,
//! which compiles once and materializes only a per-calibration cost
//! vector per point.
//!
//! Results are written as JSON (`BENCH_sweep.json` at the workspace root
//! unless `BENCH_SWEEP_OUT` overrides it) with the batched-vs-naive
//! speedup and a bit-identity flag: the grid's identity point must equal
//! `replay_identity` down to the last mantissa bit, or the batched path
//! is disqualified. `BENCH_SWEEP_SMOKE=1` shrinks the workload and budget
//! (keeping the full 120-point grid) so `ci.sh` can validate the harness
//! and JSON shape in seconds.

use std::time::{Duration, Instant};

use accel_sim::sweep::{sweep, SweepCalib, SweepSpec};
use accel_sim::whatif::presets;
use accel_sim::{
    KernelProfile, RankTrace, RecordMeta, RecordedWorkload, SchedulePolicyKind, Segment,
    TransferDir,
};
use criterion::black_box;

const RANKS_PER_NODE: usize = 8;
const NODES: usize = 4;

/// A mixed recorded workload in the style of the engine bench: host work,
/// kernels of varying occupancy, transfers and periodic collectives,
/// skewed per rank so contention is asymmetric.
fn synth_workload(segments_per_rank: usize) -> RecordedWorkload {
    let node: Vec<RankTrace> = (0..RANKS_PER_NODE)
        .map(|r| {
            let f = 1.0 + 0.2 * r as f64;
            let mut segs = Vec::with_capacity(segments_per_rank);
            let mut i = 0usize;
            while segs.len() < segments_per_rank {
                match i % 5 {
                    0 => segs.push(Segment::Host {
                        seconds: 2e-4 * f,
                        label: "h".into(),
                    }),
                    1 => segs.push(Segment::Transfer {
                        bytes: 4e6 * f,
                        dir: TransferDir::HostToDevice,
                        label: "accel_data_update_device".into(),
                    }),
                    2 => segs.push(Segment::Kernel {
                        profile: KernelProfile::uniform("k_big", 2e7, 40.0 * f, 8.0),
                        dispatch: 1e-5,
                    }),
                    3 => segs.push(Segment::Kernel {
                        profile: KernelProfile::uniform("k_small", 2e4, 100.0, 16.0),
                        dispatch: 1e-5,
                    }),
                    _ => segs.push(Segment::Transfer {
                        bytes: 2e6 * f,
                        dir: TransferDir::DeviceToHost,
                        label: "accel_data_update_host".into(),
                    }),
                }
                i += 1;
                if i.is_multiple_of(13) && segs.len() < segments_per_rank {
                    segs.push(Segment::Collective {
                        seconds: 5e-4,
                        bytes: 1e6,
                        label: "mpi_allreduce".into(),
                    });
                }
            }
            RankTrace {
                segments: segs,
                ..RankTrace::default()
            }
        })
        .collect();
    let meta = RecordMeta {
        label: "sweep bench".into(),
        total_ranks: (NODES * RANKS_PER_NODE) as u32,
        ..RecordMeta::default()
    };
    RecordedWorkload::capture(vec![node; NODES], meta)
}

/// The 120-point grid: identity + every preset, four GPU counts, every
/// schedule policy.
fn bench_grid(meta: &RecordMeta) -> SweepSpec {
    let mut calibs = vec![SweepCalib::resolve("identity", meta).expect("identity")];
    for p in presets() {
        calibs.push(SweepCalib::resolve(p.name, meta).expect("preset"));
    }
    SweepSpec {
        calibs,
        gpus: vec![1, 2, 4, 8],
        schedules: vec![
            SchedulePolicyKind::Auto,
            SchedulePolicyKind::MpsFluid,
            SchedulePolicyKind::TimeSliced,
            SchedulePolicyKind::Fifo,
            SchedulePolicyKind::Priority,
        ],
        deadline: None,
    }
}

struct Measurement {
    path: &'static str,
    points: u64,
    iters: u64,
    seconds: f64,
    points_per_sec: f64,
}

/// Time `per_iter` repeatedly until the budget closes (at least once),
/// after one untimed warm-up.
fn measure(
    path: &'static str,
    points_per_iter: u64,
    budget: Duration,
    mut per_iter: impl FnMut(),
) -> Measurement {
    per_iter();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        per_iter();
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        path,
        points: points_per_iter * iters,
        iters,
        seconds,
        points_per_sec: points_per_iter as f64 * iters as f64 / seconds,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SWEEP_SMOKE").is_ok_and(|v| v == "1");
    let (mode, segments_per_rank, budget) = if smoke {
        ("smoke", 12, Duration::from_millis(60))
    } else {
        ("full", 60, Duration::from_millis(1500))
    };

    let workload = synth_workload(segments_per_rank);
    let spec = bench_grid(&workload.meta);
    let grid_points = spec.point_count() as u64;
    let jsonl = workload.to_jsonl();

    // Correctness gate: the batched identity point at the recorded
    // gpus/schedule must equal the trace-level oracle bit for bit.
    let result = sweep(&workload, &spec).expect("sweep");
    let identity = result
        .points
        .iter()
        .find(|p| {
            p.calib == "identity"
                && p.gpus == workload.meta.gpus
                && p.schedule == workload.meta.schedule
        })
        .expect("identity point in grid");
    let oracle = workload
        .replay_identity()
        .expect("replay")
        .cluster
        .wall_seconds;
    let identity_bit_identical =
        identity.makespan.expect("identity evaluates").to_bits() == oracle.to_bits();

    let batched = measure("batched", grid_points, budget, || {
        black_box(sweep(&workload, &spec).expect("sweep"));
    });
    println!(
        "sweep/batched: {} iters, {:.3}s, {:.3e} points/s",
        batched.iters, batched.seconds, batched.points_per_sec
    );

    // The naive path pays the full per-point cost: re-parse the recording,
    // rebuild the arena and its cost table, replay.
    let naive = measure("naive", grid_points, budget, || {
        for calib in &spec.calibs {
            for &gpus in &spec.gpus {
                for &schedule in &spec.schedules {
                    let mut w = RecordedWorkload::parse_jsonl(&jsonl).expect("parse");
                    w.meta.schedule = schedule;
                    black_box(
                        w.replay(&calib.node, &calib.net, Some(gpus))
                            .expect("replay"),
                    );
                }
            }
        }
    });
    println!(
        "sweep/naive: {} iters, {:.3}s, {:.3e} points/s",
        naive.iters, naive.seconds, naive.points_per_sec
    );

    let speedup = batched.points_per_sec / naive.points_per_sec;
    println!("batched vs naive: {speedup:.1}x, identity_bit_identical {identity_bit_identical}");

    let rows: Vec<String> = [&batched, &naive]
        .iter()
        .map(|m| {
            format!(
                concat!(
                    "    {{\"path\":\"{}\",\"points\":{},\"iters\":{},",
                    "\"seconds\":{:.6},\"points_per_sec\":{:.1}}}"
                ),
                m.path, m.points, m.iters, m.seconds, m.points_per_sec
            )
        })
        .collect();
    let out = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sweep_throughput\",\n",
            "  \"unit\": \"sweep points per second\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"grid_points\": {grid},\n",
            "  \"identity_bit_identical\": {bit},\n",
            "  \"results\": [\n{rows}\n  ],\n",
            "  \"speedup_batched_vs_naive\": {speedup:.2}\n",
            "}}\n"
        ),
        mode = mode,
        grid = grid_points,
        bit = identity_bit_identical,
        rows = rows.join(",\n"),
        speedup = speedup,
    );

    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").to_string();
    let path = std::env::var("BENCH_SWEEP_OUT").unwrap_or(default);
    std::fs::write(&path, out).expect("write BENCH_sweep.json");
    println!("wrote {path}");
}
