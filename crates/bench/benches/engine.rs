//! Engine-throughput bench: replayed segments per second through the
//! discrete-event engine at 1/8/64 nodes, with and without overlapped
//! transfer streams.
//!
//! The throughput unit is deliberately *code-independent*: one "event" is
//! one recorded [`Segment`] replayed, so numbers are comparable across
//! engine rewrites (a faster engine replays the same workload in less
//! wall time; it cannot inflate its own score by redefining the unit).
//! Results are written as JSON (`BENCH_engine.json` at the workspace root
//! unless `BENCH_ENGINE_OUT` overrides it) so every PR records the perf
//! trajectory; `BENCH_ENGINE_BASELINE` may point at a previous run of the
//! same bench to embed it and compute the 64-node speedup.
//!
//! `BENCH_ENGINE_SMOKE=1` shrinks the workload and measurement budget so
//! `ci.sh` can validate the harness and the JSON shape in seconds.

use std::time::{Duration, Instant};

use accel_sim::engine::simulate_cluster;
use accel_sim::json::{self, Fields, Value};
use accel_sim::{KernelProfile, NodeConfig, RankTrace, Segment, TransferDir};
use criterion::black_box;

const RANKS_PER_NODE: usize = 8;

/// One node's worth of rank traces: a mixed workload interleaving host
/// work, kernels of varying occupancy, synchronous/streamable transfers
/// and periodic collectives, skewed per rank so contention is asymmetric.
fn synth_node(segments_per_rank: usize, collective_every: usize) -> Vec<RankTrace> {
    (0..RANKS_PER_NODE)
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
                if i.is_multiple_of(collective_every) && segs.len() < segments_per_rank {
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
        .collect()
}

struct Measurement {
    nodes: usize,
    overlap: bool,
    events: u64,
    iters: u64,
    seconds: f64,
    events_per_sec: f64,
}

/// Run one configuration repeatedly until the budget closes (at least
/// once), after a single untimed warm-up replay.
fn measure(node_traces: &[Vec<RankTrace>], overlap: bool, budget: Duration) -> Measurement {
    let cfg = NodeConfig {
        overlap_transfers: overlap,
        ..NodeConfig::default()
    };
    let events: u64 = node_traces
        .iter()
        .flatten()
        .map(|t| t.segments.len() as u64)
        .sum();
    black_box(simulate_cluster(node_traces, &cfg).expect("bench workload must fit"));

    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        black_box(simulate_cluster(node_traces, &cfg).expect("bench workload must fit"));
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        nodes: node_traces.len(),
        overlap,
        events: events * iters,
        iters,
        seconds,
        events_per_sec: events as f64 * iters as f64 / seconds,
    }
}

fn results_json(mode: &str, results: &[Measurement]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                concat!(
                    "    {{\"nodes\":{},\"overlap\":{},\"events\":{},\"iters\":{},",
                    "\"seconds\":{:.6},\"events_per_sec\":{:.1}}}"
                ),
                m.nodes, m.overlap, m.events, m.iters, m.seconds, m.events_per_sec
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"unit\": \"replayed segments per second\",\n  \"mode\": \"{mode}\",\n  \"ranks_per_node\": {RANKS_PER_NODE},\n  \"results\": [\n{}\n  ]",
        rows.join(",\n")
    )
}

/// `events_per_sec` of the `(nodes, overlap=false)` row of a previous
/// run's JSON.
fn baseline_events_per_sec(text: &str, nodes: usize) -> Option<f64> {
    let mut doc = Fields::of(json::parse(text).ok()?, "bench results", 1).ok()?;
    let (Value::Arr(rows), _) = doc.take("results")? else {
        return None;
    };
    rows.into_iter().find_map(|row| {
        let mut r = Fields::of(row, "result row", 1).ok()?;
        let wanted = r.int::<usize>("nodes").ok()? == nodes && !r.bool("overlap").ok()?;
        wanted.then(|| r.f64("events_per_sec").ok())?
    })
}

fn main() {
    let smoke = std::env::var("BENCH_ENGINE_SMOKE").is_ok_and(|v| v == "1");
    let (mode, segments_per_rank, budget) = if smoke {
        ("smoke", 30, Duration::from_millis(50))
    } else {
        ("full", 120, Duration::from_millis(1500))
    };

    let node = synth_node(segments_per_rank, 13);
    let mut results = Vec::new();
    for nodes in [1usize, 8, 64] {
        let node_traces: Vec<Vec<RankTrace>> = vec![node.clone(); nodes];
        for overlap in [false, true] {
            let m = measure(&node_traces, overlap, budget);
            println!(
                "engine/{}nodes{}: {} iters, {:.3}s, {:.3e} events/s",
                m.nodes,
                if m.overlap { "/overlap" } else { "" },
                m.iters,
                m.seconds,
                m.events_per_sec
            );
            results.push(m);
        }
    }

    let mut out = results_json(mode, &results);
    if let Ok(path) = std::env::var("BENCH_ENGINE_BASELINE") {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let speedup = baseline_events_per_sec(&text, 64).map(|base| {
                let cur = results
                    .iter()
                    .find(|m| m.nodes == 64 && !m.overlap)
                    .map(|m| m.events_per_sec)
                    .unwrap_or(0.0);
                cur / base
            });
            // Embed the baseline's results array verbatim for trajectory
            // reports.
            if let (Some(s), Some(e)) = (text.find("\"results\": ["), text.rfind(']')) {
                let arr = &text[s + "\"results\": ".len()..=e];
                out.push_str(&format!(",\n  \"baseline_results\": {arr}"));
            }
            if let Some(sp) = speedup {
                out.push_str(&format!(",\n  \"speedup_vs_baseline_64_nodes\": {sp:.2}"));
            }
        }
    }
    out.push_str("\n}\n");

    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string();
    let path = std::env::var("BENCH_ENGINE_OUT").unwrap_or(default);
    std::fs::write(&path, out).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
