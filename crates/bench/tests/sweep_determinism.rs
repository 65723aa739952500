//! Sweep determinism: the batched evaluator fans grid points out across
//! the rayon facade, but every point writes only its own pre-allocated
//! slot and every reduction (Pareto front, best-under-deadline, counters)
//! walks points in grid order — so the serialized result must be
//! byte-identical whatever `RAYON_NUM_THREADS` says. This is the same
//! contract the engine determinism suite locks for a single replay,
//! lifted to the whole sweep.

use accel_sim::sweep::{CompiledSweep, SweepResult, SweepSpec};
use accel_sim::{
    KernelProfile, RankTrace, RecordMeta, RecordedWorkload, SchedulePolicyKind, Segment,
    TransferDir,
};

/// An asymmetric two-node workload: ragged per-rank segment counts and
/// skewed kernel sizes so schedules actually contend.
fn workload() -> RecordedWorkload {
    let rank = |f: f64, extra: usize| {
        let mut segments = vec![
            Segment::Host {
                seconds: 3e-4 * f,
                label: "serial".into(),
            },
            Segment::Transfer {
                bytes: 6e6 * f,
                dir: TransferDir::HostToDevice,
                label: "accel_data_update_device".into(),
            },
            Segment::Kernel {
                profile: KernelProfile::uniform("k_big", 1.5e7, 30.0 * f, 8.0),
                dispatch: 1e-5,
            },
            Segment::Collective {
                seconds: 4e-4,
                bytes: 2e6,
                label: "mpi_allreduce".into(),
            },
        ];
        for i in 0..extra {
            segments.push(Segment::Kernel {
                profile: KernelProfile::uniform("k_small", 3e4, 80.0 + i as f64, 16.0),
                dispatch: 1e-5,
            });
        }
        RankTrace {
            segments,
            ..RankTrace::default()
        }
    };
    let node_a = vec![rank(1.0, 0), rank(1.3, 2), rank(1.7, 1)];
    let node_b = vec![rank(0.8, 3), rank(1.1, 0), rank(2.0, 2)];
    let meta = RecordMeta {
        label: "sweep determinism".into(),
        total_ranks: 6,
        ..RecordMeta::default()
    };
    RecordedWorkload::capture(vec![node_a, node_b], meta)
}

fn run() -> SweepResult {
    let w = workload();
    // The default grid already spans identity plus every preset.
    let mut spec = SweepSpec::default_grid(&w.meta);
    spec.gpus = vec![1, 2, 4];
    spec.schedules = vec![
        SchedulePolicyKind::Auto,
        SchedulePolicyKind::TimeSliced,
        SchedulePolicyKind::Fifo,
    ];
    // A deadline in the middle of the grid so the pruner fires on some
    // points and not others — pruning decisions must be deterministic too.
    let probe = CompiledSweep::compile(&w).expect("compiles").run(&spec);
    let max_lb = probe
        .points
        .iter()
        .map(|p| p.lower_bound)
        .fold(0.0, f64::max);
    spec.deadline = Some(max_lb * 0.99);
    CompiledSweep::compile(&w).expect("compiles").run(&spec)
}

#[test]
fn sweep_output_is_byte_identical_across_thread_counts() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let baseline = run();
    let baseline_jsonl = baseline.to_jsonl();
    assert!(baseline.evaluated > 0);
    assert!(baseline.pruned > 0, "deadline should prune something");

    for threads in ["2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let other = run();
        assert_eq!(
            other.to_jsonl(),
            baseline_jsonl,
            "sweep JSONL diverged at RAYON_NUM_THREADS={threads}"
        );
        assert_eq!(other.pareto, baseline.pareto, "threads={threads}");
        assert_eq!(
            other.best_under_deadline, baseline.best_under_deadline,
            "threads={threads}"
        );
        for (a, b) in baseline.points.iter().zip(&other.points) {
            assert_eq!(
                a.makespan.map(f64::to_bits),
                b.makespan.map(f64::to_bits),
                "{} x{} {} makespan bits (threads={threads})",
                a.calib,
                a.gpus,
                a.schedule
            );
            assert_eq!(
                a.cost.map(f64::to_bits),
                b.cost.map(f64::to_bits),
                "{} x{} {} cost bits (threads={threads})",
                a.calib,
                a.gpus,
                a.schedule
            );
            assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
            assert_eq!(a.pruned, b.pruned);
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
