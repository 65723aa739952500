//! Property-based tests for the batched sweep ([`accel_sim::sweep`]).
//!
//! The sweep's optimizer claims are structural, so they must hold over
//! arbitrary recorded workloads and grids, not just the calibrated
//! presets: the Pareto front never contains a dominated point (and never
//! misses an undominated one), the analytic lower bound never exceeds the
//! replayed makespan (so deadline pruning never discards a feasible
//! configuration), and the identity grid point always reproduces the
//! trace-level oracle bit for bit.

use accel_sim::sweep::{sweep_digest, CompiledSweep, SweepCalib, SweepCheckpoint, SweepSpec};
use accel_sim::whatif::{RecordMeta, RecordedWorkload};
use accel_sim::{KernelProfile, RankTrace, SchedulePolicyKind, Segment, TransferDir};
use proptest::prelude::*;

/// A compact segment spec the shim can sample: kind selector plus two
/// magnitudes, decoded by [`workload_from_specs`].
fn arb_segment() -> impl Strategy<Value = (u8, f64, f64)> {
    (0u8..5, 1e-6..1.0, 1.0..1e10)
}

fn decode_segment((kind, a, b): (u8, f64, f64)) -> Segment {
    match kind {
        0 => Segment::Host {
            seconds: a,
            label: "host".into(),
        },
        1 => Segment::Kernel {
            profile: KernelProfile {
                name: "k".into(),
                items: b,
                flops_per_item: 10.0 * a,
                bytes_per_item: 8.0,
                divergence: 1.0,
            },
            dispatch: a * 1e-3,
        },
        2 => Segment::Transfer {
            bytes: b,
            dir: TransferDir::HostToDevice,
            label: "h2d".into(),
        },
        3 => Segment::DeviceAlloc { seconds: a * 1e-2 },
        _ => Segment::Collective {
            seconds: a,
            bytes: b,
            label: "allreduce".into(),
        },
    }
}

fn workload_from_specs(specs: Vec<Vec<(u8, f64, f64)>>) -> RecordedWorkload {
    let mut ranks: Vec<RankTrace> = specs
        .into_iter()
        .map(|segs| RankTrace {
            segments: segs.into_iter().map(decode_segment).collect(),
            ..RankTrace::default()
        })
        .collect();
    // Barriers follow MPI semantics: every rank that performs
    // collectives must perform the same number of them or the replay
    // deadlocks. Pad short ranks with extra collectives so the
    // generated job is symmetric (raggedness is exercised by the
    // analyzer's adversarial suite, not here).
    let max_collectives = ranks
        .iter()
        .map(|r| {
            r.segments
                .iter()
                .filter(|s| matches!(s, Segment::Collective { .. }))
                .count()
        })
        .max()
        .unwrap_or(0);
    for rank in &mut ranks {
        let have = rank
            .segments
            .iter()
            .filter(|s| matches!(s, Segment::Collective { .. }))
            .count();
        for _ in have..max_collectives {
            rank.segments.push(decode_segment((4, 1e-3, 1e6)));
        }
    }
    RecordedWorkload {
        meta: RecordMeta {
            total_ranks: 8,
            ..RecordMeta::default()
        },
        nodes: vec![ranks],
    }
}

fn arb_workload() -> impl Strategy<Value = RecordedWorkload> {
    proptest::collection::vec(proptest::collection::vec(arb_segment(), 1..8), 1..5)
        .prop_map(workload_from_specs)
}

fn grid(meta: &RecordMeta) -> SweepSpec {
    SweepSpec {
        calibs: vec![
            SweepCalib::resolve("identity", meta).expect("identity"),
            SweepCalib::resolve("h100", meta).expect("preset"),
            SweepCalib::resolve("a100-nvlink", meta).expect("preset"),
        ],
        gpus: vec![1, 2, 4],
        schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
        deadline: None,
    }
}

proptest! {
    #[test]
    fn pareto_front_is_exactly_the_undominated_set(w in arb_workload()) {
        let res = CompiledSweep::compile(&w).expect("compiles").run(&grid(&w.meta));
        let evaluated: Vec<(usize, f64, f64)> = res
            .points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((i, p.makespan?, p.cost?)))
            .collect();
        for &(i, m, c) in &evaluated {
            let dominated = evaluated
                .iter()
                .any(|&(_, om, oc)| om <= m && oc <= c && (om < m || oc < c));
            prop_assert!(
                res.pareto.contains(&i) != dominated,
                "point {} (makespan {}, cost {}): front membership vs domination",
                i, m, c
            );
        }
    }

    #[test]
    fn lower_bound_never_exceeds_the_replayed_makespan(w in arb_workload()) {
        let res = CompiledSweep::compile(&w).expect("compiles").run(&grid(&w.meta));
        for p in &res.points {
            if let Some(m) = p.makespan {
                prop_assert!(
                    p.lower_bound <= m * (1.0 + 1e-12),
                    "{} x{} {}: bound {} > makespan {}",
                    p.calib, p.gpus, p.schedule, p.lower_bound, m
                );
            }
        }
    }

    #[test]
    fn identity_grid_point_is_bit_identical_to_the_oracle(w in arb_workload()) {
        let spec = SweepSpec::default_grid(&w.meta);
        let res = CompiledSweep::compile(&w).expect("compiles").run(&spec);
        let id = res
            .points
            .iter()
            .find(|p| p.calib == "identity")
            .expect("identity in default grid");
        let oracle = w.replay_identity().expect("fits").cluster.wall_seconds;
        prop_assert_eq!(id.makespan.expect("evaluates").to_bits(), oracle.to_bits());
    }

    #[test]
    fn checkpoint_cursor_round_trips_any_completed_prefix(
        w in arb_workload(),
        take in 0usize..64,
    ) {
        // Whatever prefix of the grid a killed sweep had completed, the
        // persisted cursor must parse back equal — same points, same
        // digest — and re-serialize byte-identically, or a resumed sweep
        // could silently diverge from the uninterrupted run.
        let spec = grid(&w.meta);
        let res = CompiledSweep::compile(&w).expect("compiles").run(&spec);
        let n = take.min(res.points.len());
        let ck = SweepCheckpoint {
            total: res.points.len(),
            digest: sweep_digest(&w, &spec),
            points: res.points[..n].to_vec(),
        };
        let back = SweepCheckpoint::parse_jsonl(&ck.to_jsonl()).expect("parse");
        prop_assert_eq!(&back, &ck);
        prop_assert_eq!(back.to_jsonl(), ck.to_jsonl());
        for (a, b) in ck.points.iter().zip(&back.points) {
            prop_assert_eq!(a.makespan.map(f64::to_bits), b.makespan.map(f64::to_bits));
            prop_assert_eq!(a.cost.map(f64::to_bits), b.cost.map(f64::to_bits));
            prop_assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
        }
    }

    #[test]
    fn pruning_is_sound_for_any_deadline(w in arb_workload(), frac in 0.05..1.5f64) {
        // Whatever the deadline, a pruned point's true makespan misses it.
        let mut spec = grid(&w.meta);
        let free = CompiledSweep::compile(&w).expect("compiles").run(&spec);
        let max_m = free
            .points
            .iter()
            .filter_map(|p| p.makespan)
            .fold(0.0, f64::max);
        prop_assume!(max_m > 0.0);
        let deadline = max_m * frac;
        spec.deadline = Some(deadline);
        let res = CompiledSweep::compile(&w).expect("compiles").run(&spec);
        for (p, truth) in res.points.iter().zip(&free.points) {
            if p.pruned {
                prop_assert!(p.lower_bound > deadline);
                let m = truth.makespan.expect("evaluated in the free run");
                prop_assert!(
                    m > deadline,
                    "{} x{} {}: pruned at deadline {} but makespan {}",
                    p.calib, p.gpus, p.schedule, deadline, m
                );
            }
        }
    }
}
