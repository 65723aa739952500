//! Property-based tests for the what-if repricer ([`accel_sim::whatif`]).
//!
//! Repricing claims to answer "what would this recorded run cost on
//! better hardware?" — that is only trustworthy if the answer moves the
//! right way (faster hardware never makes a charge slower) and does not
//! depend on when you ask (replays are deterministic and the serialized
//! form is stable). These properties hold over the whole input space, not
//! just the calibrated presets.

use accel_sim::whatif::{solo_label_stats, RecordMeta, RecordedWorkload};
use accel_sim::{KernelProfile, NetCalib, NodeCalib, RankTrace, Segment, TransferDir};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = KernelProfile> {
    (1.0..1e9, 0.5..500.0, 0.5..64.0, 1.0..4.0).prop_map(|(items, flops, bytes, div)| {
        KernelProfile {
            name: "k".into(),
            items,
            flops_per_item: flops,
            bytes_per_item: bytes,
            divergence: div,
        }
    })
}

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

fn single_segment_workload(seg: Segment) -> RecordedWorkload {
    RecordedWorkload {
        meta: RecordMeta::default(),
        nodes: vec![vec![RankTrace {
            segments: vec![seg],
            ..RankTrace::default()
        }]],
    }
}

proptest! {
    /// Scaling the device's FP64 throughput up never increases a repriced
    /// kernel's solo time or the replayed makespan, for any kernel shape.
    #[test]
    fn faster_fp64_never_slows_kernels(profile in arb_profile(), factor in 1.0..50.0) {
        let w = single_segment_workload(Segment::Kernel {
            profile,
            dispatch: 1e-5,
        });
        let base = NodeCalib::default();
        let mut fast = base;
        fast.gpu.fp64_peak *= factor;
        let net = NetCalib::default();
        let t_base = solo_label_stats(&w.nodes, &base)["k"].seconds;
        let t_fast = solo_label_stats(&w.nodes, &fast)["k"].seconds;
        prop_assert!(t_fast <= t_base, "solo {t_fast} > {t_base} at x{factor}");
        let wall_base = w.replay(&base, &net, None).unwrap().cluster.wall_seconds;
        let wall_fast = w.replay(&fast, &net, None).unwrap().cluster.wall_seconds;
        prop_assert!(
            wall_fast <= wall_base,
            "wall {wall_fast} > {wall_base} at x{factor}"
        );
    }

    /// Scaling the host link bandwidth up never increases a repriced
    /// transfer's time or the replayed makespan.
    #[test]
    fn faster_link_never_slows_transfers(bytes in 1.0..1e11, factor in 1.0..50.0) {
        let w = single_segment_workload(Segment::Transfer {
            bytes,
            dir: TransferDir::DeviceToHost,
            label: "d2h".into(),
        });
        let base = NodeCalib::default();
        let mut fast = base;
        fast.gpu.pcie_bw *= factor;
        let net = NetCalib::default();
        let t_base = solo_label_stats(&w.nodes, &base)["d2h"].seconds;
        let t_fast = solo_label_stats(&w.nodes, &fast)["d2h"].seconds;
        prop_assert!(t_fast <= t_base, "solo {t_fast} > {t_base} at x{factor}");
        let wall_base = w.replay(&base, &net, None).unwrap().cluster.wall_seconds;
        let wall_fast = w.replay(&fast, &net, None).unwrap().cluster.wall_seconds;
        prop_assert!(
            wall_fast <= wall_base,
            "wall {wall_fast} > {wall_base} at x{factor}"
        );
    }

    /// Repricing is deterministic: serialization is byte-stable across a
    /// round trip, and replays of the original and the round-tripped
    /// workload agree bit for bit, per-label stats included.
    #[test]
    fn repricing_is_deterministic(
        specs in proptest::collection::vec(
            proptest::collection::vec(arb_segment(), 1usize..6),
            1usize..5,
        ),
        bw_scale in 0.5..4.0,
        flops_scale in 0.5..4.0,
    ) {
        let w = workload_from_specs(specs);
        let text = w.to_jsonl();
        prop_assert_eq!(&w.to_jsonl(), &text);
        let parsed = RecordedWorkload::parse_jsonl(&text).unwrap();
        prop_assert_eq!(&parsed.to_jsonl(), &text);

        let mut node = NodeCalib::default();
        node.cpu.core_flops *= flops_scale;
        node.gpu.fp64_peak *= flops_scale;
        let net = NetCalib {
            bw: NetCalib::default().bw * bw_scale,
            ..NetCalib::default()
        };
        let a = w.replay(&node, &net, None).unwrap();
        let b = parsed.replay(&node, &net, None).unwrap();
        prop_assert_eq!(&a.per_label, &b.per_label);
        let (wall_a, wall_b) = (a.cluster.wall_seconds, b.cluster.wall_seconds);
        prop_assert_eq!(wall_a.to_bits(), wall_b.to_bits());
    }
}
