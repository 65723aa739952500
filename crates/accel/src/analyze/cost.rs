//! Pass 3 — cost sanity.
//!
//! Two layers, subsuming the engine's runtime charge validation so a
//! replay can no longer be the first place a malformed charge is
//! noticed:
//!
//! 1. **Recorded charges** ([`raw_cost_pass`]): every numeric field of
//!    every segment is checked finite, walking ranks and fields in the
//!    same order as the compile pass, so the first `C001` names exactly
//!    the segment a replay's `NonFiniteCharge` would. Unlike compile,
//!    the walk continues after the first finding and also flags
//!    replayable-but-degenerate values: negative magnitudes (`C002`,
//!    priced as instant no-ops), kernels launched over zero work items
//!    (`C003`), and — when transfer streams overlap — transfers whose
//!    priced link time can reach zero, making the completion race its
//!    own enqueue (`C004`).
//! 2. **Derived costs** ([`derived_cost_check`]): the per-calibration
//!    cost table is materialized exactly as a replay would (same code
//!    path), so a calibration that turns a finite recording into a
//!    non-finite kernel/transfer cost is caught at lint time with the
//!    same locus the engine would report.

use crate::calib::DeviceCalib;
use crate::engine::error::EngineError;
use crate::engine::sim::{CompiledWorkload, Reprice};
use crate::trace::{RankTrace, Segment};

use super::diag::{Code, Diagnostic, Locus};

fn non_finite(rank: usize, segment: usize, label: &str, value: f64) -> Diagnostic {
    // Shared formatting path: the message is the runtime error's text.
    let err = EngineError::NonFiniteCharge {
        rank,
        segment,
        label: label.to_string(),
        value,
    };
    Diagnostic::error(
        Code::NonFiniteCharge,
        Locus::segment(rank, segment, label),
        err.to_string(),
    )
    .with_suggestion("the recording is corrupt; re-record the run")
}

fn negative(rank: usize, segment: usize, label: &str, what: &str, value: f64) -> Diagnostic {
    Diagnostic::warn(
        Code::NegativeCharge,
        Locus::segment(rank, segment, label),
        format!("rank {rank} segment {segment} ('{label}') records a negative {what} ({value}); the engine prices it as an instant no-op"),
    )
}

/// Push a `C001` for a non-finite value; true means the value is fine.
fn check_finite(
    out: &mut Vec<Diagnostic>,
    rank: usize,
    segment: usize,
    label: &str,
    value: f64,
) -> bool {
    if value.is_finite() {
        true
    } else {
        out.push(non_finite(rank, segment, label, value));
        false
    }
}

/// Scan every recorded charge (see module docs). `overlap` is the
/// workload's `overlap_transfers` flag and gates the `C004` check.
pub(crate) fn raw_cost_pass(nodes: &[Vec<RankTrace>], overlap: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut rank = 0usize;
    for node in nodes {
        for trace in node {
            for (i, seg) in trace.segments.iter().enumerate() {
                let label = seg.label();
                let check = |out: &mut Vec<Diagnostic>, value: f64| {
                    check_finite(out, rank, i, label, value)
                };
                match seg {
                    Segment::Host { seconds, .. } | Segment::DeviceAlloc { seconds } => {
                        if check(&mut out, *seconds) && *seconds < 0.0 {
                            out.push(negative(rank, i, label, "duration", *seconds));
                        }
                    }
                    Segment::Kernel { profile, dispatch } => {
                        let fields = [
                            profile.items,
                            profile.flops_per_item,
                            profile.bytes_per_item,
                            profile.divergence,
                            *dispatch,
                        ];
                        let mut finite = true;
                        for f in fields {
                            finite &= check(&mut out, f);
                        }
                        if finite {
                            if profile.items <= 0.0 {
                                out.push(Diagnostic::warn(
                                    Code::EmptyKernelGrid,
                                    Locus::segment(rank, i, label),
                                    format!(
                                        "rank {rank} segment {i}: kernel '{label}' launches over {} work item(s); it completes instantly and only pays dispatch",
                                        profile.items
                                    ),
                                ));
                            }
                            for (what, v) in [
                                ("flops_per_item", profile.flops_per_item),
                                ("bytes_per_item", profile.bytes_per_item),
                                ("dispatch", *dispatch),
                            ] {
                                if v < 0.0 {
                                    out.push(negative(rank, i, label, what, v));
                                }
                            }
                        }
                    }
                    Segment::Transfer { bytes, .. } => {
                        if check(&mut out, *bytes) {
                            if *bytes < 0.0 {
                                out.push(negative(rank, i, label, "payload", *bytes));
                            }
                            if overlap && *bytes <= 0.0 {
                                out.push(Diagnostic::warn(
                                    Code::StreamUnderflowRisk,
                                    Locus::segment(rank, i, label),
                                    format!(
                                        "rank {rank} segment {i} ('{label}'): a {bytes}-byte transfer on an overlapped stream can complete at its own enqueue time; the stream accounting absorbs it, but the transfer does nothing",
                                    ),
                                ));
                            }
                        }
                    }
                    Segment::Collective { seconds, bytes, .. } => {
                        if check(&mut out, *seconds) && *seconds < 0.0 {
                            out.push(negative(rank, i, label, "duration", *seconds));
                        }
                        if check(&mut out, *bytes) && *bytes < 0.0 {
                            out.push(negative(rank, i, label, "payload", *bytes));
                        }
                    }
                }
            }
            rank += 1;
        }
    }
    out
}

/// Materialize the identity-repriced cost table under `gpu` — the exact
/// code path a replay prices with — and convert its error, if any, into
/// the matching `C001`. Only meaningful once [`raw_cost_pass`] found no
/// non-finite recorded charge (compile fails on those first, with the
/// same code).
pub(crate) fn derived_cost_check(
    nodes: &[Vec<RankTrace>],
    gpu: &DeviceCalib,
) -> Option<Diagnostic> {
    let slices: Vec<&[RankTrace]> = nodes.iter().map(|v| v.as_slice()).collect();
    let err = match CompiledWorkload::compile(&slices) {
        Ok(compiled) => compiled.cost_table(gpu, &Reprice::Identity).err()?,
        Err(e) => e,
    };
    let EngineError::NonFiniteCharge {
        rank,
        segment,
        ref label,
        ..
    } = err
    else {
        // compile/cost_table only raise NonFiniteCharge today; surface
        // anything new verbatim rather than silently dropping it.
        return Some(Diagnostic::error(
            Code::NonFiniteCharge,
            Locus::default(),
            err.to_string(),
        ));
    };
    Some(
        Diagnostic::error(
            Code::NonFiniteCharge,
            Locus::segment(rank, segment, label.clone()),
            err.to_string(),
        )
        .with_suggestion(
            "the recorded charge is finite but the calibration prices it non-finite; check the calibration's bandwidths and throughputs",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;

    fn trace(segments: Vec<Segment>) -> Vec<Vec<RankTrace>> {
        vec![vec![RankTrace {
            segments,
            ..RankTrace::default()
        }]]
    }

    fn kernel(items: f64, dispatch: f64) -> Segment {
        Segment::Kernel {
            profile: KernelProfile {
                name: "k".into(),
                items,
                flops_per_item: 10.0,
                bytes_per_item: 8.0,
                divergence: 1.0,
            },
            dispatch,
        }
    }

    #[test]
    fn clean_traces_pass_silently() {
        let nodes = trace(vec![
            Segment::Host {
                seconds: 0.1,
                label: "h".into(),
            },
            kernel(1e6, 1e-5),
            Segment::Transfer {
                bytes: 1e6,
                dir: crate::trace::TransferDir::HostToDevice,
                label: "h2d".into(),
            },
        ]);
        assert!(raw_cost_pass(&nodes, true).is_empty());
        assert!(derived_cost_check(&nodes, &DeviceCalib::a100()).is_none());
    }

    #[test]
    fn non_finite_matches_the_runtime_error_text() {
        let nodes = trace(vec![Segment::Host {
            seconds: f64::NAN,
            label: "h".into(),
        }]);
        let diags = raw_cost_pass(&nodes, false);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NonFiniteCharge);
        let expect = EngineError::NonFiniteCharge {
            rank: 0,
            segment: 0,
            label: "h".into(),
            value: f64::NAN,
        };
        assert_eq!(diags[0].message, expect.to_string());
    }

    #[test]
    fn the_walk_reports_every_finding_not_just_the_first() {
        let nodes = trace(vec![
            Segment::Host {
                seconds: f64::INFINITY,
                label: "h".into(),
            },
            kernel(0.0, 1e-5),
            Segment::Collective {
                seconds: -0.5,
                bytes: 1e6,
                label: "allreduce".into(),
            },
        ]);
        let diags = raw_cost_pass(&nodes, false);
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                Code::NonFiniteCharge,
                Code::EmptyKernelGrid,
                Code::NegativeCharge
            ]
        );
        assert_eq!(diags[2].locus.segment, Some(2));
    }

    #[test]
    fn underflow_risk_needs_overlap() {
        let nodes = trace(vec![Segment::Transfer {
            bytes: 0.0,
            dir: crate::trace::TransferDir::DeviceToHost,
            label: "d2h".into(),
        }]);
        assert!(raw_cost_pass(&nodes, false).is_empty());
        let diags = raw_cost_pass(&nodes, true);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::StreamUnderflowRisk);
    }

    #[test]
    fn degenerate_calibration_prices_non_finite_derived_costs() {
        let nodes = trace(vec![Segment::Transfer {
            bytes: 1e6,
            dir: crate::trace::TransferDir::HostToDevice,
            label: "h2d".into(),
        }]);
        let mut gpu = DeviceCalib::a100();
        gpu.pcie_bw = 0.0;
        let diag = derived_cost_check(&nodes, &gpu).expect("derived cost is infinite");
        assert_eq!(diag.code, Code::NonFiniteCharge);
        assert_eq!(diag.locus.rank, Some(0));
        assert_eq!(diag.locus.label.as_deref(), Some("h2d"));
    }
}
