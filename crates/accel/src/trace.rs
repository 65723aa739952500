//! Trace records: what a simulated process did, in order.
//!
//! A [`crate::context::Context`] appends one [`Segment`] per action. The
//! node-level replay ([`crate::node`]) walks these sequentially per rank —
//! a segment cannot start before the previous one of the same rank
//! finished, which models the synchronous launch style both the paper's
//! ports use.

use crate::profile::KernelProfile;

/// Direction of a host↔device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDir {
    /// Host to device (`accel_data_update_device` in the paper's Fig. 6).
    HostToDevice,
    /// Device to host (`accel_data_update_host`).
    DeviceToHost,
}

impl TransferDir {
    /// The paper's Fig. 6 label for this operation.
    pub fn label(self) -> &'static str {
        match self {
            TransferDir::HostToDevice => "accel_data_update_device",
            TransferDir::DeviceToHost => "accel_data_update_host",
        }
    }
}

/// One step of a rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// Host-side computation (serial orchestration, unported kernels, CPU
    /// kernel implementations) for `seconds` of host time.
    Host { seconds: f64, label: String },
    /// A kernel launch on the rank's device. `dispatch` is the host-side
    /// framework overhead paid before the device sees the kernel.
    Kernel {
        profile: KernelProfile,
        dispatch: f64,
    },
    /// A PCIe transfer of `bytes` in direction `dir`.
    Transfer {
        bytes: f64,
        dir: TransferDir,
        label: String,
    },
    /// A device-side allocation or free (latency only; capacity accounting
    /// happens in [`crate::context::Context`]).
    DeviceAlloc { seconds: f64 },
    /// An inter-node collective (e.g. an MPI allreduce) moving `bytes`
    /// through the node NIC. `seconds` is the *analytic solo* network cost
    /// (the [`crate::comm`] formulas, which assume the whole NIC); the
    /// engine barriers all participating ranks and then shares each NIC
    /// among its node's ranks, so the replayed cost is congestion-aware.
    Collective {
        seconds: f64,
        bytes: f64,
        label: String,
    },
}

impl Segment {
    /// The accounting label used for per-operation breakdowns.
    pub fn label(&self) -> &str {
        match self {
            Segment::Host { label, .. } => label,
            Segment::Kernel { profile, .. } => &profile.name,
            Segment::Transfer { label, .. } => label,
            Segment::DeviceAlloc { .. } => "accel_data_alloc",
            Segment::Collective { label, .. } => label,
        }
    }
}

/// An interned label: an index into a [`LabelTable`].
///
/// The discrete-event engine replays hundreds of thousands of segments,
/// and cloning each segment's label `String` per event dominated its
/// profile. Labels are interned once at replay setup; the hot loop moves
/// only these copyable ids, and the strings are resolved back when the
/// recorded timeline is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// The table slot, for engine-side side tables keyed by label.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The string table backing [`LabelId`]s.
#[derive(Debug, Clone, Default)]
pub struct LabelTable {
    names: Vec<String>,
    index: std::collections::HashMap<String, u32>,
}

impl LabelTable {
    /// Intern `s`, returning the existing id if it was seen before.
    pub fn intern(&mut self, s: &str) -> LabelId {
        if let Some(&i) = self.index.get(s) {
            return LabelId(i);
        }
        let i = u32::try_from(self.names.len()).expect("label table overflow");
        self.names.push(s.to_string());
        self.index.insert(s.to_string(), i);
        LabelId(i)
    }

    /// The string `id` was interned from.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Kind of a timed [`SpanEvent`] on a rank's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Host-side computation.
    Host,
    /// Device kernel (dispatch + launch latency + solo device time).
    Kernel,
    /// PCIe transfer.
    Transfer,
    /// Device allocation (instant when pool-hit).
    Alloc,
    /// Device free (instant).
    Free,
    /// An inter-node collective (analytic solo network cost).
    Collective,
    /// A failed allocation — device out of memory (instant).
    Oom,
    /// A phase opened with [`crate::context::Context::push_phase`]: spans
    /// everything charged between push and pop.
    Phase,
}

impl SpanKind {
    /// Stable lowercase name, used by the trace exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Host => "host",
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "transfer",
            SpanKind::Alloc => "alloc",
            SpanKind::Free => "free",
            SpanKind::Collective => "collective",
            SpanKind::Oom => "oom",
            SpanKind::Phase => "phase",
        }
    }

    /// Whether this kind's duration is part of the rank's solo-estimate
    /// wall time (phases overlap their contents; frees and OOMs are
    /// instants).
    pub fn is_timed(self) -> bool {
        matches!(
            self,
            SpanKind::Host
                | SpanKind::Kernel
                | SpanKind::Transfer
                | SpanKind::Alloc
                | SpanKind::Collective
        )
    }
}

/// One timed span (or instant event) on a rank's virtual clock. The
/// [`crate::context::Context`] records one per charge, giving every
/// [`Segment`] a start time, a duration and the phase scope it was charged
/// under — the raw material for the Chrome-trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// What happened.
    pub kind: SpanKind,
    /// Accounting label (same vocabulary as [`Segment::label`]).
    pub label: String,
    /// `/`-joined phase stack at record time (empty at top level).
    pub scope: String,
    /// Virtual seconds since the rank started.
    pub start: f64,
    /// Span length in virtual seconds (0 for instants).
    pub dur: f64,
    /// Bytes involved (transfers, allocations, frees, OOM requests).
    pub bytes: f64,
}

/// A whole rank's recorded timeline plus its peak device-memory footprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// Ordered segments.
    pub segments: Vec<Segment>,
    /// Timed spans matching `segments` on the virtual clock, plus phase
    /// and memory events the segment list does not carry.
    pub events: Vec<SpanEvent>,
    /// Peak bytes simultaneously resident on the device.
    pub peak_device_bytes: u64,
}

impl RankTrace {
    /// Sum of all host seconds in the trace.
    pub fn host_seconds(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Host { seconds, .. } => *seconds,
                Segment::Kernel { dispatch, .. } => *dispatch,
                _ => 0.0,
            })
            .sum()
    }

    /// Number of kernel launches in the trace.
    pub fn kernel_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Kernel { .. }))
            .count()
    }

    /// Total bytes transferred over PCIe (both directions).
    pub fn transfer_bytes(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Transfer { bytes, .. } => *bytes,
                _ => 0.0,
            })
            .sum()
    }

    /// Summed span seconds per label over the timed event kinds — by
    /// construction equal to the per-label `seconds` the owning context's
    /// stats report (the trace-export round-trip invariant).
    pub fn span_seconds_by_label(&self) -> std::collections::BTreeMap<String, f64> {
        let mut out = std::collections::BTreeMap::new();
        for e in &self.events {
            if e.kind.is_timed() {
                *out.entry(e.label.clone()).or_insert(0.0) += e.dur;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accounting() {
        let mut t = RankTrace::default();
        t.segments.push(Segment::Host {
            seconds: 1.5,
            label: "serial".into(),
        });
        t.segments.push(Segment::Kernel {
            profile: KernelProfile::uniform("k", 10.0, 1.0, 8.0),
            dispatch: 0.5,
        });
        t.segments.push(Segment::Transfer {
            bytes: 100.0,
            dir: TransferDir::HostToDevice,
            label: TransferDir::HostToDevice.label().into(),
        });
        assert_eq!(t.host_seconds(), 2.0);
        assert_eq!(t.kernel_count(), 1);
        assert_eq!(t.transfer_bytes(), 100.0);
    }

    #[test]
    fn labels_match_the_papers_figure() {
        assert_eq!(
            TransferDir::HostToDevice.label(),
            "accel_data_update_device"
        );
        assert_eq!(TransferDir::DeviceToHost.label(), "accel_data_update_host");
    }

    #[test]
    fn label_table_interns_each_string_once() {
        let mut t = LabelTable::default();
        assert!(t.is_empty());
        let a = t.intern("kernel_a");
        let b = t.intern("kernel_b");
        assert_ne!(a, b);
        assert_eq!(t.intern("kernel_a"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "kernel_a");
        assert_eq!(t.resolve(b), "kernel_b");
    }

    #[test]
    fn span_seconds_sum_timed_kinds_only() {
        let mut t = RankTrace::default();
        let span = |kind, label: &str, dur| SpanEvent {
            kind,
            label: label.into(),
            scope: String::new(),
            start: 0.0,
            dur,
            bytes: 0.0,
        };
        t.events.push(span(SpanKind::Host, "h", 1.0));
        t.events.push(span(SpanKind::Host, "h", 2.0));
        t.events.push(span(SpanKind::Kernel, "k", 4.0));
        t.events.push(span(SpanKind::Phase, "phase", 100.0));
        t.events.push(span(SpanKind::Oom, "oom", 50.0));
        let by = t.span_seconds_by_label();
        assert_eq!(by["h"], 3.0);
        assert_eq!(by["k"], 4.0);
        assert!(!by.contains_key("phase"));
        assert!(!by.contains_key("oom"));
    }
}
