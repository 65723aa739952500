//! Per-process simulation context: the recording side of the simulator.
//!
//! Each simulated MPI rank owns one [`Context`]. Framework code calls into
//! it to charge host compute, launch kernels, move data and account device
//! memory; the context appends [`Segment`]s to a [`RankTrace`] and keeps
//! aggregate per-label statistics that the figure harness reads back (the
//! paper's Fig. 6 per-kernel breakdown).

use std::collections::BTreeMap;

use crate::calib::NodeCalib;
use crate::profile::KernelProfile;
use crate::trace::{RankTrace, Segment, SpanEvent, SpanKind, TransferDir};

/// Device out-of-memory, as in the paper's JAX runs that "do not fit on
/// GPU memory when running with one and 64 processes".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryError {
    /// Bytes the failing allocation requested.
    pub requested: u64,
    /// Bytes already resident.
    pub in_use: u64,
    /// Device capacity available to this rank.
    pub capacity: u64,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B in use of {} B",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for MemoryError {}

/// The recording context for one simulated process.
#[derive(Debug, Clone)]
pub struct Context {
    /// Calibration shared by everything this process touches.
    pub calib: NodeCalib,
    /// Device-memory capacity available to this rank (the node model sets
    /// this to `gpu.mem_bytes / ranks_per_gpu` so OOM emerges from
    /// oversubscription).
    pub device_capacity: u64,
    trace: RankTrace,
    device_in_use: u64,
    by_label: BTreeMap<String, LabelStats>,
    /// Virtual seconds elapsed on this rank's solo-estimate clock.
    clock: f64,
    /// Open phases: `(label, start clock)`, innermost last.
    phases: Vec<(String, f64)>,
}

/// Aggregate statistics for one accounting label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LabelStats {
    /// Number of segments recorded under this label.
    pub calls: u64,
    /// Estimated solo seconds (device kernels: solo wall time; host
    /// segments: host seconds; transfers: PCIe time). The node replay
    /// refines these with contention; these per-label numbers drive the
    /// per-kernel figure.
    pub seconds: f64,
    /// Bytes moved (transfers only).
    pub bytes: f64,
}

impl Context {
    /// A context with the whole device to itself.
    pub fn new(calib: NodeCalib) -> Self {
        let cap = calib.gpu.mem_bytes;
        Self::with_capacity(calib, cap)
    }

    /// A context limited to `device_capacity` bytes of device memory.
    pub fn with_capacity(calib: NodeCalib, device_capacity: u64) -> Self {
        Self {
            calib,
            device_capacity,
            trace: RankTrace::default(),
            device_in_use: 0,
            by_label: BTreeMap::new(),
            clock: 0.0,
            phases: Vec::new(),
        }
    }

    /// Virtual seconds elapsed on this rank's solo-estimate clock.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Open a phase: spans recorded until the matching [`Self::pop_phase`]
    /// carry it in their scope, and the phase itself is emitted as a
    /// [`SpanKind::Phase`] event covering push → pop on the virtual clock.
    pub fn push_phase(&mut self, label: impl Into<String>) {
        self.phases.push((label.into(), self.clock));
    }

    /// Close the innermost phase, emitting its span. No-op when no phase
    /// is open.
    pub fn pop_phase(&mut self) {
        if let Some((label, start)) = self.phases.pop() {
            let scope = self.scope();
            self.trace.events.push(SpanEvent {
                kind: SpanKind::Phase,
                label,
                scope,
                start,
                dur: self.clock - start,
                bytes: 0.0,
            });
        }
    }

    /// Number of open phases.
    pub fn phase_depth(&self) -> usize {
        self.phases.len()
    }

    /// Pop phases (emitting their spans) until `depth` remain — the
    /// early-exit cleanup for callers that error out mid-phase.
    pub fn truncate_phases(&mut self, depth: usize) {
        while self.phases.len() > depth {
            self.pop_phase();
        }
    }

    fn scope(&self) -> String {
        self.phases
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Record a span of `dur` virtual seconds starting now, advancing the
    /// clock by its duration when timed.
    fn record(&mut self, kind: SpanKind, label: &str, dur: f64, bytes: f64) {
        let scope = self.scope();
        self.trace.events.push(SpanEvent {
            kind,
            label: label.to_string(),
            scope,
            start: self.clock,
            dur,
            bytes,
        });
        if kind.is_timed() {
            self.clock += dur;
        }
    }

    /// Charge `seconds` of host computation under `label`.
    pub fn host_compute(&mut self, label: impl Into<String>, seconds: f64) {
        let label = label.into();
        self.stat(&label).calls += 1;
        self.stat(&label).seconds += seconds;
        self.record(SpanKind::Host, &label, seconds, 0.0);
        self.trace.segments.push(Segment::Host { seconds, label });
    }

    /// Launch a kernel with host-side `dispatch` overhead.
    pub fn launch(&mut self, profile: KernelProfile, dispatch: f64) {
        let solo = profile.solo_seconds(&self.calib.gpu) + dispatch + self.calib.gpu.launch_latency;
        let s = self.stat(&profile.name);
        s.calls += 1;
        s.seconds += solo;
        self.record(SpanKind::Kernel, &profile.name.clone(), solo, 0.0);
        self.trace
            .segments
            .push(Segment::Kernel { profile, dispatch });
    }

    /// Record a host↔device transfer of `bytes` under the standard
    /// `accel_data_*` labels.
    pub fn transfer(&mut self, bytes: f64, dir: TransferDir) {
        self.transfer_labeled(bytes, dir, dir.label());
    }

    /// Record a transfer under a custom label (e.g. `accel_data_reset` for
    /// device-side zeroing, which the paper charges separately).
    pub fn transfer_labeled(&mut self, bytes: f64, dir: TransferDir, label: impl Into<String>) {
        let label = label.into();
        let seconds = self.calib.gpu.pcie_latency + bytes / self.calib.gpu.pcie_bw;
        let s = self.stat(&label);
        s.calls += 1;
        s.seconds += seconds;
        s.bytes += bytes;
        self.record(SpanKind::Transfer, &label, seconds, bytes);
        self.trace
            .segments
            .push(Segment::Transfer { bytes, dir, label });
    }

    /// Record an inter-node collective moving `bytes` at an analytic solo
    /// cost of `seconds` (from [`crate::comm`]). The engine's cluster
    /// replay barriers all participating ranks on this segment and shares
    /// the node NIC, so the replayed cost exceeds `seconds` under
    /// congestion; the solo estimate is what this rank's stats carry.
    pub fn collective(&mut self, label: impl Into<String>, bytes: f64, seconds: f64) {
        let label = label.into();
        let s = self.stat(&label);
        s.calls += 1;
        s.seconds += seconds;
        s.bytes += bytes;
        self.record(SpanKind::Collective, &label, seconds, bytes);
        self.trace.segments.push(Segment::Collective {
            seconds,
            bytes,
            label,
        });
    }

    /// Account a device allocation of `bytes`; charges allocator latency
    /// unless `pooled` (a pool hit costs effectively nothing, the reason
    /// both ports implement pools).
    pub fn device_alloc(&mut self, bytes: u64, pooled: bool) -> Result<(), MemoryError> {
        if self.device_in_use + bytes > self.device_capacity {
            self.record(SpanKind::Oom, "accel_oom", 0.0, bytes as f64);
            return Err(MemoryError {
                requested: bytes,
                in_use: self.device_in_use,
                capacity: self.device_capacity,
            });
        }
        self.device_in_use += bytes;
        self.trace.peak_device_bytes = self.trace.peak_device_bytes.max(self.device_in_use);
        let seconds = if pooled {
            0.0
        } else {
            self.calib.gpu.alloc_latency
        };
        if seconds > 0.0 {
            let s = self.stat("accel_data_alloc");
            s.calls += 1;
            s.seconds += seconds;
            self.record(SpanKind::Alloc, "accel_data_alloc", seconds, bytes as f64);
            self.trace.segments.push(Segment::DeviceAlloc { seconds });
        } else {
            // Pool hit: no time charged, but keep the event for the trace.
            self.record(
                SpanKind::Alloc,
                "accel_data_alloc_pooled",
                0.0,
                bytes as f64,
            );
        }
        Ok(())
    }

    /// Release `bytes` of device memory.
    pub fn device_free(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.device_in_use, "free of {bytes} exceeds usage");
        self.device_in_use = self.device_in_use.saturating_sub(bytes);
        self.record(SpanKind::Free, "accel_data_free", 0.0, bytes as f64);
    }

    /// Bytes currently resident on the device.
    pub fn device_in_use(&self) -> u64 {
        self.device_in_use
    }

    /// Peak bytes ever resident.
    pub fn peak_device_bytes(&self) -> u64 {
        self.trace.peak_device_bytes
    }

    /// The recorded timeline.
    pub fn trace(&self) -> &RankTrace {
        &self.trace
    }

    /// Consume the context, returning its trace.
    pub fn into_trace(self) -> RankTrace {
        self.trace
    }

    /// Per-label statistics (kernel names, `accel_data_*` operations,
    /// host labels), sorted by label.
    pub fn stats(&self) -> &BTreeMap<String, LabelStats> {
        &self.by_label
    }

    /// Total solo-estimate seconds across all labels.
    pub fn total_seconds(&self) -> f64 {
        self.by_label.values().map(|s| s.seconds).sum()
    }

    fn stat(&mut self, label: &str) -> &mut LabelStats {
        if !self.by_label.contains_key(label) {
            self.by_label
                .insert(label.to_string(), LabelStats::default());
        }
        self.by_label.get_mut(label).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(NodeCalib::default())
    }

    #[test]
    fn memory_accounting_and_oom() {
        let mut c = Context::with_capacity(NodeCalib::default(), 1000);
        c.device_alloc(400, true).unwrap();
        c.device_alloc(600, true).unwrap();
        assert_eq!(c.device_in_use(), 1000);
        let err = c.device_alloc(1, true).unwrap_err();
        assert_eq!(err.in_use, 1000);
        c.device_free(600);
        assert_eq!(c.device_in_use(), 400);
        c.device_alloc(500, true).unwrap();
        assert_eq!(c.peak_device_bytes(), 1000);
    }

    #[test]
    fn pooled_allocs_are_free_of_latency() {
        let mut c = ctx();
        c.device_alloc(100, true).unwrap();
        assert!(c.stats().get("accel_data_alloc").is_none());
        c.device_alloc(100, false).unwrap();
        let s = c.stats()["accel_data_alloc"];
        assert_eq!(s.calls, 1);
        assert!(s.seconds > 0.0);
    }

    #[test]
    fn per_label_stats_accumulate() {
        let mut c = ctx();
        c.host_compute("serial", 1.0);
        c.host_compute("serial", 2.0);
        c.launch(KernelProfile::uniform("scan_map", 1e6, 10.0, 24.0), 1e-5);
        c.transfer(1e6, TransferDir::HostToDevice);
        c.transfer(2e6, TransferDir::HostToDevice);
        assert_eq!(c.stats()["serial"].calls, 2);
        assert_eq!(c.stats()["serial"].seconds, 3.0);
        assert_eq!(c.stats()["scan_map"].calls, 1);
        let t = c.stats()["accel_data_update_device"];
        assert_eq!(t.calls, 2);
        assert_eq!(t.bytes, 3e6);
        assert!(t.seconds > 3e6 / c.calib.gpu.pcie_bw);
        assert_eq!(c.trace().kernel_count(), 1);
    }

    #[test]
    fn clock_advances_with_every_charge() {
        let mut c = ctx();
        assert_eq!(c.now(), 0.0);
        c.host_compute("a", 1.0);
        assert_eq!(c.now(), 1.0);
        c.transfer(1e6, TransferDir::HostToDevice);
        let after_transfer = c.now();
        assert!(after_transfer > 1.0);
        c.launch(KernelProfile::uniform("k", 1e6, 10.0, 24.0), 1e-5);
        assert!(c.now() > after_transfer);
        // Spans start back-to-back and cover the clock exactly.
        let events = &c.trace().events;
        let mut t = 0.0;
        for e in events.iter().filter(|e| e.kind.is_timed()) {
            assert!((e.start - t).abs() < 1e-15, "{} vs {}", e.start, t);
            t = e.start + e.dur;
        }
        assert!((t - c.now()).abs() < 1e-15);
    }

    #[test]
    fn span_seconds_match_label_stats() {
        let mut c = ctx();
        c.host_compute("serial", 1.5);
        c.host_compute("serial", 0.5);
        c.launch(KernelProfile::uniform("scan_map", 1e6, 10.0, 24.0), 1e-5);
        c.transfer(4e6, TransferDir::DeviceToHost);
        c.device_alloc(100, false).unwrap();
        let by_span = c.trace().span_seconds_by_label();
        for (label, stat) in c.stats() {
            let spans = by_span.get(label).copied().unwrap_or(0.0);
            assert!(
                (spans - stat.seconds).abs() < 1e-12,
                "{label}: spans {spans} vs stats {}",
                stat.seconds
            );
        }
    }

    #[test]
    fn phases_scope_spans_and_emit_phase_events() {
        let mut c = ctx();
        c.push_phase("pipeline");
        c.host_compute("setup", 1.0);
        c.push_phase("kernel[ScanMap]");
        c.host_compute("inner", 2.0);
        c.pop_phase();
        c.pop_phase();

        let events = &c.trace().events;
        let inner = events.iter().find(|e| e.label == "inner").unwrap();
        assert_eq!(inner.scope, "pipeline/kernel[ScanMap]");
        let phase = events
            .iter()
            .find(|e| e.kind == SpanKind::Phase && e.label == "kernel[ScanMap]")
            .unwrap();
        assert_eq!(phase.start, 1.0);
        assert_eq!(phase.dur, 2.0);
        assert_eq!(phase.scope, "pipeline");
        let outer = events
            .iter()
            .find(|e| e.kind == SpanKind::Phase && e.label == "pipeline")
            .unwrap();
        assert_eq!(outer.dur, 3.0);
        assert_eq!(c.phase_depth(), 0);
    }

    #[test]
    fn truncate_phases_closes_dangling_scopes() {
        let mut c = ctx();
        let depth = c.phase_depth();
        c.push_phase("a");
        c.push_phase("b");
        c.host_compute("x", 1.0);
        c.truncate_phases(depth);
        assert_eq!(c.phase_depth(), 0);
        let phases: Vec<_> = c
            .trace()
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Phase)
            .collect();
        assert_eq!(phases.len(), 2);
    }

    #[test]
    fn oom_and_free_are_recorded_as_instants() {
        let mut c = Context::with_capacity(NodeCalib::default(), 1000);
        c.device_alloc(800, true).unwrap();
        assert!(c.device_alloc(400, true).is_err());
        c.device_free(800);
        let events = &c.trace().events;
        let oom = events.iter().find(|e| e.kind == SpanKind::Oom).unwrap();
        assert_eq!(oom.bytes, 400.0);
        assert_eq!(oom.dur, 0.0);
        let free = events.iter().find(|e| e.kind == SpanKind::Free).unwrap();
        assert_eq!(free.bytes, 800.0);
    }

    #[test]
    fn kernel_stat_includes_dispatch_and_launch() {
        let mut c = ctx();
        let k = KernelProfile::uniform("k", 1e6, 10.0, 24.0);
        let solo = k.solo_seconds(&c.calib.gpu);
        c.launch(k, 1e-3);
        let s = c.stats()["k"];
        assert!(s.seconds > solo + 1e-3);
    }
}
