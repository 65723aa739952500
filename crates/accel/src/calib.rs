//! Hardware and framework calibration constants.
//!
//! Every timing the simulator produces flows through the numbers in this
//! module, so they are collected in one place and documented. Three kinds
//! of constants appear:
//!
//! 1. **Public hardware specifications** (A100 FP64 peak, HBM2e bandwidth,
//!    PCIe gen4 bandwidth, Milan core count) — taken from vendor datasheets.
//! 2. **Well-known rules of thumb** (kernel launch latency ~5 µs, achieved
//!    fractions of peak) — standard values from the GPU literature.
//! 3. **Paper-calibrated factors** — where the paper reports a behaviour we
//!    cannot derive from first principles (e.g. the XLA CPU backend running
//!    7.4× slower than parallel C++), the factor is set to land in the
//!    reported range and is flagged `paper-calibrated` in its doc comment.

/// A calibration field carries a value the cost model cannot price: a
/// zero or negative bandwidth/throughput turns a roofline division into
/// an infinity, and a negative or non-finite latency poisons every
/// derived charge. Raised at construction/intake time by
/// [`NodeCalib::validate`] and [`NetCalib::validate`] so degenerate
/// rooflines are rejected with the offending field named instead of
/// surfacing later as an [`crate::EngineError::NonFiniteCharge`]
/// mid-replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibError {
    /// Dotted path of the offending field, e.g. `gpu.pcie_bw`.
    pub field: &'static str,
    /// The rejected value.
    pub value: f64,
    /// What the field must satisfy.
    pub constraint: CalibConstraint,
}

/// The constraint a calibration field violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibConstraint {
    /// Must be finite and strictly positive (bandwidths, throughputs,
    /// capacities, saturation points — anything the model divides by).
    Positive,
    /// Must be finite and not negative (latencies, overheads, penalty
    /// factors).
    NonNegative,
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let need = match self.constraint {
            CalibConstraint::Positive => "a finite value > 0",
            CalibConstraint::NonNegative => "a finite value >= 0",
        };
        write!(
            f,
            "calibration field '{}' must be {} (got {})",
            self.field, need, self.value
        )
    }
}

impl std::error::Error for CalibError {}

fn positive(field: &'static str, value: f64) -> Result<(), CalibError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(CalibError {
            field,
            value,
            constraint: CalibConstraint::Positive,
        })
    }
}

fn non_negative(field: &'static str, value: f64) -> Result<(), CalibError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(CalibError {
            field,
            value,
            constraint: CalibConstraint::NonNegative,
        })
    }
}

/// Cost model of one accelerator (A100-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCalib {
    /// Peak FP64 throughput, flop/s. A100 (non-tensor-core FP64): 9.7 TF.
    pub fp64_peak: f64,
    /// Achievable HBM bandwidth, B/s. A100 40 GB HBM2e: 1.555 TB/s peak;
    /// we use a standard ~80% achieved fraction.
    pub hbm_bw: f64,
    /// Device memory capacity in bytes (40 GB A100).
    pub mem_bytes: u64,
    /// Host-visible kernel launch latency in seconds (~5 µs, the standard
    /// CUDA figure).
    pub launch_latency: f64,
    /// Work items needed to saturate the device. A100: 108 SMs × 2048
    /// resident threads.
    pub saturation_items: f64,
    /// PCIe gen4 ×16 effective host↔device bandwidth, B/s (~25 GB/s).
    pub pcie_bw: f64,
    /// Per-transfer fixed latency in seconds (driver + DMA setup ~10 µs).
    pub pcie_latency: f64,
    /// Cost of a CUDA context switch between processes when MPS is off:
    /// a full device state swap plus scheduling-quantum loss, several
    /// milliseconds in practice (paper § 3.1.2: without MPS the driver
    /// context-switches between processes, capping throughput at ~one
    /// process per device).
    pub context_switch: f64,
    /// MPS scheduling/crowding penalty per *additional* client sharing a
    /// GPU: kernels slow by `1 + mps_crowding · (clients − 1)`.
    /// Paper-calibrated: Fig. 4's speedup peaks at 2 processes per GPU and
    /// "slowly decreases … as we progressively lose the oversubscription
    /// benefit".
    pub mps_crowding: f64,
    /// Device-side allocation cost (cudaMalloc-style, ~100 µs); the reason
    /// both the paper's OpenMP port and JAX use memory pools.
    pub alloc_latency: f64,
}

impl Default for DeviceCalib {
    fn default() -> Self {
        Self {
            fp64_peak: 9.7e12,
            hbm_bw: 0.8 * 1.555e12,
            mem_bytes: 40 * (1 << 30) as u64,
            launch_latency: 5e-6,
            saturation_items: 108.0 * 2048.0,
            pcie_bw: 2.5e10,
            pcie_latency: 1e-5,
            context_switch: 6e-3,
            mps_crowding: 0.5,
            alloc_latency: 1e-4,
        }
    }
}

impl DeviceCalib {
    /// The paper's device: A100 40 GB over PCIe gen4 (the default).
    pub fn a100() -> Self {
        Self::default()
    }

    /// An H100-SXM-like device for what-if repricing: 33.5 TF FP64
    /// (non-tensor-core), 3.35 TB/s HBM3 at the same ~80% achieved
    /// fraction, 80 GB, 132 SMs, PCIe gen5 ×16 (~50 GB/s). Launch,
    /// context-switch and allocation latencies are driver-side costs and
    /// carry over from the A100 calibration.
    pub fn h100() -> Self {
        Self {
            fp64_peak: 3.35e13,
            hbm_bw: 0.8 * 3.35e12,
            mem_bytes: 80 * (1 << 30) as u64,
            saturation_items: 132.0 * 2048.0,
            pcie_bw: 5e10,
            ..Self::default()
        }
    }

    /// Swap the PCIe host link for an NVLink-like one (NVLink2
    /// host↔device as on Power9+V100 systems: ~75 GB/s per direction,
    /// roughly half the DMA setup latency). Everything else unchanged —
    /// the what-if isolates the interconnect.
    pub fn with_nvlink_host_link(mut self) -> Self {
        self.pcie_bw = 7.5e10;
        self.pcie_latency = 5e-6;
        self
    }

    /// Reject values the cost model cannot price (see [`CalibError`]).
    pub fn validate(&self) -> Result<(), CalibError> {
        positive("gpu.fp64_peak", self.fp64_peak)?;
        positive("gpu.hbm_bw", self.hbm_bw)?;
        positive("gpu.mem_bytes", self.mem_bytes as f64)?;
        positive("gpu.saturation_items", self.saturation_items)?;
        positive("gpu.pcie_bw", self.pcie_bw)?;
        non_negative("gpu.launch_latency", self.launch_latency)?;
        non_negative("gpu.pcie_latency", self.pcie_latency)?;
        non_negative("gpu.context_switch", self.context_switch)?;
        non_negative("gpu.mps_crowding", self.mps_crowding)?;
        non_negative("gpu.alloc_latency", self.alloc_latency)?;
        Ok(())
    }
}

/// Cost model of the host CPU (64-core AMD Milan-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCalib {
    /// Cores per node.
    pub cores: u32,
    /// Achieved FP64 throughput of one core, flop/s. Milan: 2.45 GHz ×
    /// 2×256-bit FMA ≈ 39 GF peak; HPC codes achieve ~25–30%.
    pub core_flops: f64,
    /// Achieved memory bandwidth of the socket, B/s (8-channel DDR4-3200:
    /// 204.8 GB/s peak, ~70% achieved).
    pub socket_bw: f64,
    /// Host memory capacity in bytes (256 GB per Perlmutter GPU node).
    pub mem_bytes: u64,
    /// Thread-team scaling penalty: kernel time is inflated by
    /// `1 + thread_overhead · log2(threads)` — OpenMP synchronisation and
    /// NUMA effects make one 64-thread process slower than 16 four-thread
    /// processes on the same data, part of why the paper's CPU curve falls
    /// with process count (Fig. 4).
    pub thread_overhead: f64,
}

impl Default for CpuCalib {
    fn default() -> Self {
        Self {
            cores: 64,
            core_flops: 1.1e10,
            socket_bw: 1.4e11,
            mem_bytes: 256 * (1 << 30) as u64,
            thread_overhead: 0.12,
        }
    }
}

impl CpuCalib {
    /// Reject values the cost model cannot price (see [`CalibError`]).
    pub fn validate(&self) -> Result<(), CalibError> {
        positive("cpu.cores", self.cores as f64)?;
        positive("cpu.core_flops", self.core_flops)?;
        positive("cpu.socket_bw", self.socket_bw)?;
        positive("cpu.mem_bytes", self.mem_bytes as f64)?;
        non_negative("cpu.thread_overhead", self.thread_overhead)?;
        Ok(())
    }
}

/// Framework-level overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameworkCalib {
    /// arrayjit per-call dispatch cost: signature hashing + JIT-cache
    /// lookup + argument staging. Paper-calibrated: footnote 10 attributes
    /// the consistent ~20% JAX deficit to runtime-level overheads.
    pub jit_dispatch: f64,
    /// arrayjit one-time trace+compile cost per (function, shape
    /// signature), seconds. JAX compiles small kernels like these in
    /// ~100 ms each; the paper's runtimes include this cost.
    pub jit_compile: f64,
    /// offload per-target-region entry cost (runtime bookkeeping on top of
    /// the raw launch).
    pub omp_region: f64,
    /// Multiplier on device memory footprint for the arrayjit pool slack +
    /// padded intermediates. Paper-calibrated: the medium problem fits one
    /// OMP process on a 40 GB device but not one JAX process (§ 4.1).
    pub jit_mem_overhead: f64,
    /// Fixed device bytes each arrayjit process reserves (CUDA context +
    /// XLA workspace). Paper-calibrated jointly with
    /// `omp_process_device_bytes` so Fig. 4's out-of-memory pattern
    /// emerges: JAX OOMs at 1 and 64 processes, offload only at 64.
    pub jit_process_device_bytes: f64,
    /// Fixed device bytes each offload process reserves (CUDA context +
    /// NVHPC OpenMP runtime device heap). Paper-calibrated; see above.
    pub omp_process_device_bytes: f64,
    /// Proportional runtime-level inefficiency of the arrayjit device path
    /// relative to the offload path: the extra host-side time per call is
    /// `(factor − 1) ×` the call's device time. Paper-calibrated: footnote
    /// 10 observes JAX's deficit is *proportional* to runtime rather than
    /// a constant per-call cost, "pointing towards performance differences
    /// at the runtime level".
    pub jit_runtime_factor: f64,
    /// Sequential-efficiency factor of the arrayjit CPU backend relative to
    /// one optimised C++ core. Paper-calibrated: § 4.2 reports the CPU
    /// backend "roughly comparable to single-core C++" yet 7.4× slower than
    /// the 4-thread parallel baseline including copy overheads.
    pub jit_cpu_backend_eff: f64,
}

impl Default for FrameworkCalib {
    fn default() -> Self {
        Self {
            jit_dispatch: 4e-5,
            jit_compile: 0.12,
            omp_region: 8e-6,
            jit_mem_overhead: 1.7,
            jit_process_device_bytes: 2.2e9,
            omp_process_device_bytes: 2.6e9,
            jit_runtime_factor: 2.5,
            jit_cpu_backend_eff: 0.27,
        }
    }
}

impl FrameworkCalib {
    /// Reject values the cost model cannot price (see [`CalibError`]).
    pub fn validate(&self) -> Result<(), CalibError> {
        non_negative("framework.jit_dispatch", self.jit_dispatch)?;
        non_negative("framework.jit_compile", self.jit_compile)?;
        non_negative("framework.omp_region", self.omp_region)?;
        positive("framework.jit_mem_overhead", self.jit_mem_overhead)?;
        non_negative(
            "framework.jit_process_device_bytes",
            self.jit_process_device_bytes,
        )?;
        non_negative(
            "framework.omp_process_device_bytes",
            self.omp_process_device_bytes,
        )?;
        positive("framework.jit_runtime_factor", self.jit_runtime_factor)?;
        positive("framework.jit_cpu_backend_eff", self.jit_cpu_backend_eff)?;
        Ok(())
    }
}

/// Full node calibration: CPU + identical GPUs + framework factors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCalib {
    pub cpu: CpuCalib,
    pub gpu: DeviceCalib,
    pub framework: FrameworkCalib,
}

impl NodeCalib {
    /// Calibration for a run whose *data* is scaled down by `work_scale`
    /// relative to the paper's problem sizes.
    ///
    /// Bandwidths and flop rates are physical and stay fixed, but every
    /// fixed per-call latency (launches, dispatch, compiles, transfers,
    /// context switches), every capacity (device and host memory) and the
    /// device's saturation point scale *with* the data, so that simulated
    /// runtimes are exactly `work_scale ×` the paper-scale runtimes and
    /// every reported *ratio* is scale-invariant. See DESIGN.md § 10.
    pub fn scaled(work_scale: f64) -> Self {
        Self::default().rescaled(work_scale)
    }

    /// Apply the [`NodeCalib::scaled`] transformation to *this*
    /// calibration instead of the default one — what-if presets are
    /// defined at paper scale and rescaled to match the recorded run's
    /// `work_scale` so repriced and original runs stay comparable.
    pub fn rescaled(mut self, work_scale: f64) -> Self {
        assert!(work_scale > 0.0 && work_scale <= 1.0);
        let c = &mut self;
        c.gpu.launch_latency *= work_scale;
        c.gpu.pcie_latency *= work_scale;
        c.gpu.context_switch *= work_scale;
        c.gpu.alloc_latency *= work_scale;
        c.gpu.mem_bytes = ((c.gpu.mem_bytes as f64) * work_scale) as u64;
        c.gpu.saturation_items *= work_scale;
        c.cpu.mem_bytes = ((c.cpu.mem_bytes as f64) * work_scale) as u64;
        c.framework.jit_dispatch *= work_scale;
        c.framework.jit_compile *= work_scale;
        c.framework.omp_region *= work_scale;
        c.framework.jit_process_device_bytes *= work_scale;
        c.framework.omp_process_device_bytes *= work_scale;
        self
    }

    /// Reject a calibration the cost model cannot price: non-positive
    /// bandwidths/throughputs/capacities and negative or non-finite
    /// latencies, each named by its dotted field path. Scenario intake
    /// (`Scenario::validate` in the `scenario` crate) and the static
    /// analyzer both call this, so a degenerate roofline is a typed
    /// admission error instead of a mid-replay `NonFiniteCharge`.
    pub fn validate(&self) -> Result<(), CalibError> {
        self.cpu.validate()?;
        self.gpu.validate()?;
        self.framework.validate()?;
        Ok(())
    }
}

/// Interconnect model for multi-node runs (Slingshot-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCalib {
    /// Per-NIC injection bandwidth, B/s (Slingshot-10: ~12.5 GB/s).
    pub bw: f64,
    /// Per-message latency, seconds.
    pub latency: f64,
}

impl Default for NetCalib {
    fn default() -> Self {
        Self {
            bw: 1.25e10,
            latency: 2e-6,
        }
    }
}

impl NetCalib {
    /// Reject values the cost model cannot price (see [`CalibError`]).
    pub fn validate(&self) -> Result<(), CalibError> {
        positive("net.bw", self.bw)?;
        non_negative("net.latency", self.latency)?;
        Ok(())
    }

    /// Perlmutter's interconnect at measurement time: Slingshot-10
    /// (~12.5 GB/s per NIC). The default.
    pub fn slingshot10() -> Self {
        Self::default()
    }

    /// Slingshot-11 (200 Gb/s NICs, ~25 GB/s) — the upgrade Perlmutter
    /// later received, doubling injection bandwidth at the same latency.
    pub fn slingshot11() -> Self {
        Self {
            bw: 2.5e10,
            ..Self::default()
        }
    }
}

/// A dimensionless per-node cost proxy for what-if sweeps, normalised so
/// the paper's machine (A100 + PCIe gen4 + Slingshot-10) prices at 1.0.
///
/// The weights follow how accelerator node pricing is dominated by the
/// GPU: half the price tracks FP64 throughput, a quarter HBM bandwidth,
/// with smaller shares for the host link and the NIC. It is deliberately
/// coarse — the sweep optimizer only needs a *monotone* proxy to rank
/// configurations on the cost axis of the Pareto front, not dollars.
/// Note [`NodeCalib::rescaled`] leaves every input of this function
/// untouched, so the proxy is work-scale-invariant.
pub fn relative_node_price(node: &NodeCalib, net: &NetCalib) -> f64 {
    let base_gpu = DeviceCalib::a100();
    let base_net = NetCalib::slingshot10();
    0.5 * (node.gpu.fp64_peak / base_gpu.fp64_peak)
        + 0.25 * (node.gpu.hbm_bw / base_gpu.hbm_bw)
        + 0.15 * (node.gpu.pcie_bw / base_gpu.pcie_bw)
        + 0.1 * (net.bw / base_net.bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physical() {
        let d = DeviceCalib::default();
        assert!(d.fp64_peak > 1e12 && d.fp64_peak < 1e14);
        assert!(d.hbm_bw > d.pcie_bw, "HBM must beat PCIe");
        assert!(d.mem_bytes as f64 > 1e10);
        let c = CpuCalib::default();
        // Node-level GPU FP64 peak should dwarf the CPU's: the premise of
        // the whole porting exercise.
        assert!(4.0 * d.fp64_peak > 10.0 * c.cores as f64 * c.core_flops);
    }

    #[test]
    fn presets_are_ordered_by_generation() {
        let a100 = DeviceCalib::a100();
        let h100 = DeviceCalib::h100();
        assert!(h100.fp64_peak > 3.0 * a100.fp64_peak);
        assert!(h100.hbm_bw > 2.0 * a100.hbm_bw);
        assert!(h100.mem_bytes == 2 * a100.mem_bytes);
        assert!(h100.pcie_bw == 2.0 * a100.pcie_bw);
        let nvl = DeviceCalib::a100().with_nvlink_host_link();
        assert!(nvl.pcie_bw > a100.pcie_bw);
        assert!(nvl.pcie_latency < a100.pcie_latency);
        // Only the link changed.
        assert_eq!(nvl.fp64_peak, a100.fp64_peak);
        assert!(NetCalib::slingshot11().bw == 2.0 * NetCalib::slingshot10().bw);
    }

    #[test]
    fn rescaled_applies_to_any_base() {
        // The default-based path is unchanged.
        let scaled = NodeCalib::scaled(1e-3);
        let rescaled = NodeCalib::default().rescaled(1e-3);
        assert_eq!(scaled, rescaled);
        // A preset rescales its own values, not the default's.
        let h = NodeCalib {
            gpu: DeviceCalib::h100(),
            ..NodeCalib::default()
        };
        let hs = h.rescaled(1e-3);
        assert_eq!(hs.gpu.mem_bytes, (80u64 << 30) / 1000);
        assert_eq!(hs.gpu.fp64_peak, DeviceCalib::h100().fp64_peak);
    }

    #[test]
    fn node_price_is_normalised_and_ordered() {
        let a100 = NodeCalib::default();
        let ss10 = NetCalib::slingshot10();
        assert_eq!(relative_node_price(&a100, &ss10), 1.0);
        let h100 = NodeCalib {
            gpu: DeviceCalib::h100(),
            ..a100
        };
        // H100-class silicon costs a multiple of the A100 baseline but
        // less than its raw FP64 ratio (~3.45x) — the non-GPU shares damp
        // the proxy.
        let h = relative_node_price(&h100, &ss10);
        assert!(h > 2.0 && h < 3.45, "h100 price {h}");
        // Link/NIC upgrades are cheap relative to a new GPU generation.
        let nvl = NodeCalib {
            gpu: DeviceCalib::a100().with_nvlink_host_link(),
            ..a100
        };
        let nvl_price = relative_node_price(&nvl, &ss10);
        assert!(
            nvl_price > 1.0 && nvl_price < 1.5,
            "nvlink price {nvl_price}"
        );
        let ss11_price = relative_node_price(&a100, &NetCalib::slingshot11());
        assert!(ss11_price > 1.0 && ss11_price < nvl_price);
        // Work-scale rescaling must not move the price (ratios of runs at
        // different scales stay comparable).
        assert_eq!(relative_node_price(&h100.rescaled(1e-3), &ss10), h);
    }

    #[test]
    fn every_preset_validates() {
        for gpu in [
            DeviceCalib::a100(),
            DeviceCalib::h100(),
            DeviceCalib::a100().with_nvlink_host_link(),
            DeviceCalib::h100().with_nvlink_host_link(),
        ] {
            let node = NodeCalib {
                gpu,
                ..NodeCalib::default()
            };
            node.validate().expect("preset calibration is priceable");
            node.rescaled(1e-3)
                .validate()
                .expect("rescaled preset is priceable");
        }
        NetCalib::slingshot10().validate().expect("ss10");
        NetCalib::slingshot11().validate().expect("ss11");
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut node = NodeCalib::default();
        node.gpu.pcie_bw = 0.0;
        let err = node.validate().unwrap_err();
        assert_eq!(err.field, "gpu.pcie_bw");
        assert_eq!(err.constraint, CalibConstraint::Positive);
        assert!(err.to_string().contains("'gpu.pcie_bw'"));
        assert!(err.to_string().contains("> 0"));

        let mut node = NodeCalib::default();
        node.gpu.launch_latency = -1.0;
        assert_eq!(node.validate().unwrap_err().field, "gpu.launch_latency");

        let mut node = NodeCalib::default();
        node.cpu.core_flops = f64::NAN;
        assert_eq!(node.validate().unwrap_err().field, "cpu.core_flops");

        let mut node = NodeCalib::default();
        node.framework.jit_runtime_factor = -2.0;
        assert_eq!(
            node.validate().unwrap_err().field,
            "framework.jit_runtime_factor"
        );

        let net = NetCalib {
            bw: f64::INFINITY,
            ..NetCalib::default()
        };
        let err = net.validate().unwrap_err();
        assert_eq!(err.field, "net.bw");
    }

    #[test]
    fn framework_overheads_are_ordered() {
        let f = FrameworkCalib::default();
        // Per-call: jit dispatch > omp region entry > raw launch.
        let d = DeviceCalib::default();
        assert!(f.jit_dispatch > f.omp_region);
        assert!(f.omp_region > d.launch_latency);
        // Compile is orders of magnitude above dispatch.
        assert!(f.jit_compile > 1000.0 * f.jit_dispatch);
    }
}
