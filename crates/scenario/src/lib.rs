//! A typed, versioned scenario spec: one serializable value that fully
//! describes a benchmark run.
//!
//! Every figure, ablation and what-if in this workspace boils down to the
//! same handful of knobs — problem size and scale, which implementation to
//! run, how many processes per node, MPS on or off, schedule policy, node
//! count, calibration. Before this crate each binary re-assembled those
//! knobs from ad-hoc flags, so "the configuration behind Fig. 5" lived
//! only in `main()` bodies. A [`Scenario`] makes that configuration a
//! value: it round-trips losslessly through JSON (`scenarios/` holds one
//! golden file per figure), projects onto the runner's `RunConfig`, embeds
//! itself in what-if recordings, and expands against a sweep grid.
//!
//! The format is versioned (`schema_version`, currently
//! [`SCHEMA_VERSION`]) and strict: unknown fields and unknown versions are
//! typed errors naming the offender, in the same spirit as the what-if
//! recorder's `WhatifError`. Strictness is the forward-compatibility
//! story — a file written by a newer schema fails loudly instead of
//! silently dropping the knob an experiment depended on.

#![forbid(unsafe_code)]

use std::io::Read as _;
use std::path::Path;
use std::str::FromStr;

use accel_sim::whatif::preset;
use accel_sim::{CpuCalib, DeviceCalib, SweepSpec};

pub mod analyze;
pub mod envelope;
pub mod json;

pub use analyze::check_scenario;
pub use envelope::JobRequest;

use json::{as_bool, as_f64, as_int, as_str, Fields, Value};

// Re-export the types a Scenario is made of, so downstream code can build
// and match scenarios with `use scenario::…` alone.
pub use accel_sim::{NetCalib, NodeCalib, SchedulePolicyKind, UnknownPreset};
pub use toast_core::dispatch::ImplKind;
pub use toast_core::pipeline::MovementPolicy;
pub use toast_satsim::problem::{Problem, ProblemSize};

/// The schema version this build reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything that can go wrong reading, validating or resolving a
/// scenario. Every variant names its offender (field, line, value) so a
/// CLI can surface the message verbatim.
#[derive(Debug)]
pub enum ScenarioError {
    /// File-level I/O failure.
    Io(std::io::Error),
    /// Structurally malformed JSON.
    Json { line: usize, msg: String },
    /// A `schema_version` this build does not read.
    UnknownVersion { version: u64 },
    /// A field no version-1 scenario defines — typo or newer schema.
    UnknownField { field: String, line: usize },
    /// A required field is absent.
    MissingField { field: String },
    /// A `simd` request line lacks a required envelope field.
    MissingRequestField { field: String },
    /// A `simd` request line carries an envelope field no request defines.
    UnknownRequestField { field: String, line: usize },
    /// A field is present but holds a value outside its domain.
    InvalidValue { field: String, msg: String },
    /// `procs_per_node` does not evenly partition the node's cores.
    InvalidProcs { procs: u32, cores: u32 },
    /// A named calibration preset that does not exist.
    UnknownPreset(UnknownPreset),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "scenario I/O error: {e}"),
            ScenarioError::Json { line, msg } => {
                write!(f, "scenario JSON error at line {line}: {msg}")
            }
            ScenarioError::UnknownVersion { version } => write!(
                f,
                "unsupported scenario schema_version {version} (this build reads version {SCHEMA_VERSION})"
            ),
            ScenarioError::UnknownField { field, line } => write!(
                f,
                "unknown scenario field '{field}' at line {line} (typo, or a file from a newer schema?)"
            ),
            ScenarioError::MissingField { field } => {
                write!(f, "missing required scenario field '{field}'")
            }
            ScenarioError::MissingRequestField { field } => {
                write!(f, "missing required request field '{field}'")
            }
            ScenarioError::UnknownRequestField { field, line } => {
                write!(f, "unknown request field '{field}' at line {line}")
            }
            ScenarioError::InvalidValue { field, msg } => {
                write!(f, "invalid value for scenario field '{field}': {msg}")
            }
            ScenarioError::InvalidProcs { procs, cores } => write!(
                f,
                "invalid procs_per_node {procs}: must be >= 1 and divide the node's {cores} cores"
            ),
            ScenarioError::UnknownPreset(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Io(e) => Some(e),
            ScenarioError::UnknownPreset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<json::Error> for ScenarioError {
    fn from(e: json::Error) -> Self {
        match e {
            json::Error::Syntax { line, msg, .. } => ScenarioError::Json { line, msg },
            json::Error::MissingField { field, .. } => ScenarioError::MissingField { field },
            json::Error::UnknownField { field, line } => {
                ScenarioError::UnknownField { field, line }
            }
        }
    }
}

impl From<UnknownPreset> for ScenarioError {
    fn from(e: UnknownPreset) -> Self {
        ScenarioError::UnknownPreset(e)
    }
}

/// The problem a scenario runs: one of the paper's two sizes at a work
/// scale, with optional per-field overrides (the differential tests run
/// the medium problem shrunk to 64 detectors, for example).
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// Which paper configuration to start from.
    pub size: ProblemSize,
    /// Work scale in `(0, 1]` applied to samples and calibration.
    pub scale: f64,
    /// Override paper-scale total samples.
    pub total_samples: Option<f64>,
    /// Override the detector count.
    pub n_det_total: Option<usize>,
    /// Override the sky resolution.
    pub nside: Option<u64>,
    /// Override the observation count.
    pub n_obs: Option<usize>,
    /// Override the solver passes per observation.
    pub passes: Option<usize>,
    /// Override the RNG seed.
    pub seed: Option<u64>,
}

impl ProblemSpec {
    /// A plain paper problem at `scale`, no overrides.
    pub fn sized(size: ProblemSize, scale: f64) -> Self {
        Self {
            size,
            scale,
            total_samples: None,
            n_det_total: None,
            nside: None,
            n_obs: None,
            passes: None,
            seed: None,
        }
    }

    /// Build the concrete [`Problem`], applying overrides.
    pub fn build(&self) -> Problem {
        let mut p = Problem::sized(self.size, self.scale);
        if let Some(v) = self.total_samples {
            p.total_samples = v;
        }
        if let Some(v) = self.n_det_total {
            p.n_det_total = v;
        }
        if let Some(v) = self.nside {
            p.nside = v;
        }
        if let Some(v) = self.n_obs {
            p.n_obs = v;
        }
        if let Some(v) = self.passes {
            p.passes = v;
        }
        if let Some(v) = self.seed {
            p.seed = v;
        }
        p
    }
}

/// Where a scenario's calibration comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibSpec {
    /// The problem's own scaled calibration ([`NodeCalib::scaled`] at the
    /// scenario's work scale) — what every flag-driven run uses.
    Auto,
    /// A named what-if preset (`a100`, `h100`, …), defined at paper scale
    /// and rescaled to the scenario's work scale on resolution.
    Preset(String),
    /// Fully inline constants, taken as-is (already at working scale).
    Inline { node: NodeCalib, net: NetCalib },
}

/// Optional output sinks a run writes besides stdout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSpec {
    /// Chrome-trace JSON of the replayed timeline.
    pub trace_out: Option<String>,
    /// What-if workload recording (JSONL).
    pub record_out: Option<String>,
}

impl OutputSpec {
    fn is_empty(&self) -> bool {
        self.trace_out.is_none() && self.record_out.is_none()
    }
}

/// One fully specified run. See the crate docs for the role this type
/// plays; see `DESIGN.md` § 6 for the schema and versioning policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label (figure name, sweep point, …). Carried into
    /// recordings and reports; not semantically load-bearing.
    pub name: String,
    /// The problem to run.
    pub problem: ProblemSpec,
    /// Which port runs the kernels.
    pub kind: ImplKind,
    /// MPI-style ranks per node.
    pub procs_per_node: u32,
    /// GPUs per node.
    pub gpus: u32,
    /// CUDA MPS daemon on or off.
    pub mps: bool,
    /// Data-movement policy.
    pub movement: MovementPolicy,
    /// GPU schedule policy.
    pub schedule: SchedulePolicyKind,
    /// Override the problem's node count.
    pub nodes: Option<u32>,
    /// Per-rank asynchronous transfer streams.
    pub overlap_transfers: bool,
    /// Calibration source.
    pub calib: CalibSpec,
    /// Optional output sinks.
    pub output: OutputSpec,
}

impl Scenario {
    /// A scenario with the workspace's defaults: CPU implementation, 16
    /// procs per node, 4 GPUs, MPS on, tracked movement, auto schedule,
    /// auto calibration.
    pub fn new(name: &str, size: ProblemSize, scale: f64) -> Self {
        Self {
            name: name.to_string(),
            problem: ProblemSpec::sized(size, scale),
            kind: ImplKind::Cpu,
            procs_per_node: 16,
            gpus: 4,
            mps: true,
            movement: MovementPolicy::Tracked,
            schedule: SchedulePolicyKind::Auto,
            nodes: None,
            overlap_transfers: false,
            calib: CalibSpec::Auto,
            output: OutputSpec::default(),
        }
    }

    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    pub fn with_kind(mut self, kind: ImplKind) -> Self {
        self.kind = kind;
        self
    }

    pub fn with_procs(mut self, procs: u32) -> Self {
        self.procs_per_node = procs;
        self
    }

    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    pub fn with_mps(mut self, mps: bool) -> Self {
        self.mps = mps;
        self
    }

    pub fn with_movement(mut self, movement: MovementPolicy) -> Self {
        self.movement = movement;
        self
    }

    pub fn with_schedule(mut self, schedule: SchedulePolicyKind) -> Self {
        self.schedule = schedule;
        self
    }

    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = Some(nodes);
        self
    }

    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_transfers = overlap;
        self
    }

    pub fn with_calib_preset(mut self, name: &str) -> Self {
        self.calib = CalibSpec::Preset(name.to_string());
        self
    }

    pub fn with_calib_inline(mut self, node: NodeCalib, net: NetCalib) -> Self {
        self.calib = CalibSpec::Inline { node, net };
        self
    }

    /// Host threads each rank gets: the node's cores divided evenly.
    /// The typed replacement for the runner's old "must divide 64" panic.
    pub fn threads(&self) -> Result<u32, ScenarioError> {
        let cores = CpuCalib::default().cores;
        if self.procs_per_node == 0 || cores % self.procs_per_node != 0 {
            return Err(ScenarioError::InvalidProcs {
                procs: self.procs_per_node,
                cores,
            });
        }
        Ok(cores / self.procs_per_node)
    }

    /// Check every domain constraint. [`Scenario::parse`] calls this, so
    /// a scenario that decodes is a scenario that runs.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.threads()?;
        let invalid = |field: &str, msg: String| {
            Err(ScenarioError::InvalidValue {
                field: field.to_string(),
                msg,
            })
        };
        if !(self.problem.scale > 0.0 && self.problem.scale <= 1.0) {
            return invalid(
                "problem.scale",
                format!("must be in (0, 1], got {:?}", self.problem.scale),
            );
        }
        if self.gpus == 0 {
            return invalid("gpus", "must be >= 1".to_string());
        }
        if self.nodes == Some(0) {
            return invalid("nodes", "must be >= 1 when present".to_string());
        }
        if let CalibSpec::Preset(name) = &self.calib {
            preset(name)?;
        }
        // The calibration gate: a roofline the cost model cannot price
        // (zero bandwidth, NaN throughput, …) is rejected here, naming
        // the field, instead of surfacing as a NonFiniteCharge replay
        // error long after the scenario was accepted.
        let (node, net) = self.resolved_calib()?;
        if let Err(e) = node.validate().and_then(|()| net.validate()) {
            return invalid(&format!("calib.{}", e.field), e.to_string());
        }
        Ok(())
    }

    /// The concrete problem this scenario runs (overrides applied).
    pub fn build_problem(&self) -> Problem {
        self.problem.build()
    }

    /// Resolve the calibration source to concrete constants at the
    /// scenario's working scale. `Auto` reproduces the flag-driven path
    /// bit-for-bit: the problem's own scaled calibration and the default
    /// interconnect.
    pub fn resolved_calib(&self) -> Result<(NodeCalib, NetCalib), ScenarioError> {
        match &self.calib {
            CalibSpec::Auto => Ok((NodeCalib::scaled(self.problem.scale), NetCalib::default())),
            CalibSpec::Preset(name) => {
                let p = preset(name)?;
                Ok((p.node.rescaled(self.problem.scale), p.net))
            }
            CalibSpec::Inline { node, net } => Ok((*node, *net)),
        }
    }

    /// Canonical pretty JSON: fixed field order, two-space indent, `None`
    /// fields omitted. `parse(to_json(s)) == s` and serializing a parsed
    /// file reproduces it byte-for-byte (the golden files are written this
    /// way).
    pub fn to_json(&self) -> String {
        let mut s = render(&self.encode(), false, 0);
        s.push('\n');
        s
    }

    /// One-line JSON with identical content — the form embedded in
    /// what-if recording metadata.
    pub fn to_json_compact(&self) -> String {
        render(&self.encode(), true, 0)
    }

    fn encode(&self) -> J {
        let mut fields: Vec<(&'static str, J)> = vec![
            ("schema_version", J::Raw(SCHEMA_VERSION.to_string())),
            ("name", J::Str(self.name.clone())),
            ("problem", self.encode_problem()),
            ("impl", J::Str(self.kind.to_string())),
            ("procs_per_node", J::Raw(self.procs_per_node.to_string())),
            ("gpus", J::Raw(self.gpus.to_string())),
            ("mps", J::Raw(self.mps.to_string())),
            ("movement", J::Str(self.movement.to_string())),
            ("schedule", J::Str(self.schedule.to_string())),
        ];
        if let Some(n) = self.nodes {
            fields.push(("nodes", J::Raw(n.to_string())));
        }
        fields.push((
            "overlap_transfers",
            J::Raw(self.overlap_transfers.to_string()),
        ));
        fields.push((
            "calib",
            match &self.calib {
                CalibSpec::Auto => J::Str("auto".to_string()),
                CalibSpec::Preset(name) => J::Str(name.clone()),
                CalibSpec::Inline { node, net } => J::Obj(vec![
                    ("node", encode_node_calib(node)),
                    ("net", encode_net_calib(net)),
                ]),
            },
        ));
        if !self.output.is_empty() {
            let mut out = Vec::new();
            if let Some(p) = &self.output.trace_out {
                out.push(("trace_out", J::Str(p.clone())));
            }
            if let Some(p) = &self.output.record_out {
                out.push(("record_out", J::Str(p.clone())));
            }
            fields.push(("output", J::Obj(out)));
        }
        J::Obj(fields)
    }

    fn encode_problem(&self) -> J {
        let p = &self.problem;
        let size = match p.size {
            ProblemSize::Medium => "medium",
            ProblemSize::Large => "large",
        };
        let mut fields = vec![
            ("size", J::Str(size.to_string())),
            ("scale", J::Raw(json::num(p.scale))),
        ];
        if let Some(v) = p.total_samples {
            fields.push(("total_samples", J::Raw(json::num(v))));
        }
        if let Some(v) = p.n_det_total {
            fields.push(("n_det_total", J::Raw(v.to_string())));
        }
        if let Some(v) = p.nside {
            fields.push(("nside", J::Raw(v.to_string())));
        }
        if let Some(v) = p.n_obs {
            fields.push(("n_obs", J::Raw(v.to_string())));
        }
        if let Some(v) = p.passes {
            fields.push(("passes", J::Raw(v.to_string())));
        }
        if let Some(v) = p.seed {
            fields.push(("seed", J::Raw(v.to_string())));
        }
        J::Obj(fields)
    }

    /// Parse and validate a scenario document.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(json::parse(text)?, 1)
    }

    /// Decode and validate an already-parsed JSON value. The service's
    /// job envelope carries scenarios as nested objects, so decoding
    /// must compose; `line` is where the object appeared in its
    /// enclosing document, for error context.
    pub fn from_value(root: Value, line: usize) -> Result<Self, ScenarioError> {
        let mut f = Fields::of(root, "scenario", line)?;
        let version: u64 = as_int(f.require("schema_version")?, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(ScenarioError::UnknownVersion { version });
        }
        let name = as_str(f.require("name")?, "name")?;
        let problem = decode_problem(f.require("problem")?)?;
        let kind = decode_enum::<ImplKind>(f.require("impl")?, "impl")?;
        let procs_per_node = as_int(f.require("procs_per_node")?, "procs_per_node")?;
        let gpus = as_int(f.require("gpus")?, "gpus")?;
        let mps = as_bool(f.require("mps")?, "mps")?;
        let movement = decode_enum::<MovementPolicy>(f.require("movement")?, "movement")?;
        let schedule = decode_enum::<SchedulePolicyKind>(f.require("schedule")?, "schedule")?;
        let nodes = f.take("nodes").map(|v| as_int(v, "nodes")).transpose()?;
        let overlap_transfers = as_bool(f.require("overlap_transfers")?, "overlap_transfers")?;
        let calib = decode_calib(f.require("calib")?)?;
        let output = match f.take("output") {
            Some(v) => decode_output(v)?,
            None => OutputSpec::default(),
        };
        f.finish()?;
        let s = Scenario {
            name,
            problem,
            kind,
            procs_per_node,
            gpus,
            mps,
            movement,
            schedule,
            nodes,
            overlap_transfers,
            calib,
            output,
        };
        s.validate()?;
        Ok(s)
    }

    /// Read and parse a scenario file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Self::parse(&text)
    }

    /// Write the canonical pretty form to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }
}

/// Expand a sweep grid into concrete scenarios, in the exact order the
/// sweep engine visits points: calibration-major, then GPU count, then
/// schedule. Each scenario names its point; the `identity` calibration
/// keeps the base scenario's own calibration source.
pub fn expand_sweep(base: &Scenario, spec: &SweepSpec) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(spec.calibs.len() * spec.gpus.len() * spec.schedules.len());
    for c in &spec.calibs {
        for &g in &spec.gpus {
            for &sched in &spec.schedules {
                let mut s = base.clone();
                s.name = format!("{}__{}_{}g_{}", base.name, c.name, g, sched);
                if c.name != "identity" {
                    s.calib = CalibSpec::Preset(c.name.clone());
                }
                s.gpus = g;
                s.schedule = sched;
                out.push(s);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Encoding/decoding internals
// ---------------------------------------------------------------------------

/// A value ready to serialize: raw token, string, or ordered object.
enum J {
    Raw(String),
    Str(String),
    Obj(Vec<(&'static str, J)>),
}

fn render(j: &J, compact: bool, indent: usize) -> String {
    match j {
        J::Raw(s) => s.clone(),
        J::Str(s) => format!("\"{}\"", json::esc(s)),
        J::Obj(fields) => {
            if fields.is_empty() {
                return "{}".to_string();
            }
            let mut out = String::from("{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if compact {
                    out.push_str(&format!("\"{k}\":{}", render(v, true, 0)));
                } else {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&format!("\"{k}\": {}", render(v, false, indent + 1)));
                }
            }
            if !compact {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push('}');
            out
        }
    }
}

fn encode_node_calib(n: &NodeCalib) -> J {
    J::Obj(vec![
        (
            "cpu",
            J::Obj(vec![
                ("cores", J::Raw(n.cpu.cores.to_string())),
                ("core_flops", J::Raw(json::num(n.cpu.core_flops))),
                ("socket_bw", J::Raw(json::num(n.cpu.socket_bw))),
                ("mem_bytes", J::Raw(n.cpu.mem_bytes.to_string())),
                ("thread_overhead", J::Raw(json::num(n.cpu.thread_overhead))),
            ]),
        ),
        (
            "gpu",
            J::Obj(vec![
                ("fp64_peak", J::Raw(json::num(n.gpu.fp64_peak))),
                ("hbm_bw", J::Raw(json::num(n.gpu.hbm_bw))),
                ("mem_bytes", J::Raw(n.gpu.mem_bytes.to_string())),
                ("launch_latency", J::Raw(json::num(n.gpu.launch_latency))),
                (
                    "saturation_items",
                    J::Raw(json::num(n.gpu.saturation_items)),
                ),
                ("pcie_bw", J::Raw(json::num(n.gpu.pcie_bw))),
                ("pcie_latency", J::Raw(json::num(n.gpu.pcie_latency))),
                ("context_switch", J::Raw(json::num(n.gpu.context_switch))),
                ("mps_crowding", J::Raw(json::num(n.gpu.mps_crowding))),
                ("alloc_latency", J::Raw(json::num(n.gpu.alloc_latency))),
            ]),
        ),
        (
            "framework",
            J::Obj(vec![
                ("jit_dispatch", J::Raw(json::num(n.framework.jit_dispatch))),
                ("jit_compile", J::Raw(json::num(n.framework.jit_compile))),
                ("omp_region", J::Raw(json::num(n.framework.omp_region))),
                (
                    "jit_mem_overhead",
                    J::Raw(json::num(n.framework.jit_mem_overhead)),
                ),
                (
                    "jit_process_device_bytes",
                    J::Raw(json::num(n.framework.jit_process_device_bytes)),
                ),
                (
                    "omp_process_device_bytes",
                    J::Raw(json::num(n.framework.omp_process_device_bytes)),
                ),
                (
                    "jit_runtime_factor",
                    J::Raw(json::num(n.framework.jit_runtime_factor)),
                ),
                (
                    "jit_cpu_backend_eff",
                    J::Raw(json::num(n.framework.jit_cpu_backend_eff)),
                ),
            ]),
        ),
    ])
}

fn encode_net_calib(n: &NetCalib) -> J {
    J::Obj(vec![
        ("bw", J::Raw(json::num(n.bw))),
        ("latency", J::Raw(json::num(n.latency))),
    ])
}

fn decode_enum<T: FromStr<Err = String>>(
    v: (Value, usize),
    field: &str,
) -> Result<T, ScenarioError> {
    let s = as_str(v, field)?;
    s.parse().map_err(|msg| ScenarioError::InvalidValue {
        field: field.to_string(),
        msg,
    })
}

fn decode_problem(v: (Value, usize)) -> Result<ProblemSpec, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "problem", line)?;
    let size = match as_str(f.require("size")?, "problem.size")?.as_str() {
        "medium" => ProblemSize::Medium,
        "large" => ProblemSize::Large,
        other => {
            return Err(ScenarioError::InvalidValue {
                field: "problem.size".to_string(),
                msg: format!("unknown size '{other}' (expected medium or large)"),
            })
        }
    };
    let scale = as_f64(f.require("scale")?, "problem.scale")?;
    let total_samples = f
        .take("total_samples")
        .map(|v| as_f64(v, "problem.total_samples"))
        .transpose()?;
    let n_det_total = f
        .take("n_det_total")
        .map(|v| as_int(v, "problem.n_det_total"))
        .transpose()?;
    let nside = f
        .take("nside")
        .map(|v| as_int(v, "problem.nside"))
        .transpose()?;
    let n_obs = f
        .take("n_obs")
        .map(|v| as_int(v, "problem.n_obs"))
        .transpose()?;
    let passes = f
        .take("passes")
        .map(|v| as_int(v, "problem.passes"))
        .transpose()?;
    let seed = f
        .take("seed")
        .map(|v| as_int(v, "problem.seed"))
        .transpose()?;
    f.finish()?;
    Ok(ProblemSpec {
        size,
        scale,
        total_samples,
        n_det_total,
        nside,
        n_obs,
        passes,
        seed,
    })
}

fn decode_calib(v: (Value, usize)) -> Result<CalibSpec, ScenarioError> {
    let (value, line) = v;
    match value {
        Value::Str(s) if s == "auto" => Ok(CalibSpec::Auto),
        Value::Str(s) => Ok(CalibSpec::Preset(s)),
        value @ Value::Obj(_) => {
            let mut f = Fields::of(value, "calib", line)?;
            let node = decode_node_calib(f.require("node")?)?;
            let net = decode_net_calib(f.require("net")?)?;
            f.finish()?;
            Ok(CalibSpec::Inline { node, net })
        }
        _ => Err(ScenarioError::InvalidValue {
            field: "calib".to_string(),
            msg: "must be \"auto\", a preset name, or an inline {node, net} object".to_string(),
        }),
    }
}

fn decode_node_calib(v: (Value, usize)) -> Result<NodeCalib, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "calib.node", line)?;

    let (cpu_v, cpu_line) = f.require("cpu")?;
    let mut c = Fields::of(cpu_v, "calib.node.cpu", cpu_line)?;
    let cpu = CpuCalib {
        cores: as_int(c.require("cores")?, "cpu.cores")?,
        core_flops: as_f64(c.require("core_flops")?, "cpu.core_flops")?,
        socket_bw: as_f64(c.require("socket_bw")?, "cpu.socket_bw")?,
        mem_bytes: as_int(c.require("mem_bytes")?, "cpu.mem_bytes")?,
        thread_overhead: as_f64(c.require("thread_overhead")?, "cpu.thread_overhead")?,
    };
    c.finish()?;

    let (gpu_v, gpu_line) = f.require("gpu")?;
    let mut g = Fields::of(gpu_v, "calib.node.gpu", gpu_line)?;
    let gpu = DeviceCalib {
        fp64_peak: as_f64(g.require("fp64_peak")?, "gpu.fp64_peak")?,
        hbm_bw: as_f64(g.require("hbm_bw")?, "gpu.hbm_bw")?,
        mem_bytes: as_int(g.require("mem_bytes")?, "gpu.mem_bytes")?,
        launch_latency: as_f64(g.require("launch_latency")?, "gpu.launch_latency")?,
        saturation_items: as_f64(g.require("saturation_items")?, "gpu.saturation_items")?,
        pcie_bw: as_f64(g.require("pcie_bw")?, "gpu.pcie_bw")?,
        pcie_latency: as_f64(g.require("pcie_latency")?, "gpu.pcie_latency")?,
        context_switch: as_f64(g.require("context_switch")?, "gpu.context_switch")?,
        mps_crowding: as_f64(g.require("mps_crowding")?, "gpu.mps_crowding")?,
        alloc_latency: as_f64(g.require("alloc_latency")?, "gpu.alloc_latency")?,
    };
    g.finish()?;

    let (fw_v, fw_line) = f.require("framework")?;
    let mut w = Fields::of(fw_v, "calib.node.framework", fw_line)?;
    let framework = accel_sim::calib::FrameworkCalib {
        jit_dispatch: as_f64(w.require("jit_dispatch")?, "framework.jit_dispatch")?,
        jit_compile: as_f64(w.require("jit_compile")?, "framework.jit_compile")?,
        omp_region: as_f64(w.require("omp_region")?, "framework.omp_region")?,
        jit_mem_overhead: as_f64(w.require("jit_mem_overhead")?, "framework.jit_mem_overhead")?,
        jit_process_device_bytes: as_f64(
            w.require("jit_process_device_bytes")?,
            "framework.jit_process_device_bytes",
        )?,
        omp_process_device_bytes: as_f64(
            w.require("omp_process_device_bytes")?,
            "framework.omp_process_device_bytes",
        )?,
        jit_runtime_factor: as_f64(
            w.require("jit_runtime_factor")?,
            "framework.jit_runtime_factor",
        )?,
        jit_cpu_backend_eff: as_f64(
            w.require("jit_cpu_backend_eff")?,
            "framework.jit_cpu_backend_eff",
        )?,
    };
    w.finish()?;

    f.finish()?;
    Ok(NodeCalib {
        cpu,
        gpu,
        framework,
    })
}

fn decode_net_calib(v: (Value, usize)) -> Result<NetCalib, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "calib.net", line)?;
    let net = NetCalib {
        bw: as_f64(f.require("bw")?, "net.bw")?,
        latency: as_f64(f.require("latency")?, "net.latency")?,
    };
    f.finish()?;
    Ok(net)
}

fn decode_output(v: (Value, usize)) -> Result<OutputSpec, ScenarioError> {
    let (value, line) = v;
    let mut f = Fields::of(value, "output", line)?;
    let trace_out = f
        .take("trace_out")
        .map(|v| as_str(v, "output.trace_out"))
        .transpose()?;
    let record_out = f
        .take("record_out")
        .map(|v| as_str(v, "output.record_out"))
        .transpose()?;
    f.finish()?;
    Ok(OutputSpec {
        trace_out,
        record_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::SweepCalib;

    fn base() -> Scenario {
        Scenario::new("fig5_full_benchmark", ProblemSize::Large, 1e-3)
            .with_kind(ImplKind::OmpTarget)
            .with_nodes(4)
    }

    #[test]
    fn round_trips_through_pretty_and_compact_json() {
        for s in [
            base(),
            Scenario::new("plain", ProblemSize::Medium, 2e-4),
            base().with_calib_preset("h100"),
            base().with_calib_inline(NodeCalib::scaled(0.5), NetCalib::slingshot11()),
        ] {
            let pretty = s.to_json();
            assert_eq!(Scenario::parse(&pretty).unwrap(), s, "{pretty}");
            let compact = s.to_json_compact();
            assert_eq!(Scenario::parse(&compact).unwrap(), s, "{compact}");
            assert!(!compact.contains('\n'));
            // Canonical form is a fixed point: serialize(parse(f)) == f.
            assert_eq!(Scenario::parse(&pretty).unwrap().to_json(), pretty);
        }
    }

    #[test]
    fn problem_overrides_apply() {
        let mut s = Scenario::new("tiny", ProblemSize::Medium, 2e-3);
        s.problem.total_samples = Some(5e9 * (64.0 / 2048.0));
        s.problem.n_det_total = Some(64);
        s.problem.n_obs = Some(2);
        let p = s.build_problem();
        assert_eq!(p.n_det_total, 64);
        assert_eq!(p.n_obs, 2);
        assert_eq!(p.total_samples, 5e9 * (64.0 / 2048.0));
        // Untouched fields keep the paper values.
        assert_eq!(p.seed, 53);
        assert_eq!(p.passes, 6);
        // And the override survives a round trip.
        let back = Scenario::parse(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn auto_calib_matches_the_problem_calibration() {
        let s = Scenario::new("x", ProblemSize::Medium, 2e-3);
        let (node, net) = s.resolved_calib().unwrap();
        assert_eq!(node, s.build_problem().calib());
        assert_eq!(net, NetCalib::default());
    }

    #[test]
    fn preset_calib_is_rescaled_to_the_working_scale() {
        let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_calib_preset("h100");
        let (node, net) = s.resolved_calib().unwrap();
        let p = preset("h100").unwrap();
        assert_eq!(node, p.node.rescaled(1e-3));
        assert_eq!(net, p.net);
    }

    #[test]
    fn unknown_preset_is_a_typed_error() {
        let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_calib_preset("b200");
        match s.validate() {
            Err(ScenarioError::UnknownPreset(e)) => assert_eq!(e.name, "b200"),
            other => panic!("expected UnknownPreset, got {other:?}"),
        }
    }

    #[test]
    fn invalid_procs_is_a_typed_error() {
        for procs in [0u32, 3, 7, 65, 128] {
            let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_procs(procs);
            match s.threads() {
                Err(ScenarioError::InvalidProcs { procs: p, cores }) => {
                    assert_eq!(p, procs);
                    assert_eq!(cores, 64);
                }
                other => panic!("procs {procs}: expected InvalidProcs, got {other:?}"),
            }
        }
        for procs in [1u32, 2, 4, 8, 16, 32, 64] {
            let s = Scenario::new("x", ProblemSize::Medium, 1e-3).with_procs(procs);
            assert_eq!(s.threads().unwrap(), 64 / procs);
        }
    }

    #[test]
    fn unknown_version_and_unknown_field_name_the_offender() {
        let mut text = base().to_json();
        text = text.replace("\"schema_version\": 1", "\"schema_version\": 2");
        match Scenario::parse(&text) {
            Err(ScenarioError::UnknownVersion { version }) => assert_eq!(version, 2),
            other => panic!("expected UnknownVersion, got {other:?}"),
        }

        let text = base()
            .to_json()
            .replace("\"mps\": true", "\"mps\": true,\n  \"turbo\": true");
        match Scenario::parse(&text) {
            Err(ScenarioError::UnknownField { field, line }) => {
                assert_eq!(field, "turbo");
                assert!(line > 1, "line {line}");
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn unicode_escaped_names_parse_and_write_back_raw() {
        let text = base().to_json();
        let escaped = text.replacen(
            &format!("\"name\": \"{}\"", base().name),
            "\"name\": \"caf\\u00e9 \\ud83d\\ude00\"",
            1,
        );
        assert_ne!(escaped, text);
        let s = Scenario::parse(&escaped).unwrap();
        assert_eq!(s.name, "café 😀");
        assert!(s.to_json().contains("\"name\": \"café 😀\""));
        assert_eq!(Scenario::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn missing_field_and_bad_enum_values_are_typed() {
        let text = base().to_json().replace("  \"impl\": \"omp\",\n", "");
        match Scenario::parse(&text) {
            Err(ScenarioError::MissingField { field }) => assert_eq!(field, "impl"),
            other => panic!("expected MissingField, got {other:?}"),
        }

        let text = base()
            .to_json()
            .replace("\"impl\": \"omp\"", "\"impl\": \"cuda\"");
        match Scenario::parse(&text) {
            Err(ScenarioError::InvalidValue { field, msg }) => {
                assert_eq!(field, "impl");
                assert!(msg.contains("cuda"), "{msg}");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn sweep_expansion_matches_the_engine_grid_order() {
        let b = base();
        let spec = SweepSpec {
            calibs: vec![
                SweepCalib {
                    name: "identity".into(),
                    node: NodeCalib::scaled(1e-3),
                    net: NetCalib::default(),
                },
                SweepCalib {
                    name: "h100".into(),
                    node: preset("h100").unwrap().node.rescaled(1e-3),
                    net: preset("h100").unwrap().net,
                },
            ],
            gpus: vec![4, 8],
            schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
            deadline: None,
        };
        let expanded = expand_sweep(&b, &spec);
        assert_eq!(expanded.len(), 8);
        // Calib-major, then gpus, then schedules — the sweep's grid order.
        assert_eq!(expanded[0].gpus, 4);
        assert_eq!(expanded[1].schedule, SchedulePolicyKind::Fifo);
        assert_eq!(expanded[2].gpus, 8);
        assert_eq!(
            expanded[3].calib,
            CalibSpec::Auto,
            "identity keeps base calib"
        );
        assert_eq!(expanded[4].calib, CalibSpec::Preset("h100".into()));
        assert!(expanded[4].name.contains("h100"));
        // Every expanded point is itself a valid, serializable scenario.
        for s in &expanded {
            s.validate().unwrap();
            assert_eq!(Scenario::parse(&s.to_json()).unwrap(), *s);
        }
    }

    #[test]
    fn names_with_quotes_and_backslashes_survive() {
        let s = base().with_name("odd \"name\" with \\ and \n newline");
        assert_eq!(Scenario::parse(&s.to_json()).unwrap(), s);
    }
}
