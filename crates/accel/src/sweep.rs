//! Batched what-if optimization: *compile once, reprice many*.
//!
//! A [`crate::whatif::RecordedWorkload`] answers one "what would this run
//! cost on that hardware?" question per replay. The paper's real question
//! — which framework/hardware combination wins, and by what factor — is a
//! *search* over calibration space, and answering it point-by-point pays
//! the full workload compile (JSONL parse, `String` interning, segment
//! graph allocation) once per grid point. This module amortises all of
//! that:
//!
//! 1. the workload is compiled **once** into the engine's
//!    calibration-invariant arena (segment graph, interned labels,
//!    resource topology, byte/grid quantities);
//! 2. each distinct calibration materializes only a flat cost vector
//!    against that arena (`cost_table`), shared across every GPU count
//!    and schedule policy of the grid;
//! 3. each grid point replays through the discrete-event engine with a
//!    borrowed arena + cost table — no per-point allocation of either.
//!
//! On top of the hot path sit three optimizer features:
//!
//! * an **analytic lower bound** per point (critical path vs total work,
//!   see `lower_bound`) that prunes points provably unable to meet a
//!   `--deadline` without replaying them;
//! * **Pareto-front extraction** over (makespan, cost), where cost is a
//!   hardware price proxy ([`crate::calib::relative_node_price`]) times
//!   node-hours;
//! * a **deterministic fan-out**: points are evaluated in parallel (the
//!   rayon facade) but each writes only its own pre-allocated slot, and
//!   all reductions walk points in grid order, so sweep output is
//!   byte-identical across `RAYON_NUM_THREADS` settings — the same
//!   contract the engine's determinism suite locks.
//!
//! A standalone [`crate::whatif::RecordedWorkload::replay`] is a one-point
//! sweep: it prices through the same cost table and the same engine
//! repricer, so a grid point containing the identity calibration is
//! **bit-identical** to
//! [`crate::whatif::RecordedWorkload::replay_identity`], and any preset
//! point is bit-identical to a standalone `replay` of that preset — the
//! differential oracle extended to the batched path.
//!
//! For long-running callers (the serve layer) the module also exposes
//! the sweep in resumable form: [`CompiledSweep`] separates the
//! compile-once arena from grid evaluation so many jobs sharing a
//! recording share one compile, and [`CompiledSweep::run_resumable`]
//! evaluates the grid in chunks, surfacing the completed prefix after
//! each chunk as a [`SweepCheckpoint`] cursor (lossless JSONL, guarded
//! by a content digest). Because every grid point is a pure function of
//! (workload, spec), a sweep resumed from any cursor produces a result
//! byte-identical to an uninterrupted run.

use std::io;
use std::path::Path;

use rayon::prelude::*;

use crate::calib::{relative_node_price, NetCalib, NodeCalib};
use crate::engine::sim::{simulate_compiled, CSeg, CompiledWorkload, Reprice};
use crate::engine::{EngineError, SchedulePolicyKind};
use crate::json::{self, esc, num, Fields};
use crate::node::NodeConfig;
use crate::trace::RankTrace;
use crate::whatif::{
    parse_err, preset, presets, RecordMeta, RecordedWorkload, UnknownPreset, WhatifError,
};

/// One calibration axis value of a sweep grid: a resolved node + network
/// calibration under a CLI-visible name (`identity` or a preset name),
/// already rescaled to the recording's `work_scale`.
#[derive(Debug, Clone)]
pub struct SweepCalib {
    /// `identity` or a preset name — the label reports and JSONL carry.
    pub name: String,
    /// Node calibration to price kernels/transfers with.
    pub node: NodeCalib,
    /// Network calibration to reprice collectives with.
    pub net: NetCalib,
}

impl SweepCalib {
    /// Resolve a CLI name against the recording: `identity` means "the
    /// recorded calibration", anything else is a preset rescaled by the
    /// recording's `work_scale` (presets are defined at paper scale).
    pub fn resolve(name: &str, meta: &RecordMeta) -> Result<Self, UnknownPreset> {
        if name == "identity" {
            return Ok(Self {
                name: name.to_string(),
                node: meta.node_calib,
                net: meta.net_calib,
            });
        }
        let p = preset(name)?;
        Ok(Self {
            name: name.to_string(),
            node: p.node.rescaled(meta.work_scale),
            net: p.net,
        })
    }
}

/// The grid a sweep evaluates: every combination of calibration × GPUs
/// per node × schedule policy, optionally under a makespan deadline.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub calibs: Vec<SweepCalib>,
    pub gpus: Vec<u32>,
    pub schedules: Vec<SchedulePolicyKind>,
    /// Makespan budget in seconds: points whose analytic lower bound
    /// already exceeds it are pruned without a replay, and
    /// [`SweepResult::best_under_deadline`] picks the cheapest point that
    /// meets it.
    pub deadline: Option<f64>,
}

impl SweepSpec {
    /// The default grid for a recording: identity plus every preset on
    /// the calibration axis, the recorded GPU count and schedule on the
    /// other two, no deadline.
    pub fn default_grid(meta: &RecordMeta) -> Self {
        let mut calibs = vec![SweepCalib {
            name: "identity".into(),
            node: meta.node_calib,
            net: meta.net_calib,
        }];
        for p in presets() {
            calibs.push(SweepCalib {
                name: p.name.to_string(),
                node: p.node.rescaled(meta.work_scale),
                net: p.net,
            });
        }
        Self {
            calibs,
            gpus: vec![meta.gpus],
            schedules: vec![meta.schedule],
            deadline: None,
        }
    }

    /// Parse a `key=value;key=value` grid spec
    /// (`gpus=1,2,4..8;calib=identity,h100;schedule=mps,fifo`).
    /// Unspecified axes keep the [`SweepSpec::default_grid`] values.
    pub fn parse_grid(grid: &str, meta: &RecordMeta) -> Result<Self, String> {
        let mut spec = Self::default_grid(meta);
        for part in grid.split(';').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("grid clause '{part}' is not key=value"))?;
            match key.trim() {
                "gpus" => spec.gpus = parse_gpus(value)?,
                "calib" => spec.calibs = parse_calibs(value, meta)?,
                "schedule" => spec.schedules = parse_schedules(value)?,
                other => {
                    return Err(format!(
                        "unknown grid axis '{other}' (expected gpus, calib or schedule)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Number of grid points this spec enumerates.
    pub fn point_count(&self) -> usize {
        self.calibs.len() * self.gpus.len() * self.schedules.len()
    }
}

/// Parse a GPU-count axis: comma-separated values and inclusive `lo..hi`
/// ranges (`"2..4,8"` → `[2, 3, 4, 8]`).
pub fn parse_gpus(s: &str) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: u32 = lo
                .trim()
                .parse()
                .map_err(|_| format!("invalid gpu range start in '{part}'"))?;
            let hi: u32 = hi
                .trim()
                .parse()
                .map_err(|_| format!("invalid gpu range end in '{part}'"))?;
            if lo < 1 || hi < lo {
                return Err(format!("invalid gpu range '{part}' (need 1 <= lo <= hi)"));
            }
            out.extend(lo..=hi);
        } else {
            let v: u32 = part
                .parse()
                .map_err(|_| format!("invalid gpu count '{part}'"))?;
            if v < 1 {
                return Err(format!("gpu count must be >= 1, got '{part}'"));
            }
            out.push(v);
        }
    }
    if out.is_empty() {
        return Err("empty gpu list".into());
    }
    Ok(out)
}

/// Parse a comma-separated calibration axis (`identity,a100,h100`),
/// resolving each name against the recording.
pub fn parse_calibs(s: &str, meta: &RecordMeta) -> Result<Vec<SweepCalib>, String> {
    let out: Result<Vec<SweepCalib>, String> = s
        .split(',')
        .map(|name| SweepCalib::resolve(name.trim(), meta).map_err(|e| e.to_string()))
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err("empty calib list".into());
    }
    Ok(out)
}

/// Parse a comma-separated schedule axis (`auto,mps,fifo`).
pub fn parse_schedules(s: &str) -> Result<Vec<SchedulePolicyKind>, String> {
    let out: Result<Vec<SchedulePolicyKind>, String> =
        s.split(',').map(|p| p.trim().parse()).collect();
    let out = out?;
    if out.is_empty() {
        return Err("empty schedule list".into());
    }
    Ok(out)
}

/// One evaluated (or pruned) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Calibration name (`identity` or a preset).
    pub calib: String,
    /// GPUs per node.
    pub gpus: u32,
    /// Kernel arbitration policy.
    pub schedule: SchedulePolicyKind,
    /// Analytic makespan lower bound (critical path vs total work);
    /// `0.0` when the point's cost table failed to materialize.
    pub lower_bound: f64,
    /// Replayed makespan; `None` when pruned or errored.
    pub makespan: Option<f64>,
    /// Cost proxy: nodes × gpus × [`relative_node_price`] × makespan
    /// ("node-GPU-hours at relative hardware price").
    pub cost: Option<f64>,
    /// Whether the pruner skipped the replay (`lower_bound > deadline`).
    pub pruned: bool,
    /// Replay failure (e.g. the configuration does not fit in device
    /// memory), kept per-point so one OOM cannot abort the sweep.
    pub error: Option<String>,
}

impl SweepPoint {
    /// One `point` JSONL object, exactly the line [`SweepResult::to_jsonl`]
    /// writes. `pareto` is a property of the whole result, not the point,
    /// so the caller supplies it (checkpoints write `false`).
    pub fn to_json(&self, pareto: bool) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".into(), num);
        let mut out = format!(
            concat!(
                "{{\"type\":\"point\",\"calib\":\"{}\",\"gpus\":{},\"schedule\":\"{}\",",
                "\"lower_bound\":{},\"pruned\":{},\"makespan\":{},\"cost\":{},\"pareto\":{}"
            ),
            esc(&self.calib),
            self.gpus,
            self.schedule,
            num(self.lower_bound),
            self.pruned,
            opt(self.makespan),
            opt(self.cost),
            pareto,
        );
        if let Some(e) = &self.error {
            out.push_str(&format!(",\"error\":\"{}\"", esc(e)));
        }
        out.push('}');
        out
    }

    /// Parse a `point` line back (the checkpoint reader); `ln` is its
    /// line in the file. Lossless: the shortest-round-trip float encoding
    /// restores the exact bits, so a parsed point re-serializes
    /// byte-identically. Strict: an unknown or duplicated field is an
    /// error. The `pareto` field is read but ignored — front membership
    /// is recomputed when the sweep finishes.
    pub fn parse(line: &str, ln: usize) -> Result<Self, WhatifError> {
        let mut f = Fields::of(json::parse_line(line, ln)?, "point line", ln)?;
        if f.str("type")? != "point" {
            return Err(parse_err(ln, "not a sweep point line"));
        }
        let calib = f.str("calib")?;
        let gpus = f.int("gpus")?;
        let schedule: SchedulePolicyKind = f
            .str("schedule")?
            .parse()
            .map_err(|e: String| parse_err(ln, e))?;
        let point = SweepPoint {
            calib,
            gpus,
            schedule,
            lower_bound: f.f64("lower_bound")?,
            pruned: f.bool("pruned")?,
            makespan: json::as_opt_f64(f.require("makespan")?, "makespan")?,
            cost: json::as_opt_f64(f.require("cost")?, "cost")?,
            error: f
                .take("error")
                .map(|v| json::as_str(v, "error"))
                .transpose()?,
        };
        f.bool("pareto")?;
        f.finish()?;
        Ok(point)
    }
}

/// What a sweep produced: every point in deterministic grid order
/// (calibration-major, then GPUs, then schedule) plus the extracted
/// optima.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub points: Vec<SweepPoint>,
    /// Indices into `points` of the Pareto front over (makespan, cost),
    /// sorted by makespan ascending. No member is dominated by any
    /// evaluated point.
    pub pareto: Vec<usize>,
    /// Index of the cheapest point whose makespan meets the deadline,
    /// when a deadline was set and any point meets it.
    pub best_under_deadline: Option<usize>,
    pub deadline: Option<f64>,
    /// Arena entries compiled once and shared by every point.
    pub compiled_segments: usize,
    /// Points actually replayed.
    pub evaluated: usize,
    /// Points skipped by the lower-bound pruner.
    pub pruned: usize,
    /// Points rejected statically by [`sweep_preflight`] without a
    /// replay (always `0` for [`sweep`]). Deliberately *not* serialized:
    /// a rejected point carries the same error text a replay would, so
    /// the JSONL output stays bit-identical across the two modes.
    pub rejected: usize,
}

impl SweepResult {
    /// Serialize as JSONL: one `sweep` header line, then one `point` line
    /// per grid point in grid order. Deterministic byte-for-byte (the
    /// determinism suite compares this output across thread counts);
    /// floats use the same shortest-round-trip encoding as the workload
    /// format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            concat!(
                "{{\"type\":\"sweep\",\"points\":{},\"evaluated\":{},\"pruned\":{},",
                "\"deadline\":{},\"compiled_segments\":{}}}\n"
            ),
            self.points.len(),
            self.evaluated,
            self.pruned,
            self.deadline.map_or_else(|| "null".into(), num),
            self.compiled_segments,
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&p.to_json(self.pareto.contains(&i)));
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Checkpoint cursor
// ---------------------------------------------------------------------------

/// A sweep cursor: the first `points.len()` grid points of a sweep, in
/// grid order, already evaluated. Serialized as lossless JSONL (one
/// header line, then the same `point` lines the sweep result uses), so a
/// killed sweep resumes from the cursor and still produces output
/// byte-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Grid size of the full sweep — a cursor for a different grid shape
    /// is refused at parse time.
    pub total: usize,
    /// [`sweep_digest`] of the (workload, spec) the cursor belongs to;
    /// resuming callers compare it before adopting the cursor.
    pub digest: u64,
    /// Completed prefix, grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepCheckpoint {
    /// Serialize: one `sweep_checkpoint` header line, then one `point`
    /// line per completed grid point. Deterministic byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"type\":\"sweep_checkpoint\",\"version\":1,\"digest\":{},",
                "\"total\":{},\"completed\":{}}}\n"
            ),
            self.digest,
            self.total,
            self.points.len(),
        );
        for p in &self.points {
            out.push_str(&p.to_json(false));
            out.push('\n');
        }
        out
    }

    /// Parse a serialized cursor. Typed errors on malformed lines, a
    /// version this build does not read, or a cursor whose declared
    /// `completed` count disagrees with the point lines it carries (a
    /// torn write — the atomic [`SweepCheckpoint::write`] never produces
    /// one, but a cursor is exactly the file one reads after a crash).
    pub fn parse_jsonl(text: &str) -> Result<Self, WhatifError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| parse_err(1, "empty checkpoint"))?;
        let mut f = Fields::of(json::parse_line(header, 1)?, "checkpoint header", 1)?;
        if f.str("type")? != "sweep_checkpoint" {
            return Err(parse_err(1, "not a sweep checkpoint (bad header line)"));
        }
        let version: u64 = f.int("version")?;
        if version != 1 {
            return Err(parse_err(
                1,
                format!("unsupported checkpoint version {version} (this build reads version 1)"),
            ));
        }
        let digest: u64 = f.int("digest")?;
        let total: usize = f.int("total")?;
        let completed: usize = f.int("completed")?;
        f.finish()?;
        if completed > total {
            return Err(parse_err(
                1,
                format!("checkpoint cursor {completed} exceeds grid size {total}"),
            ));
        }
        // Sized by the lines actually present, never by the header's
        // claim: a forged `completed` must not drive an allocation.
        let points = lines
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(i, line)| SweepPoint::parse(line, i + 1))
            .collect::<Result<Vec<_>, _>>()?;
        if points.len() != completed {
            return Err(parse_err(
                1,
                format!(
                    "checkpoint declares {completed} completed points but carries {}",
                    points.len()
                ),
            ));
        }
        Ok(SweepCheckpoint {
            total,
            digest,
            points,
        })
    }

    /// Read a cursor file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, WhatifError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse_jsonl(&text)
    }

    /// Atomic write (tmp + rename): a kill mid-write never leaves a torn
    /// cursor behind, only the previous complete one.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_jsonl())?;
        std::fs::rename(&tmp, path)
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Content digest of a recording: FNV-1a over its serialized JSONL. The
/// serve layer coalesces queued sweep jobs by this key, so two paths to
/// identical recording bytes share one compile.
pub fn workload_digest(workload: &RecordedWorkload) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, workload.to_jsonl().as_bytes())
}

/// Identity of a (workload, grid) pair. A resume checks the cursor's
/// digest against the job's before adopting it, so a checkpoint written
/// for different inputs is never spliced into a sweep.
pub fn sweep_digest(workload: &RecordedWorkload, spec: &SweepSpec) -> u64 {
    let mut h = workload_digest(workload);
    for c in &spec.calibs {
        h = fnv1a(h, c.name.as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b";");
    for g in &spec.gpus {
        h = fnv1a(h, g.to_string().as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b";");
    for s in &spec.schedules {
        h = fnv1a(h, s.to_string().as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b";");
    if let Some(d) = spec.deadline {
        h = fnv1a(h, num(d).as_bytes());
    }
    h
}

/// Why a resumed sweep refused its cursor (or failed to compile).
#[derive(Debug)]
pub enum SweepResumeError {
    /// The workload's traces failed to compile.
    Engine(EngineError),
    /// The cursor carries more points than the grid enumerates.
    CursorBeyondGrid { completed: usize, total: usize },
    /// A completed point's (calib, gpus, schedule) key does not match
    /// its grid slot — the cursor belongs to a different spec.
    CursorMismatch {
        index: usize,
        expected: String,
        found: String,
    },
}

impl std::fmt::Display for SweepResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepResumeError::Engine(e) => write!(f, "{e}"),
            SweepResumeError::CursorBeyondGrid { completed, total } => write!(
                f,
                "checkpoint cursor has {completed} completed points but the grid has only {total}"
            ),
            SweepResumeError::CursorMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "checkpoint point {index} is {found} but the grid expects {expected} there"
            ),
        }
    }
}

impl std::error::Error for SweepResumeError {}

impl From<EngineError> for SweepResumeError {
    fn from(e: EngineError) -> Self {
        SweepResumeError::Engine(e)
    }
}

/// Analytic makespan lower bound for one (calibration, gpus) pair,
/// computed from the cost table without running the event loop.
///
/// The bound is the max of per-chain and per-resource aggregates, each of
/// which no schedule can beat:
///
/// * **per-rank critical path** — host seconds, kernel lead-ins plus solo
///   wall time (`device_seconds / util`; every policy serves a kernel at
///   rate ≤ its solo utilisation), collective network phases (NIC rate
///   ≤ 1), and synchronous transfers. With overlapped streams the
///   transfers leave the chain but the rank still cannot finish before
///   its own stream's summed link time;
/// * **per-GPU total device work** — every policy's aggregate service
///   rate is ≤ 1, so Σ `device_seconds` of co-located ranks is a floor;
/// * **per-link total transfer time** and **per-NIC total collective
///   time** — links and NICs are shared equally, aggregate rate 1.
///
/// Barrier waits and contention only add time, so pruning on
/// `lower_bound > deadline` never discards a feasible point.
pub(crate) fn lower_bound(
    compiled: &CompiledWorkload,
    costs: &[CSeg],
    gpus: u32,
    overlap_transfers: bool,
) -> f64 {
    let gpus = gpus.max(1) as usize;
    let mut bound: f64 = 0.0;
    for node in &compiled.nodes {
        let segs = &costs[node.seg_base..node.seg_base + node.seg_len];
        let mut gpu_work = vec![0.0f64; gpus];
        let mut link_work = vec![0.0f64; gpus];
        let mut nic_work = 0.0f64;
        for (local, r) in node.ranks.iter().enumerate() {
            let g = local % gpus;
            let mut chain = 0.0f64;
            let mut streamed = 0.0f64;
            for seg in &segs[r.seg_start as usize..r.seg_end as usize] {
                match *seg {
                    CSeg::Host { seconds, .. } => chain += seconds,
                    CSeg::Kernel {
                        lead,
                        device_seconds,
                        util,
                        ..
                    } => {
                        chain += lead + device_seconds / util;
                        gpu_work[g] += device_seconds;
                    }
                    CSeg::Transfer { seconds, .. } => {
                        if overlap_transfers {
                            streamed += seconds;
                        } else {
                            chain += seconds;
                        }
                        link_work[g] += seconds;
                    }
                    CSeg::Collective { seconds, .. } => {
                        chain += seconds;
                        nic_work += seconds;
                    }
                }
            }
            bound = bound.max(chain).max(streamed);
        }
        for g in 0..gpus {
            bound = bound.max(gpu_work[g]).max(link_work[g]);
        }
        bound = bound.max(nic_work);
    }
    bound
}

/// Run the sweep: compile the workload once, materialize one cost table
/// per calibration, then evaluate every grid point against the shared
/// arena. Only a malformed *recording* (non-finite recorded charge)
/// fails the whole sweep; per-point failures (OOM, a preset deriving a
/// non-finite cost) are captured on their [`SweepPoint`].
pub fn sweep(workload: &RecordedWorkload, spec: &SweepSpec) -> Result<SweepResult, EngineError> {
    sweep_impl(workload, spec, false)
}

/// [`sweep`] with the static pre-flight gate enabled: before replaying a
/// point, the engine's own admission check (run on the compiled arena)
/// and the analyzer's exact deadlock predictor
/// (`analyze::predict_deadlock`) decide whether the engine would reject
/// it. Statically-rejected points skip the replay entirely and record
/// the *same* error text the replay would have produced, so the
/// serialized output is bit-identical to [`sweep`]'s — only wall-clock
/// time and [`SweepResult::rejected`] differ.
pub fn sweep_preflight(
    workload: &RecordedWorkload,
    spec: &SweepSpec,
) -> Result<SweepResult, EngineError> {
    sweep_impl(workload, spec, true)
}

fn sweep_impl(
    workload: &RecordedWorkload,
    spec: &SweepSpec,
    preflight: bool,
) -> Result<SweepResult, EngineError> {
    let cs = CompiledSweep::compile(workload)?;
    let ctx = GridCtx::new(&cs, spec);
    let rejected = std::sync::atomic::AtomicUsize::new(0);
    // Pre-flight: the deadlock verdict is a property of the workload
    // alone (it depends on neither calibration nor GPU count), so it is
    // decided once here; the OOM verdict depends on (calibration, gpus)
    // and is taken per point inside the fan-out from the engine's own
    // admission check. Both verdicts are exact, so the recorded error
    // text matches what a replay would have produced.
    let pre = preflight.then(|| Preflight {
        deadlock: crate::analyze::predict_deadlock(&workload.nodes).map(|e| e.to_string()),
        rejected: &rejected,
    });
    let mut points = ctx.blank_points();
    points
        .par_iter_mut()
        .enumerate()
        .for_each(|(i, pt)| ctx.eval(i, pt, pre.as_ref()));
    Ok(ctx.finish(points, rejected.into_inner()))
}

/// A workload compiled once into the engine's calibration-invariant
/// arena, ready to evaluate many grids. This is the serve layer's
/// coalescing unit: queued sweep jobs that share a recording share one
/// `CompiledSweep`, so the segment-graph build and label interning are
/// paid once per batch rather than once per job.
pub struct CompiledSweep<'w> {
    workload: &'w RecordedWorkload,
    compiled: CompiledWorkload,
}

impl<'w> CompiledSweep<'w> {
    /// Compile the recording's traces into the shared arena.
    pub fn compile(workload: &'w RecordedWorkload) -> Result<Self, EngineError> {
        let slices: Vec<&[RankTrace]> = workload.nodes.iter().map(|v| v.as_slice()).collect();
        let compiled = CompiledWorkload::compile(&slices)?;
        Ok(Self { workload, compiled })
    }

    /// Arena entries shared by every grid point.
    pub fn segment_count(&self) -> usize {
        self.compiled.segment_count()
    }

    /// Evaluate a full grid against the shared arena — [`sweep`] minus
    /// the compile.
    pub fn run(&self, spec: &SweepSpec) -> SweepResult {
        let ctx = GridCtx::new(self, spec);
        let mut points = ctx.blank_points();
        points
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, pt)| ctx.eval(i, pt, None));
        ctx.finish(points, 0)
    }

    /// [`CompiledSweep::run`] in resumable chunks: adopt an
    /// already-evaluated grid prefix (`completed`, typically a parsed
    /// [`SweepCheckpoint`]), evaluate the rest `chunk` points at a time,
    /// and hand the full completed prefix to `on_checkpoint` after every
    /// chunk. Each grid point is a pure function of (workload, spec), so
    /// the result — and its serialized bytes — are identical for every
    /// (cursor, chunk size) combination, including the uninterrupted
    /// `completed = []` run. The cursor's point *keys* are verified
    /// against their grid slots; a mismatch is a typed error, never a
    /// silently wrong sweep.
    pub fn run_resumable(
        &self,
        spec: &SweepSpec,
        completed: &[SweepPoint],
        chunk: usize,
        on_checkpoint: &mut dyn FnMut(&[SweepPoint]),
    ) -> Result<SweepResult, SweepResumeError> {
        let ctx = GridCtx::new(self, spec);
        let mut points = ctx.blank_points();
        let total = points.len();
        if completed.len() > total {
            return Err(SweepResumeError::CursorBeyondGrid {
                completed: completed.len(),
                total,
            });
        }
        let key = |p: &SweepPoint| format!("{}/{}gpus/{}", p.calib, p.gpus, p.schedule);
        for (i, done) in completed.iter().enumerate() {
            let want = &points[i];
            if done.calib != want.calib || done.gpus != want.gpus || done.schedule != want.schedule
            {
                return Err(SweepResumeError::CursorMismatch {
                    index: i,
                    expected: key(want),
                    found: key(done),
                });
            }
            points[i] = done.clone();
        }
        let chunk = chunk.max(1);
        let mut hi = completed.len();
        while hi < total {
            let lo = hi;
            hi = (lo + chunk).min(total);
            points[lo..hi]
                .par_iter_mut()
                .enumerate()
                .for_each(|(j, pt)| ctx.eval(lo + j, pt, None));
            on_checkpoint(&points[..hi]);
        }
        Ok(ctx.finish(points, 0))
    }
}

/// Resumable sweep over a fresh compile — the one-shot convenience form
/// of [`CompiledSweep::run_resumable`].
pub fn sweep_resumable(
    workload: &RecordedWorkload,
    spec: &SweepSpec,
    completed: &[SweepPoint],
    chunk: usize,
    on_checkpoint: &mut dyn FnMut(&[SweepPoint]),
) -> Result<SweepResult, SweepResumeError> {
    CompiledSweep::compile(workload)?.run_resumable(spec, completed, chunk, on_checkpoint)
}

/// The static pre-flight context threaded through [`GridCtx::eval`] by
/// [`sweep_preflight`].
struct Preflight<'a> {
    deadlock: Option<String>,
    rejected: &'a std::sync::atomic::AtomicUsize,
}

/// Everything one grid evaluation needs: the shared arena, one cost
/// table per calibration, and the spec. Both the all-at-once fan-out and
/// the chunked resumable path go through the same [`GridCtx::eval`] and
/// [`GridCtx::finish`], which is what makes them bit-identical.
struct GridCtx<'a> {
    spec: &'a SweepSpec,
    meta: &'a RecordMeta,
    compiled: &'a CompiledWorkload,
    /// One cost table per calibration, shared across the gpus × schedule
    /// sub-grid. A broken calibration poisons only its own points.
    tables: Vec<Result<Vec<CSeg>, EngineError>>,
    per_calib: usize,
    nodes: usize,
}

impl<'a> GridCtx<'a> {
    fn new(cs: &'a CompiledSweep<'_>, spec: &'a SweepSpec) -> Self {
        let meta = &cs.workload.meta;
        let tables = spec
            .calibs
            .iter()
            .map(|c| {
                cs.compiled
                    .cost_table(&c.node.gpu, &Reprice::new(meta, &c.node, &c.net))
            })
            .collect();
        GridCtx {
            spec,
            meta,
            compiled: &cs.compiled,
            tables,
            per_calib: spec.gpus.len() * spec.schedules.len(),
            nodes: cs.workload.nodes.len().max(1),
        }
    }

    /// Pre-allocate every point in grid order (calibration-major); the
    /// parallel fan-out writes only its own slot, so output order — and
    /// therefore the serialized result — is thread-count-independent.
    fn blank_points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.spec.point_count());
        for c in &self.spec.calibs {
            for &g in &self.spec.gpus {
                for &s in &self.spec.schedules {
                    points.push(SweepPoint {
                        calib: c.name.clone(),
                        gpus: g,
                        schedule: s,
                        lower_bound: 0.0,
                        makespan: None,
                        cost: None,
                        pruned: false,
                        error: None,
                    });
                }
            }
        }
        points
    }

    fn eval(&self, i: usize, pt: &mut SweepPoint, pre: Option<&Preflight<'_>>) {
        let calib = &self.spec.calibs[i / self.per_calib];
        let costs = match &self.tables[i / self.per_calib] {
            Ok(t) => t,
            Err(e) => {
                pt.error = Some(e.to_string());
                return;
            }
        };
        pt.lower_bound = lower_bound(self.compiled, costs, pt.gpus, self.meta.overlap_transfers);
        if let Some(deadline) = self.spec.deadline {
            if pt.lower_bound > deadline {
                pt.pruned = true;
                return;
            }
        }
        if let Some(pre) = pre {
            // Same order as the engine: the OOM admission check runs
            // before the first event, a deadlock only after replaying
            // to quiescence.
            let verdict = match self.compiled.admit(pt.gpus, calib.node.gpu.mem_bytes) {
                Err(oom) => Some(EngineError::Oom(oom).to_string()),
                Ok(()) => pre.deadlock.clone(),
            };
            if let Some(e) = verdict {
                pt.error = Some(e);
                pre.rejected
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return;
            }
        }
        let cfg = NodeConfig {
            calib: calib.node,
            gpus: pt.gpus,
            mps: self.meta.mps,
            schedule: pt.schedule,
            overlap_transfers: self.meta.overlap_transfers,
        };
        match simulate_compiled(self.compiled, costs, &cfg, false) {
            Ok(out) => {
                let makespan = out.wall_seconds();
                pt.makespan = Some(makespan);
                pt.cost = Some(
                    self.nodes as f64
                        * pt.gpus as f64
                        * relative_node_price(&calib.node, &calib.net)
                        * makespan,
                );
            }
            Err(e) => pt.error = Some(e.to_string()),
        }
    }

    fn finish(&self, points: Vec<SweepPoint>, rejected: usize) -> SweepResult {
        let pareto = pareto_front(&points);
        let best_under_deadline = self.spec.deadline.and_then(|d| {
            points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.makespan.is_some_and(|m| m <= d))
                .min_by(|(ai, a), (bi, b)| {
                    (a.cost, a.makespan, ai)
                        .partial_cmp(&(b.cost, b.makespan, bi))
                        .expect("evaluated points have finite cost/makespan")
                })
                .map(|(i, _)| i)
        });
        let evaluated = points.iter().filter(|p| p.makespan.is_some()).count();
        let pruned = points.iter().filter(|p| p.pruned).count();
        SweepResult {
            points,
            pareto,
            best_under_deadline,
            deadline: self.spec.deadline,
            compiled_segments: self.compiled.segment_count(),
            evaluated,
            pruned,
            rejected,
        }
    }
}

/// Indices of the non-dominated evaluated points over (makespan, cost):
/// no other evaluated point is ≤ on both axes and < on at least one.
/// Sorted by makespan ascending (ties: cost, then grid index) so the
/// front reads as a frontier.
fn pareto_front(points: &[SweepPoint]) -> Vec<usize> {
    let evaluated: Vec<(usize, f64, f64)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((i, p.makespan?, p.cost?)))
        .collect();
    let mut front: Vec<usize> = evaluated
        .iter()
        .filter(|&&(_, m, c)| {
            !evaluated
                .iter()
                .any(|&(_, om, oc)| om <= m && oc <= c && (om < m || oc < c))
        })
        .map(|&(i, _, _)| i)
        .collect();
    front.sort_by(|&a, &b| {
        (points[a].makespan, points[a].cost, a)
            .partial_cmp(&(points[b].makespan, points[b].cost, b))
            .expect("front points have finite makespan/cost")
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use crate::trace::{Segment, TransferDir};

    fn sample_workload() -> RecordedWorkload {
        let mk = |f: f64| RankTrace {
            segments: vec![
                Segment::Host {
                    seconds: 0.002 * f,
                    label: "serial".into(),
                },
                Segment::Transfer {
                    bytes: 5e7 * f,
                    dir: TransferDir::HostToDevice,
                    label: "accel_data_update_device".into(),
                },
                Segment::Kernel {
                    profile: KernelProfile::uniform("k", 1e7, 40.0 * f, 8.0),
                    dispatch: 1e-5,
                },
                Segment::DeviceAlloc { seconds: 1e-4 },
                Segment::Collective {
                    seconds: 1e-3,
                    bytes: 1e6,
                    label: "mpi_allreduce".into(),
                },
            ],
            events: Vec::new(),
            peak_device_bytes: 1 << 30,
        };
        RecordedWorkload {
            meta: RecordMeta {
                label: "sweep test".into(),
                total_ranks: 8,
                ..RecordMeta::default()
            },
            nodes: vec![vec![mk(1.0), mk(1.4), mk(1.8), mk(2.2)]; 2],
        }
    }

    #[test]
    fn grid_order_is_calibration_major() {
        let w = sample_workload();
        let spec = SweepSpec {
            calibs: vec![
                SweepCalib::resolve("identity", &w.meta).unwrap(),
                SweepCalib::resolve("h100", &w.meta).unwrap(),
            ],
            gpus: vec![2, 4],
            schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
            deadline: None,
        };
        assert_eq!(spec.point_count(), 8);
        let res = sweep(&w, &spec).unwrap();
        let keys: Vec<(String, u32, String)> = res
            .points
            .iter()
            .map(|p| (p.calib.clone(), p.gpus, p.schedule.to_string()))
            .collect();
        assert_eq!(keys[0], ("identity".into(), 2, "auto".into()));
        assert_eq!(keys[1], ("identity".into(), 2, "fifo".into()));
        assert_eq!(keys[2], ("identity".into(), 4, "auto".into()));
        assert_eq!(keys[4], ("h100".into(), 2, "auto".into()));
        assert_eq!(res.evaluated, 8);
        assert_eq!(res.pruned, 0);
    }

    #[test]
    fn identity_point_matches_replay_identity_bitwise() {
        let w = sample_workload();
        let spec = SweepSpec::default_grid(&w.meta);
        let res = sweep(&w, &spec).unwrap();
        let id = res
            .points
            .iter()
            .find(|p| p.calib == "identity")
            .expect("identity in default grid");
        let oracle = w.replay_identity().unwrap().cluster.wall_seconds;
        assert_eq!(id.makespan.unwrap().to_bits(), oracle.to_bits());
    }

    #[test]
    fn preset_points_match_standalone_replay_bitwise() {
        let w = sample_workload();
        for name in ["h100", "a100-nvlink", "slingshot11"] {
            let calib = SweepCalib::resolve(name, &w.meta).unwrap();
            let spec = SweepSpec {
                calibs: vec![calib.clone()],
                gpus: vec![2],
                schedules: vec![w.meta.schedule],
                deadline: None,
            };
            let res = sweep(&w, &spec).unwrap();
            let standalone = w
                .replay(&calib.node, &calib.net, Some(2))
                .unwrap()
                .cluster
                .wall_seconds;
            assert_eq!(
                res.points[0].makespan.unwrap().to_bits(),
                standalone.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn lower_bound_never_exceeds_makespan() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2, 4];
        spec.schedules = vec![
            SchedulePolicyKind::Auto,
            SchedulePolicyKind::TimeSliced,
            SchedulePolicyKind::Fifo,
        ];
        let res = sweep(&w, &spec).unwrap();
        for p in &res.points {
            let m = p.makespan.expect("all points evaluate");
            assert!(
                p.lower_bound <= m * (1.0 + 1e-12),
                "{} gpus={} {}: bound {} > makespan {m}",
                p.calib,
                p.gpus,
                p.schedule,
                p.lower_bound
            );
            assert!(p.lower_bound > 0.0);
        }
    }

    #[test]
    fn deadline_prunes_only_provably_infeasible_points() {
        let w = sample_workload();
        // An unpruned reference run supplies the true makespans.
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 4];
        let all = sweep(&w, &spec).unwrap();
        // Set the deadline just below the largest lower bound: the pruner
        // must fire on at least that point, and only on points whose true
        // makespan really misses the deadline.
        let makespans: Vec<f64> = all.points.iter().map(|p| p.makespan.unwrap()).collect();
        let max_lb = all.points.iter().map(|p| p.lower_bound).fold(0.0, f64::max);
        let deadline = max_lb * 0.99;
        spec.deadline = Some(deadline);
        let res = sweep(&w, &spec).unwrap();
        assert!(res.pruned > 0, "deadline {deadline} pruned nothing");
        for (p, &true_makespan) in res.points.iter().zip(&makespans) {
            if p.pruned {
                // Soundness: a pruned point really cannot meet the deadline.
                assert!(p.lower_bound > deadline);
                assert!(
                    true_makespan > deadline,
                    "{} gpus={}: pruned but feasible ({true_makespan} <= {deadline})",
                    p.calib,
                    p.gpus
                );
            }
        }
        if makespans.iter().any(|&m| m <= deadline) {
            let best = res.best_under_deadline.expect("some point meets it");
            assert!(res.points[best].makespan.unwrap() <= deadline);
        } else {
            assert!(res.best_under_deadline.is_none());
        }
    }

    #[test]
    fn pareto_front_has_no_dominated_member() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2, 4];
        let res = sweep(&w, &spec).unwrap();
        assert!(!res.pareto.is_empty());
        for &i in &res.pareto {
            let (m, c) = (res.points[i].makespan.unwrap(), res.points[i].cost.unwrap());
            for p in &res.points {
                let (om, oc) = (p.makespan.unwrap(), p.cost.unwrap());
                assert!(
                    !(om <= m && oc <= c && (om < m || oc < c)),
                    "front point {i} dominated by {}/{}",
                    p.calib,
                    p.gpus
                );
            }
        }
        // Front is sorted by makespan.
        let ms: Vec<f64> = res
            .pareto
            .iter()
            .map(|&i| res.points[i].makespan.unwrap())
            .collect();
        assert!(ms.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn per_point_oom_does_not_abort_the_sweep() {
        let mut w = sample_workload();
        for trace in w.nodes.iter_mut().flatten() {
            trace.peak_device_bytes = 30 << 30; // ~30 GB per rank
        }
        // 4 ranks on 1 GPU cannot fit; on 4 GPUs they can.
        let spec = SweepSpec {
            calibs: vec![SweepCalib::resolve("identity", &w.meta).unwrap()],
            gpus: vec![1, 4],
            schedules: vec![SchedulePolicyKind::Auto],
            deadline: None,
        };
        let res = sweep(&w, &spec).unwrap();
        assert!(res.points[0].error.as_deref().unwrap().contains("memory"));
        assert!(res.points[0].makespan.is_none());
        assert!(res.points[1].makespan.is_some());
        assert_eq!(res.evaluated, 1);
        // The errored point cannot be on the front.
        assert_eq!(res.pareto, vec![1]);
    }

    #[test]
    fn preflight_is_bit_identical_on_grids_with_oom_points() {
        let mut w = sample_workload();
        for trace in w.nodes.iter_mut().flatten() {
            trace.peak_device_bytes = 30 << 30;
        }
        // gpus=1 stacks 4 ranks (~120 GB) on one device: infeasible
        // under both the 40 GB identity calibration and the 80 GB h100.
        let spec = SweepSpec {
            calibs: vec![
                SweepCalib::resolve("identity", &w.meta).unwrap(),
                SweepCalib::resolve("h100", &w.meta).unwrap(),
            ],
            gpus: vec![1, 4],
            schedules: vec![SchedulePolicyKind::Auto],
            deadline: None,
        };
        let full = sweep(&w, &spec).unwrap();
        let pre = sweep_preflight(&w, &spec).unwrap();
        assert_eq!(full.rejected, 0);
        assert_eq!(pre.rejected, 2);
        assert_eq!(pre.evaluated, full.evaluated);
        // The acceptance bar: identical serialized output, down to the
        // error text on the statically-rejected points.
        assert_eq!(full.to_jsonl(), pre.to_jsonl());
    }

    #[test]
    fn preflight_is_bit_identical_on_deadlocking_workloads() {
        let mut w = sample_workload();
        // One extra collective on rank 0 makes the job ragged: every
        // grid point now deadlocks at replay time.
        w.nodes[0][0].segments.push(Segment::Collective {
            seconds: 1e-3,
            bytes: 1e6,
            label: "mpi_allreduce".into(),
        });
        let spec = SweepSpec {
            calibs: vec![SweepCalib::resolve("identity", &w.meta).unwrap()],
            gpus: vec![2, 4],
            schedules: vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo],
            deadline: None,
        };
        let full = sweep(&w, &spec).unwrap();
        let pre = sweep_preflight(&w, &spec).unwrap();
        assert_eq!(pre.rejected, spec.point_count());
        assert!(full
            .points
            .iter()
            .all(|p| p.error.as_deref().is_some_and(|e| e.contains("deadlock"))));
        assert_eq!(full.to_jsonl(), pre.to_jsonl());
    }

    #[test]
    fn preflight_is_a_no_op_on_clean_grids() {
        let w = sample_workload();
        let spec = SweepSpec::default_grid(&w.meta);
        let full = sweep(&w, &spec).unwrap();
        let pre = sweep_preflight(&w, &spec).unwrap();
        assert_eq!(pre.rejected, 0);
        assert_eq!(full.to_jsonl(), pre.to_jsonl());
    }

    #[test]
    fn jsonl_carries_every_point_in_grid_order() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.deadline = Some(1e-9); // prune everything
        let res = sweep(&w, &spec).unwrap();
        assert_eq!(res.evaluated, 0);
        assert_eq!(res.pruned, res.points.len());
        let text = res.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), res.points.len() + 1);
        assert!(lines[0].contains("\"type\":\"sweep\""));
        assert!(lines[1].contains("\"calib\":\"identity\""));
        assert!(lines[1].contains("\"pruned\":true"));
        assert!(lines[1].contains("\"makespan\":null"));
    }

    #[test]
    fn grid_parsers_accept_lists_and_ranges() {
        let meta = RecordMeta::default();
        assert_eq!(parse_gpus("2..4,8").unwrap(), vec![2, 3, 4, 8]);
        assert_eq!(parse_gpus("1").unwrap(), vec![1]);
        assert!(parse_gpus("0").is_err());
        assert!(parse_gpus("4..2").is_err());
        assert!(parse_gpus("x").is_err());

        let calibs = parse_calibs("identity, h100", &meta).unwrap();
        assert_eq!(calibs.len(), 2);
        assert_eq!(calibs[1].name, "h100");
        let err = parse_calibs("nope", &meta).unwrap_err();
        assert!(err.contains("valid presets"), "{err}");

        let scheds = parse_schedules("auto,fifo").unwrap();
        assert_eq!(
            scheds,
            vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo]
        );
        assert!(parse_schedules("bogus").is_err());

        let spec = SweepSpec::parse_grid("gpus=1,2;calib=identity;schedule=mps", &meta).unwrap();
        assert_eq!(spec.point_count(), 2);
        assert!(SweepSpec::parse_grid("nope=1", &meta).is_err());
        assert!(SweepSpec::parse_grid("gpus", &meta).is_err());
        // Empty spec keeps the defaults.
        let spec = SweepSpec::parse_grid("", &meta).unwrap();
        assert_eq!(spec.calibs.len(), 1 + presets().len());
    }

    #[test]
    fn resumable_sweep_is_bit_identical_from_every_cursor() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2, 4];
        spec.schedules = vec![SchedulePolicyKind::Auto, SchedulePolicyKind::Fifo];
        let oracle = sweep(&w, &spec).unwrap().to_jsonl();
        let total = spec.point_count();
        let cs = CompiledSweep::compile(&w).unwrap();
        for chunk in [1, 3, 7, total, total + 5] {
            // Uninterrupted chunked run.
            let mut cursors: Vec<Vec<SweepPoint>> = Vec::new();
            let res = cs
                .run_resumable(&spec, &[], chunk, &mut |pts| cursors.push(pts.to_vec()))
                .unwrap();
            assert_eq!(res.to_jsonl(), oracle, "chunk={chunk}");
            assert_eq!(cursors.last().unwrap().len(), total);
            // Resume from every cursor the run surfaced: still identical.
            for cur in &cursors {
                let resumed = cs.run_resumable(&spec, cur, chunk, &mut |_| {}).unwrap();
                assert_eq!(
                    resumed.to_jsonl(),
                    oracle,
                    "cursor={} chunk={chunk}",
                    cur.len()
                );
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_and_guards_its_shape() {
        let w = sample_workload();
        let mut spec = SweepSpec::default_grid(&w.meta);
        spec.gpus = vec![1, 2];
        let res = sweep(&w, &spec).unwrap();
        let ck = SweepCheckpoint {
            total: res.points.len(),
            digest: sweep_digest(&w, &spec),
            points: res.points[..3].to_vec(),
        };
        let back = SweepCheckpoint::parse_jsonl(&ck.to_jsonl()).unwrap();
        assert_eq!(back, ck);
        // Every parsed point re-serializes byte-identically.
        for (a, b) in ck.points.iter().zip(&back.points) {
            assert_eq!(a.to_json(false), b.to_json(false));
        }
        // Torn file: declared count disagrees with carried lines.
        let mut torn = ck.to_jsonl();
        torn.truncate(torn.trim_end().rfind('\n').unwrap() + 1);
        let err = SweepCheckpoint::parse_jsonl(&torn).unwrap_err();
        assert!(err.to_string().contains("declares 3"), "{err}");
        // Wrong version and non-checkpoint headers are typed errors too.
        assert!(SweepCheckpoint::parse_jsonl("{\"type\":\"sweep\"}").is_err());
        assert!(SweepCheckpoint::parse_jsonl(
            "{\"type\":\"sweep_checkpoint\",\"version\":2,\"digest\":0,\"total\":0,\"completed\":0}\n"
        )
        .is_err());
    }

    #[test]
    fn a_forged_checkpoint_header_is_a_typed_error_not_an_allocation() {
        let forged = concat!(
            "{\"type\":\"sweep_checkpoint\",\"version\":1,\"digest\":0,",
            "\"total\":1000000000000000,\"completed\":1000000000000000}\n"
        );
        let err = SweepCheckpoint::parse_jsonl(forged).unwrap_err();
        assert!(matches!(err, WhatifError::Parse { line: 1, .. }), "{err:?}");
        assert!(err.to_string().contains("but carries 0"), "{err}");
    }

    #[test]
    fn resume_refuses_a_cursor_for_a_different_grid() {
        let w = sample_workload();
        let spec = SweepSpec {
            calibs: vec![SweepCalib::resolve("identity", &w.meta).unwrap()],
            gpus: vec![1, 2],
            schedules: vec![SchedulePolicyKind::Auto],
            deadline: None,
        };
        let res = sweep(&w, &spec).unwrap();
        // Swapped axis order: point 0 claims gpus=2 where the grid has 1.
        let mut wrong = res.points.clone();
        wrong.reverse();
        let err = sweep_resumable(&w, &spec, &wrong, 8, &mut |_| {}).unwrap_err();
        assert!(
            matches!(err, SweepResumeError::CursorMismatch { index: 0, .. }),
            "{err}"
        );
        // Oversized cursor.
        let mut long = res.points.clone();
        long.extend(res.points.iter().cloned());
        let err = sweep_resumable(&w, &spec, &long, 8, &mut |_| {}).unwrap_err();
        assert!(
            matches!(err, SweepResumeError::CursorBeyondGrid { .. }),
            "{err}"
        );
        // Digest separates specs sharing a workload.
        let mut other = spec.clone();
        other.gpus = vec![1, 2, 4];
        assert_ne!(sweep_digest(&w, &spec), sweep_digest(&w, &other));
        assert_eq!(sweep_digest(&w, &spec), sweep_digest(&w, &spec.clone()));
    }

    #[test]
    fn presets_rescale_with_the_recording() {
        let meta = RecordMeta {
            work_scale: 1e-3,
            ..RecordMeta::default()
        };
        let c = SweepCalib::resolve("h100", &meta).unwrap();
        let paper = preset("h100").unwrap();
        assert_eq!(
            c.node.gpu.launch_latency,
            paper.node.gpu.launch_latency * 1e-3
        );
        // Physical rates are scale-free.
        assert_eq!(c.node.gpu.fp64_peak, paper.node.gpu.fp64_peak);
        assert!(SweepCalib::resolve("bogus", &meta).is_err());
    }
}
