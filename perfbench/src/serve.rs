//! The serving session of `fig6_cpu_omp`'s traced run: one closed-loop
//! client of an in-process [`Service`] whose executor is the real runner.
//! Each batch sends eight request lines and a `drain`, and the client
//! waits for every job's final event before it sends the next batch. It
//! yields the per-layer metrics of the what-if, simlint, sweep and serve
//! layers; it is not timed end to end (see `perfbench/README.md`).

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use accel_sim::{check_workload, CompiledSweep, RecordedWorkload, SweepSpec};
use repro_bench::{record_run, run_config, RunConfig};
use scenario::json::Value;
use scenario::{check_scenario, Scenario};
use simd_serve::{ScenarioExec, ScenarioOutcome, ServeConfig, Service};

use crate::spans::Spans;
use crate::stats::{median, percentile, Checks};
use crate::workloads::{batch_jobs, recording_path, recording_scenarios, Expect, Job};
use crate::Args;

/// Jobs a serving session admits at least, so that the p90 of admission
/// time has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Setups per serving session; `whatif.record_s` is the median recording
/// time over all of them.
const SETUPS: usize = 3;

/// The executor the `simd` binary plugs in: scenario → [`RunConfig`] →
/// `run_config`.
pub struct Runner;

impl ScenarioExec for Runner {
    fn run_scenario(&mut self, s: &Scenario) -> Result<ScenarioOutcome, String> {
        let cfg = RunConfig::from_scenario(s).map_err(|e| e.to_string())?;
        let out = run_config(&cfg).map_err(|e| e.to_string())?;
        let node_wall = out.node_wall.as_ref().map_err(Clone::clone)?;
        Ok(ScenarioOutcome {
            makespan: node_wall + out.comm_seconds,
            node_wall: *node_wall,
            comm_seconds: out.comm_seconds,
            transfer_bytes: out.transfer_bytes,
            segments: out.traces.iter().map(|t| t.segments.len()).sum(),
        })
    }
}

/// An event sink that timestamps every event line when the service
/// flushes it.
#[derive(Default)]
pub struct Stamped {
    pending: Vec<u8>,
    events: Vec<(Instant, String)>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let now = Instant::now();
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line).trim_end().to_string();
            self.events.push((now, text));
        }
        Ok(())
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _, _)| k == key).map(|(_, v, _)| v),
        _ => None,
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// One status event of a job.
pub struct Event {
    at: Instant,
    state: String,
    body: Value,
    line: String,
}

/// Group a batch's status events by job id.
fn events_by_job(events: &[(Instant, String)]) -> HashMap<String, Vec<Event>> {
    let mut by_job: HashMap<String, Vec<Event>> = HashMap::new();
    for (at, line) in events {
        let Ok(body) = scenario::json::parse(line) else {
            continue;
        };
        if str_field(&body, "type") != Some("status") {
            continue;
        }
        let (Some(id), Some(state)) = (str_field(&body, "id"), str_field(&body, "state")) else {
            continue;
        };
        let (id, state) = (id.to_string(), state.to_string());
        by_job.entry(id).or_default().push(Event {
            at: *at,
            state,
            body,
            line: line.clone(),
        });
    }
    by_job
}

fn is_final(state: &str) -> bool {
    matches!(state, "done" | "rejected" | "failed")
}

/// Everything set up before the first batch: the recordings on disk and
/// the service.
pub struct ServeSetup {
    pub service: Service<Runner>,
    pub live_walls: [f64; 2],
    pub record_s: Vec<f64>,
}

/// Resolve and record both workloads with `record_run`, write them under
/// `dir`, and build the service.
pub fn setup(seed: u64, dir: &str) -> Result<ServeSetup, String> {
    let mut live_walls = [0.0; 2];
    let mut record_s = Vec::new();
    for (i, s) in recording_scenarios(seed).iter().enumerate() {
        let t = Instant::now();
        let cfg = RunConfig::from_scenario(s).map_err(|e| e.to_string())?;
        let (_, recording) = record_run(&cfg, &s.name, Some(s))?;
        record_s.push(t.elapsed().as_secs_f64());
        recording
            .write(Path::new(&recording_path(dir, i)))
            .map_err(|e| format!("write recording: {e}"))?;
        live_walls[i] = recording.meta.live_wall_seconds;
    }
    Ok(ServeSetup {
        service: Service::new(ServeConfig::default(), Runner),
        live_walls,
        record_s,
    })
}

/// The reference results the served outputs are compared with: direct
/// `CompiledSweep::run` calls on the same recordings and specs, and
/// direct `run_config` makespans for submits. Cached by input, since
/// grids repeat across batches.
pub struct References {
    workloads: Vec<RecordedWorkload>,
    sweeps: HashMap<(usize, String, Option<u64>), String>,
    makespans: HashMap<String, u64>,
}

impl References {
    pub fn new(dir: &str) -> Result<Self, String> {
        let workloads = (0..2)
            .map(|i| {
                RecordedWorkload::read(Path::new(&recording_path(dir, i)))
                    .map_err(|e| format!("read recording {i}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(References {
            workloads,
            sweeps: HashMap::new(),
            makespans: HashMap::new(),
        })
    }

    fn spec(wl: &RecordedWorkload, grid: &str, deadline: Option<f64>) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::parse_grid(grid, &wl.meta)?;
        if deadline.is_some() {
            spec.deadline = deadline;
        }
        Ok(spec)
    }

    fn sweep(
        &mut self,
        recording: usize,
        grid: &str,
        deadline: Option<f64>,
    ) -> Result<&str, String> {
        let key = (recording, grid.to_string(), deadline.map(f64::to_bits));
        if !self.sweeps.contains_key(&key) {
            let wl = &self.workloads[recording];
            let spec = Self::spec(wl, grid, deadline)?;
            let cs = CompiledSweep::compile(wl).map_err(|e| e.to_string())?;
            self.sweeps.insert(key.clone(), cs.run(&spec).to_jsonl());
        }
        Ok(&self.sweeps[&key])
    }

    fn makespan(&mut self, s: &Scenario) -> Result<u64, String> {
        let key = s.to_json_compact();
        if let Some(&bits) = self.makespans.get(&key) {
            return Ok(bits);
        }
        let bits = Runner.run_scenario(s)?.makespan.to_bits();
        self.makespans.insert(key, bits);
        Ok(bits)
    }
}

/// What one batch measured.
pub struct BatchSample {
    /// `handle_line` time of each job line.
    pub admit_s: Vec<f64>,
    /// `handle_line` time of the `drain`.
    pub drain_s: f64,
    /// Per job, `admitted` to `running`.
    pub queue_wait_s: Vec<f64>,
}

/// Send one batch through the service and wait for every final event.
pub fn run_batch(
    service: &mut Service<Runner>,
    jobs: &[Job],
) -> Result<(BatchSample, HashMap<String, Vec<Event>>), String> {
    let mut sink = Stamped::default();
    let mut admit_s = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t = Instant::now();
        service
            .handle_line(&job.line, &mut sink)
            .map_err(|e| e.to_string())?;
        admit_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    service
        .handle_line("{\"type\":\"drain\"}", &mut sink)
        .map_err(|e| e.to_string())?;
    let drain_s = t.elapsed().as_secs_f64();

    let by_job = events_by_job(&sink.events);
    let mut queue_wait_s = Vec::new();
    for job in jobs {
        let events = by_job.get(&job.id).map(Vec::as_slice).unwrap_or(&[]);
        let at = |state: &str| events.iter().find(|e| e.state == state).map(|e| e.at);
        if !events.iter().any(|e| is_final(&e.state)) {
            return Err(format!("job {} never finished", job.id));
        }
        if let (Some(a), Some(r)) = (at("admitted"), at("running")) {
            queue_wait_s.push(r.duration_since(a).as_secs_f64());
        }
    }
    Ok((
        BatchSample {
            admit_s,
            drain_s,
            queue_wait_s,
        },
        by_job,
    ))
}

/// Check every job of a finished batch: each ended as expected, each
/// served sweep's `out` file is byte-equal to the direct run of the same
/// spec, and each served makespan is bit-equal to `run_config`'s. With
/// `flip_bit`, one bit of the first served output is flipped before it is
/// compared, which must count as a failure.
pub fn check_batch(
    jobs: &[Job],
    by_job: &HashMap<String, Vec<Event>>,
    refs: &mut References,
    mut flip_bit: bool,
    checks: &mut Checks,
) -> Result<(), String> {
    for job in jobs {
        let events = by_job.get(&job.id).map(Vec::as_slice).unwrap_or(&[]);
        let Some(end) = events.iter().find(|e| is_final(&e.state)) else {
            checks.check(false, || format!("{}: no final event", job.id));
            continue;
        };
        match &job.expect {
            Expect::Sweep {
                recording,
                grid,
                deadline,
                out,
            } => {
                checks.check(end.state == "done", || format!("{}: {}", job.id, end.line));
                let mut served = std::fs::read(out).unwrap_or_default();
                let _ = std::fs::remove_file(out);
                if flip_bit && !served.is_empty() {
                    served[0] ^= 1;
                    flip_bit = false;
                }
                let want = refs.sweep(*recording, grid, *deadline)?;
                checks.check(served == want.as_bytes(), || {
                    format!(
                        "{}: served sweep output differs from CompiledSweep::run",
                        job.id
                    )
                });
            }
            Expect::Submit(s) => {
                checks.check(end.state == "done", || format!("{}: {}", job.id, end.line));
                let served = match field(&end.body, "makespan") {
                    Some(Value::Num(raw)) => raw.parse::<f64>().ok(),
                    _ => None,
                };
                let want = refs.makespan(s)?;
                checks.check(served.map(f64::to_bits) == Some(want), || {
                    format!("{}: served makespan {served:?} != run_config's", job.id)
                });
            }
            Expect::Reject(code) => {
                let lint = str_field(&end.body, "reason") == Some("lint");
                checks.check(
                    end.state == "rejected" && lint && end.line.contains(code),
                    || format!("{}: expected a {code} rejection, got {}", job.id, end.line),
                );
            }
        }
    }
    Ok(())
}

/// Time the calls admission and drain make for a batch's jobs, directly:
/// `RecordedWorkload::read`, `SweepSpec::parse_grid`, `check_workload`,
/// `CompiledSweep::compile` and `CompiledSweep::run` for each sweep, and
/// `check_scenario` for each submit.
pub fn time_direct_calls(
    jobs: &[Job],
    dir: &str,
    spans: &mut Spans,
    root: usize,
    layer: &mut DirectTimes,
) -> Result<(), String> {
    for job in jobs {
        match &job.expect {
            Expect::Sweep {
                recording,
                grid,
                deadline,
                ..
            } => {
                let path = recording_path(dir, *recording);
                let (wl, s) = spans.time("whatif.read", Some(root), || {
                    RecordedWorkload::read(Path::new(&path))
                });
                let wl = wl.map_err(|e| e.to_string())?;
                layer.read_s.push(s);
                let (spec, _) = spans.time("sweep.parse_grid", Some(root), || {
                    References::spec(&wl, grid, *deadline)
                });
                let spec = spec?;
                let (_, s) =
                    spans.time("analyze.check_workload", Some(root), || check_workload(&wl));
                layer.check_workload_s.push(s);
                let (cs, s) =
                    spans.time("sweep.compile", Some(root), || CompiledSweep::compile(&wl));
                let cs = cs.map_err(|e| e.to_string())?;
                layer.compile_s.push(s);
                let (res, s) = spans.time("sweep.run", Some(root), || cs.run(&spec));
                layer.run_s.push(s);
                layer.points += res.points.len() as f64;
                layer.evaluated += res.evaluated as f64;
            }
            Expect::Submit(s) => {
                let (_, t) = spans.time("analyze.check_scenario", Some(root), || check_scenario(s));
                layer.check_scenario_s.push(t);
            }
            Expect::Reject(_) => {
                let s = scenario_of(&job.line)?;
                let (_, t) =
                    spans.time("analyze.check_scenario", Some(root), || check_scenario(&s));
                layer.check_scenario_s.push(t);
            }
        }
    }
    Ok(())
}

fn scenario_of(line: &str) -> Result<Scenario, String> {
    match scenario::JobRequest::parse(line).map_err(|e| e.to_string())? {
        scenario::JobRequest::Submit { scenario, .. } => Ok(*scenario),
        _ => Err("not a submit line".into()),
    }
}

/// Per-call times of the direct calls, across a run's traced batches.
#[derive(Default)]
pub struct DirectTimes {
    read_s: Vec<f64>,
    check_workload_s: Vec<f64>,
    check_scenario_s: Vec<f64>,
    compile_s: Vec<f64>,
    run_s: Vec<f64>,
    points: f64,
    evaluated: f64,
}

/// Set up [`SETUPS`] times; the last setup serves. Returns each
/// recording's `record_run` time and the last setup.
fn set_up(a: &Args) -> Result<(Vec<f64>, ServeSetup), String> {
    let (mut record_s, mut ready) = (Vec::new(), None);
    for _ in 0..SETUPS {
        let s = setup(a.seed, &a.dir)?;
        record_s.extend_from_slice(&s.record_s);
        ready = Some(s);
    }
    Ok((record_s, ready.expect("at least one setup")))
}

/// The traced serving session: each batch first times the direct calls
/// for its jobs, then sends the same job stream through the service,
/// until [`MIN_JOBS`] jobs have been admitted. Span run ids continue
/// after those already used.
pub fn serve_traced(
    a: &Args,
    spans: &mut Spans,
    checks: &mut Checks,
    beyond: &mut BTreeMap<String, usize>,
) -> Result<BTreeMap<String, f64>, String> {
    let (seed, dir) = (a.seed, a.dir.as_str());
    let (record_s, mut ready) = set_up(a)?;
    let recording_bytes: u64 = (0..2)
        .map(|i| std::fs::metadata(recording_path(dir, i)).map(|m| m.len()))
        .sum::<io::Result<u64>>()
        .map_err(|e| e.to_string())?;
    let mut refs = References::new(dir)?;
    let mut direct = DirectTimes::default();
    let (mut admit_s, mut queue_wait_s, mut drain_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut batches, mut sweep_jobs) = (0u64, 0u64);
    let first_run = spans.run + 1;
    for batch in 0u64.. {
        if admit_s.len() >= MIN_JOBS {
            break;
        }
        let jobs = batch_jobs(seed, batch, ready.live_walls, dir);
        sweep_jobs += jobs
            .iter()
            .filter(|j| matches!(j.expect, Expect::Sweep { .. }))
            .count() as u64;
        spans.run = first_run + batch;
        let root = spans.open("serve.direct", None);
        time_direct_calls(&jobs, dir, spans, root, &mut direct)?;
        spans.close(root);
        let root = spans.open("serve.batch", None);
        let (sample, by_job) = run_batch(&mut ready.service, &jobs)?;
        spans.close(root);
        checks.attempted += jobs.len() as u64;
        check_batch(&jobs, &by_job, &mut refs, a.flip_bit && batch == 0, checks)?;
        admit_s.extend(sample.admit_s);
        queue_wait_s.extend(sample.queue_wait_s);
        drain_s.push(sample.drain_s);
        batches += 1;
    }
    let stats = ready.service.stats();
    let run_total: f64 = direct.run_s.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("whatif.record_s".to_string(), median(&record_s));
    m.insert("whatif.read_s".into(), median(&direct.read_s));
    m.insert("whatif.recording_bytes".into(), recording_bytes as f64);
    m.insert(
        "analyze.check_workload_s".into(),
        median(&direct.check_workload_s),
    );
    m.insert(
        "analyze.check_scenario_s".into(),
        median(&direct.check_scenario_s),
    );
    m.insert("sweep.compile_s".into(), median(&direct.compile_s));
    m.insert("sweep.run_s".into(), median(&direct.run_s));
    m.insert("sweep.points".into(), direct.points / batches as f64);
    m.insert(
        "sweep.points_per_s".into(),
        if run_total > 0.0 {
            direct.points / run_total
        } else {
            0.0
        },
    );
    m.insert(
        "sweep.evaluated_ratio".into(),
        if direct.points > 0.0 {
            direct.evaluated / direct.points
        } else {
            0.0
        },
    );
    for (name, xs, p) in [
        ("serve.admit_p50_s", &admit_s, 50.0),
        ("serve.admit_p90_s", &admit_s, 90.0),
        ("serve.queue_wait_p50_s", &queue_wait_s, 50.0),
    ] {
        let (value, n) = percentile(xs, p);
        m.insert(name.into(), value);
        beyond.insert(name.into(), n);
    }
    m.insert("serve.drain_s".into(), median(&drain_s));
    m.insert("serve.batches".into(), stats.batches as f64);
    m.insert("serve.sweep_compiles".into(), stats.sweep_compiles as f64);
    m.insert(
        "serve.coalesced_ratio".into(),
        stats.sweep_jobs_coalesced as f64 / sweep_jobs.max(1) as f64,
    );
    Ok(m)
}
