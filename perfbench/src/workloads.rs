//! The benchmark's inputs. Every scenario, grid and request line is built
//! here from the workload seed, so one seed always gives the same inputs,
//! and the seed lands in `problem.seed` of every scenario built.

use scenario::json::esc;
use scenario::{ImplKind, NetCalib, NodeCalib, ProblemSize, Scenario};

/// The `fig6_per_kernel` figure's base scenario (medium, 16 procs,
/// 4 GPUs, MPS, tracked movement).
const FIG6_BASE: &str = include_str!("../../scenarios/fig6_per_kernel.json");
/// The what-if recording scenario (omp, 8 procs, 2 nodes).
const WHATIF_RECORD: &str = include_str!("../../scenarios/whatif_record.json");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig6 base with `impl = jax`: arrayjit evaluation dominates.
    Fig6Jax,
    /// The fig6 base with `impl = cpu`, then `impl = omp`, each followed
    /// by a trace export: the same layers without arrayjit. Its traced
    /// run also drives a serving session.
    Fig6CpuOmp,
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fig6_jax" => Ok(Workload::Fig6Jax),
            "fig6_cpu_omp" => Ok(Workload::Fig6CpuOmp),
            other => Err(format!(
                "unknown workload '{other}' (expected fig6_jax or fig6_cpu_omp)"
            )),
        }
    }
}

/// splitmix64: a small, well-mixed generator for drawing job parameters.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shrink a scenario's problem to `n_det` detectors over `n_obs`
/// observations, keeping the base problem's samples per detector per
/// observation (so every kernel call sees arrays of the paper-shaped
/// length), and seed it. The work scale is left alone: below ~5e-4 the
/// scaled device capacity no longer holds 16 jax ranks.
fn shrink(mut s: Scenario, n_det: usize, n_obs: usize, seed: u64) -> Scenario {
    let base = s.build_problem();
    s.problem.total_samples = Some(
        base.total_samples
            * (n_det as f64 / base.n_det_total as f64)
            * (n_obs as f64 / base.n_obs as f64),
    );
    s.problem.n_det_total = Some(n_det);
    s.problem.n_obs = Some(n_obs);
    s.problem.seed = Some(seed);
    s
}

fn parse(text: &str) -> Scenario {
    Scenario::parse(text).expect("checked-in scenario parses")
}

/// Observations a figure configuration runs: 4 of the fig6 base's 16,
/// with all of its detectors, so every array keeps the base's size and
/// three of four observations find every rank's JIT cache warm, while a
/// jax configuration still takes only seconds.
const FIGURE_OBS: usize = 4;

/// The configurations one run of a figure workload executes, in order.
pub fn figure_scenarios(w: Workload, seed: u64) -> Vec<Scenario> {
    let base = parse(FIG6_BASE);
    let n_det = base.build_problem().n_det_total;
    match w {
        Workload::Fig6Jax => vec![shrink(
            base.with_kind(ImplKind::Jit),
            n_det,
            FIGURE_OBS,
            seed,
        )],
        Workload::Fig6CpuOmp => [ImplKind::Cpu, ImplKind::OmpTarget]
            .into_iter()
            .map(|k| shrink(base.clone().with_kind(k), n_det, FIGURE_OBS, seed))
            .collect(),
    }
}

/// The two recordings the sweep jobs read: the what-if scenario (omp,
/// 2 nodes) and its cpu variant. The observation count, and with it the
/// segment count a sweep replays, stays the scenario's own; only the
/// detector count shrinks, which keeps recording cheap enough to repeat.
pub fn recording_scenarios(seed: u64) -> [Scenario; 2] {
    let omp = parse(WHATIF_RECORD);
    let n_obs = omp.build_problem().n_obs;
    let mut cpu = omp.clone().with_kind(ImplKind::Cpu);
    cpu.name = "whatif_record_cpu".into();
    [shrink(omp, 128, n_obs, seed), shrink(cpu, 128, n_obs, seed)]
}

/// What a served job must end as for its output to count as correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A sweep over `recording` (index into the recordings) that writes
    /// `out`; the same grid and deadline give the reference result.
    Sweep {
        recording: usize,
        grid: String,
        deadline: Option<f64>,
        out: String,
    },
    /// A submit that runs; its makespan must match `run_config`'s.
    Submit(Box<Scenario>),
    /// A submit simlint must reject at admission with this code.
    Reject(&'static str),
}

/// One request line and what it must produce.
pub struct Job {
    pub id: String,
    pub line: String,
    pub expect: Expect,
}

const CALIBS: [&str; 6] = [
    "identity",
    "a100",
    "h100",
    "a100-nvlink",
    "h100-nvlink",
    "slingshot11",
];
const SCHEDULES: [&str; 5] = ["auto", "mps", "timeslice", "fifo", "priority"];

/// Grid sizes of a batch's six sweeps, 8 to 24 points. The seed draws
/// each grid's calibrations, GPU range and schedules, but every batch
/// replays the same number of points, so a run's work does not depend
/// on the seed.
const GRID_POINTS: [usize; 6] = [8, 12, 16, 16, 20, 24];

/// A grid of `points` points: calibrations × a GPU range × schedules.
fn draw_grid(rng: &mut Rng, points: usize) -> String {
    let mut shapes = Vec::new();
    for c in 1..=CALIBS.len() {
        for g in 1..=4 {
            for s in 1..=SCHEDULES.len() {
                if c * g * s == points {
                    shapes.push((c, g, s));
                }
            }
        }
    }
    let (c, g, s) = shapes[rng.range(0, shapes.len() as u64 - 1) as usize];
    let first_calib = rng.range(0, (CALIBS.len() - c) as u64) as usize;
    let first_sched = rng.range(0, (SCHEDULES.len() - s) as u64) as usize;
    let lo = rng.range(1, 3);
    format!(
        "gpus={lo}..{};calib={};schedule={}",
        lo + g as u64 - 1,
        CALIBS[first_calib..first_calib + c].join(","),
        SCHEDULES[first_sched..first_sched + s].join(",")
    )
}

/// A submit that parses and validates but provably cannot reserve its
/// framework memory: 64 jax ranks on one default device (simlint S006).
fn doomed(seed: u64) -> Scenario {
    let mut s = Scenario::new("doomed", ProblemSize::Medium, 1e-3)
        .with_kind(ImplKind::Jit)
        .with_procs(64)
        .with_calib_inline(NodeCalib::default(), NetCalib::default());
    s.gpus = 1;
    s.problem.seed = Some(seed);
    s
}

fn submit_line(id: &str, s: &Scenario) -> String {
    format!(
        "{{\"type\":\"submit\",\"id\":\"{id}\",\"scenario\":{}}}",
        s.to_json_compact()
    )
}

/// The eight request lines of batch `batch`: six sweeps alternating
/// between the two recordings (two of them under a deadline, so the
/// lower-bound pruner runs), one small cpu submit and one submit simlint
/// rejects. `live_walls` are the recordings' makespans, which the
/// deadlines are drawn around; sweep results are written under `dir`.
pub fn batch_jobs(seed: u64, batch: u64, live_walls: [f64; 2], dir: &str) -> Vec<Job> {
    let mut rng = Rng::new(seed, batch);
    let mut jobs = Vec::with_capacity(8);
    for (j, &points) in GRID_POINTS.iter().enumerate() {
        let recording = j % 2;
        let id = format!("b{batch}-sweep{j}");
        let grid = draw_grid(&mut rng, points);
        let deadline = (j % 3 == 1).then(|| live_walls[recording] * rng.uniform(0.8, 1.6));
        let out = format!("{dir}/{id}.jsonl");
        let rec_path = recording_path(dir, recording);
        let mut line = format!(
            "{{\"type\":\"sweep\",\"id\":\"{id}\",\"recording\":\"{}\",\"grid\":\"{}\"",
            esc(&rec_path),
            esc(&grid)
        );
        if let Some(d) = deadline {
            line.push_str(&format!(",\"deadline\":{d:?}"));
        }
        line.push_str(&format!(",\"out\":\"{}\"}}", esc(&out)));
        jobs.push(Job {
            id,
            line,
            expect: Expect::Sweep {
                recording,
                grid,
                deadline,
                out,
            },
        });
    }
    let small = shrink(
        Scenario::new("serve_small", ProblemSize::Medium, 1e-3)
            .with_kind(ImplKind::Cpu)
            .with_procs(4),
        64,
        2,
        seed,
    );
    let id = format!("b{batch}-submit");
    jobs.push(Job {
        line: submit_line(&id, &small),
        id,
        expect: Expect::Submit(Box::new(small)),
    });
    let id = format!("b{batch}-doomed");
    jobs.push(Job {
        line: submit_line(&id, &doomed(seed)),
        id,
        expect: Expect::Reject("S006"),
    });
    jobs
}

/// Path of recording `i` under the run's work directory.
pub fn recording_path(dir: &str, i: usize) -> String {
    format!("{dir}/recording{i}.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_requested_point_count() {
        let mut rng = Rng::new(7, 0);
        for i in 0..500 {
            let points = GRID_POINTS[i % GRID_POINTS.len()];
            let grid = draw_grid(&mut rng, points);
            let axis = |key: &str| {
                grid.split(';')
                    .find_map(|p| p.strip_prefix(key))
                    .expect("axis present")
                    .to_string()
            };
            let gpus = axis("gpus=");
            let (lo, hi) = gpus.split_once("..").expect("range");
            let g = hi.parse::<u32>().unwrap() - lo.parse::<u32>().unwrap() + 1;
            let c = axis("calib=").split(',').count() as u32;
            let s = axis("schedule=").split(',').count() as u32;
            assert_eq!((g * c * s) as usize, points, "{grid}");
        }
    }

    #[test]
    fn the_seed_reaches_every_scenario() {
        for w in [Workload::Fig6Jax, Workload::Fig6CpuOmp] {
            for s in figure_scenarios(w, 99) {
                assert_eq!(s.problem.seed, Some(99));
            }
        }
        for s in recording_scenarios(99) {
            assert_eq!(s.problem.seed, Some(99));
        }
        let jobs = batch_jobs(99, 3, [1.0, 1.0], "d");
        assert_eq!(jobs.len(), 8);
        for job in &jobs {
            if let Expect::Submit(s) = &job.expect {
                assert_eq!(s.problem.seed, Some(99));
            }
        }
        assert_eq!(
            jobs.iter().map(|j| j.line.clone()).collect::<Vec<_>>(),
            batch_jobs(99, 3, [1.0, 1.0], "d")
                .iter()
                .map(|j| j.line.clone())
                .collect::<Vec<_>>()
        );
    }
}
