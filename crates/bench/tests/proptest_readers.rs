//! Malformed-input properties of the readers built on the workspace's
//! JSON reader: what-if recordings, sweep checkpoints and exported
//! traces.
//!
//! Each case takes valid writer output, truncates it or overwrites a
//! few bytes with JSON-significant characters, and feeds the result
//! back. Every reader must answer `Ok` or its typed error — never panic,
//! never abort on an allocation the input asked for.

use std::path::PathBuf;

use accel_sim::whatif::{RecordMeta, RecordedWorkload, WhatifError};
use accel_sim::{
    CompiledSweep, Context, KernelProfile, NodeCalib, RankTrace, Segment, SweepCheckpoint,
    SweepSpec, TransferDir,
};
use proptest::prelude::*;
use repro_bench::span_seconds_from_file;
use repro_bench::traceout::{render_trace, TraceFormat};

fn workload() -> RecordedWorkload {
    let rank = |f: f64| RankTrace {
        segments: vec![
            Segment::Host {
                seconds: 0.01 * f,
                label: "serial \"é\"\n".into(),
            },
            Segment::Kernel {
                profile: KernelProfile::uniform("scan_map", 1e6, 40.0 * f, 8.0),
                dispatch: 1e-5,
            },
            Segment::Transfer {
                bytes: 1e8 * f,
                dir: TransferDir::HostToDevice,
                label: "accel_data_update_device".into(),
            },
            Segment::DeviceAlloc { seconds: 1e-4 },
            Segment::Collective {
                seconds: 2e-3,
                bytes: 1e6,
                label: "mpi_allreduce".into(),
            },
        ],
        events: Vec::new(),
        peak_device_bytes: (1e9 * f) as u64,
    };
    RecordedWorkload {
        meta: RecordMeta {
            label: "readers".into(),
            total_ranks: 4,
            scenario: Some("{\"name\":\"a \\\"b\\\"\"}".into()),
            ..RecordMeta::default()
        },
        nodes: vec![vec![rank(1.0), rank(1.5)], vec![rank(1.0), rank(1.5)]],
    }
}

fn checkpoint(w: &RecordedWorkload) -> SweepCheckpoint {
    let mut spec = SweepSpec::default_grid(&w.meta);
    spec.gpus = vec![1, 2];
    let res = CompiledSweep::compile(w).expect("compiles").run(&spec);
    let mut points = res.points[..5].to_vec();
    points[0].makespan = None;
    points[0].cost = None;
    points[0].error = Some("device \"0\" out of memory".into());
    SweepCheckpoint {
        total: res.points.len(),
        digest: u64::MAX,
        points,
    }
}

fn traced_ranks() -> Vec<RankTrace> {
    let mut ctx = Context::new(NodeCalib::default());
    ctx.push_phase("phase \"x\"");
    ctx.host_compute("setup\\", 0.25);
    ctx.transfer_labeled(1048576.0, TransferDir::HostToDevice, "upload");
    ctx.pop_phase();
    vec![ctx.into_trace()]
}

/// Bytes the mutator writes: the characters that change JSON structure.
const NOISE: &[u8] = b"\"\\{}[],:0-.eE+nutfl \n";

/// Truncate at `cut` (a fraction of the length) or overwrite bytes at
/// the sampled positions, then repair the result to valid UTF-8.
fn mutate(text: &str, truncate: bool, cut: f64, edits: &[(u64, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if truncate {
        bytes.truncate((cut * bytes.len() as f64) as usize);
    } else {
        for &(at, noise) in edits {
            let i = at as usize % bytes.len();
            bytes[i] = NOISE[noise as usize % NOISE.len()];
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn temp_trace(test: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "proptest_readers_{test}_{}.{ext}",
        std::process::id()
    ))
}

proptest! {
    #[test]
    fn mutated_recordings_and_checkpoints_parse_or_fail_typed(
        truncate: bool,
        cut in 0.0..1.0,
        edits in proptest::collection::vec((0u64..u64::MAX, 0u8..255), 1usize..6),
    ) {
        let w = workload();
        let text = mutate(&w.to_jsonl(), truncate, cut, &edits);
        let recording = RecordedWorkload::parse_jsonl(&text).map(|_| ());
        let text = mutate(&checkpoint(&w).to_jsonl(), truncate, cut, &edits);
        let cursor = SweepCheckpoint::parse_jsonl(&text).map(|_| ());
        for parsed in [recording, cursor] {
            match parsed {
                Ok(()) | Err(WhatifError::Parse { .. }) => {}
                Err(other) => prop_assert!(false, "untyped failure {other:?}"),
            }
        }
    }

    #[test]
    fn mutated_traces_parse_or_fail_typed(
        chrome: bool,
        truncate: bool,
        cut in 0.0..1.0,
        edits in proptest::collection::vec((0u64..u64::MAX, 0u8..255), 1usize..6),
    ) {
        let (format, ext) = if chrome {
            (TraceFormat::Chrome, "json")
        } else {
            (TraceFormat::Jsonl, "jsonl")
        };
        let text = mutate(&render_trace(&traced_ranks(), None, format), truncate, cut, &edits);
        let path = temp_trace("mutated", ext);
        std::fs::write(&path, text).unwrap();
        let parsed = span_seconds_from_file(&path);
        std::fs::remove_file(&path).ok();
        if let Err(e) = parsed {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}

/// Insert `,"<field>":<value>` before the closing brace of line `at`.
fn duplicate_field(text: &str, at: usize, field: &str, value: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let line = &mut lines[at];
    line.insert_str(line.len() - 1, &format!(",\"{field}\":{value}"));
    lines.join("\n")
}

fn assert_duplicate_named(err: WhatifError, line: usize, field: &str) {
    match err {
        WhatifError::Parse { line: l, ref msg } => {
            assert_eq!(l, line, "{msg}");
            assert!(msg.contains(&format!("duplicate field '{field}'")), "{msg}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn a_duplicated_meta_field_is_a_typed_error_naming_it() {
    let text = duplicate_field(&workload().to_jsonl(), 0, "gpus", "8");
    let err = RecordedWorkload::parse_jsonl(&text).unwrap_err();
    assert_duplicate_named(err, 1, "gpus");
}

#[test]
fn a_duplicated_point_field_is_a_typed_error_naming_it() {
    let text = duplicate_field(&checkpoint(&workload()).to_jsonl(), 2, "makespan", "0.5");
    let err = SweepCheckpoint::parse_jsonl(&text).unwrap_err();
    assert_duplicate_named(err, 3, "makespan");
}

#[test]
fn an_unknown_field_is_a_typed_error_naming_it() {
    let recording = duplicate_field(&workload().to_jsonl(), 3, "bonus", "1");
    let cursor = duplicate_field(&checkpoint(&workload()).to_jsonl(), 1, "bonus", "1");
    for (err, line) in [
        (RecordedWorkload::parse_jsonl(&recording).unwrap_err(), 4),
        (SweepCheckpoint::parse_jsonl(&cursor).unwrap_err(), 2),
    ] {
        match err {
            WhatifError::Parse { line: l, msg } => {
                assert_eq!(l, line, "{msg}");
                assert!(msg.contains("unknown field 'bonus'"), "{msg}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
