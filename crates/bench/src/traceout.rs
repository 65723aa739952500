//! Trace export: Chrome trace-event JSON or JSONL, selected by extension.
//!
//! The `fig*` binaries take `--trace-out <path>`; a `.jsonl` path writes
//! one JSON object per line (easy to grep and post-process), anything
//! else writes the Chrome trace-event array format loadable in
//! `chrome://tracing` / Perfetto. Virtual per-rank spans go under pid 0,
//! the contention-resolved node timeline under pid 1, and per-GPU
//! occupancy as counter events under pid 2.
//!
//! Labels are escaped with the workspace's JSON writer helper, and the
//! module parses its own output back ([`span_seconds_from_file`], through
//! the workspace's JSON reader) so tests can prove the export
//! round-trips: summed per-label durations of the timed spans equal the
//! simulator's per-label `LabelStats::seconds`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use accel_sim::json::{self, esc, Fields, Value};
use accel_sim::{NodeTimeline, RankTrace, TimelineKind};

/// On-disk trace flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON array (`chrome://tracing`, Perfetto).
    Chrome,
    /// One JSON object per line.
    Jsonl,
}

impl TraceFormat {
    /// Pick the format from a path's extension: `.jsonl` selects
    /// [`TraceFormat::Jsonl`], everything else the Chrome format.
    pub fn from_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") => TraceFormat::Jsonl,
            _ => TraceFormat::Chrome,
        }
    }
}

fn secs_to_us(s: f64) -> f64 {
    s * 1e6
}

/// Render the trace in `format`.
pub fn render_trace(
    traces: &[RankTrace],
    timeline: Option<&NodeTimeline>,
    format: TraceFormat,
) -> String {
    match format {
        TraceFormat::Chrome => render_chrome(traces, timeline),
        TraceFormat::Jsonl => render_jsonl(traces, timeline),
    }
}

fn render_chrome(traces: &[RankTrace], timeline: Option<&NodeTimeline>) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (rank, trace) in traces.iter().enumerate() {
        for e in &trace.events {
            let ph = if e.dur > 0.0 || e.kind.is_timed() {
                r#""ph":"X""#.to_string() + &format!(r#","dur":{}"#, secs_to_us(e.dur))
            } else {
                r#""ph":"i","s":"t""#.to_string()
            };
            lines.push(format!(
                r#"{{"name":"{}","cat":"{}",{},"ts":{},"pid":0,"tid":{rank},"args":{{"scope":"{}","bytes":{}}}}}"#,
                esc(&e.label),
                e.kind.name(),
                ph,
                secs_to_us(e.start),
                esc(&e.scope),
                e.bytes,
            ));
        }
    }
    if let Some(tl) = timeline {
        for e in &tl.events {
            let gpu = e.gpu.map_or("null".to_string(), |g| g.to_string());
            let ph = if e.kind == TimelineKind::ContextSwitch {
                r#""ph":"i","s":"t""#.to_string()
            } else {
                format!(r#""ph":"X","dur":{}"#, secs_to_us(e.end - e.start))
            };
            lines.push(format!(
                r#"{{"name":"{}","cat":"{}",{},"ts":{},"pid":1,"tid":{},"args":{{"gpu":{gpu}}}}}"#,
                esc(&e.label),
                e.kind.name(),
                ph,
                secs_to_us(e.start),
                e.rank,
            ));
        }
        for s in &tl.occupancy {
            lines.push(format!(
                r#"{{"name":"gpu{} occupancy","ph":"C","ts":{},"pid":2,"tid":0,"args":{{"load":{}}}}}"#,
                s.gpu,
                secs_to_us(s.t),
                s.load,
            ));
        }
    }
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    out
}

fn render_jsonl(traces: &[RankTrace], timeline: Option<&NodeTimeline>) -> String {
    let mut out = String::new();
    for (rank, trace) in traces.iter().enumerate() {
        for e in &trace.events {
            writeln!(
                out,
                r#"{{"type":"span","rank":{rank},"kind":"{}","label":"{}","scope":"{}","start":{},"dur":{},"bytes":{}}}"#,
                e.kind.name(),
                esc(&e.label),
                esc(&e.scope),
                e.start,
                e.dur,
                e.bytes,
            )
            .unwrap();
        }
    }
    if let Some(tl) = timeline {
        for e in &tl.events {
            let gpu = e.gpu.map_or("null".to_string(), |g| g.to_string());
            writeln!(
                out,
                r#"{{"type":"timeline","rank":{},"gpu":{gpu},"kind":"{}","label":"{}","start":{},"end":{}}}"#,
                e.rank,
                e.kind.name(),
                esc(&e.label),
                e.start,
                e.end,
            )
            .unwrap();
        }
        for s in &tl.occupancy {
            writeln!(
                out,
                r#"{{"type":"occupancy","gpu":{},"t":{},"load":{}}}"#,
                s.gpu, s.t, s.load,
            )
            .unwrap();
        }
    }
    out
}

/// Write the trace to `path`, format chosen from the extension.
pub fn write_trace(
    path: &Path,
    traces: &[RankTrace],
    timeline: Option<&NodeTimeline>,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    fs::write(
        path,
        render_trace(traces, timeline, TraceFormat::from_path(path)),
    )
}

const TIMED_KINDS: [&str; 5] = ["host", "kernel", "transfer", "alloc", "collective"];

/// Parse a written trace back into summed per-label seconds over the
/// timed virtual-rank spans — the round-trip check against
/// `Context::stats()`. Handles both formats; a line that is not valid
/// JSON is an `InvalidData` error naming it.
pub fn span_seconds_from_file(path: &Path) -> io::Result<BTreeMap<String, f64>> {
    let text = fs::read_to_string(path)?;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        // Chrome events are array elements: drop the separator, skip the
        // brackets.
        let line = raw.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let span = timed_span(line, i + 1).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: {e}", e.line()),
            )
        })?;
        if let Some((label, seconds)) = span {
            *out.entry(label).or_insert(0.0) += seconds;
        }
    }
    Ok(out)
}

/// One trace line's `(label, seconds)` when it is a timed virtual-rank
/// span: a JSONL `span` record (seconds) or a Chrome complete event on
/// pid 0 (µs).
fn timed_span(line: &str, ln: usize) -> Result<Option<(String, f64)>, json::Error> {
    let mut f = Fields::of(json::parse_line(line, ln)?, "trace event", ln)?;
    let mut is = |key: &str, want: Value| f.take(key).is_some_and(|(v, _)| v == want);
    let (label, kind, seconds) = if is("type", Value::Str("span".into())) {
        (f.str("label")?, f.str("kind")?, f.f64("dur")?)
    } else if is("pid", Value::Num("0".into())) && is("ph", Value::Str("X".into())) {
        (f.str("name")?, f.str("cat")?, f.f64("dur")? / 1e6)
    } else {
        return Ok(None);
    };
    Ok(TIMED_KINDS
        .contains(&kind.as_str())
        .then_some((label, seconds)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{Context, NodeCalib};

    fn traced_context() -> Context {
        let mut ctx = Context::new(NodeCalib::default());
        ctx.push_phase("test");
        ctx.host_compute("setup", 0.25);
        ctx.transfer_labeled(1048576.0, accel_sim::TransferDir::HostToDevice, "upload");
        ctx.pop_phase();
        ctx
    }

    #[test]
    fn format_follows_extension() {
        assert_eq!(
            TraceFormat::from_path(Path::new("a/b.jsonl")),
            TraceFormat::Jsonl
        );
        assert_eq!(
            TraceFormat::from_path(Path::new("a/b.json")),
            TraceFormat::Chrome
        );
        assert_eq!(
            TraceFormat::from_path(Path::new("trace")),
            TraceFormat::Chrome
        );
    }

    #[test]
    fn both_formats_round_trip_per_label_seconds() {
        let ctx = traced_context();
        let stats: BTreeMap<String, f64> = ctx
            .stats()
            .iter()
            .map(|(k, v)| (k.clone(), v.seconds))
            .collect();
        let traces = vec![ctx.into_trace()];

        for name in ["roundtrip.json", "roundtrip.jsonl"] {
            let path = std::env::temp_dir().join(format!("repro_bench_{name}"));
            write_trace(&path, &traces, None).unwrap();
            let parsed = span_seconds_from_file(&path).unwrap();
            for (label, secs) in &stats {
                let got = parsed.get(label).copied().unwrap_or(0.0);
                assert!(
                    (got - secs).abs() < 1e-9 * secs.max(1.0),
                    "{name} {label}: {got} vs {secs}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn chrome_output_is_a_json_array_with_phase_events() {
        let ctx = traced_context();
        let out = render_chrome(&[ctx.into_trace()], None);
        assert!(out.starts_with("[\n"));
        assert!(out.trim_end().ends_with(']'));
        assert!(out.contains(r#""cat":"phase""#));
        assert!(out.contains(r#""name":"setup""#));
    }

    #[test]
    fn escaped_labels_survive_the_round_trip() {
        let mut ctx = Context::new(NodeCalib::default());
        ctx.host_compute("a\"b\\c\nd", 2.5e-3);
        let traces = vec![ctx.into_trace()];
        for name in ["escaped.json", "escaped.jsonl"] {
            let path = std::env::temp_dir().join(format!("repro_bench_{name}"));
            write_trace(&path, &traces, None).unwrap();
            let parsed = span_seconds_from_file(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let got = parsed["a\"b\\c\nd"];
            assert!((got - 2.5e-3).abs() < 1e-15, "{name}: {got}");
        }
    }
}
