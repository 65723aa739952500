//! Job envelope: the simulation service's request format.
//!
//! The `simd` service speaks newline-delimited JSON — one request per
//! line, streamed over a pipe or Unix socket. This module holds the
//! typed envelope those lines decode into: scenario jobs carry a full
//! inline [`Scenario`] (validated by the same `Scenario` decoding every
//! binary uses), sweep jobs reference a recorded workload by path and
//! describe their grid with the `whatif sweep` clause syntax. Decoding
//! is strict in the house style: an unknown envelope field is a typed
//! error naming the offender, never silently ignored.
//!
//! The envelope deliberately lives in this crate rather than the serve
//! crate: it is the request *format*, versioned alongside the scenario
//! schema it embeds, and parseable by any client without pulling in the
//! service loop.

use crate::json::{self, as_f64, as_str, Fields, Value};
use crate::{Scenario, ScenarioError};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// `{"type":"submit","id":…,"scenario":{…}}` — run one scenario
    /// through the engine.
    Submit {
        /// Client-chosen job id, echoed on every status event.
        id: String,
        /// The fully validated scenario payload.
        scenario: Box<Scenario>,
    },
    /// `{"type":"sweep","id":…,"recording":…}` — evaluate a grid over a
    /// recorded workload.
    Sweep {
        id: String,
        /// Path to the recorded workload (what-if JSONL).
        recording: String,
        /// Optional `key=value;…` grid clauses (`gpus=1..8;calib=h100`);
        /// unspecified axes default per the recording, as in
        /// `whatif sweep --grid`.
        grid: Option<String>,
        /// Optional makespan budget: prunes provably-late points and
        /// selects the cheapest point meeting it.
        deadline: Option<f64>,
        /// Where to write the sweep result JSONL.
        out: Option<String>,
    },
    /// `{"type":"stats"}` — report service counters.
    Stats,
    /// `{"type":"drain"}` — process every queued job now.
    Drain,
    /// `{"type":"shutdown"}` — drain, then exit.
    Shutdown,
}

impl JobRequest {
    /// Parse one request line. Errors are [`ScenarioError`]s: malformed
    /// JSON, a missing/unknown envelope field, or an invalid embedded
    /// scenario — each naming the offending field and line.
    pub fn parse(line: &str) -> Result<Self, ScenarioError> {
        let mut f = Fields::of(json::parse(line)?, "request", 1)?;
        let kind = as_str(require(&mut f, "type")?, "type")?;
        let req = match kind.as_str() {
            "submit" => {
                let id = as_str(require(&mut f, "id")?, "id")?;
                let (sv, line) = require(&mut f, "scenario")?;
                let scenario = Scenario::from_value(sv, line)?;
                JobRequest::Submit {
                    id,
                    scenario: Box::new(scenario),
                }
            }
            "sweep" => JobRequest::Sweep {
                id: as_str(require(&mut f, "id")?, "id")?,
                recording: as_str(require(&mut f, "recording")?, "recording")?,
                grid: f.take("grid").map(|v| as_str(v, "grid")).transpose()?,
                deadline: f
                    .take("deadline")
                    .map(|v| as_f64(v, "deadline"))
                    .transpose()?,
                out: f.take("out").map(|v| as_str(v, "out")).transpose()?,
            },
            "stats" => JobRequest::Stats,
            "drain" => JobRequest::Drain,
            "shutdown" => JobRequest::Shutdown,
            other => {
                return Err(ScenarioError::InvalidValue {
                    field: "type".into(),
                    msg: format!(
                        "unknown request type '{other}' \
                         (expected submit, sweep, stats, drain or shutdown)"
                    ),
                })
            }
        };
        f.finish().map_err(|e| match e {
            json::Error::UnknownField { field, line } => {
                ScenarioError::UnknownRequestField { field, line }
            }
            e => e.into(),
        })?;
        Ok(req)
    }
}

/// A required envelope field; its absence names the request, not the
/// scenario the request may carry.
fn require(f: &mut Fields, field: &str) -> Result<(Value, usize), ScenarioError> {
    f.take(field)
        .ok_or_else(|| ScenarioError::MissingRequestField {
            field: field.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImplKind, ProblemSize};

    fn tiny() -> Scenario {
        Scenario::new("envelope test", ProblemSize::Medium, 1e-3)
    }

    #[test]
    fn submit_round_trips_the_embedded_scenario() {
        let s = tiny().with_kind(ImplKind::OmpTarget).with_procs(8);
        let line = format!(
            "{{\"type\":\"submit\",\"id\":\"job-1\",\"scenario\":{}}}",
            s.to_json_compact()
        );
        match JobRequest::parse(&line).unwrap() {
            JobRequest::Submit { id, scenario } => {
                assert_eq!(id, "job-1");
                assert_eq!(*scenario, s);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn sweep_carries_optional_axes() {
        let line = concat!(
            "{\"type\":\"sweep\",\"id\":\"s1\",\"recording\":\"w.jsonl\",",
            "\"grid\":\"gpus=1..4\",\"deadline\":0.5,\"out\":\"res.jsonl\"}"
        );
        match JobRequest::parse(line).unwrap() {
            JobRequest::Sweep {
                id,
                recording,
                grid,
                deadline,
                out,
            } => {
                assert_eq!(id, "s1");
                assert_eq!(recording, "w.jsonl");
                assert_eq!(grid.as_deref(), Some("gpus=1..4"));
                assert_eq!(deadline, Some(0.5));
                assert_eq!(out.as_deref(), Some("res.jsonl"));
            }
            other => panic!("expected Sweep, got {other:?}"),
        }
        let bare = JobRequest::parse("{\"type\":\"sweep\",\"id\":\"s2\",\"recording\":\"w\"}");
        assert!(matches!(
            bare.unwrap(),
            JobRequest::Sweep {
                grid: None,
                deadline: None,
                out: None,
                ..
            }
        ));
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(
            JobRequest::parse("{\"type\":\"stats\"}").unwrap(),
            JobRequest::Stats
        );
        assert_eq!(
            JobRequest::parse("{\"type\":\"drain\"}").unwrap(),
            JobRequest::Drain
        );
        assert_eq!(
            JobRequest::parse("{\"type\":\"shutdown\"}").unwrap(),
            JobRequest::Shutdown
        );
    }

    #[test]
    fn envelope_errors_are_typed_and_name_the_offender() {
        // Unknown request type.
        let e = JobRequest::parse("{\"type\":\"frobnicate\"}").unwrap_err();
        assert!(e.to_string().contains("frobnicate"), "{e}");
        // Unknown envelope field: named as a request field.
        let e = JobRequest::parse("{\"type\":\"stats\",\"bogus\":1}").unwrap_err();
        assert!(
            matches!(e, ScenarioError::UnknownRequestField { ref field, .. } if field == "bogus")
        );
        assert_eq!(e.to_string(), "unknown request field 'bogus' at line 1");
        // Missing required field, `type` included.
        let e = JobRequest::parse("{\"type\":\"sweep\",\"id\":\"x\"}").unwrap_err();
        assert!(
            matches!(e, ScenarioError::MissingRequestField { ref field } if field == "recording")
        );
        let e = JobRequest::parse("{\"id\":\"x\"}").unwrap_err();
        assert_eq!(e.to_string(), "missing required request field 'type'");
        // The scenario a submit carries keeps the scenario wording.
        let mut body = tiny().to_json_compact();
        body.insert_str(1, "\"bogus\":1,");
        let line = format!("{{\"type\":\"submit\",\"id\":\"j\",\"scenario\":{body}}}");
        let e = JobRequest::parse(&line).unwrap_err();
        assert!(
            e.to_string().starts_with("unknown scenario field 'bogus'"),
            "{e}"
        );
        // An invalid embedded scenario surfaces the scenario's own error.
        let mut s = tiny();
        s.procs_per_node = 7;
        let line = format!(
            "{{\"type\":\"submit\",\"id\":\"bad\",\"scenario\":{}}}",
            s.to_json_compact()
        );
        let e = JobRequest::parse(&line).unwrap_err();
        assert!(
            matches!(e, ScenarioError::InvalidProcs { procs: 7, .. }),
            "{e}"
        );
    }
}
