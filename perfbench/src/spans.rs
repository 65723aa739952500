//! Wall-clock spans recorded around calls into each layer. Spans stay in
//! memory while a run executes and are written out once it ends, so the
//! writing never lands inside a timed region.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<call>`, `parent` indexes the span
/// that caused it, and `run` numbers the repetition it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The in-memory span log of one process.
pub struct Spans {
    epoch: Instant,
    pub run: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        self.spans[id].secs()
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Durations of the spans named `name` in run `run`, or in every run.
    pub fn durations(&self, name: &str, run: impl Into<Option<u64>>) -> Vec<f64> {
        let run = run.into();
        self.spans
            .iter()
            .filter(|s| run.is_none_or(|r| s.run == r) && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start, s.end, s.run
            )?;
        }
        w.flush()
    }
}
