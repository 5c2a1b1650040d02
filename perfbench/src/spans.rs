//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out at the end of the run as Chrome trace-event JSON (Perfetto
//! and `chrome://tracing` open it).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

/// What a span stands for in the breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A job or benchmark group: the root its layer spans hang from.
    Job,
    /// A call that does part of the workload's own work: counted in
    /// `traced.coverage`.
    Layer,
    /// A separate call that breaks a layer span down further (it repeats
    /// part of that work, so it is not counted in `traced.coverage`).
    Probe,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (the module name, then the operation).
    pub name: &'static str,
    /// Role in the breakdown.
    pub kind: Kind,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
    /// The span that caused this one: the enclosing span for a job or layer
    /// span, the broken-down layer span for a probe.
    pub parent: Option<SpanId>,
    /// The job (or benchmark group) the span belongs to.
    pub job: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans on one thread; nesting follows the call structure.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    /// While set, layer spans are recorded as probes of this span; the
    /// second field is the open-span depth the probing started at.
    probing: Option<(SpanId, usize)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            probing: None,
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span of `kind`, caused by `cause` (for a probe) or
    /// by the innermost open span.
    fn record<T>(
        &mut self,
        name: &'static str,
        kind: Kind,
        job: usize,
        cause: Option<SpanId>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, SpanId) {
        let id = self.spans.len();
        let parent = cause.or_else(|| self.open.last().copied());
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            kind,
            start,
            end: start,
            parent,
            job,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        (value, id)
    }

    /// A job-level span.
    pub fn job<T>(
        &mut self,
        name: &'static str,
        job: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.record(name, Kind::Job, job, None, f).0
    }

    /// A layer span around one call into the program (a probe of the
    /// probed span inside [`Tracer::probing`]).
    pub fn layer<T>(
        &mut self,
        name: &'static str,
        job: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, SpanId) {
        match self.probing {
            Some((cause, depth)) if self.open.len() == depth => {
                self.record(name, Kind::Probe, job, Some(cause), f)
            }
            Some(_) => self.record(name, Kind::Probe, job, None, f),
            None => self.record(name, Kind::Layer, job, None, f),
        }
    }

    /// Runs `f` with every layer span it records turned into a probe of
    /// `cause`: the same calls, used to break an opaque layer span down.
    pub fn probing<T>(&mut self, cause: SpanId, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let saved = self.probing.replace((cause, self.open.len()));
        let value = f(self);
        self.probing = saved;
        value
    }

    /// A probe span breaking `cause` down.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        job: usize,
        cause: SpanId,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.record(name, Kind::Probe, job, Some(cause), f).0
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its child spans
    /// (those running inside its interval) cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                if span.start >= parent.start && span.end <= parent.end {
                    child_time[p] += span.secs();
                }
            }
        }
        self.spans
            .iter()
            .zip(child_time)
            .map(|(s, c)| (s.secs() - c).max(0.0))
            .collect()
    }

    /// Per layer name: (inclusive seconds, self seconds, calls).
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.secs();
            entry.1 += self_time;
            entry.2 += 1;
        }
        out
    }

    /// Σ self time of the layer spans (not jobs, not probes).
    pub fn layer_self_seconds(&self) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.kind == Kind::Layer)
            .map(|(_, t)| t)
            .sum()
    }

    /// Writes every span as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps; the cause and job travel in `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let cat = match span.kind {
                Kind::Job => "job",
                Kind::Layer => "layer",
                Kind::Probe => "probe",
            };
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \
                 \"parent\": {parent}, \"job\": {}}}}}{comma}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.job
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_but_not_probes() {
        let mut tracer = Tracer::default();
        let ((), outer) = tracer.layer("outer", 0, |t| {
            t.layer("inner", 0, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        tracer.probe("probe", 0, outer, |_| {
            std::thread::sleep(Duration::from_millis(5))
        });
        tracer.probing(outer, |t| t.layer("as-probe", 0, |_| ()));
        assert_eq!(tracer.spans()[3].kind, Kind::Probe);
        assert_eq!(tracer.spans()[3].parent, Some(0));
        let spans = tracer.spans();
        let selfs = tracer.self_times();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(selfs[0] < spans[0].secs() - 0.015, "inner is subtracted");
        assert!((selfs[2] - spans[2].secs()).abs() < 1e-12);
        let counted = tracer.layer_self_seconds();
        assert!(
            (counted - (selfs[0] + selfs[1])).abs() < 1e-12,
            "probes not counted"
        );
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let mut tracer = Tracer::default();
        tracer.job("job", 3, |t| t.layer("a.b", 3, |_| ()));
        let path =
            std::env::temp_dir().join(format!("perfbench-spans-{}.json", std::process::id()));
        tracer.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert!(text.contains("\"name\": \"a.b\", \"cat\": \"layer\""));
        assert!(text.contains("\"parent\": 0, \"job\": 3"));
    }
}
