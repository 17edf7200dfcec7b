//! In-memory spans for the traced run.
//!
//! The benchmark records a span around every call it makes into the
//! program (parse, resolve, submit, run_until, and the layer-pass calls).
//! Spans stay in memory while the run measures and are written out as
//! Chrome `trace_event` JSON when it ends, so writing never lands inside
//! a timed region.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The query the call served, as `(tenant, seq)`.
    pub query: Option<(u32, u64)>,
    /// Up to two named integer arguments.
    pub args: [Option<(&'static str, u64)>; 2],
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A growable arena of spans sharing one time origin.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span at the current time; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.record(name, parent, start_ns, start_ns, None)
    }

    /// Closes span `id` at the current time.
    pub fn end(&mut self, id: usize) {
        let t = self.now_ns();
        self.spans[id].end_ns = t;
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        query: Option<(u32, u64)>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
            args: [None, None],
        });
        self.spans.len() - 1
    }

    /// Attaches a named argument to span `id` (two at most).
    pub fn set_arg(&mut self, id: usize, key: &'static str, value: u64) {
        let slot = self.spans[id]
            .args
            .iter_mut()
            .find(|a| a.is_none())
            .expect("a span carries at most two arguments");
        *slot = Some((key, value));
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps). Span ids and parents travel in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some((tenant, seq)) = s.query {
                let _ = write!(out, ",\"tenant\":{tenant},\"seq\":{seq}");
            }
            for (k, v) in s.args.iter().flatten() {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut s = Spans::new();
        let root = s.begin("phase.replay", None);
        let call = s.record("lang.parse", Some(root), 10, 35, Some((3, 7)));
        s.set_arg(call, "wave", 2);
        s.end(root);
        assert_eq!(s.spans()[call].dur_ns(), 25);
        assert_eq!(s.spans()[call].parent, Some(root));
        let json = s.chrome_json();
        assert!(json.contains("\"name\":\"lang.parse\""));
        assert!(json.contains("\"parent\":0,\"tenant\":3,\"seq\":7,\"wave\":2"));
    }
}
