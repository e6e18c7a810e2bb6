//! Spans recorded by the benchmark around its calls into the layers.
//! No repo imports. Spans stay in memory and are written once, at exit,
//! as a Chrome trace-event file (`chrome://tracing`, Perfetto).
//!
//! With tracing off, `enter`/`exit` are one flag check each, so the
//! untraced repetitions that the end-to-end metrics come from pay
//! nothing measurable.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// A span stack with a shared run identifier.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// What `enter` hands back for `exit`.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool, run_id: String) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in ms, of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Every span's self time: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The trace as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, `args` carrying the run id, the parent's index and the
    /// span's self time; `counters` go into `otherData`, so the file also
    /// holds the per-component self times of the traced run.
    pub fn to_chrome_json(&self, counters: &[(String, f64)]) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3},\"run\":{}}}}}",
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                own[i] as f64 / 1e3,
                json_str(&self.run_id),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(out, "\"run\":{}", json_str(&self.run_id));
        for (k, v) in counters {
            let _ = write!(out, ",{}:{}", json_str(k), json_num(*v));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value has; non-finite values
/// (which no metric should produce) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Rust prints the shortest decimal that reads back as the same f64.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, "r".into());
        let w = t.enter("workload");
        let a = t.enter("setup");
        t.exit(a);
        let b = t.enter("run");
        t.exit(b);
        t.exit(w);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let children = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(t.self_ns()[0], (s[0].end_ns - s[0].start_ns) - children);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false, "r".into());
        let id = t.enter("run");
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true, "r".into());
        let outer = t.enter("outer");
        let _leaked = t.enter("inner");
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let again = t.enter("next");
        t.exit(again);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(661.0), "661");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
