//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer's
//! public function — nothing inside the crates is instrumented. Spans
//! carry `(name, start_ns, end_ns, parent, op_id)`; spans of one
//! operation share its `op_id`. They stay in memory and are written to
//! `trace.json` when the benchmark ends.

use std::time::Instant;

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;
/// Not part of a single operation (set-up, whole-phase and twin spans).
pub const NO_OP: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), current: NO_PARENT }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.current, op_id });
        self.current = (self.spans.len() - 1) as u32;
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[self.current as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, op_id);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, nanoseconds, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(row) => {
                    row.1 += self_ns;
                    row.2 += 1;
                }
                None => out.push((span.name, self_ns, 1)),
            }
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// The whole trace as one JSON array, a span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let op = if s.op_id == NO_OP { "null".to_string() } else { s.op_id.to_string() };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{op}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push(']');
        out
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here
/// (one driver thread), so the covered part is the sum of their
/// durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: NO_OP }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 holds siblings a 10..30 and b 40..90; b holds c 50..60.
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 40, 90, 0),
            span("c", 50, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_by_call_order_and_is_silent_when_off() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.span("inner", 7, || ());
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (NO_PARENT, 0, 0));
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[1].end_ns <= spans[2].start_ns);
        let by_name = t.self_time_by_name();
        assert_eq!(
            by_name.iter().map(|r| (r.0, r.2)).collect::<Vec<_>>(),
            [("outer", 1), ("inner", 2)]
        );
        assert!(t.to_json().contains("\"op_id\":7"));

        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
