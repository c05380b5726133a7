//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`; children inherit
//! their parent's op index, so every span of one op shares it. Spans stay
//! in memory and are written as JSONL once the run ends. All spans come
//! from the benchmark's own thread and nest strictly, so a span's self time
//! is its duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into the run's span list.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Op index the span belongs to (`None` for set-up, probes and epoch
    /// turnover).
    pub op: Option<u64>,
    /// Layer-qualified name, e.g. `packet.ship`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder; a disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    on: bool,
    paused: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, paused: false, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Stops (`false`) or resumes (`true`) recording. A tracer created off
    /// stays off.
    ///
    /// # Panics
    /// Panics if a span is open: a pause must not split one.
    pub fn record(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.paused = !on;
    }

    /// Opens a span nested in the innermost open one. `op` defaults to the
    /// parent's op.
    pub fn enter(&mut self, name: &'static str, op: Option<u64>) {
        if !self.on || self.paused {
            return;
        }
        let parent = self.open.last().copied();
        let op = op.or_else(|| parent.and_then(|p| self.spans[p as usize].op));
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on || self.paused {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// The recorded spans.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "{} span(s) still open", self.open.len());
        self.spans
    }

    /// [`layer_times`] of the spans recorded so far.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Checks that every span ends after it starts, that every child lies
/// inside its parent's interval, and that no span's self time is negative
/// (which siblings overlapping each other would cause).
pub fn check_spans(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans.get(p as usize).ok_or(format!("span {}: no parent {p}", s.id))?;
            if p >= s.id || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                    s.id,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    p,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                ));
            }
        }
    }
    for (i, self_ns) in self_ns_per_span(spans).into_iter().enumerate() {
        if self_ns < 0 {
            return Err(format!("span {i} ({}) has negative self time", spans[i].name));
        }
    }
    Ok(())
}

/// Each span's duration minus its direct children's.
fn self_ns_per_span(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.end_ns - s.start_ns)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= i128::from(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per-layer totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals per span name, in name order.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns_per_span(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += u64::try_from(own.max(0)).expect("self time fits u64");
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    use hyperpath_bench::{Json, ToJson};
    let mut out = String::new();
    for s in spans {
        let line = Json::object([
            ("id", s.id.to_json()),
            ("parent", s.parent.to_json()),
            ("op", s.op.to_json()),
            ("name", s.name.to_json()),
            ("start_ns", s.start_ns.to_json()),
            ("end_ns", s.end_ns.to_json()),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: None, name: "x", start_ns, end_ns }
    }

    #[test]
    fn nested_spans_pass_and_self_time_subtracts_children() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 10, 40), span(2, Some(0), 50, 90)];
        check_spans(&spans).unwrap();
        assert_eq!(self_ns_per_span(&spans), vec![30, 30, 40]);
        assert_eq!(layer_times(&spans)["x"], LayerTime { count: 3, total_ns: 170, self_ns: 100 });
    }

    #[test]
    fn escaping_child_is_rejected() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 90, 110)];
        assert!(check_spans(&spans).unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 0, 70), span(2, Some(0), 30, 100)];
        assert!(check_spans(&spans).unwrap_err().contains("negative self time"));
    }

    #[test]
    fn children_inherit_the_op_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.enter("harness.op", Some(7));
        tr.enter("packet.ship", None);
        tr.exit();
        tr.exit();
        let spans = tr.into_spans();
        assert_eq!(spans[1].op, Some(7));
        assert_eq!(spans[1].parent, Some(0));
        check_spans(&spans).unwrap();
        let mut off = Tracer::new(false);
        off.enter("harness.op", Some(0));
        off.exit();
        assert!(off.into_spans().is_empty());
    }
}
