//! Spans recorded by the harness around its own calls into the library.
//!
//! Three levels exist from outside the store: the operation (`op.*`), the
//! call into the library (`core.*`, `segmented.*`) and the `vfs.*` calls
//! that call made (recorded by [`crate::counting_vfs`]). The benchmark is
//! one client thread, so the recorder is a thread-local: entering a span
//! pushes it on a stack, which gives every child its parent. Disabled, an
//! [`enter`] reads one thread-local flag and no clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per run; recording stops beyond (callers watch [`recorded`]
/// and stop tracing before a round would be cut in half).
pub const CAPACITY: usize = 400_000;

/// One finished span. Ids start at 1; `parent == 0` marks an operation.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u32,
    /// The span that caused this one, `0` for an operation.
    pub parent: u32,
    /// Identifier shared by all spans of one operation.
    pub op_id: u32,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indexes into `spans` of the open spans, outermost first.
    stack: Vec<usize>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns recording on or off for the calling thread. The first enable
/// allocates the span vector at full [`CAPACITY`].
pub fn set_enabled(on: bool) {
    if on {
        RECORDER.with(|r| {
            r.borrow_mut().get_or_insert_with(|| Recorder {
                epoch: Instant::now(),
                spans: Vec::with_capacity(CAPACITY),
                stack: Vec::with_capacity(8),
            });
        });
    }
    ENABLED.with(|e| e.set(on));
}

/// Spans recorded so far.
pub fn recorded() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span. Only `op.*`
/// spans may be outermost: a library call made outside any operation
/// (input generation, answer checking) is bookkeeping, not traced work.
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.with(Cell::get) {
        return Guard(None);
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        if rec.spans.len() >= CAPACITY || (rec.stack.is_empty() && !name.starts_with("op.")) {
            return Guard(None);
        }
        let id = rec.spans.len() as u32 + 1;
        let (parent, op_id) = match rec.stack.last() {
            Some(&p) => (rec.spans[p].id, rec.spans[p].op_id),
            None => (0, id),
        };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.push(rec.spans.len());
        rec.spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Guard(Some(rec.spans.len() - 1))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                // Guards drop in reverse order of creation, so this span
                // is the innermost open one.
                rec.stack.pop();
            }
        });
    }
}

/// Takes every recorded span out of the recorder.
pub fn drain() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|rec| std::mem::take(&mut rec.spans))
            .unwrap_or_default()
    })
}

/// Per-name totals of one operation type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

/// Self-time accounting of a span set: operation name → span name →
/// totals. The self times under one operation sum to that operation's
/// total duration by construction (children never outlive their parent).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<&'static str, NameTotals>> {
    // Spans are stored in start order with ids = index + 1, so parents and
    // operations are direct index lookups.
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, BTreeMap<&'static str, NameTotals>> = BTreeMap::new();
    for s in spans {
        let op_name = spans[s.op_id as usize - 1].name;
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(op_name).or_default().entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// The human-readable self-time table: per operation type, each span
/// name's count, total, self time and share of the operation's time.
pub fn render_summary(
    summary: &BTreeMap<&'static str, BTreeMap<&'static str, NameTotals>>,
) -> String {
    let mut out = String::new();
    for (op, names) in summary {
        let op_total = names.get(op).map_or(0, |t| t.total_ns).max(1);
        let ops = names.get(op).map_or(0, |t| t.count);
        let _ = writeln!(
            out,
            "{op}: {ops} ops, {:.3} ms total",
            op_total as f64 / 1e6
        );
        let mut share_sum = 0.0;
        for (name, t) in names {
            let share = 100.0 * t.self_ns as f64 / op_total as f64;
            share_sum += share;
            let _ = writeln!(
                out,
                "  {name:<28} n={:<8} total={:>10.3} ms  self={:>10.3} ms  share={share:>6.2} %",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {share_sum:>6.2} %",
            "sum of self-time shares"
        );
    }
    out
}

/// One JSON object per line, in start order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op_id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_and_shares_sum_to_the_operation() {
        assert!(enter("ignored").0.is_none(), "disabled: nothing recorded");
        set_enabled(true);
        for _ in 0..3 {
            let _op = enter("op.x");
            {
                let _call = enter("lib.call");
                let _io = enter("vfs.read");
            }
            let _io = enter("vfs.sync");
        }
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].parent, spans[0].id);
        assert!(spans[..4].iter().all(|s| s.op_id == spans[0].id));
        assert_eq!(spans[4].op_id, spans[4].id);

        let summary = summarize(&spans);
        let op = &summary["op.x"];
        assert_eq!(op["op.x"].count, 3);
        assert_eq!(op["vfs.read"].count, 3);
        let self_sum: u64 = op.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, op["op.x"].total_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 12);
        assert!(render_summary(&summary).contains("100.00 %"));
    }
}
