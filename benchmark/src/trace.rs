//! In-memory span recorder for the traced pass.
//!
//! A span is (name, start, end, parent, op id). Parents come from a
//! per-thread stack; where a request crosses to another thread (a
//! socket hop) the caller publishes its span as the *hand-off* and the
//! first span the serving thread opens adopts it. That is exact for
//! one synchronous chain — which is why the traced pass drives one
//! client — and degrades to per-thread trees under real concurrency
//! (the open-loop notification workload), where only same-thread self
//! times are used.
//!
//! Store calls are too many to keep as spans (one Execution Service
//! `Run` loads every job resource in its history), so they are *leaf*
//! time: added to the enclosing span's `leaf_ns` and aggregated per
//! (op, store).
//!
//! self time = span − child spans − leaf time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name of the span the load generator opens around each operation.
pub const ROOT: &str = "op";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based; 0 means "no span".
    pub id: u32,
    pub parent: u32,
    /// Operation the load generator was running when the span opened.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent in leaf calls (store operations) directly under it.
    pub leaf_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Leaf-call totals for one (op, name) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Leaf {
    pub calls: u64,
    pub docs: u64,
    pub bytes: u64,
    pub ns: u64,
}

impl Leaf {
    pub fn add(&mut self, other: &Leaf) {
        self.calls += other.calls;
        self.docs += other.docs;
        self.bytes += other.bytes;
        self.ns += other.ns;
    }
}

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    leaves: Mutex<HashMap<(u32, &'static str), Leaf>>,
    handoff: AtomicU32,
    op: AtomicU32,
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Shared handle to one recording. Cheap to clone.
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
    /// For a hand-off span: the hand-off it replaced, put back when it
    /// closes so nothing opened later adopts a finished span.
    replaced_handoff: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            leaves: Mutex::new(HashMap::new()),
            handoff: AtomicU32::new(0),
            op: AtomicU32::new(0),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos() as u64
    }

    /// The load generator names the operation about to run.
    pub fn set_op(&self, op: u32) {
        self.0.op.store(op, Ordering::Relaxed);
    }

    /// Open a span under the current thread's innermost open span (or
    /// under the hand-off when this thread has none open).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Like [`span`](Self::span), and publish it as the hand-off: the
    /// next span opened by a thread with an empty stack becomes its
    /// child. Used around calls that are served on another thread.
    pub fn span_handoff(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, true)
    }

    fn open(&self, name: &'static str, handoff: bool) -> SpanGuard<'_> {
        let parent = STACK
            .with(|s| s.borrow().last().copied())
            // SeqCst pairs with the swap below: the serving thread
            // must see the caller's span, not an older one.
            .unwrap_or_else(|| self.0.handoff.load(Ordering::SeqCst));
        let op = self.0.op.load(Ordering::Relaxed);
        let id = {
            let mut spans = self.0.spans.lock().expect("span log poisoned");
            let id = spans.len() as u32 + 1;
            spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                leaf_ns: 0,
            });
            id
        };
        STACK.with(|s| s.borrow_mut().push(id));
        let replaced_handoff = handoff.then(|| self.0.handoff.swap(id, Ordering::SeqCst));
        SpanGuard {
            tracer: self,
            id,
            replaced_handoff,
        }
    }

    /// Account a leaf call (no span of its own): its time comes off
    /// the enclosing span's self time and is tallied under `name`.
    pub fn leaf(&self, name: &'static str, leaf: Leaf) {
        let top = STACK.with(|s| s.borrow().last().copied());
        if let Some(id) = top {
            let mut spans = self.0.spans.lock().expect("span log poisoned");
            spans[id as usize - 1].leaf_ns += leaf.ns;
        }
        self.tally(name, leaf);
    }

    /// Tally a leaf call under `name` without touching any span: for a
    /// call already inside another leaf.
    pub fn tally(&self, name: &'static str, leaf: Leaf) {
        let op = self.0.op.load(Ordering::Relaxed);
        self.0
            .leaves
            .lock()
            .expect("leaf table poisoned")
            .entry((op, name))
            .or_default()
            .add(&leaf);
    }

    /// Everything recorded so far. Spans still open have `end_ns` 0 and
    /// are dropped: a snapshot is only taken once the fixture is idle.
    pub fn snapshot(&self) -> Recording {
        let spans: Vec<Span> = self
            .0
            .spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.end_ns != 0)
            .cloned()
            .collect();
        let mut leaves: Vec<((u32, &'static str), Leaf)> = self
            .0
            .leaves
            .lock()
            .expect("leaf table poisoned")
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        leaves.sort_by_key(|(k, _)| *k);
        Recording { spans, leaves }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Some(previous) = self.replaced_handoff {
            self.tracer.0.handoff.store(previous, Ordering::SeqCst);
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        if let Ok(mut spans) = self.tracer.0.spans.lock() {
            // end_ns 0 marks "open", so a span that closes in the
            // recorder's first nanosecond still reads as closed.
            spans[self.id as usize - 1].end_ns = end.max(1);
        }
    }
}

/// A finished recording and the arithmetic over it.
pub struct Recording {
    pub spans: Vec<Span>,
    pub leaves: Vec<((u32, &'static str), Leaf)>,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recording {
    /// Self time per span, indexed like `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let index: HashMap<u32, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(&p) = index.get(&s.parent) {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c).saturating_sub(s.leaf_ns))
            .collect()
    }

    /// Count, total and self time per span name over ops in `ops`
    /// (half-open range of op ids).
    pub fn totals(&self, ops: (u32, u32)) -> HashMap<&'static str, NameTotal> {
        let selfs = self.self_times();
        let mut out: HashMap<&'static str, NameTotal> = HashMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if s.op < ops.0 || s.op >= ops.1 {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Leaf totals per name over ops in `ops`.
    pub fn leaf_totals(&self, ops: (u32, u32)) -> HashMap<&'static str, Leaf> {
        let mut out: HashMap<&'static str, Leaf> = HashMap::new();
        for ((op, name), leaf) in &self.leaves {
            if *op >= ops.0 && *op < ops.1 {
                out.entry(name).or_default().add(leaf);
            }
        }
        out
    }

    /// Write the recording as JSON (one object per span, then the leaf
    /// table).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"leaf_ns\":{}}}{sep}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.leaf_ns
            )?;
        }
        writeln!(w, "],\"leaves\":[")?;
        for (i, ((op, name), l)) in self.leaves.iter().enumerate() {
            let sep = if i + 1 == self.leaves.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"op\":{op},\"name\":\"{name}\",\"calls\":{},\"docs\":{},\"bytes\":{},\"ns\":{}}}{sep}",
                l.calls, l.docs, l.bytes, l.ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, op: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
            leaf_ns: 0,
        }
    }

    #[test]
    fn totals_respect_the_op_range() {
        let rec = Recording {
            spans: vec![span(1, 0, 0, "a", 0, 10), span(2, 0, 7, "a", 10, 30)],
            leaves: vec![(
                (7, "s"),
                Leaf {
                    calls: 2,
                    docs: 3,
                    bytes: 0,
                    ns: 4,
                },
            )],
        };
        assert_eq!(rec.totals((0, 5))["a"].count, 1);
        assert_eq!(rec.totals((5, 10))["a"].total_ns, 20);
        assert!(rec.leaf_totals((0, 5)).is_empty());
        assert_eq!(rec.leaf_totals((5, 10))["s"].docs, 3);
    }

    #[test]
    fn spans_nest_on_a_thread_and_hand_off_across_threads() {
        let t = Tracer::new();
        t.set_op(3);
        {
            let _op = t.span(ROOT);
            let _call = t.span_handoff("call");
            let t2 = t.clone();
            std::thread::spawn(move || {
                let _served = t2.span("served");
                t2.leaf(
                    "store",
                    Leaf {
                        calls: 1,
                        docs: 1,
                        bytes: 0,
                        ns: 9,
                    },
                );
            })
            .join()
            .unwrap();
        }
        // The call is over: nothing adopts it any more.
        drop(t.span("later"));
        let rec = t.snapshot();
        let by_name: HashMap<_, _> = rec.spans.iter().map(|s| (s.name, s)).collect();
        assert_eq!(by_name["call"].parent, by_name[ROOT].id);
        assert_eq!(by_name["served"].parent, by_name["call"].id);
        assert_eq!(by_name["later"].parent, 0);
        assert_eq!(by_name["served"].leaf_ns, 9);
        assert!(rec.spans.iter().all(|s| s.op == 3));
        assert_eq!(rec.leaf_totals((3, 4))["store"].calls, 1);
    }
}
