//! In-memory spans for the traced run.
//!
//! A span records its name, start, end, parent and request id. Spans are
//! kept in memory while the run measures and written out once at the end,
//! so tracing adds no I/O to the measured requests. Times are the thread's
//! CPU clock ([`crate::sys::thread_cpu_ns`]), like the untraced figures.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Layers whose spans count as covered time (the `service` spans wrap the
/// untraced calls they are compared against, not layer work).
pub const LAYERS: [&str; 4] = ["sql", "engine", "lp", "core"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Operations the span covers (a block of answers counts each one).
    pub ops: u64,
    /// Time covered by direct children.
    child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part of the interval the span's children cover
    /// (children of one span run one after another, never overlapping).
    pub fn self_ns(&self) -> u64 {
        self.duration_ns() - self.child_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// What [`Tracer::replay_twice`] returns: each run's result and time.
pub struct Twice<T> {
    pub traced: T,
    pub plain: T,
    pub traced_ns: u64,
    pub plain_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// `false` for [`Tracer::off`].
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: crate::sys::thread_cpu_ns(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            recording: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing and reads no clock once made: timing a
    /// replay through it and through a recording tracer gives what tracing
    /// costs.
    pub fn off() -> Self {
        Tracer { recording: false, ..Tracer::default() }
    }

    /// Runs `f` as the root span of request `id`.
    pub fn request<T>(&mut self, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request = id;
        self.span("request", f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_ops(name, 1, f)
    }

    /// Runs `f` inside a span covering `ops` operations.
    pub fn span_ops<T>(
        &mut self,
        name: &'static str,
        ops: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.enter(name, ops);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Opens a span covering `ops` operations; close it with [`Self::exit`].
    /// For calls whose results borrow from each other, which a closure
    /// could not hand back out.
    pub fn enter(&mut self, name: &'static str, ops: u64) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
            ops,
            child_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes span `id`, and any span inside it that an early return (an
    /// error passed up with `?`) left open.
    pub fn exit(&mut self, id: usize) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        loop {
            let open = self.stack.pop().expect("the span to close is open");
            let span = &mut self.spans[open];
            span.end_ns = end_ns;
            let (start_ns, parent) = (span.start_ns, span.parent);
            if let Some(p) = parent {
                self.spans[p].child_ns += end_ns - start_ns;
            }
            if open == id {
                return;
            }
        }
    }

    /// Runs `replay` twice: under a `replay` span covering `ops`
    /// operations, and through a tracer that records nothing, the first of
    /// them as `traced_first` says. Alternating the order keeps either run
    /// from always finding the caches the other warmed. `replay` learns
    /// which run it is in from its second argument.
    pub fn replay_twice<T, E>(
        &mut self,
        ops: u64,
        traced_first: bool,
        mut replay: impl FnMut(&mut Tracer, bool) -> Result<T, E>,
    ) -> Result<Twice<T>, E> {
        let mut off = Tracer::off();
        let mut plain = |replay: &mut dyn FnMut(&mut Tracer, bool) -> Result<T, E>| {
            let start = crate::sys::thread_cpu_ns();
            replay(&mut off, false).map(|out| (out, crate::sys::thread_cpu_ns() - start))
        };
        let first = if traced_first { None } else { Some(plain(&mut replay)?) };
        let id = self.enter("replay", ops);
        let traced = replay(self, true);
        self.exit(id);
        let traced = traced?;
        let (plain, plain_ns) = match first {
            Some(p) => p,
            None => plain(&mut replay)?,
        };
        Ok(Twice { traced, plain, traced_ns: self.spans[id].duration_ns(), plain_ns })
    }

    fn now_ns(&self) -> u64 {
        crate::sys::thread_cpu_ns() - self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per operation, in milliseconds, of every span named `name`.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.self_ns() as f64 / 1e6 / s.ops.max(1) as f64).collect()
    }

    /// Summed duration of every span in one of [`LAYERS`] outside request 0.
    pub fn layer_covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.request > 0 && LAYERS.contains(&s.layer()))
            .map(Span::duration_ns)
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines, followed by one line of per-layer self time
    /// (milliseconds) and span counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.ops
            )
            .expect("write to String");
        }
        let mut by_layer: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_layer.entry(s.layer()).or_default();
            e.0 += s.self_ns() as f64 / 1e6;
            e.1 += 1;
        }
        let layers: Vec<String> = by_layer
            .iter()
            .map(|(l, (ms, n))| format!("\"{l}\":{{\"self_ms\":{ms},\"spans\":{n}}}"))
            .collect();
        writeln!(out, "{{\"layers\":{{{}}}}}", layers.join(",")).expect("write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burns about `ms` milliseconds of CPU (a sleep would not advance the
    /// thread's CPU clock).
    fn spin(ms: u64) {
        let end = crate::sys::thread_cpu_ns() + ms * 1_000_000;
        while crate::sys::thread_cpu_ns() < end {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut t = Tracer::default();
        t.request(7, |t| {
            t.span("replay", |t| {
                t.span("sql.parse", |_| spin(2));
                t.span("core.noise", |_| spin(3));
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.request == 7));
        let replay = &spans[1];
        assert_eq!(
            replay.self_ns(),
            replay.duration_ns() - spans[2].duration_ns() - spans[3].duration_ns()
        );
        assert_eq!(t.layer_covered_ns(), spans[2].duration_ns() + spans[3].duration_ns());
        assert!(t.to_jsonl().lines().last().unwrap().contains("\"sql\":"));
    }

    #[test]
    fn closing_a_span_closes_what_an_early_return_left_open() {
        let mut t = Tracer::default();
        let failed: Result<(), ()> = t.request(1, |t| {
            t.enter("service.answer", 1);
            Err(())
        });
        assert!(failed.is_err());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[0].self_ns(), spans[0].duration_ns() - spans[1].duration_ns());
        t.request(2, |t| t.span("sql.parse", |_| ()));
        assert_eq!(t.spans()[2].parent, None, "nothing stays open");
    }

    #[test]
    fn replaying_twice_records_one_run_in_either_order() {
        for traced_first in [true, false] {
            let mut t = Tracer::default();
            let mut order = Vec::new();
            let runs = t
                .request(1, |t| {
                    t.replay_twice(3, traced_first, |t, recording| {
                        order.push(recording);
                        t.span("core.noise", |_| spin(1));
                        Ok::<_, ()>(recording)
                    })
                })
                .unwrap();
            assert_eq!(order, [traced_first, !traced_first]);
            assert!(runs.traced && !runs.plain);
            let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.ops)).collect();
            assert_eq!(names, [("request", 1), ("replay", 3), ("core.noise", 1)]);
            assert_eq!(runs.traced_ns, t.spans()[1].duration_ns());
            assert!(runs.plain_ns > 0);
        }
    }

    #[test]
    fn a_tracer_that_is_off_runs_the_work_and_records_nothing() {
        let mut t = Tracer::off();
        let out = t.request(1, |t| t.span("sql.parse", |t| t.span_ops("core.noise", 4, |_| 5)));
        assert_eq!(out, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.layer_covered_ns(), 0);
    }
}
