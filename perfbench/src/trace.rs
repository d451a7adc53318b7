//! Host-time spans recorded around the calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as a Chrome
//! trace-event document (the same viewer format `hwst-profile --trace`
//! emits). Each span carries its layer, start, end, parent span and
//! the cell it belongs to; a layer's *self* time is its span minus the
//! time its child spans cover, accumulated as spans close.

use std::time::Instant;

use hwst_harness::Json;

/// Every traced layer boundary. The name is `<crate>.<stage>`; the
/// `Cell` span wraps one unit of work, so its self time is the glue
/// the benchmark itself spends between layer calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cell,
    JulietProgram,
    Analysis,
    Bounds,
    Instrument,
    Rce,
    Verify,
    Lower,
    BinvalSites,
    BinvalMutate,
    BinvalValidate,
    SimLoad,
    ExecRun,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Cell,
        Layer::JulietProgram,
        Layer::Analysis,
        Layer::Bounds,
        Layer::Instrument,
        Layer::Rce,
        Layer::Verify,
        Layer::Lower,
        Layer::BinvalSites,
        Layer::BinvalMutate,
        Layer::BinvalValidate,
        Layer::SimLoad,
        Layer::ExecRun,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Layer::Cell => "cell",
            Layer::JulietProgram => "juliet.program",
            Layer::Analysis => "compiler.analysis",
            Layer::Bounds => "compiler.bounds",
            Layer::Instrument => "compiler.instrument",
            Layer::Rce => "compiler.rce",
            Layer::Verify => "compiler.verify",
            Layer::Lower => "compiler.lower",
            Layer::BinvalSites => "binval.sites",
            Layer::BinvalMutate => "binval.mutate",
            Layer::BinvalValidate => "binval.validate",
            Layer::SimLoad => "sim.load",
            Layer::ExecRun => "exec.run",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One closed span, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    id: u32,
    parent: Option<u32>,
    cell: u32,
    start: u64,
    end: u64,
}

struct Open {
    id: u32,
    start: u64,
    child: u64,
}

/// The span recorder. A disabled tracer runs every closure directly,
/// so the pass-by-pass code path can also run untimed.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    open: Vec<Open>,
    next_id: u32,
    cell: u32,
    self_ns: [u64; Layer::ALL.len()],
    total_ns: [u64; Layer::ALL.len()],
    count: [u64; Layer::ALL.len()],
    spans: Vec<Span>,
    keep: usize,
}

impl Tracer {
    /// A recording tracer that keeps at most `keep` spans for the
    /// exported trace (aggregates always cover every span).
    pub fn new(keep: usize) -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            open: Vec::new(),
            next_id: 0,
            cell: 0,
            self_ns: [0; Layer::ALL.len()],
            total_ns: [0; Layer::ALL.len()],
            count: [0; Layer::ALL.len()],
            spans: Vec::new(),
            keep,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(0)
        }
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.open.push(Open {
            id,
            start,
            child: 0,
        });
        let out = f(self);
        let end = self.now();
        let open = self.open.pop().expect("span stack is balanced");
        let dur = end - open.start;
        let parent = self.open.last_mut().map(|p| {
            p.child += dur;
            p.id
        });
        let i = layer.index();
        self.self_ns[i] += dur.saturating_sub(open.child);
        self.total_ns[i] += dur;
        self.count[i] += 1;
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                layer,
                id: open.id,
                parent,
                cell: self.cell,
                start: open.start,
                end,
            });
        }
        out
    }

    /// Self time of `layer` in nanoseconds, over every span so far.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Inclusive time of `layer` in nanoseconds.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer.index()]
    }

    /// Spans of `layer` closed so far.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }

    /// The kept spans as a Chrome trace-event document: one thread,
    /// complete (`"X"`) events in host microseconds, with the cell, span
    /// and parent ids in `args`.
    pub fn chrome_trace(&self, title: &str) -> Json {
        let mut events = vec![Json::obj()
            .set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 1u64)
            .set("tid", 1u64)
            .set("args", Json::obj().set("name", title))];
        for s in &self.spans {
            let mut args = Json::obj().set("cell", s.cell).set("span", s.id);
            if let Some(p) = s.parent {
                args = args.set("parent", p);
            }
            let name = s.layer.name();
            events.push(
                Json::obj()
                    .set("name", name)
                    .set("cat", name.split('.').next().unwrap_or(name))
                    .set("ph", "X")
                    .set("pid", 1u64)
                    .set("tid", 1u64)
                    .set("ts", s.start as f64 / 1e3)
                    .set("dur", (s.end - s.start) as f64 / 1e3)
                    .set("args", args),
            );
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
    }
}
