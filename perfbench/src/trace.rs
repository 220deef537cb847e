//! Host-clock tracing from the benchmark's side of the API.
//!
//! Two sources feed one span tree per execution:
//!
//! * call-boundary spans the benchmark opens around each call into a
//!   crate's public functions ([`Tracer::enter`] / [`Tracer::exit`]);
//! * a host-clock [`mrsim::TraceSink`] that timestamps the engine's
//!   driver-thread events (`workflow_start`, `job_start`, `sort_plan`, the
//!   job-close events, `workflow_end`) and turns them into plan, workflow,
//!   map / reduce / map-only and extract spans.
//!
//! Spans stay in memory until the run ends. A layer's self time is its
//! span's duration minus the durations of its children; the root span's
//! self time is the execution's unattributed remainder, so the self times
//! of one execution always sum to its wall time.

use mrsim::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Name of the root span of every execution.
pub const ROOT: &str = "op";

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub exec: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Which planner a call span belongs to; names its plan / extract spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallLayer {
    Core,
    Relational,
}

impl CallLayer {
    fn call(self) -> &'static str {
        match self {
            CallLayer::Core => "core.query",
            CallLayer::Relational => "relational.query",
        }
    }
    fn plan(self) -> &'static str {
        match self {
            CallLayer::Core => "core.plan",
            CallLayer::Relational => "relational.plan",
        }
    }
    fn extract(self) -> &'static str {
        match self {
            CallLayer::Core => "core.extract",
            CallLayer::Relational => "relational.extract",
        }
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
    exec: u32,
    /// The planner call in progress and whether its workflow started.
    call: Option<(CallLayer, usize, bool)>,
    /// Open map / reduce span of the current job and whether the job has
    /// passed its `sort_plan` (a job without one is map-only).
    job: Option<(usize, bool)>,
}

/// In-memory span recorder; also the engine's trace sink.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, state: Mutex::new(State::default()) }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer state poisoned by a panicking operation")
    }

    /// Open the root span of a new execution; executions are numbered
    /// from 1 in the order they begin.
    pub fn begin_exec(&self) {
        let now = self.now();
        let mut st = self.lock();
        st.exec += 1;
        st.open.clear();
        st.call = None;
        st.job = None;
        let exec = st.exec;
        st.push_open(exec, ROOT, now);
    }

    /// Close every span of the current execution, root included.
    pub fn end_exec(&self) {
        let now = self.now();
        let mut st = self.lock();
        while st.close_top(now).is_some() {}
    }

    /// Open a call-boundary span as a child of the innermost open span.
    pub fn enter(&self, name: &'static str) {
        let now = self.now();
        let mut st = self.lock();
        let exec = st.exec;
        st.push_open(exec, name, now);
    }

    /// Close the innermost open span.
    pub fn exit(&self) {
        let now = self.now();
        self.lock().close_top(now);
    }

    /// Open a planner call span; engine events until [`Tracer::exit_call`]
    /// are attributed to it.
    pub fn enter_call(&self, layer: CallLayer) {
        let now = self.now();
        let mut st = self.lock();
        let exec = st.exec;
        let idx = st.push_open(exec, layer.call(), now);
        st.call = Some((layer, idx, false));
    }

    /// Close the planner call span (and its open extract span). A call
    /// that never started a workflow spent all its time planning.
    pub fn exit_call(&self) {
        let now = self.now();
        let mut st = self.lock();
        let Some((layer, idx, started)) = st.call.take() else { return };
        if !started {
            let exec = st.exec;
            let start = st.spans[idx].start;
            st.spans.push(Span { exec, name: layer.plan(), parent: Some(idx), start, end: now });
        }
        while let Some(closed) = st.close_top(now) {
            if closed == idx {
                break;
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl State {
    fn push_open(&mut self, exec: u32, name: &'static str, now: u64) -> usize {
        let parent = self.open.last().copied();
        self.spans.push(Span { exec, name, parent, start: now, end: now });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    fn close_top(&mut self, now: u64) -> Option<usize> {
        let idx = self.open.pop()?;
        self.spans[idx].end = now;
        if self.job.is_some_and(|(j, _)| j == idx) {
            self.job = None;
        }
        Some(idx)
    }

    /// Close the open map / reduce span of the current job, naming a map
    /// span that never reached a sort plan `mapreduce.map_only`.
    fn close_job(&mut self, now: u64) {
        if let Some((idx, sorted)) = self.job {
            if !sorted {
                self.spans[idx].name = "mapreduce.map_only";
            }
            // Job phase spans are always innermost.
            debug_assert_eq!(self.open.last(), Some(&idx));
            self.close_top(now);
        }
    }
}

impl TraceSink for Tracer {
    fn event(&self, ev: &TraceEvent) {
        let now = self.now();
        let mut st = self.lock();
        let exec = st.exec;
        match ev {
            TraceEvent::WorkflowStart { .. } => {
                if let Some((layer, idx, _)) = st.call {
                    st.call = Some((layer, idx, true));
                    let start = st.spans[idx].start;
                    st.spans.push(Span {
                        exec,
                        name: layer.plan(),
                        parent: Some(idx),
                        start,
                        end: now,
                    });
                }
                st.push_open(exec, "mapreduce.workflow", now);
            }
            TraceEvent::JobStart { .. } => {
                st.close_job(now);
                let idx = st.push_open(exec, "mapreduce.map", now);
                st.job = Some((idx, false));
            }
            TraceEvent::SortPlan { .. } => {
                if let Some((idx, false)) = st.job {
                    st.spans[idx].end = now;
                    st.open.pop();
                    let reduce = st.push_open(exec, "mapreduce.reduce", now);
                    st.job = Some((reduce, true));
                }
            }
            // The first event after a job's outputs are committed closes
            // its phase span; the rest of the job's trace output is driver
            // work.
            TraceEvent::CardinalityEstimate { .. }
            | TraceEvent::TaskSpan { .. }
            | TraceEvent::ShufflePartition { .. }
            | TraceEvent::MemoryHighWater { .. }
            | TraceEvent::HistogramSummary { .. }
            | TraceEvent::JobEnd { .. } => st.close_job(now),
            TraceEvent::WorkflowEnd { .. } => {
                st.close_job(now);
                if st.open.last().is_some_and(|&i| st.spans[i].name == "mapreduce.workflow") {
                    st.close_top(now);
                }
                if let Some((layer, _, _)) = st.call {
                    st.push_open(exec, layer.extract(), now);
                }
            }
            _ => {}
        }
    }
}

/// Per-execution breakdown derived from the span tree.
#[derive(Debug)]
pub struct ExecSplit {
    pub exec: u32,
    pub wall_ns: u64,
    /// Self time per span name (the root's self time is under [`ROOT`]).
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Split every execution's wall time into per-span-name self time, after
/// checking that children nest inside their parents without overlapping
/// (the property that makes self times sum to wall time).
pub fn split(spans: &[Span]) -> Result<Vec<ExecSplit>, String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() {
            continue;
        }
        if s.name != ROOT {
            return Err(format!("exec {}: top-level span {} is not the root", s.exec, s.name));
        }
        let mut split =
            ExecSplit { exec: s.exec, wall_ns: s.end - s.start, self_ns: BTreeMap::new() };
        let mut stack = vec![i];
        while let Some(n) = stack.pop() {
            let span = &spans[n];
            let mut kids: Vec<&Span> = children[n].iter().map(|&k| &spans[k]).collect();
            kids.sort_by_key(|k| k.start);
            let mut cursor = span.start;
            let mut covered = 0u64;
            for k in &kids {
                if k.start < cursor || k.end > span.end || k.end < k.start {
                    return Err(format!(
                        "exec {}: span {} [{}, {}] does not nest in {} [{}, {}]",
                        s.exec, k.name, k.start, k.end, span.name, span.start, span.end
                    ));
                }
                cursor = k.end;
                covered += k.end - k.start;
            }
            *split.self_ns.entry(span.name).or_default() += span.end - span.start - covered;
            stack.extend(children[n].iter().copied());
        }
        let total: u64 = split.self_ns.values().sum();
        if total != split.wall_ns {
            return Err(format!(
                "exec {}: self times sum to {total} ns, wall is {}",
                s.exec, split.wall_ns
            ));
        }
        out.push(split);
    }
    Ok(out)
}

/// Run the planner call `f` inside a call span of `layer` when tracing.
pub fn call<T>(tracer: Option<&Tracer>, layer: CallLayer, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            t.enter_call(layer);
            let out = f();
            t.exit_call();
            out
        }
        None => f(),
    }
}

/// Run `f` inside a span named `name` when tracing.
pub fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            t.enter(name);
            let out = f();
            t.exit();
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_wall() {
        let t = Tracer::new(Instant::now());
        t.begin_exec();
        timed(Some(&t), "mrrdf.load_store", || std::hint::black_box(0));
        t.enter_call(CallLayer::Core);
        t.event(&TraceEvent::WorkflowStart { label: "w".into() });
        t.event(&TraceEvent::JobStart { job: "j1".into() });
        t.event(&TraceEvent::SortPlan {
            job: "j1".into(),
            strategy: "radix",
            map_sorted_runs: 1,
            merge_entries: 1,
        });
        t.event(&TraceEvent::MemoryHighWater {
            job: "j1".into(),
            peak_arena_bytes: 0,
            peak_task_live_bytes: 0,
            peak_spill_entries: 0,
        });
        t.event(&TraceEvent::JobStart { job: "j2".into() });
        t.event(&TraceEvent::WorkflowEnd { label: "w".into(), sim_seconds: 0.0, succeeded: true });
        t.exit_call();
        t.end_exec();
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                ROOT,
                "mrrdf.load_store",
                "core.query",
                "core.plan",
                "mapreduce.workflow",
                "mapreduce.map",
                "mapreduce.reduce",
                "mapreduce.map_only",
                "core.extract"
            ]
        );
        let splits = split(&spans).unwrap();
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0].self_ns.values().sum::<u64>(), splits[0].wall_ns);
    }

    #[test]
    fn overlapping_children_are_rejected() {
        let spans = vec![
            Span { exec: 1, name: ROOT, parent: None, start: 0, end: 10 },
            Span { exec: 1, name: "a", parent: Some(0), start: 1, end: 6 },
            Span { exec: 1, name: "b", parent: Some(0), start: 5, end: 8 },
        ];
        assert!(split(&spans).is_err());
    }
}
