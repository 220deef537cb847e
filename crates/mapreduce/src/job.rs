//! Job definitions: raw byte-level operator traits, typed adapters, and the
//! [`JobSpec`] builder.
//!
//! The engine itself moves opaque encoded records (so heterogeneous jobs can
//! be chained without generics leaking into the engine), while user code
//! writes *typed* mappers/reducers via [`map_fn`], [`map_only_fn`] and
//! [`reduce_fn`], which handle encode/decode and text-size accounting.
//! Each operator kind has one adapter, which hands the closure the
//! [`TaskContext`] (`map_fn_ctx`, `map_only_fn_ctx`, `reduce_fn_ctx`); the
//! context-free forms are one-call wrappers that drop it.

use crate::codec::Rec;
use crate::counters::OpCounters;
use crate::error::MrError;
use crate::hdfs::DfsFile;
use crate::metrics::MetricsRegistry;
use rdf_model::atom::{Atom, AtomTable};
use rdf_model::Dictionary;
use std::any::Any;
use std::cell::{Ref, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

/// Per-task execution context, created by the engine for each map task,
/// combiner run, and reduce partition.
///
/// Carries the task-lifetime [`AtomTable`] that typed adapters decode
/// through, so every occurrence of a token within one task shares a
/// single `Atom` allocation instead of re-allocating per record — the
/// in-process analogue of the paper's argument that nested triplegroups
/// avoid paying for redundant token copies. Scoped per task (not per
/// job) so concurrent tasks never contend on one table and memory is
/// released with the task.
///
/// It also carries the task's [`OpCounters`]: operators record named
/// operator-level counters through [`TaskContext::count`] (Hadoop's
/// user-defined `Counter`s), and the engine merges every task's counters
/// into [`crate::JobStats::ops`] when the job completes.
///
/// ID-native jobs additionally read the engine's shared [`Dictionary`]
/// snapshot (attached with [`crate::Engine::with_dict`]) through
/// [`TaskContext::resolve_atom`] — the distributed-cache side file a real
/// Hadoop deployment would ship to every task.
///
/// Jobs that declare broadcast side files ([`JobSpec::with_broadcast`])
/// additionally see those files through [`TaskContext::broadcast`], and
/// can cache a once-per-task derived structure (e.g. a broadcast-join hash
/// table — Hadoop's `Mapper.setup()`) via [`TaskContext::task_state`].
#[derive(Default)]
pub struct TaskContext {
    /// Interner for token (`Atom`) fields decoded by this task.
    pub atoms: AtomTable,
    counters: RefCell<OpCounters>,
    metrics: RefCell<MetricsRegistry>,
    profiling: bool,
    dict: Option<Arc<Dictionary>>,
    broadcast: Vec<Arc<DfsFile>>,
    state: RefCell<Option<Box<dyn Any + Send>>>,
}

impl std::fmt::Debug for TaskContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContext")
            .field("atoms", &self.atoms)
            .field("counters", &self.counters)
            .field("profiling", &self.profiling)
            .field("dict", &self.dict)
            .field("broadcast_files", &self.broadcast.len())
            .field("has_state", &self.state.borrow().is_some())
            .finish()
    }
}

impl TaskContext {
    /// Fresh context with an empty atom table.
    pub fn new() -> Self {
        Self::with_dict(None)
    }

    /// Fresh context carrying the engine's dictionary snapshot (if any).
    pub fn with_dict(dict: Option<Arc<Dictionary>>) -> Self {
        Self::with_env(dict, Vec::new())
    }

    /// Fresh context carrying the engine's dictionary snapshot and the
    /// job's loaded broadcast side files (the engine builds every task's
    /// context through this).
    pub fn with_env(dict: Option<Arc<Dictionary>>, broadcast: Vec<Arc<DfsFile>>) -> Self {
        TaskContext {
            atoms: AtomTable::new(),
            counters: RefCell::new(OpCounters::new()),
            metrics: RefCell::new(MetricsRegistry::new()),
            profiling: false,
            dict,
            broadcast,
            state: RefCell::new(None),
        }
    }

    /// Enable distribution-metric recording for this task (the engine sets
    /// this from its profiling flag). When off — the default —
    /// [`TaskContext::record`] is a no-op, so un-profiled runs pay nothing.
    pub fn profiled(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Broadcast side file `idx` (the order of [`JobSpec::with_broadcast`]),
    /// shipped to every task of this job through the engine's simulated
    /// distributed cache. [`MrError::Op`] when the job declared no such
    /// file — an operator wired against the wrong job spec.
    pub fn broadcast(&self, idx: usize) -> Result<&DfsFile, MrError> {
        self.broadcast.get(idx).map(Arc::as_ref).ok_or_else(|| {
            MrError::Op(format!(
                "broadcast file #{idx} not attached (job declares {} broadcast files)",
                self.broadcast.len()
            ))
        })
    }

    /// All broadcast side files attached to this task, in declaration
    /// order.
    pub fn broadcast_files(&self) -> &[Arc<DfsFile>] {
        &self.broadcast
    }

    /// Once-per-task derived state (the simulated `Mapper.setup()`):
    /// the first call runs `init` and caches its value for the rest of the
    /// task; later calls return the cached value. Operators are shared
    /// (`Arc<dyn …>`) across all tasks of a job, so per-task structures
    /// like a broadcast-join hash table must live here, not in the
    /// operator. `init` must not recursively call `task_state`, and every
    /// caller within one task must use the same type `T`.
    pub fn task_state<T, F>(&self, init: F) -> Result<Ref<'_, T>, MrError>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, MrError>,
    {
        if self.state.borrow().is_none() {
            let built = init()?;
            *self.state.borrow_mut() = Some(Box::new(built));
        }
        Ref::filter_map(self.state.borrow(), |slot| {
            slot.as_deref().and_then(|any| any.downcast_ref::<T>())
        })
        .map_err(|_| MrError::Op("task state already initialized with a different type".into()))
    }

    /// The dictionary snapshot this task decodes ids against, if the
    /// engine has one attached.
    pub fn dict(&self) -> Option<&Arc<Dictionary>> {
        self.dict.as_ref()
    }

    /// Resolve a dictionary id to its shared [`Atom`]. An unknown id — a
    /// corrupt or foreign id reaching this task — or a missing dictionary
    /// is a [`MrError::Codec`] task failure, which the engine's recovery
    /// policy handles like any other failed task (no process abort).
    pub fn resolve_atom(&self, id: u32) -> Result<Atom, MrError> {
        let dict = self.dict.as_ref().ok_or_else(|| {
            MrError::Codec(
                "no dictionary snapshot attached to the engine (Engine::with_dict)".into(),
            )
        })?;
        dict.resolve_atom(id).map_err(|e| MrError::Codec(e.to_string()))
    }

    /// Add `delta` to the named operator counter. Names should be
    /// `&'static str` constants declared next to the operator.
    pub fn count(&self, name: &'static str, delta: u64) {
        self.counters.borrow_mut().add(name, delta);
    }

    /// Drain this task's recorded counters (the engine calls this once per
    /// task to merge them into the job's stats).
    pub fn take_counters(&self) -> OpCounters {
        self.counters.take()
    }

    /// Record one sample into the named distribution metric (a log2
    /// [`crate::Histogram`]). No-op unless the engine enabled profiling
    /// for this task via [`TaskContext::profiled`], so operators can call
    /// it unconditionally on hot paths.
    pub fn record(&self, name: &'static str, value: u64) {
        if self.profiling {
            self.metrics.borrow_mut().record(name, value);
        }
    }

    /// Drain this task's recorded distribution metrics (the engine merges
    /// them into [`crate::JobStats::metrics`]).
    pub fn take_metrics(&self) -> MetricsRegistry {
        self.metrics.take()
    }
}

/// Buffered, map-side-partitioned output of one map task.
///
/// Each emission is routed to one of `reduce_tasks` spill arenas as it is
/// produced, keyed by [`crate::engine::default_partition`] — Hadoop's
/// map-side partitioning, where the map task writes one spill segment per
/// reducer and the driver never touches individual pairs. Combiners also
/// emit into a partitioned emitter, so their (possibly rewritten) keys are
/// re-routed to the correct reducer.
///
/// The emit path is allocation-free per record: the key is encoded into a
/// reusable scratch buffer (to compute its partition), then key and value
/// bytes are appended to the partition's contiguous `SpillArena` (the
/// `spill` module) — the value encodes straight
/// into the arena, so no owned `(Vec<u8>, Vec<u8>)` pair is ever built.
pub struct MapEmitter {
    /// One spill arena per reduce partition; arena `p` holds every
    /// emission whose key partitions to `p`.
    pub(crate) buckets: Vec<crate::spill::SpillArena>,
    /// Reusable key-encoding scratch (cleared per emission, so its
    /// allocation amortizes across the task).
    key_scratch: Vec<u8>,
}

impl MapEmitter {
    /// Single-partition emitter (tests only; the engine always builds
    /// partitioned emitters).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::partitioned(1)
    }

    /// Emitter spilling into `reduce_tasks` partition arenas.
    pub(crate) fn partitioned(reduce_tasks: usize) -> Self {
        MapEmitter {
            buckets: vec![crate::spill::SpillArena::default(); reduce_tasks.max(1)],
            key_scratch: Vec::new(),
        }
    }

    /// Emit one typed key/value record with its simulated text row size,
    /// routing it to its reduce partition's arena. The value encodes
    /// directly into the arena; nothing is heap-allocated per record.
    pub fn emit_rec<K: Rec, V: Rec>(&mut self, key: &K, value: &V, text_size: u64) {
        let MapEmitter { buckets, key_scratch } = self;
        key_scratch.clear();
        key.encode_into(key_scratch);
        let p = crate::engine::default_partition(key_scratch, buckets.len());
        buckets[p].push(key_scratch, text_size, |buf| value.encode_into(buf));
    }

    /// Emit an already-encoded key/value pair (copied into the arena).
    pub fn emit_raw(&mut self, key: &[u8], value: &[u8], text_size: u64) {
        let p = crate::engine::default_partition(key, self.buckets.len());
        self.buckets[p].push_pair(key, value, text_size);
    }

    /// Total emissions across all partition arenas.
    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(crate::spill::SpillArena::len).sum()
    }
}

/// Buffered output of one reduce (or map-only) task:
/// `(output index, record, text size)`.
///
/// Jobs normally have one output file (index 0); Hadoop-style
/// `MultipleOutputs` jobs (e.g. NTGA's group-filter cycle, which writes one
/// file per triplegroup equivalence class) route records with
/// [`OutEmitter::emit_raw_to`].
pub struct OutEmitter {
    pub(crate) records: Vec<(usize, Vec<u8>, u64)>,
    pub(crate) budget: Option<u64>,
    pub(crate) emitted_text: u64,
    pub(crate) n_outputs: usize,
}

impl OutEmitter {
    #[cfg(test)]
    pub(crate) fn new(budget: Option<u64>) -> Self {
        Self::with_outputs(budget, 1)
    }

    pub(crate) fn with_outputs(budget: Option<u64>, n_outputs: usize) -> Self {
        OutEmitter { records: Vec::new(), budget, emitted_text: 0, n_outputs }
    }

    /// Emit a raw record to the job's primary output (index 0).
    ///
    /// Fails with [`MrError::DiskFull`] as soon as the cumulative output
    /// text exceeds the job's disk budget, so a cross-product explosion
    /// aborts early instead of first materializing in memory (mirrors a
    /// Hadoop task dying mid-write).
    pub fn emit_raw(&mut self, record: Vec<u8>, text_size: u64) -> Result<(), MrError> {
        self.emit_raw_to(0, record, text_size)
    }

    /// Emit a raw record to output `idx` (see [`crate::JobSpec::outputs`]).
    pub fn emit_raw_to(
        &mut self,
        idx: usize,
        record: Vec<u8>,
        text_size: u64,
    ) -> Result<(), MrError> {
        if idx >= self.n_outputs {
            return Err(MrError::Op(format!(
                "output index {idx} out of range (job has {} outputs)",
                self.n_outputs
            )));
        }
        self.emitted_text += text_size;
        if let Some(budget) = self.budget {
            if self.emitted_text > budget {
                return Err(MrError::DiskFull {
                    file: "<job output>".into(),
                    needed: self.emitted_text,
                    available: budget,
                });
            }
        }
        self.records.push((idx, record, text_size));
        Ok(())
    }
}

/// Byte-level map operator.
pub trait RawMapOp: Send + Sync {
    /// Process one input record. Emit shuffle pairs via `out`.
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError>;
}

/// Byte-level map operator for map-only jobs (emits output records
/// directly).
pub trait RawMapOnlyOp: Send + Sync {
    /// Process one input record. Emit output records via `out`.
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError>;
}

/// Byte-level reduce operator.
///
/// `values` borrows directly from the sorted shuffle buffer — the engine
/// hands out slices instead of cloning every value into an owned vector.
pub trait RawReduceOp: Send + Sync {
    /// Process one key group. `values` holds every shuffled value for `key`
    /// in deterministic (sorted) order.
    fn run(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError>;
}

/// Byte-level combiner: runs on each map task's local output before the
/// shuffle (Hadoop's combiner), re-emitting key/value pairs. Input and
/// output key/value types must match the mapper's. Like [`RawReduceOp`],
/// `values` borrows from the map task's spill buffer.
pub trait RawCombineOp: Send + Sync {
    /// Combine one locally-grouped key. Emit replacement pairs via `out`.
    fn run(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut MapEmitter,
    ) -> Result<(), MrError>;
}

// ---------------------------------------------------------------------------
// Typed adapters
// ---------------------------------------------------------------------------

/// Typed emit handle passed to map closures.
pub struct TypedMapEmitter<'a, K: Rec, V: Rec> {
    raw: &'a mut MapEmitter,
    _pd: PhantomData<(K, V)>,
}

impl<K: Rec, V: Rec> TypedMapEmitter<'_, K, V> {
    /// Emit one key/value pair. The simulated row size is
    /// `key.text_size() + value.text_size() - 1` (the pair shares a single
    /// row: one newline, one tab separator). Both records encode straight
    /// into the partition spill arena — no per-record allocation.
    pub fn emit(&mut self, key: &K, value: &V) {
        let text = key.text_size() + value.text_size() - 1;
        self.raw.emit_rec(key, value, text);
    }
}

/// Typed emit handle passed to reduce / map-only closures.
pub struct TypedOutEmitter<'a, O: Rec> {
    raw: &'a mut OutEmitter,
    _pd: PhantomData<O>,
}

impl<O: Rec> TypedOutEmitter<'_, O> {
    /// Emit one output record to the primary output.
    pub fn emit(&mut self, record: &O) -> Result<(), MrError> {
        self.raw.emit_raw(record.to_bytes(), record.text_size())
    }

    /// Emit one output record to the named output `idx`.
    pub fn emit_to(&mut self, idx: usize, record: &O) -> Result<(), MrError> {
        self.raw.emit_raw_to(idx, record.to_bytes(), record.text_size())
    }
}

struct TypedMapOp<I, K, V, F> {
    f: F,
    _pd: PhantomData<fn(I) -> (K, V)>,
}

impl<I, K, V, F> RawMapOp for TypedMapOp<I, K, V, F>
where
    I: Rec,
    K: Rec,
    V: Rec,
    F: Fn(&TaskContext, I, &mut TypedMapEmitter<'_, K, V>) -> Result<(), MrError> + Send + Sync,
{
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
        let input = I::from_bytes_with(record, &ctx.atoms)?;
        let mut emitter = TypedMapEmitter { raw: out, _pd: PhantomData };
        (self.f)(ctx, input, &mut emitter)
    }
}

struct TypedMapOnlyOp<I, O, F> {
    f: F,
    _pd: PhantomData<fn(I) -> O>,
}

impl<I, O, F> RawMapOnlyOp for TypedMapOnlyOp<I, O, F>
where
    I: Rec,
    O: Rec,
    F: Fn(&TaskContext, I, &mut TypedOutEmitter<'_, O>) -> Result<(), MrError> + Send + Sync,
{
    fn run(&self, ctx: &TaskContext, record: &[u8], out: &mut OutEmitter) -> Result<(), MrError> {
        let input = I::from_bytes_with(record, &ctx.atoms)?;
        let mut emitter = TypedOutEmitter { raw: out, _pd: PhantomData };
        (self.f)(ctx, input, &mut emitter)
    }
}

struct TypedCombineOp<K, V, F> {
    f: F,
    #[allow(clippy::type_complexity)]
    _pd: PhantomData<fn(K, V) -> (K, V)>,
}

impl<K, V, F> RawCombineOp for TypedCombineOp<K, V, F>
where
    K: Rec,
    V: Rec,
    F: Fn(K, Vec<V>, &mut TypedMapEmitter<'_, K, V>) -> Result<(), MrError> + Send + Sync,
{
    fn run(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut MapEmitter,
    ) -> Result<(), MrError> {
        let key = K::from_bytes_with(key, &ctx.atoms)?;
        let values: Result<Vec<V>, MrError> =
            values.iter().map(|v| V::from_bytes_with(v, &ctx.atoms)).collect();
        let mut emitter = TypedMapEmitter { raw: out, _pd: PhantomData };
        (self.f)(key, values?, &mut emitter)
    }
}

struct TypedReduceOp<K, V, O, F> {
    f: F,
    _pd: PhantomData<fn(K, V) -> O>,
}

impl<K, V, O, F> RawReduceOp for TypedReduceOp<K, V, O, F>
where
    K: Rec,
    V: Rec,
    O: Rec,
    F: Fn(&TaskContext, K, Vec<V>, &mut TypedOutEmitter<'_, O>) -> Result<(), MrError>
        + Send
        + Sync,
{
    fn run(
        &self,
        ctx: &TaskContext,
        key: &[u8],
        values: &[&[u8]],
        out: &mut OutEmitter,
    ) -> Result<(), MrError> {
        let key = K::from_bytes_with(key, &ctx.atoms)?;
        let values: Result<Vec<V>, MrError> =
            values.iter().map(|v| V::from_bytes_with(v, &ctx.atoms)).collect();
        let mut emitter = TypedOutEmitter { raw: out, _pd: PhantomData };
        (self.f)(ctx, key, values?, &mut emitter)
    }
}

/// Wrap a typed closure as a shuffle-producing map operator; the closure
/// also receives the [`TaskContext`] (for operator counters via
/// [`TaskContext::count`], dictionary resolution, or direct interning).
pub fn map_fn_ctx<I, K, V, F>(f: F) -> Arc<dyn RawMapOp>
where
    I: Rec,
    K: Rec,
    V: Rec,
    F: Fn(&TaskContext, I, &mut TypedMapEmitter<'_, K, V>) -> Result<(), MrError>
        + Send
        + Sync
        + 'static,
{
    Arc::new(TypedMapOp { f, _pd: PhantomData })
}

/// [`map_fn_ctx`] for a closure that does not need the [`TaskContext`].
pub fn map_fn<I, K, V, F>(f: F) -> Arc<dyn RawMapOp>
where
    I: Rec,
    K: Rec,
    V: Rec,
    F: Fn(I, &mut TypedMapEmitter<'_, K, V>) -> Result<(), MrError> + Send + Sync + 'static,
{
    map_fn_ctx(move |_: &TaskContext, input, out: &mut TypedMapEmitter<'_, K, V>| f(input, out))
}

/// Wrap a typed closure as a map-only operator; the closure also receives
/// the [`TaskContext`] — required by broadcast-join mappers, which read
/// their build side via [`TaskContext::broadcast`] and cache the built
/// hash table via [`TaskContext::task_state`].
pub fn map_only_fn_ctx<I, O, F>(f: F) -> Arc<dyn RawMapOnlyOp>
where
    I: Rec,
    O: Rec,
    F: Fn(&TaskContext, I, &mut TypedOutEmitter<'_, O>) -> Result<(), MrError>
        + Send
        + Sync
        + 'static,
{
    Arc::new(TypedMapOnlyOp { f, _pd: PhantomData })
}

/// [`map_only_fn_ctx`] for a closure that does not need the
/// [`TaskContext`].
pub fn map_only_fn<I, O, F>(f: F) -> Arc<dyn RawMapOnlyOp>
where
    I: Rec,
    O: Rec,
    F: Fn(I, &mut TypedOutEmitter<'_, O>) -> Result<(), MrError> + Send + Sync + 'static,
{
    map_only_fn_ctx(move |_: &TaskContext, input, out: &mut TypedOutEmitter<'_, O>| f(input, out))
}

/// Wrap a typed closure as a combiner.
pub fn combine_fn<K, V, F>(f: F) -> Arc<dyn RawCombineOp>
where
    K: Rec,
    V: Rec,
    F: Fn(K, Vec<V>, &mut TypedMapEmitter<'_, K, V>) -> Result<(), MrError> + Send + Sync + 'static,
{
    Arc::new(TypedCombineOp { f, _pd: PhantomData })
}

/// Wrap a typed closure as a reduce operator; the closure also receives
/// the [`TaskContext`].
pub fn reduce_fn_ctx<K, V, O, F>(f: F) -> Arc<dyn RawReduceOp>
where
    K: Rec,
    V: Rec,
    O: Rec,
    F: Fn(&TaskContext, K, Vec<V>, &mut TypedOutEmitter<'_, O>) -> Result<(), MrError>
        + Send
        + Sync
        + 'static,
{
    Arc::new(TypedReduceOp { f, _pd: PhantomData })
}

/// [`reduce_fn_ctx`] for a closure that does not need the
/// [`TaskContext`].
pub fn reduce_fn<K, V, O, F>(f: F) -> Arc<dyn RawReduceOp>
where
    K: Rec,
    V: Rec,
    O: Rec,
    F: Fn(K, Vec<V>, &mut TypedOutEmitter<'_, O>) -> Result<(), MrError> + Send + Sync + 'static,
{
    reduce_fn_ctx(move |_: &TaskContext, key, values, out: &mut TypedOutEmitter<'_, O>| {
        f(key, values, out)
    })
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// One input of a job: a DFS file plus the mapper applied to its records
/// (Hadoop `MultipleInputs`). Binary joins bind a different mapper to each
/// side.
pub struct InputBinding {
    /// DFS file name.
    pub file: String,
    /// Mapper for this input's records.
    pub mapper: Arc<dyn RawMapOp>,
}

/// What the job does after the map phase.
pub enum JobKind {
    /// Full map-shuffle-reduce cycle.
    MapReduce {
        /// Inputs with their mappers.
        inputs: Vec<InputBinding>,
        /// Optional map-side combiner (runs per map task before the
        /// shuffle).
        combiner: Option<Arc<dyn RawCombineOp>>,
        /// The reduce operator.
        reducer: Arc<dyn RawReduceOp>,
        /// Number of reduce tasks (partitions).
        reduce_tasks: usize,
    },
    /// Map-only job (no shuffle; mappers write output directly).
    MapOnly {
        /// Input files sharing one mapper.
        files: Vec<String>,
        /// The map-only operator.
        mapper: Arc<dyn RawMapOnlyOp>,
    },
}

/// A complete job description.
pub struct JobSpec {
    /// Job name (for stats and reports).
    pub name: String,
    /// Map/reduce structure.
    pub kind: JobKind,
    /// Output DFS file names. Index 0 is the primary output; reducers
    /// route to further outputs with [`TypedOutEmitter::emit_to`]
    /// (Hadoop `MultipleOutputs`).
    pub outputs: Vec<String>,
    /// Replication override for the outputs (defaults to the DFS default).
    pub replication: Option<u32>,
    /// Simulated output compression ratio in `(0, 1]`: the stored file's
    /// accounted text size is `ratio ×` the raw text size (Pig/Hive jobs
    /// frequently compress intermediates; the paper's Pig plans start with
    /// a compression pass).
    pub output_compression: f64,
    /// Marks the job as scanning the base input relation in full — the
    /// paper's "full scan" (FS) metric. Set by planners.
    pub full_input_scan: bool,
    /// Fault-injection epoch, mixed into the deterministic fault hash.
    /// Workflow recovery bumps this when re-running a failed stage so the
    /// retry faces fresh (but still deterministic) fault draws instead of
    /// replaying the identical failure forever. 0 leaves the hash
    /// unchanged.
    pub fault_epoch: u64,
    /// DFS files shipped to every task through the engine's simulated
    /// distributed cache (Hadoop `DistributedCache` / Spark broadcast).
    /// Tasks read them via [`TaskContext::broadcast`]; the engine charges
    /// one copy per map task against the cost model and bounds the total
    /// payload by the engine's broadcast memory budget.
    pub broadcast: Vec<String>,
    /// Planner's estimated output cardinality for this job, when an
    /// optimizer produced one. The engine copies it into
    /// [`crate::JobStats`] next to the actual output count, making the
    /// estimate's q-error observable per job.
    pub estimated_output_records: Option<f64>,
}

impl JobSpec {
    /// Build a map-reduce job.
    pub fn map_reduce(
        name: impl Into<String>,
        inputs: Vec<InputBinding>,
        reducer: Arc<dyn RawReduceOp>,
        reduce_tasks: usize,
        output: impl Into<String>,
    ) -> Self {
        assert!(reduce_tasks >= 1, "need at least one reduce task");
        JobSpec {
            name: name.into(),
            kind: JobKind::MapReduce { inputs, combiner: None, reducer, reduce_tasks },
            outputs: vec![output.into()],
            replication: None,
            output_compression: 1.0,
            full_input_scan: false,
            fault_epoch: 0,
            broadcast: Vec::new(),
            estimated_output_records: None,
        }
    }

    /// Attach a map-side combiner (only meaningful for map-reduce jobs).
    ///
    /// # Panics
    /// Panics when called on a map-only job.
    pub fn with_combiner(mut self, c: Arc<dyn RawCombineOp>) -> Self {
        match &mut self.kind {
            JobKind::MapReduce { combiner, .. } => *combiner = Some(c),
            JobKind::MapOnly { .. } => panic!("combiners require a reduce phase"),
        }
        self
    }

    /// Set the simulated output compression ratio (`0 < ratio <= 1`).
    pub fn with_output_compression(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "compression ratio must be in (0, 1]");
        self.output_compression = ratio;
        self
    }

    /// Build a map-only job.
    pub fn map_only(
        name: impl Into<String>,
        files: Vec<String>,
        mapper: Arc<dyn RawMapOnlyOp>,
        output: impl Into<String>,
    ) -> Self {
        JobSpec {
            name: name.into(),
            kind: JobKind::MapOnly { files, mapper },
            outputs: vec![output.into()],
            replication: None,
            output_compression: 1.0,
            full_input_scan: false,
            fault_epoch: 0,
            broadcast: Vec::new(),
            estimated_output_records: None,
        }
    }

    /// Ship `file` to every task through the simulated distributed cache;
    /// tasks read it back with [`TaskContext::broadcast`] by declaration
    /// index. May be called repeatedly to attach several side files.
    pub fn with_broadcast(mut self, file: impl Into<String>) -> Self {
        self.broadcast.push(file.into());
        self
    }

    /// Record the planner's estimated output cardinality, surfaced by the
    /// engine as the job's q-error.
    pub fn with_estimated_output(mut self, records: f64) -> Self {
        self.estimated_output_records = Some(records);
        self
    }

    /// Override the reduce-task count — how a cost-based planner sizes the
    /// reduce phase to estimated shuffle bytes instead of a fixed default.
    ///
    /// # Panics
    /// Panics when called on a map-only job or with `reduce_tasks == 0`.
    pub fn with_reducers(mut self, reduce_tasks: usize) -> Self {
        assert!(reduce_tasks >= 1, "need at least one reduce task");
        match &mut self.kind {
            JobKind::MapReduce { reduce_tasks: r, .. } => *r = reduce_tasks,
            JobKind::MapOnly { .. } => panic!("map-only jobs have no reduce tasks"),
        }
        self
    }

    /// Add a further named output (Hadoop `MultipleOutputs`). Reducers
    /// reach it via [`TypedOutEmitter::emit_to`] with the output's index.
    pub fn with_extra_output(mut self, name: impl Into<String>) -> Self {
        self.outputs.push(name.into());
        self
    }

    /// Mark this job as performing a full scan of the base relation.
    pub fn with_full_scan(mut self) -> Self {
        self.full_input_scan = true;
        self
    }

    /// Override the output replication factor.
    pub fn with_replication(mut self, r: u32) -> Self {
        self.replication = Some(r);
        self
    }

    /// Check cross-field invariants before execution. The builders assert
    /// these eagerly, but [`JobKind`]'s fields are public, so a hand-built
    /// spec can bypass them; the engine re-validates here rather than
    /// panicking deep inside the shuffle (`key % 0`).
    pub fn validate(&self) -> Result<(), MrError> {
        if let JobKind::MapReduce { reduce_tasks, .. } = &self.kind {
            if *reduce_tasks == 0 {
                return Err(MrError::Op(format!(
                    "job '{}' declares 0 reduce tasks; map-reduce jobs need at least 1",
                    self.name
                )));
            }
        }
        if self.outputs.is_empty() {
            return Err(MrError::Op(format!("job '{}' declares no output files", self.name)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_map_emitter_accounts_row_text() {
        let mut raw = MapEmitter::new();
        let mut typed: TypedMapEmitter<'_, String, String> =
            TypedMapEmitter { raw: &mut raw, _pd: PhantomData };
        typed.emit(&"key".to_string(), &"value".to_string());
        assert_eq!(raw.len(), 1);
        // "key\tvalue\n" = 4 + 6 - 1 = 9
        assert_eq!(raw.buckets[0].text_bytes(), 9);
    }

    #[test]
    fn map_emitter_routes_to_partition_buckets() {
        let mut part = MapEmitter::partitioned(4);
        for i in 0..64u64 {
            let key = format!("key{i}").into_bytes();
            part.emit_raw(&key, &[], 1);
        }
        assert_eq!(part.len(), 64);
        // Every emission sits in the bucket its key hashes to.
        for (p, bucket) in part.buckets.iter().enumerate() {
            for (k, _) in bucket.iter() {
                assert_eq!(crate::engine::default_partition(k, 4), p);
            }
        }
        // With 64 distinct keys over 4 buckets, FNV-1a should spread load.
        assert!(part.buckets.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn validate_rejects_zero_reduce_tasks() {
        let reducer =
            reduce_fn(|_k: String, _v: Vec<u64>, _o: &mut TypedOutEmitter<'_, String>| Ok(()));
        let mut spec = JobSpec::map_reduce("j", vec![], reducer, 1, "out");
        assert!(spec.validate().is_ok());
        if let JobKind::MapReduce { reduce_tasks, .. } = &mut spec.kind {
            *reduce_tasks = 0; // bypass the builder assert via the pub field
        }
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("reduce tasks"), "{err}");
        spec.outputs.clear();
        if let JobKind::MapReduce { reduce_tasks, .. } = &mut spec.kind {
            *reduce_tasks = 1;
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one reduce task")]
    fn builder_rejects_zero_reduce_tasks() {
        let reducer =
            reduce_fn(|_k: String, _v: Vec<u64>, _o: &mut TypedOutEmitter<'_, String>| Ok(()));
        let _ = JobSpec::map_reduce("j", vec![], reducer, 0, "out");
    }

    #[test]
    fn out_emitter_budget_aborts() {
        let mut out = OutEmitter::new(Some(10));
        assert!(out.emit_raw(vec![1], 6).is_ok());
        let err = out.emit_raw(vec![2], 6).unwrap_err();
        assert!(err.is_disk_full());
        // Budget is shared across named outputs too.
        let mut multi = OutEmitter::with_outputs(Some(10), 2);
        assert!(multi.emit_raw_to(1, vec![1], 6).is_ok());
        assert!(multi.emit_raw_to(0, vec![1], 6).unwrap_err().is_disk_full());
        assert!(multi.emit_raw_to(7, vec![1], 1).is_err());
    }

    #[test]
    fn out_emitter_unbounded() {
        let mut out = OutEmitter::new(None);
        for _ in 0..100 {
            out.emit_raw(vec![0], 1000).unwrap();
        }
        assert_eq!(out.emitted_text, 100_000);
    }

    #[test]
    fn map_fn_decodes_and_emits() {
        let op = map_fn(|rec: String, out: &mut TypedMapEmitter<'_, String, u64>| {
            out.emit(&rec, &(rec.len() as u64));
            Ok(())
        });
        let mut out = MapEmitter::new();
        op.run(&TaskContext::new(), &"abc".to_string().to_bytes(), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(String::from_bytes(out.buckets[0].key(0)).unwrap(), "abc");
        assert_eq!(u64::from_bytes(out.buckets[0].value(0)).unwrap(), 3);
    }

    #[test]
    fn reduce_fn_decodes_group() {
        let op =
            reduce_fn(|key: String, values: Vec<u64>, out: &mut TypedOutEmitter<'_, String>| {
                let sum: u64 = values.iter().sum();
                out.emit(&format!("{key}={sum}"))
            });
        let mut out = OutEmitter::new(None);
        let owned = [1u64.to_bytes(), 2u64.to_bytes()];
        let values: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        op.run(&TaskContext::new(), &"k".to_string().to_bytes(), &values, &mut out).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(String::from_bytes(&out.records[0].1).unwrap(), "k=3");
    }

    #[test]
    fn ctx_adapters_record_counters() {
        let ctx = TaskContext::new();
        let map_op = map_fn_ctx(
            |ctx: &TaskContext, rec: String, out: &mut TypedMapEmitter<'_, String, u64>| {
                ctx.count("map.seen", 1);
                out.emit(&rec, &1);
                Ok(())
            },
        );
        let mut mout = MapEmitter::new();
        map_op.run(&ctx, &"a".to_string().to_bytes(), &mut mout).unwrap();
        map_op.run(&ctx, &"b".to_string().to_bytes(), &mut mout).unwrap();

        let reduce_op = reduce_fn_ctx(
            |ctx: &TaskContext,
             key: String,
             values: Vec<u64>,
             out: &mut TypedOutEmitter<'_, String>| {
                ctx.count("reduce.groups_seen", 1);
                out.emit(&format!("{key}:{}", values.len()))
            },
        );
        let mut rout = OutEmitter::new(None);
        let owned = [1u64.to_bytes()];
        let values: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        reduce_op.run(&ctx, &"a".to_string().to_bytes(), &values, &mut rout).unwrap();

        let counters = ctx.take_counters();
        assert_eq!(counters.get("map.seen"), 2);
        assert_eq!(counters.get("reduce.groups_seen"), 1);
        // take_counters drains.
        assert!(ctx.take_counters().is_empty());
    }

    #[test]
    fn record_is_gated_on_profiling() {
        let off = TaskContext::new();
        off.record("reduce.group.width", 7);
        assert!(off.take_metrics().is_empty());

        let on = TaskContext::new().profiled(true);
        on.record("reduce.group.width", 7);
        on.record("reduce.group.width", 3);
        let metrics = on.take_metrics();
        let h = metrics.get("reduce.group.width").expect("recorded histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 10);
        // take_metrics drains.
        assert!(on.take_metrics().is_empty());
    }

    #[test]
    fn map_fn_propagates_codec_errors() {
        let op = map_fn(|_rec: u64, _out: &mut TypedMapEmitter<'_, String, String>| Ok(()));
        let mut out = MapEmitter::new();
        assert!(op.run(&TaskContext::new(), &[1, 2], &mut out).is_err());
    }
}
