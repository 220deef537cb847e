//! The three workloads. Each is set up from the seed alone; one
//! operation is one call of [`Workload::run`] on one cell.
//!
//! * `bsbm_panel` — the paper's headline comparison: B0, B1, B2, B4 ×
//!   {Pig, Hive, EagerUnnest, LazyUnnest-auto1024} through
//!   `ntga::run_query` on the lexical plane, over two datasets. Shuffle,
//!   sort, reduce and answer extraction dominate it.
//! * `bio2rdf_costplan` — A1–A6 through `ntga_core::optimize` then
//!   `execute_plan_on`, on the lexical and the ID plane: planner,
//!   map-side broadcast joins, varint ids and dictionary resolution, with
//!   little shuffle.
//! * `ingest` — the write path: N-Triples parse, statistics, lexical and
//!   ID-encoded DFS loads, verified read-back. No MapReduce job runs.
//!
//! In the query workloads every operation builds a fresh engine, as
//! `ntga-cli query` does; an operation's clock stops once the answer is in
//! hand, before the engine is dropped.

use crate::stats::{Fingerprint, Hasher2};
use crate::trace::{call, timed, CallLayer, Tracer};
use mr_rdf::{load_store, load_store_ids, read_store, ID_TRIPLES_FILE, TRIPLES_FILE};
use mrsim::{CostModel, Engine, SimHdfs, WorkflowStats};
use ntga::Approach;
use ntga_core::{DataPlane, OptimizerConfig};
use rdf_model::{Dictionary, StoreStats, TripleStore};
use rdf_query::{parse_query, Query, SolutionSet};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// BSBM datasets per run and products in each (~9.4k triples). The naive
/// oracle grows with the square of a dataset (B1 and B4 scan every triple
/// per partial binding) and has to fit a run's time budget whenever its
/// cache misses; per-seed variation of the work shrinks with the total
/// product count. Two independent datasets halve the variance for twice,
/// not four times, the oracle's cost.
pub const BSBM_DATASETS: u64 = 2;
pub const BSBM_PRODUCTS: usize = 250;
/// Feature vocabulary and per-product multiplicity cap. B1 and B4 grow
/// with the square of a product's feature count, so a long multiplicity
/// tail makes their work swing from seed to seed; a cap of 6 keeps the
/// property multi-valued while holding that swing to a few percent.
pub const BSBM_FEATURES: usize = 40;
pub const BSBM_MAX_FEATURES: usize = 6;
/// Bio2RDF genes: ~5k triples; A4's oracle dominates the same way.
pub const BIO_GENES: usize = 300;
/// Per-generator sizes of the ingest documents (~10k triples each).
pub const INGEST_BSBM_PRODUCTS: usize = 250;
pub const INGEST_BIO_GENES: usize = 620;
pub const INGEST_DBPEDIA_ENTITIES: usize = 420;

/// Engine worker threads. On a 2-vCPU guest whose host is oversubscribed,
/// keeping both vCPUs busy lets the host steal ~20% of their time, and the
/// share drifts by the minute; a job then waits for its slowest worker.
/// With one worker thread the steal falls to a few percent. Simulated
/// results do not depend on the count.
pub const ENGINE_WORKERS: usize = 1;

/// Panel cells are grouped into families for the per-family medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Relational,
    Core,
    CoreLex,
    CoreId,
    Ingest,
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub name: String,
    pub family: Family,
}

/// Deterministic counts of one operation, summed (or maxed) per pass.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub sim_s: f64,
    pub mr_cycles: u64,
    pub hdfs_write_bytes: u64,
    pub shuffle_bytes: u64,
    pub shuffle_wire_bytes: u64,
    pub jobs: u64,
    pub map_input_records: u64,
    pub map_output_records: u64,
    pub reduce_groups: u64,
    pub output_records: u64,
    pub peak_arena_bytes: u64,
    pub peak_spill_entries: u64,
    pub task_retries: u64,
    pub broadcast_bytes: u64,
    pub broadcast_cycles: u64,
    pub max_q_error: f64,
    pub dict_terms: u64,
    /// Triples put into the DFS.
    pub loaded_triples: u64,
    /// Encoded bytes the loads stored in the DFS.
    pub stored_bytes: u64,
    /// Input text bytes the loads came from.
    pub text_bytes: u64,
}

impl Counts {
    fn add_workflow(&mut self, s: &WorkflowStats) {
        self.sim_s += s.sim_seconds;
        self.mr_cycles += s.mr_cycles;
        self.hdfs_write_bytes += s.total_write_bytes();
        self.shuffle_bytes += s.total_shuffle_bytes();
        self.shuffle_wire_bytes += s.total_shuffle_wire_bytes();
        self.jobs += s.jobs.len() as u64;
        for j in &s.jobs {
            self.map_input_records += j.input_records;
            self.map_output_records += j.map_output_records;
            self.reduce_groups += j.reduce_groups;
            self.output_records += j.output_records;
            self.peak_arena_bytes = self.peak_arena_bytes.max(j.peak_arena_bytes);
            self.peak_spill_entries = self.peak_spill_entries.max(j.peak_spill_entries);
            self.task_retries += j.task_retries;
            self.broadcast_bytes += j.broadcast_bytes;
        }
        if let Some(q) = s.max_q_error() {
            self.max_q_error = self.max_q_error.max(q);
        }
    }

    /// Fold one operation's counts into a pass total.
    pub fn merge(&mut self, o: &Counts) {
        self.sim_s += o.sim_s;
        self.mr_cycles += o.mr_cycles;
        self.hdfs_write_bytes += o.hdfs_write_bytes;
        self.shuffle_bytes += o.shuffle_bytes;
        self.shuffle_wire_bytes += o.shuffle_wire_bytes;
        self.jobs += o.jobs;
        self.map_input_records += o.map_input_records;
        self.map_output_records += o.map_output_records;
        self.reduce_groups += o.reduce_groups;
        self.output_records += o.output_records;
        self.peak_arena_bytes = self.peak_arena_bytes.max(o.peak_arena_bytes);
        self.peak_spill_entries = self.peak_spill_entries.max(o.peak_spill_entries);
        self.task_retries += o.task_retries;
        self.broadcast_bytes += o.broadcast_bytes;
        self.broadcast_cycles += o.broadcast_cycles;
        self.max_q_error = self.max_q_error.max(o.max_q_error);
        self.dict_terms += o.dict_terms;
        self.loaded_triples += o.loaded_triples;
        self.stored_bytes += o.stored_bytes;
        self.text_bytes += o.text_bytes;
    }

    /// Exact serialization (floats as bit patterns) for the determinism
    /// self-check across passes and runs.
    pub fn exact(&self) -> String {
        format!(
            "sim_s={:016x} mr_cycles={} hdfs_write_bytes={} shuffle_bytes={} \
             shuffle_wire_bytes={} jobs={} map_input_records={} map_output_records={} \
             reduce_groups={} output_records={} peak_arena_bytes={} peak_spill_entries={} \
             task_retries={} broadcast_bytes={} broadcast_cycles={} max_q_error={:016x} \
             dict_terms={} loaded_triples={} stored_bytes={} text_bytes={}",
            self.sim_s.to_bits(),
            self.mr_cycles,
            self.hdfs_write_bytes,
            self.shuffle_bytes,
            self.shuffle_wire_bytes,
            self.jobs,
            self.map_input_records,
            self.map_output_records,
            self.reduce_groups,
            self.output_records,
            self.peak_arena_bytes,
            self.peak_spill_entries,
            self.task_retries,
            self.broadcast_bytes,
            self.broadcast_cycles,
            self.max_q_error.to_bits(),
            self.dict_terms,
            self.loaded_triples,
            self.stored_bytes,
            self.text_bytes,
        )
    }
}

/// What one operation reports.
#[derive(Debug)]
pub struct OpOut {
    /// Host time of the whole operation.
    pub latency_ns: u64,
    /// Host time spent ingesting: the DFS loads of a query operation's
    /// engine build, or the whole operation on `ingest`.
    pub ingest_ns: u64,
    pub counts: Counts,
    /// `Err` when the answer or the ingested data is wrong.
    pub verdict: Result<(), String>,
    /// Reference kernel time measured just before the operation (0 when
    /// none was measured).
    pub reference_ns: u64,
}

impl OpOut {
    /// An operation that produced no answer.
    pub fn failure(why: String) -> Self {
        OpOut {
            latency_ns: 0,
            ingest_ns: 0,
            counts: Counts::default(),
            verdict: Err(why),
            reference_ns: 0,
        }
    }
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_ns: u64,
    pub stats_ns: u64,
}

pub trait Workload: Send + Sync {
    fn cells(&self) -> &[Cell];
    /// Run one operation. `tracer` is `Some` in traced passes.
    fn run(&self, cell: usize, tracer: Option<&Arc<Tracer>>) -> OpOut;
    /// Hash of the generated data, for the seed self-checks.
    fn data_hash(&self) -> (u64, u64);
    /// `(triples, text bytes)` of the data the operations read.
    fn data_size(&self) -> (u64, u64);
    /// What the naive oracle must answer: key, query and store (empty for
    /// `ingest`).
    fn oracle_tasks(&self) -> Vec<(String, Query, &TripleStore)>;
    /// Install the oracle's answers, keyed as in [`Workload::oracle_tasks`].
    fn set_oracle(&mut self, oracle: BTreeMap<String, Fingerprint>);
}

pub const NAMES: [&str; 3] = ["bsbm_panel", "bio2rdf_costplan", "ingest"];

/// Set up workload `name` for `seed`, timing the parts.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, SetupTimes)> {
    match name {
        "bsbm_panel" => Some(BsbmPanel::setup(seed)),
        "bio2rdf_costplan" => Some(BioCostPlan::setup(seed)),
        "ingest" => Some(Ingest::setup(seed)),
        _ => None,
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("operation shorter than 584 years")
}

fn store_hash(store: &TripleStore) -> (u64, u64) {
    let mut h = Hasher2::default();
    for t in store.iter() {
        h.field(t.s.as_bytes());
        h.field(t.p.as_bytes());
        h.field(t.o.as_bytes());
    }
    h.finish()
}

fn new_engine(cost: &CostModel, tracer: Option<&Arc<Tracer>>) -> Engine {
    // Ample disk: every plan runs to completion.
    let engine =
        Engine::new(SimHdfs::unbounded()).with_cost(cost.clone()).with_workers(ENGINE_WORKERS);
    match tracer {
        Some(t) => engine.with_trace(t.clone()),
        None => engine,
    }
}

fn stored_bytes(engine: &Engine, file: &str) -> u64 {
    engine.hdfs().lock().get(file).map_or(0, |f| f.payload_bytes())
}

fn check_answer(
    oracle: &BTreeMap<String, Fingerprint>,
    query: &str,
    solutions: Option<&SolutionSet>,
) -> Result<(), String> {
    let got = Fingerprint::of(solutions.ok_or("workflow failed: no answers")?);
    match oracle.get(query) {
        Some(want) if *want == got => Ok(()),
        Some(want) => {
            Err(format!("{query}: {} answers differ from the oracle's {}", got.len, want.len))
        }
        None => Err(format!("{query}: no oracle answer")),
    }
}

// ---------------------------------------------------------------------------
// bsbm_panel
// ---------------------------------------------------------------------------

const PANEL_QUERIES: [&str; 4] = ["B0", "B1", "B2", "B4"];
const PANEL: [Approach; 4] =
    [Approach::Pig, Approach::Hive, Approach::NtgaEager, Approach::NtgaAuto(1024)];

pub struct BsbmPanel {
    /// One store and its scaled cost model per dataset.
    stores: Vec<(TripleStore, CostModel)>,
    queries: Vec<(String, String)>,
    cells: Vec<Cell>,
    oracle: BTreeMap<String, Fingerprint>,
}

impl BsbmPanel {
    fn setup(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
        let t = Instant::now();
        let stores: Vec<TripleStore> = (0..BSBM_DATASETS)
            .map(|d| {
                datagen::bsbm::generate(&datagen::BsbmConfig {
                    products: BSBM_PRODUCTS,
                    features: BSBM_FEATURES,
                    max_features_per_product: BSBM_MAX_FEATURES,
                    seed: seed.wrapping_mul(BSBM_DATASETS).wrapping_add(d),
                    ..datagen::BsbmConfig::default()
                })
            })
            .collect();
        let generate_ns = elapsed_ns(t);
        let stores = stores
            .into_iter()
            .map(|s| {
                let cost = CostModel::scaled_to(s.text_bytes());
                (s, cost)
            })
            .collect();
        let queries: Vec<(String, String)> = ntga::testbed::b_series()
            .into_iter()
            .filter(|q| PANEL_QUERIES.contains(&q.id.as_str()))
            .map(|q| (q.id, q.text))
            .collect();
        let mut cells = Vec::new();
        for d in 0..BSBM_DATASETS {
            for (id, _) in &queries {
                for a in PANEL {
                    let family = match a {
                        Approach::Pig | Approach::Hive => Family::Relational,
                        _ => Family::Core,
                    };
                    cells.push(Cell { name: format!("d{d}/{id}/{}", a.label()), family });
                }
            }
        }
        let w = BsbmPanel { stores, queries, cells, oracle: BTreeMap::new() };
        (Box::new(w), SetupTimes { generate_ns, stats_ns: 0 })
    }
}

impl Workload for BsbmPanel {
    fn cells(&self) -> &[Cell] {
        &self.cells
    }

    fn run(&self, cell: usize, tracer: Option<&Arc<Tracer>>) -> OpOut {
        let per_dataset = self.queries.len() * PANEL.len();
        let d = cell / per_dataset;
        let (store, cost) = &self.stores[d];
        let (id, text) = &self.queries[cell % per_dataset / PANEL.len()];
        let approach = PANEL[cell % PANEL.len()];
        let tr = tracer.map(|t| &**t);
        if let Some(t) = tr {
            t.begin_exec();
        }
        let start = Instant::now();
        let query = timed(tr, "query.parse", || parse_query(text));
        let query = match query {
            Ok(q) => q,
            Err(e) => return failed(tr, format!("{id}: parse: {e}")),
        };
        let engine = new_engine(cost, tracer);
        let load = Instant::now();
        let loaded = timed(tr, "mrrdf.load_store", || load_store(&engine, TRIPLES_FILE, store));
        let ingest_ns = elapsed_ns(load);
        if let Err(e) = loaded {
            return failed(tr, format!("load: {e}"));
        }
        let layer = match approach {
            Approach::Pig | Approach::Hive => CallLayer::Relational,
            _ => CallLayer::Core,
        };
        let run = call(tr, layer, || ntga::run_query(approach, &engine, &query, id, true));
        let latency_ns = elapsed_ns(start);
        if let Some(t) = tr {
            t.end_exec();
        }

        let mut counts = Counts {
            loaded_triples: store.len() as u64,
            stored_bytes: stored_bytes(&engine, TRIPLES_FILE),
            text_bytes: store.text_bytes(),
            ..Counts::default()
        };
        let verdict = match &run {
            Ok(run) => {
                counts.add_workflow(&run.stats);
                check_answer(&self.oracle, &format!("d{d}:{id}"), run.solutions.as_ref())
            }
            Err(e) => Err(format!("{id}/{}: {e}", approach.label())),
        };
        OpOut { latency_ns, ingest_ns, counts, verdict, reference_ns: 0 }
    }

    fn data_hash(&self) -> (u64, u64) {
        let mut h = Hasher2::default();
        for (s, _) in &self.stores {
            let (a, b) = store_hash(s);
            h.write(&a.to_le_bytes());
            h.write(&b.to_le_bytes());
        }
        h.finish()
    }

    fn data_size(&self) -> (u64, u64) {
        let triples = self.stores.iter().map(|(s, _)| s.len() as u64).sum();
        (triples, self.stores.iter().map(|(s, _)| s.text_bytes()).sum())
    }

    fn oracle_tasks(&self) -> Vec<(String, Query, &TripleStore)> {
        let mut tasks = Vec::new();
        for (d, (store, _)) in self.stores.iter().enumerate() {
            for (id, q) in parsed(&self.queries) {
                tasks.push((format!("d{d}:{id}"), q, store));
            }
        }
        tasks
    }

    fn set_oracle(&mut self, oracle: BTreeMap<String, Fingerprint>) {
        self.oracle = oracle;
    }
}

fn parsed(queries: &[(String, String)]) -> Vec<(String, Query)> {
    queries
        .iter()
        .map(|(id, text)| (id.clone(), parse_query(text).expect("testbed queries parse")))
        .collect()
}

/// An operation that failed before producing an answer; closes its spans.
fn failed(tracer: Option<&Tracer>, why: String) -> OpOut {
    if let Some(t) = tracer {
        t.end_exec();
    }
    OpOut::failure(why)
}

// ---------------------------------------------------------------------------
// bio2rdf_costplan
// ---------------------------------------------------------------------------

const PLANES: [(DataPlane, &str, Family); 2] =
    [(DataPlane::Lexical, "lex", Family::CoreLex), (DataPlane::Ids, "id", Family::CoreId)];

pub struct BioCostPlan {
    store: TripleStore,
    stats: StoreStats,
    cost: CostModel,
    queries: Vec<(String, String)>,
    cells: Vec<Cell>,
    oracle: BTreeMap<String, Fingerprint>,
}

impl BioCostPlan {
    fn setup(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
        let t = Instant::now();
        let store = datagen::bio2rdf::generate(&bio_config(BIO_GENES, seed));
        let generate_ns = elapsed_ns(t);
        let t = Instant::now();
        let stats = store.stats();
        let stats_ns = elapsed_ns(t);
        let cost = CostModel::scaled_to(store.text_bytes());
        let queries: Vec<(String, String)> =
            ntga::testbed::a_series().into_iter().map(|q| (q.id, q.text)).collect();
        let mut cells = Vec::new();
        for (id, _) in &queries {
            for (_, tag, family) in PLANES {
                cells.push(Cell { name: format!("{id}[{tag}]"), family });
            }
        }
        let w = BioCostPlan { store, stats, cost, queries, cells, oracle: BTreeMap::new() };
        (Box::new(w), SetupTimes { generate_ns, stats_ns })
    }
}

fn bio_config(genes: usize, seed: u64) -> datagen::Bio2RdfConfig {
    datagen::Bio2RdfConfig {
        genes,
        go_terms: genes * 2 / 5,
        references: genes,
        max_xref: 16,
        max_xgo: 4,
        multi_fraction: 0.8,
        seed,
    }
}

impl Workload for BioCostPlan {
    fn cells(&self) -> &[Cell] {
        &self.cells
    }

    fn run(&self, cell: usize, tracer: Option<&Arc<Tracer>>) -> OpOut {
        let (id, text) = &self.queries[cell / PLANES.len()];
        let (plane, _, _) = PLANES[cell % PLANES.len()];
        let tr = tracer.map(|t| &**t);
        if let Some(t) = tr {
            t.begin_exec();
        }
        let start = Instant::now();
        let query = match timed(tr, "query.parse", || parse_query(text)) {
            Ok(q) => q,
            Err(e) => return failed(tr, format!("{id}: parse: {e}")),
        };
        let engine = new_engine(&self.cost, tracer);
        let load = Instant::now();
        let mut dict = Dictionary::new();
        let loaded =
            timed(tr, "mrrdf.load_store", || load_store(&engine, TRIPLES_FILE, &self.store))
                .and_then(|()| match plane {
                    DataPlane::Lexical => Ok(()),
                    DataPlane::Ids => timed(tr, "mrrdf.load_store_ids", || {
                        load_store_ids(&engine, ID_TRIPLES_FILE, &self.store, &mut dict)
                    }),
                });
        let ingest_ns = elapsed_ns(load);
        if let Err(e) = loaded {
            return failed(tr, format!("load: {e}"));
        }
        let dict_terms = dict.len() as u64;
        let (engine, input) = match plane {
            DataPlane::Lexical => (engine, TRIPLES_FILE),
            DataPlane::Ids => (engine.with_dict(Arc::new(dict)), ID_TRIPLES_FILE),
        };
        let plan = timed(tr, "core.optimize", || {
            ntga_core::optimize(
                &query,
                &self.stats,
                &engine.cost,
                &OptimizerConfig::for_engine(&engine),
            )
        });
        let plan = match plan {
            Ok(p) => p,
            Err(e) => return failed(tr, format!("{id}: optimize: {e}")),
        };
        let run = call(tr, CallLayer::Core, || {
            ntga_core::execute_plan_on(plane, &plan, &engine, &query, input, id, true)
        });
        let latency_ns = elapsed_ns(start);
        if let Some(t) = tr {
            t.end_exec();
        }

        let mut counts = Counts {
            broadcast_cycles: plan.broadcast_cycles() as u64,
            dict_terms,
            loaded_triples: self.store.len() as u64,
            stored_bytes: stored_bytes(&engine, TRIPLES_FILE),
            text_bytes: self.store.text_bytes(),
            ..Counts::default()
        };
        if plane == DataPlane::Ids {
            counts.loaded_triples *= 2;
            counts.stored_bytes += stored_bytes(&engine, ID_TRIPLES_FILE);
            counts.text_bytes *= 2;
        }
        let verdict = match &run {
            Ok(run) => {
                counts.add_workflow(&run.stats);
                check_answer(&self.oracle, id, run.solutions.as_ref())
            }
            Err(e) => Err(format!("{id}: {e}")),
        };
        OpOut { latency_ns, ingest_ns, counts, verdict, reference_ns: 0 }
    }

    fn data_hash(&self) -> (u64, u64) {
        store_hash(&self.store)
    }

    fn data_size(&self) -> (u64, u64) {
        (self.store.len() as u64, self.store.text_bytes())
    }

    fn oracle_tasks(&self) -> Vec<(String, Query, &TripleStore)> {
        parsed(&self.queries).into_iter().map(|(id, q)| (id, q, &self.store)).collect()
    }

    fn set_oracle(&mut self, oracle: BTreeMap<String, Fingerprint>) {
        self.oracle = oracle;
    }
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

struct Document {
    /// The generator's store: the reference the ingested data must equal.
    store: TripleStore,
    text: String,
}

pub struct Ingest {
    docs: Vec<Document>,
    cells: Vec<Cell>,
}

impl Ingest {
    fn setup(seed: u64) -> (Box<dyn Workload>, SetupTimes) {
        let t = Instant::now();
        let stores = [
            (
                "bsbm",
                datagen::bsbm::generate(
                    &datagen::BsbmConfig::with_products(INGEST_BSBM_PRODUCTS).with_seed(seed),
                ),
            ),
            ("bio2rdf", datagen::bio2rdf::generate(&bio_config(INGEST_BIO_GENES, seed))),
            (
                "dbpedia",
                datagen::dbpedia::generate(
                    &datagen::DbpediaConfig::with_entities(INGEST_DBPEDIA_ENTITIES).with_seed(seed),
                ),
            ),
        ];
        let generate_ns = elapsed_ns(t);
        let mut docs = Vec::new();
        let mut cells = Vec::new();
        for (name, store) in stores {
            let mut text = Vec::with_capacity(store.text_bytes() as usize);
            rdf_model::write_ntriples(&mut text, &store).expect("writing to memory cannot fail");
            let text = String::from_utf8(text).expect("N-Triples rendering is UTF-8");
            docs.push(Document { store, text });
            cells.push(Cell { name: name.to_string(), family: Family::Ingest });
        }
        (Box::new(Ingest { docs, cells }), SetupTimes { generate_ns, stats_ns: 0 })
    }
}

impl Workload for Ingest {
    fn cells(&self) -> &[Cell] {
        &self.cells
    }

    fn run(&self, cell: usize, tracer: Option<&Arc<Tracer>>) -> OpOut {
        let doc = &self.docs[cell];
        let tr = tracer.map(|t| &**t);
        if let Some(t) = tr {
            t.begin_exec();
        }
        let start = Instant::now();
        let parsed =
            match timed(tr, "rdf.ntriples_parse", || rdf_model::read_ntriples(doc.text.as_bytes()))
            {
                Ok(s) => s,
                Err(e) => return failed(tr, format!("parse: {e}")),
            };
        let stats = timed(tr, "rdf.stats", || parsed.stats());
        // No job runs, so the engine is never traced.
        let engine = Engine::new(SimHdfs::unbounded()).with_workers(ENGINE_WORKERS);
        let mut dict = Dictionary::new();
        let loaded = timed(tr, "mrrdf.load_store", || load_store(&engine, TRIPLES_FILE, &parsed))
            .and_then(|()| {
                timed(tr, "mrrdf.load_store_ids", || {
                    load_store_ids(&engine, ID_TRIPLES_FILE, &parsed, &mut dict)
                })
            })
            .and_then(|()| timed(tr, "mrrdf.read_store", || read_store(&engine, TRIPLES_FILE)));
        let latency_ns = elapsed_ns(start);
        if let Some(t) = tr {
            t.end_exec();
        }

        let usage = engine.hdfs().lock().usage();
        let counts = Counts {
            dict_terms: dict.len() as u64,
            hdfs_write_bytes: usage,
            loaded_triples: parsed.len() as u64,
            stored_bytes: stored_bytes(&engine, TRIPLES_FILE)
                + stored_bytes(&engine, ID_TRIPLES_FILE),
            text_bytes: doc.text.len() as u64,
            ..Counts::default()
        };
        let verdict = loaded.map_err(|e| format!("load: {e}")).and_then(|readback| {
            if parsed.triples() != doc.store.triples() {
                return Err(format!("{}: parsed store differs from the generated one", cell));
            }
            if readback.triples() != parsed.triples() {
                return Err(format!("{}: read-back store differs from the parsed one", cell));
            }
            if stats.triples != parsed.len() as u64 {
                return Err(format!("{}: statistics count {} triples", cell, stats.triples));
            }
            match (0..dict.len() as u32).find(|&id| dict.resolve(id).is_err()) {
                Some(id) => Err(format!("{}: dictionary id {id} does not resolve", cell)),
                None => Ok(()),
            }
        });
        OpOut { latency_ns, ingest_ns: latency_ns, counts, verdict, reference_ns: 0 }
    }

    fn data_hash(&self) -> (u64, u64) {
        let mut h = Hasher2::default();
        for d in &self.docs {
            h.field(d.text.as_bytes());
        }
        h.finish()
    }

    fn data_size(&self) -> (u64, u64) {
        let triples = self.docs.iter().map(|d| d.store.len() as u64).sum();
        let bytes = self.docs.iter().map(|d| d.text.len() as u64).sum();
        (triples, bytes)
    }

    fn oracle_tasks(&self) -> Vec<(String, Query, &TripleStore)> {
        Vec::new()
    }

    fn set_oracle(&mut self, _: BTreeMap<String, Fingerprint>) {}
}
