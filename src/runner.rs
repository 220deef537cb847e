//! Uniform runner over every execution approach the paper compares.

use mr_rdf::{load_store, PlanError, QueryRun, TRIPLES_FILE};
use mrsim::{CostModel, Engine, FaultConfig, RecoveryPolicy, SimHdfs, TraceSink};
use ntga_core::{DataPlane, OptimizerConfig, Strategy};
use rdf_model::TripleStore;
use rdf_query::Query;
use relbase::{Grouping, RelFlavor};
use std::str::FromStr;
use std::sync::Arc;

/// An execution approach from the paper's evaluation.
///
/// Parsed from one spelling grammar ([`FromStr`]): `pig`, `hive`, `eager`,
/// `lazy` (also `lazyfull`, `lazy-full`), `partial[:M]` (also
/// `lazy-partial:M`), `auto[:M]`, and `auto-cost` (also `cost`); `M` is the
/// φ range and defaults to 1024. The Figure 3 groupings have no spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Apache-Pig-like relational plan.
    Pig,
    /// Apache-Hive-like relational plan.
    Hive,
    /// NTGA with eager β-unnesting.
    NtgaEager,
    /// NTGA with lazy full β-unnesting (`TG_UnbJoin`).
    NtgaLazyFull,
    /// NTGA with lazy partial β-unnesting (`TG_OptUnbJoin`, `φ_m`).
    NtgaLazyPartial(u64),
    /// NTGA with the paper's recommended policy (full for partially-bound
    /// objects, partial otherwise).
    NtgaAuto(u64),
    /// NTGA with cost-based plan selection: per-star unnest placement,
    /// per-cycle exact/partial/broadcast choice and reducer sizing derived
    /// from [`rdf_model::StoreStats`] and the engine's cost model.
    NtgaAutoCost,
    /// A Figure 3 star-join grouping (two-star bound-property queries).
    Grouping(Grouping),
}

impl Approach {
    /// Report label, as fig `--json` rows carry it.
    pub fn label(self) -> String {
        match self {
            Approach::Pig => RelFlavor::Pig.label().into(),
            Approach::Hive => RelFlavor::Hive.label().into(),
            Approach::NtgaAutoCost => "CostBased".into(),
            Approach::Grouping(g) => g.label().into(),
            hand_picked => hand_picked.strategy().expect("a hand-picked NTGA strategy").label(),
        }
    }

    /// The hand-picked NTGA strategy this approach runs; `None` for the
    /// relational plans, the groupings and the cost-based optimizer.
    pub fn strategy(self) -> Option<Strategy> {
        match self {
            Approach::NtgaEager => Some(Strategy::Eager),
            Approach::NtgaLazyFull => Some(Strategy::LazyFull),
            Approach::NtgaLazyPartial(m) => Some(Strategy::LazyPartial(m)),
            Approach::NtgaAuto(m) => Some(Strategy::Auto(m)),
            _ => None,
        }
    }
}

impl FromStr for Approach {
    type Err = String;

    fn from_str(spec: &str) -> Result<Approach, String> {
        let (name, arg) = match spec.split_once(':') {
            Some((name, arg)) => (name, Some(arg)),
            None => (spec, None),
        };
        let phi = || {
            arg.unwrap_or("1024")
                .parse()
                .map_err(|_| format!("bad φ range in '{spec}' (expected an integer)"))
        };
        match (name, arg) {
            ("pig", None) => Ok(Approach::Pig),
            ("hive", None) => Ok(Approach::Hive),
            ("eager", None) => Ok(Approach::NtgaEager),
            ("lazy" | "lazyfull" | "lazy-full", None) => Ok(Approach::NtgaLazyFull),
            ("partial" | "lazy-partial", _) => Ok(Approach::NtgaLazyPartial(phi()?)),
            ("auto", _) => Ok(Approach::NtgaAuto(phi()?)),
            ("auto-cost" | "cost", None) => Ok(Approach::NtgaAutoCost),
            _ => Err(format!(
                "unknown approach '{spec}' (expected pig, hive, eager, lazy, partial[:M], \
                 auto[:M] or auto-cost)"
            )),
        }
    }
}

/// Run one query with one approach against a triple relation already
/// loaded at [`TRIPLES_FILE`]. `label` names the run's jobs and files;
/// fault draws hash those names, so it fixes which faults the run meets.
pub fn run_query(
    approach: Approach,
    engine: &Engine,
    query: &Query,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    let input = TRIPLES_FILE;
    let plan = match approach {
        Approach::Pig | Approach::Hive => {
            let flavor = if approach == Approach::Pig { RelFlavor::Pig } else { RelFlavor::Hive };
            return relbase::execute(flavor, engine, query, input, label, extract_solutions);
        }
        Approach::Grouping(g) => {
            return relbase::execute_grouping(g, engine, query, input, label, extract_solutions)
        }
        Approach::NtgaAutoCost => {
            // ANALYZE step: derive statistics from the relation the engine
            // actually holds, then plan against them under the engine's
            // own cost model and physical limits.
            let stats = mr_rdf::read_store(engine, input)
                .map_err(|e| PlanError::Internal(format!("reading {input}: {e}")))?
                .stats();
            ntga_core::optimize(query, &stats, &engine.cost, &OptimizerConfig::for_engine(engine))?
        }
        hand_picked => hand_picked.strategy().expect("a hand-picked NTGA strategy").plan(query)?,
    };
    ntga_core::execute_plan_on(
        DataPlane::Lexical,
        &plan,
        engine,
        query,
        input,
        label,
        extract_solutions,
    )
}

/// Describes the simulated cluster for an experiment.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of nodes (the paper uses 5–80).
    pub nodes: u32,
    /// Disk bytes per node (the paper's VCL nodes had only 20 GB).
    pub disk_per_node: u64,
    /// HDFS replication factor (`dfs.replication`; 1 or 2 in the paper).
    pub replication: u32,
    /// Cost model.
    pub cost: CostModel,
    /// Deterministic fault injection applied to every engine this config
    /// builds (default: no faults).
    pub faults: FaultConfig,
    /// Recovery policy workflows inherit (default: fail fast, the paper's
    /// behavior).
    pub recovery: RecoveryPolicy,
    /// Worker-thread override; `None` uses one worker per core.
    pub workers: Option<usize>,
    /// Optional trace sink attached to every engine this config builds;
    /// `None` keeps tracing disabled (and free).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Fill per-job histogram metrics (task durations, partition bytes,
    /// record sizes, group widths) on every engine this config builds.
    /// Off by default: the map-emit hot path stays allocation-free.
    pub profiling: bool,
}

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("nodes", &self.nodes)
            .field("disk_per_node", &self.disk_per_node)
            .field("replication", &self.replication)
            .field("cost", &self.cost)
            .field("faults", &self.faults)
            .field("recovery", &self.recovery)
            .field("workers", &self.workers)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .field("profiling", &self.profiling)
            .finish()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 60,
            disk_per_node: u64::MAX / 60, // effectively unbounded
            replication: 1,
            cost: CostModel::default(),
            faults: FaultConfig::none(),
            recovery: RecoveryPolicy::FailFast,
            workers: None,
            trace: None,
            profiling: false,
        }
    }
}

impl ClusterConfig {
    /// Build a fresh engine with the triple store loaded at
    /// [`TRIPLES_FILE`].
    pub fn engine_with(&self, store: &TripleStore) -> Engine {
        let capacity = if self.disk_per_node == u64::MAX / u64::from(self.nodes.max(1)) {
            u64::MAX
        } else {
            u64::from(self.nodes).saturating_mul(self.disk_per_node)
        };
        let mut engine = Engine::new(SimHdfs::new(capacity, self.replication))
            .with_cost(self.cost.clone())
            .with_faults(self.faults.clone())
            .with_recovery(self.recovery)
            .with_profiling(self.profiling);
        if let Some(workers) = self.workers {
            engine = engine.with_workers(workers);
        }
        if let Some(sink) = &self.trace {
            engine = engine.with_trace(sink.clone());
        }
        load_store(&engine, TRIPLES_FILE, store).expect("input must fit in the cluster");
        engine
    }

    /// Attach a trace sink to every engine built from this config.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Enable histogram profiling on every engine built from this config.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Enable deterministic fault injection on every engine built from
    /// this config.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Set the recovery policy workflows inherit.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Pin the worker-thread count (simulated runs are deterministic
    /// either way; this exercises scheduling variety in tests).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Constrain the disk to `factor ×` the input's replicated size — the
    /// way the paper's 20 GB-per-node clusters were tight relative to
    /// their datasets.
    pub fn tight_disk(mut self, store: &TripleStore, factor: f64) -> Self {
        let input = store.text_bytes() * u64::from(self.replication);
        let total = (input as f64 * factor) as u64;
        self.disk_per_node = (total / u64::from(self.nodes.max(1))).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::STriple;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<go1>", "<gl>", "\"x\""),
        ])
    }

    #[test]
    fn all_approaches_run_and_agree() {
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
                .unwrap();
        let store = store();
        let gold = rdf_query::naive::evaluate(&q, &store);
        for approach in [
            Approach::Pig,
            Approach::Hive,
            Approach::NtgaEager,
            Approach::NtgaLazyFull,
            Approach::NtgaLazyPartial(16),
            Approach::NtgaAuto(16),
            Approach::NtgaAutoCost,
        ] {
            let engine = ClusterConfig::default().engine_with(&store);
            let run = run_query(approach, &engine, &q, "t", true).unwrap();
            assert!(run.succeeded(), "{approach:?}");
            assert_eq!(run.solutions.unwrap(), gold, "{approach:?}");
        }

        // The Figure 3 groupings cover two-star bound-property queries.
        let q = rdf_query::parse_query(
            "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }",
        )
        .unwrap();
        let gold = rdf_query::naive::evaluate(&q, &store);
        for grouping in [Grouping::SjPerCycle, Grouping::SelSjFirst] {
            let engine = ClusterConfig::default().engine_with(&store);
            let run = run_query(Approach::Grouping(grouping), &engine, &q, "t", true).unwrap();
            assert!(run.succeeded(), "{grouping:?}");
            assert_eq!(run.solutions.unwrap(), gold, "{grouping:?}");
        }
    }

    #[test]
    fn large_cluster_with_default_disk_runs() {
        // 80 nodes (the paper's largest cluster) times the default
        // per-node disk exceeds u64; the capacity saturates instead of
        // overflowing.
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
                .unwrap();
        let engine = ClusterConfig { nodes: 80, ..Default::default() }.engine_with(&store());
        let run = run_query(Approach::NtgaEager, &engine, &q, "t", false).unwrap();
        assert!(run.succeeded());
    }

    #[test]
    fn tight_disk_fails_relational_only() {
        let q =
            rdf_query::parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }")
                .unwrap();
        let store = store();
        // Just enough room for input + tiny intermediates.
        let cfg = ClusterConfig { replication: 1, ..Default::default() }.tight_disk(&store, 1.6);
        let engine = cfg.engine_with(&store);
        let pig = run_query(Approach::Pig, &engine, &q, "t", false).unwrap();
        assert!(!pig.succeeded());
    }

    #[test]
    fn labels_are_distinct() {
        // Golden: the exact labels fig `--json` rows carry.
        let golden = [
            (Approach::Pig, "Pig"),
            (Approach::Hive, "Hive"),
            (Approach::NtgaEager, "EagerUnnest"),
            (Approach::NtgaLazyFull, "LazyUnnest(full)"),
            (Approach::NtgaLazyPartial(16), "LazyUnnest(phi_16)"),
            (Approach::NtgaAuto(1024), "LazyUnnest(auto,phi_1024)"),
            (Approach::NtgaAutoCost, "CostBased"),
            (Approach::Grouping(Grouping::SjPerCycle), "SJ-per-cycle"),
            (Approach::Grouping(Grouping::SelSjFirst), "Sel-SJ-first"),
        ];
        for (approach, label) in golden {
            assert_eq!(approach.label(), label, "{approach:?}");
        }
        let mut labels: Vec<String> = golden.iter().map(|(a, _)| a.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), golden.len());
    }

    #[test]
    fn every_spelling_parses() {
        let accepted = [
            ("pig", Approach::Pig),
            ("hive", Approach::Hive),
            ("eager", Approach::NtgaEager),
            ("lazy", Approach::NtgaLazyFull),
            ("lazyfull", Approach::NtgaLazyFull),
            ("lazy-full", Approach::NtgaLazyFull),
            ("partial", Approach::NtgaLazyPartial(1024)),
            ("partial:16", Approach::NtgaLazyPartial(16)),
            ("lazy-partial:32", Approach::NtgaLazyPartial(32)),
            ("auto", Approach::NtgaAuto(1024)),
            ("auto:8", Approach::NtgaAuto(8)),
            ("auto-cost", Approach::NtgaAutoCost),
            ("cost", Approach::NtgaAutoCost),
        ];
        for (spec, approach) in accepted {
            assert_eq!(spec.parse::<Approach>(), Ok(approach), "{spec}");
        }
        for spec in ["magic", "partial:x", "lazy-partial:", "auto:x", "pig:2", "", "Pig"] {
            assert!(spec.parse::<Approach>().is_err(), "{spec} must be rejected");
        }
    }
}
