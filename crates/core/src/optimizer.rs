//! The physical plan, its search, and its one executor: statistics →
//! [`PhysicalPlan`] → workflow.
//!
//! Every NTGA query runs as a [`PhysicalPlan`] through [`execute_plan_on`].
//! A hand-picked [`crate::Strategy`] lowers to one fixed point of the plan
//! space ([`crate::Strategy::plan`]); [`optimize`] searches the space from
//! store statistics, closing the loop the paper leaves to "the optimizer":
//! it consumes [`rdf_query::estimate`] cardinalities (star
//! subject/row/pair counts under the containment assumption) and prices
//! candidate physical operators through [`mrsim::CostModel`], choosing
//!
//! * **per star** whether Job 1 β-unnests eagerly (perfect triplegroups,
//!   full redundancy up front) or stays nested (lazy), via
//!   [`crate::physical::group_filter_job`];
//! * **per join cycle** the join algorithm — reduce-side [`UnnestMode::Exact`]
//!   (`TG_Join`/`TG_UnbJoin`), reduce-side [`UnnestMode::Partial`] with a
//!   priced φ granularity (`TG_OptUnbJoin`), or the map-side broadcast join
//!   [`crate::physical::tg_broadcast_join_job`] (`TG_BcastJoin`) that ships
//!   the small side through the distributed cache and **collapses the
//!   entire reduce cycle** when the estimate clears the broadcast budget;
//! * **per job** a reduce-task count sized to the estimated shuffle bytes.
//!
//! Every job of a priced plan carries its estimated output cardinality
//! ([`mrsim::JobSpec::with_estimated_output`]), so executed plans report
//! per-job q-error through [`mrsim::JobStats::q_error`] and the trace's
//! `cardinality_estimate` events — the feedback signal that tells you when
//! the estimator, not the executor, is the problem. Lowered strategies
//! carry no estimates and report no q-error.

use crate::physical::{
    group_filter_job, role_of, tg_broadcast_join_job, tg_join_job, BuildSide, JoinRole, JoinSide,
    UnnestMode,
};
use crate::tg::{AnnTg, TgTuple};
use mr_rdf::{check_query, PlanError, QueryRun};
use mrsim::{CostModel, Engine, JobStats, Workflow};
use rdf_model::Atom;
use rdf_model::StoreStats;
use rdf_query::estimate::{
    pattern_cardinality, star_pair_cardinality, star_row_cardinality, star_subject_cardinality,
};
use rdf_query::{AnswerRow, PropPattern, Query, SlotLayout, SolutionSet, StarPattern};
use std::collections::HashSet;

/// Tunables for plan search. [`OptimizerConfig::for_engine`] copies the
/// physical limits (broadcast budget, block size) from an engine so plans
/// are priced against the cluster that will run them.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Broadcast jobs are only considered when the estimated build side
    /// fits this many bytes (mirror of `Engine::broadcast_budget_bytes`).
    pub broadcast_budget_bytes: u64,
    /// DFS block size used to estimate map-task counts (each map task
    /// pulls one copy of the broadcast payload).
    pub block_size: u64,
    /// Target shuffle bytes per reduce task when sizing reducer counts.
    pub reducer_target_bytes: u64,
    /// Upper bound on sized reducer counts.
    pub max_reduce_tasks: usize,
    /// φ granularities considered for partial unnest.
    pub phi_candidates: Vec<u64>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            broadcast_budget_bytes: 64 * 1024 * 1024,
            block_size: 256 * 1024 * 1024,
            reducer_target_bytes: 32 * 1024 * 1024,
            max_reduce_tasks: 64,
            phi_candidates: vec![16, 1024],
        }
    }
}

impl OptimizerConfig {
    /// A config whose physical limits match `engine`'s.
    pub fn for_engine(engine: &Engine) -> Self {
        OptimizerConfig {
            broadcast_budget_bytes: engine.broadcast_budget_bytes,
            block_size: engine.block_size,
            ..OptimizerConfig::default()
        }
    }
}

/// The join algorithm chosen for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Reduce-side triplegroup join ([`crate::physical::tg_join_job`]).
    Reduce {
        /// Map-side unnest mode (exact or φ-partial).
        mode: UnnestMode,
        /// Reduce-task count sized to the estimated shuffle bytes.
        reduce_tasks: usize,
    },
    /// Map-side broadcast join ([`crate::physical::tg_broadcast_join_job`]):
    /// no shuffle, no reduce phase.
    Broadcast {
        /// Which side ships through the distributed cache.
        build: BuildSide,
    },
}

/// The plan for one join cycle.
#[derive(Debug, Clone)]
pub struct CyclePlan {
    /// Chosen algorithm.
    pub algo: JoinAlgo,
    /// Estimated join output cardinality (records); `None` for a lowered
    /// strategy, whose other `estimated_*` figures are zero.
    pub estimated_output_records: Option<f64>,
    /// Estimated join output size in text bytes.
    pub estimated_output_bytes: f64,
    /// Estimated shuffle bytes (0 for broadcast cycles).
    pub estimated_shuffle_bytes: u64,
    /// Estimated cost of this cycle in simulated seconds.
    pub estimated_seconds: f64,
}

/// A fully-decided physical plan for a query: either priced by
/// [`optimize`] or lowered from a hand-picked [`crate::Strategy`].
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Workflow name prefix: a run labelled `q` is named `{workflow}/q`
    /// (`NTGA-CostBased`, or `NTGA-` plus the lowered strategy's label).
    pub workflow: String,
    /// Per-star Job 1 unnest placement (`true` = eager β-unnest in the
    /// grouping reduce, `false` = stay nested).
    pub eager_stars: Vec<bool>,
    /// Reduce-task count for Job 1, sized to the estimated shuffle.
    pub job1_reduce_tasks: usize,
    /// Estimated total records Job 1 writes across all equivalence classes;
    /// `None` for a lowered strategy, which is unpriced.
    pub estimated_job1_records: Option<f64>,
    /// Estimated total text bytes Job 1 writes across all equivalence classes.
    pub estimated_job1_bytes: f64,
    /// Estimated records per equivalence-class file (one entry per star,
    /// under the chosen eager/lazy placement) — the per-star breakdown of
    /// [`PhysicalPlan::estimated_job1_records`] that `explain_analyze`
    /// joins against measured per-star admissions.
    pub estimated_star_records: Vec<f64>,
    /// Estimated cost of Job 1 in simulated seconds.
    pub estimated_job1_seconds: f64,
    /// One entry per join cycle, in left-deep join-schedule order.
    pub cycles: Vec<CyclePlan>,
    /// Estimated total plan cost in simulated seconds.
    pub estimated_seconds: f64,
}

impl PhysicalPlan {
    /// Number of reduce cycles the broadcast operator collapsed.
    pub fn broadcast_cycles(&self) -> usize {
        self.cycles.iter().filter(|c| matches!(c.algo, JoinAlgo::Broadcast { .. })).count()
    }

    /// One-line human summary, e.g. `eager=[false,true] j1r=4 [bcast(R), reduce(exact,r=2)]`.
    pub fn summary(&self) -> String {
        let eager: Vec<&str> =
            self.eager_stars.iter().map(|&e| if e { "eager" } else { "lazy" }).collect();
        let cycles: Vec<String> = self
            .cycles
            .iter()
            .map(|c| match c.algo {
                JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks } => {
                    format!("reduce(exact,r={reduce_tasks})")
                }
                JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks } => {
                    format!("reduce(phi_{m},r={reduce_tasks})")
                }
                JoinAlgo::Broadcast { build: BuildSide::Left } => "bcast(L)".into(),
                JoinAlgo::Broadcast { build: BuildSide::Right } => "bcast(R)".into(),
            })
            .collect();
        format!(
            "stars=[{}] j1r={} cycles=[{}] est={:.1}s",
            eager.join(","),
            self.job1_reduce_tasks,
            cycles.join(","),
            self.estimated_seconds
        )
    }
}

// ---------------------------------------------------------------------------
// Left-deep join schedule (shared by lowering, search, explain and execution)
// ---------------------------------------------------------------------------

/// One step of the left-deep join order: join star `other` into the
/// accumulated left relation, whose component `lpos` (star `l_star`)
/// carries the join variable `var` under `lrole`.
#[derive(Debug, Clone)]
pub(crate) struct CycleStep {
    pub(crate) var: String,
    pub(crate) other: usize,
    pub(crate) lpos: usize,
    pub(crate) l_star: usize,
    pub(crate) lrole: JoinRole,
    pub(crate) rrole: JoinRole,
}

/// Validate `query` and derive its left-deep join schedule: starting from
/// star 0, repeatedly join the first star the join graph connects to the
/// stars joined so far. Every plan decision lines up one-to-one with the
/// jobs this schedule runs.
pub(crate) fn join_schedule(query: &Query) -> Result<Vec<CycleStep>, PlanError> {
    query.validate()?;
    check_query(query)?;
    let edges = query.join_edges();
    let mut joined: HashSet<usize> = HashSet::from([0]);
    let mut components: Vec<usize> = vec![0];
    let mut steps = Vec::new();
    while joined.len() < query.stars.len() {
        let edge = edges
            .iter()
            .find(|e| joined.contains(&e.left) != joined.contains(&e.right))
            .ok_or_else(|| PlanError::Internal("join graph not connected".into()))?;
        let other = if joined.contains(&edge.left) { edge.right } else { edge.left };
        let (lpos, lrole) = components
            .iter()
            .enumerate()
            .find_map(|(pos, &star_idx)| {
                role_of(&query.stars[star_idx], &edge.var).map(|r| (pos, r))
            })
            .ok_or_else(|| PlanError::Internal("join var missing on left".into()))?;
        let rrole = role_of(&query.stars[other], &edge.var)
            .ok_or_else(|| PlanError::Internal("join var missing on right".into()))?;
        steps.push(CycleStep {
            var: edge.var.clone(),
            other,
            lpos,
            l_star: components[lpos],
            lrole,
            rrole,
        });
        joined.insert(other);
        components.push(other);
    }
    Ok(steps)
}

// ---------------------------------------------------------------------------
// Cardinality/byte estimation
// ---------------------------------------------------------------------------

/// Estimated size of a triplegroup relation.
#[derive(Debug, Clone, Copy)]
struct RelEst {
    records: f64,
    bytes: f64,
}

impl RelEst {
    fn avg_bytes(&self) -> f64 {
        if self.records < 1.0 {
            0.0
        } else {
            self.bytes / self.records
        }
    }
}

/// Per-star base estimates.
#[derive(Debug, Clone, Copy)]
struct StarEst {
    subjects: f64,
    rows: f64,
    pairs: f64,
    npat: f64,
}

fn star_estimates(star: &StarPattern, stats: &StoreStats) -> StarEst {
    StarEst {
        subjects: star_subject_cardinality(star, stats),
        rows: star_row_cardinality(star, stats),
        pairs: star_pair_cardinality(star, stats),
        npat: star.patterns.len() as f64,
    }
}

/// Mean text bytes per `(property, object)` pair, from whole-store stats.
fn bytes_per_pair(stats: &StoreStats) -> f64 {
    if stats.triples == 0 {
        0.0
    } else {
        (stats.text_bytes as f64 / stats.triples as f64).max(1.0)
    }
}

/// Estimated equivalence-class relation written by Job 1 for one star.
fn ec_estimate(est: StarEst, eager: bool, bpp: f64) -> RelEst {
    if eager {
        // One perfect triplegroup per flat row, npat pairs each.
        RelEst { records: est.rows, bytes: est.rows * est.npat * bpp }
    } else {
        // One nested triplegroup per matching subject, candidates stored once.
        RelEst { records: est.subjects, bytes: est.pairs * bpp }
    }
}

/// How one side of a join expands when its role is evaluated.
#[derive(Debug, Clone, Copy)]
struct SideExp {
    /// Records one input record becomes under a full (exact) unnest.
    exp: f64,
    /// Bytes of the expanded candidate list within one input record.
    cand_bytes: f64,
    /// Estimated distinct join keys on this side.
    keys: f64,
}

fn side_expansion(
    star: &StarPattern,
    role: JoinRole,
    eager: bool,
    stats: &StoreStats,
    bpp: f64,
) -> SideExp {
    let subjects = (stats.distinct_subjects as f64).max(1.0);
    match role {
        JoinRole::Subject => {
            SideExp { exp: 1.0, cand_bytes: 0.0, keys: star_subject_cardinality(star, stats) }
        }
        JoinRole::BoundObj(b) => {
            let pat = &star.bound_patterns()[b];
            let (mult, keys) = match &pat.property {
                PropPattern::Bound(p) => {
                    stats.per_property.get(p).map_or((1.0, stats.distinct_objects as f64), |ps| {
                        (ps.mean_multiplicity, ps.distinct_objects as f64)
                    })
                }
                PropPattern::Unbound(_) => (1.0, stats.distinct_objects as f64),
            };
            let exp = if eager { 1.0 } else { mult.max(1.0) };
            SideExp { exp, cand_bytes: exp * bpp, keys }
        }
        JoinRole::UnboundObj(u) => {
            let pat = &star.unbound_patterns()[u];
            let cand = (pattern_cardinality(pat, stats) / subjects).max(1.0);
            let exp = if eager { 1.0 } else { cand };
            SideExp { exp, cand_bytes: exp * bpp, keys: stats.distinct_objects as f64 }
        }
    }
}

/// What one side ships across the shuffle under a mode: record count and
/// bytes after the map-side expansion (exact pins one candidate per
/// record; φ-partial splits the candidate list over `min(exp, m)` nested
/// records, each carrying the full base).
fn shipped(rel: RelEst, side: SideExp, mode: UnnestMode, bpp: f64) -> RelEst {
    let base = (rel.avg_bytes() - side.cand_bytes).max(0.0);
    let pin = if side.cand_bytes > 0.0 { bpp } else { 0.0 };
    match mode {
        UnnestMode::Exact => {
            let records = rel.records * side.exp;
            RelEst { records, bytes: records * (base + pin) }
        }
        UnnestMode::Partial(m) => {
            let k = side.exp.min(m as f64).max(1.0);
            RelEst { records: rel.records * k, bytes: rel.records * (k * base + side.cand_bytes) }
        }
    }
}

/// Estimated join output: fully-expanded matches under the standard
/// `|L| · |R| / max(V(L,k), V(R,k))` formula, each output record carrying
/// one pinned record from each side.
fn join_output(l: RelEst, lexp: SideExp, r: RelEst, rexp: SideExp, bpp: f64) -> RelEst {
    let keys = lexp.keys.max(rexp.keys).max(1.0);
    let records = (l.records * lexp.exp) * (r.records * rexp.exp) / keys;
    let l_pinned =
        (l.avg_bytes() - lexp.cand_bytes).max(0.0) + if lexp.cand_bytes > 0.0 { bpp } else { 0.0 };
    let r_pinned =
        (r.avg_bytes() - rexp.cand_bytes).max(0.0) + if rexp.cand_bytes > 0.0 { bpp } else { 0.0 };
    RelEst { records, bytes: records * (l_pinned + r_pinned) }
}

fn r64(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        x.round() as u64
    } else {
        0
    }
}

fn size_reducers(shuffle_bytes: f64, config: &OptimizerConfig) -> usize {
    let target = config.reducer_target_bytes.max(1) as f64;
    let n = (shuffle_bytes / target).ceil();
    (n as usize).clamp(1, config.max_reduce_tasks.max(1))
}

// ---------------------------------------------------------------------------
// Candidate pricing
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn price_reduce_join(
    cost: &CostModel,
    l: RelEst,
    lexp: SideExp,
    r: RelEst,
    rexp: SideExp,
    mode: UnnestMode,
    out: RelEst,
    bpp: f64,
    config: &OptimizerConfig,
) -> (f64, u64, usize) {
    let ls = shipped(l, lexp, mode, bpp);
    let rs = shipped(r, rexp, mode, bpp);
    let shuffle_bytes = ls.bytes + rs.bytes;
    let reduce_tasks = size_reducers(shuffle_bytes, config);
    let stats = JobStats {
        input_records: r64(l.records + r.records),
        hdfs_read_bytes: r64(l.bytes + r.bytes),
        map_output_records: r64(ls.records + rs.records),
        map_output_bytes: r64(shuffle_bytes),
        reduce_input_records: r64(ls.records + rs.records),
        output_records: r64(out.records),
        output_text_bytes: r64(out.bytes),
        hdfs_write_bytes: r64(out.bytes),
        reduce_tasks: reduce_tasks as u64,
        ..JobStats::default()
    };
    (cost.job_seconds(&stats), r64(shuffle_bytes), reduce_tasks)
}

fn price_broadcast_join(
    cost: &CostModel,
    build: RelEst,
    probe: RelEst,
    out: RelEst,
    config: &OptimizerConfig,
) -> f64 {
    let map_tasks = (r64(probe.bytes).div_ceil(config.block_size.max(1))).max(1);
    let stats = JobStats {
        input_records: r64(probe.records),
        hdfs_read_bytes: r64(probe.bytes),
        broadcast_files: 1,
        broadcast_bytes: r64(build.bytes),
        broadcast_ship_bytes: r64(build.bytes) * map_tasks,
        output_records: r64(out.records),
        output_text_bytes: r64(out.bytes),
        hdfs_write_bytes: r64(out.bytes),
        reduce_tasks: 0,
        ..JobStats::default()
    };
    cost.job_seconds(&stats)
}

fn price_job1(
    cost: &CostModel,
    stats: &StoreStats,
    ecs: &[RelEst],
    star_ests: &[StarEst],
    config: &OptimizerConfig,
) -> (f64, usize, f64) {
    let triples = stats.triples as f64;
    let bpp = bytes_per_pair(stats);
    // Each relevant triple ships once regardless of how many stars want it.
    let shipped_pairs = star_ests.iter().map(|e| e.pairs).sum::<f64>().min(triples);
    let shuffle_bytes = shipped_pairs * bpp;
    let out_records: f64 = ecs.iter().map(|e| e.records).sum();
    let out_bytes: f64 = ecs.iter().map(|e| e.bytes).sum();
    let reduce_tasks = size_reducers(shuffle_bytes, config);
    let js = JobStats {
        input_records: stats.triples,
        hdfs_read_bytes: stats.text_bytes,
        map_output_records: r64(shipped_pairs),
        map_output_bytes: r64(shuffle_bytes),
        reduce_input_records: r64(shipped_pairs),
        output_records: r64(out_records),
        output_text_bytes: r64(out_bytes),
        hdfs_write_bytes: r64(out_bytes),
        reduce_tasks: reduce_tasks as u64,
        ..JobStats::default()
    };
    (cost.job_seconds(&js), reduce_tasks, out_records)
}

// ---------------------------------------------------------------------------
// Plan search
// ---------------------------------------------------------------------------

/// Derive a [`PhysicalPlan`] for `query` over a store described by `stats`,
/// priced under `cost`.
///
/// The search enumerates per-star eager/lazy placements (2^n for the
/// query's n stars — star counts are small) and, for each placement,
/// independently picks the cheapest algorithm per join cycle from
/// {reduce-exact, reduce-partial(φ) for each configured φ, broadcast with
/// either side as build when it fits the budget}. The cheapest total wins.
pub fn optimize(
    query: &Query,
    stats: &StoreStats,
    cost: &CostModel,
    config: &OptimizerConfig,
) -> Result<PhysicalPlan, PlanError> {
    let steps = join_schedule(query)?;
    let bpp = bytes_per_pair(stats);
    let star_ests: Vec<StarEst> = query.stars.iter().map(|s| star_estimates(s, stats)).collect();

    let n = query.stars.len();
    assert!(n <= 16, "plan search enumerates 2^stars placements");
    let mut best: Option<PhysicalPlan> = None;
    for mask in 0u32..(1u32 << n) {
        let eager_stars: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let ecs: Vec<RelEst> = star_ests
            .iter()
            .zip(&eager_stars)
            .map(|(&e, &eager)| ec_estimate(e, eager, bpp))
            .collect();
        let (job1_seconds, job1_reduce_tasks, job1_records) =
            price_job1(cost, stats, &ecs, &star_ests, config);

        let mut total = job1_seconds;
        let mut cur = ecs[0];
        let mut cycles = Vec::with_capacity(steps.len());
        for step in &steps {
            let lexp = side_expansion(
                &query.stars[step.l_star],
                step.lrole,
                eager_stars[step.l_star],
                stats,
                bpp,
            );
            let rexp = side_expansion(
                &query.stars[step.other],
                step.rrole,
                eager_stars[step.other],
                stats,
                bpp,
            );
            let right = ecs[step.other];
            let out = join_output(cur, lexp, right, rexp, bpp);

            // Candidate: reduce-side exact.
            let (secs, shuffle, rt) = price_reduce_join(
                cost,
                cur,
                lexp,
                right,
                rexp,
                UnnestMode::Exact,
                out,
                bpp,
                config,
            );
            let mut best_cycle = CyclePlan {
                algo: JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks: rt },
                estimated_output_records: Some(out.records),
                estimated_output_bytes: out.bytes,
                estimated_shuffle_bytes: shuffle,
                estimated_seconds: secs,
            };
            // Candidates: reduce-side φ-partial (only when a lazy unbound
            // side actually expands — otherwise partial is pure overhead).
            let lazy_unbound = (matches!(step.lrole, JoinRole::UnboundObj(_))
                && !eager_stars[step.l_star]
                && lexp.exp > 1.0)
                || (matches!(step.rrole, JoinRole::UnboundObj(_))
                    && !eager_stars[step.other]
                    && rexp.exp > 1.0);
            if lazy_unbound {
                for &m in &config.phi_candidates {
                    let mode = UnnestMode::Partial(m);
                    let (secs, shuffle, rt) =
                        price_reduce_join(cost, cur, lexp, right, rexp, mode, out, bpp, config);
                    if secs < best_cycle.estimated_seconds {
                        best_cycle = CyclePlan {
                            algo: JoinAlgo::Reduce { mode, reduce_tasks: rt },
                            estimated_output_records: Some(out.records),
                            estimated_output_bytes: out.bytes,
                            estimated_shuffle_bytes: shuffle,
                            estimated_seconds: secs,
                        };
                    }
                }
            }
            // Candidates: broadcast either side, when it fits the budget.
            for (build, b, p) in [(BuildSide::Left, cur, right), (BuildSide::Right, right, cur)] {
                if r64(b.bytes) <= config.broadcast_budget_bytes {
                    let secs = price_broadcast_join(cost, b, p, out, config);
                    if secs < best_cycle.estimated_seconds {
                        best_cycle = CyclePlan {
                            algo: JoinAlgo::Broadcast { build },
                            estimated_output_records: Some(out.records),
                            estimated_output_bytes: out.bytes,
                            estimated_shuffle_bytes: 0,
                            estimated_seconds: secs,
                        };
                    }
                }
            }

            total += best_cycle.estimated_seconds;
            cycles.push(best_cycle);
            cur = out;
        }

        let plan = PhysicalPlan {
            workflow: "NTGA-CostBased".into(),
            eager_stars,
            job1_reduce_tasks,
            estimated_job1_records: Some(job1_records),
            estimated_job1_bytes: ecs.iter().map(|e| e.bytes).sum(),
            estimated_star_records: ecs.iter().map(|e| e.records).collect(),
            estimated_job1_seconds: job1_seconds,
            cycles,
            estimated_seconds: total,
        };
        if best.as_ref().is_none_or(|b| plan.estimated_seconds < b.estimated_seconds) {
            best = Some(plan);
        }
    }
    Ok(best.expect("at least one placement enumerated"))
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

/// Which wire representation the workflow's Job 1 consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlane {
    /// Lexical tokens end-to-end ([`mr_rdf::TripleRec`] input).
    Lexical,
    /// LEB128-varint dictionary ids through Job 1's shuffle
    /// ([`mr_rdf::IdTripleRec`] input; requires `Engine::with_dict`).
    Ids,
}

/// Execute a [`PhysicalPlan`] for `query` over the triple relation in DFS
/// file `input` on `plane` — the one executor behind every NTGA run.
///
/// Job 1 is one grouping cycle that computes every star subpattern; the
/// join cycles follow the left-deep schedule. Planning problems are `Err`;
/// runtime failures (DiskFull) come back inside the [`QueryRun`].
/// `DataPlane::Ids` runs Job 1 over the dictionary-encoded relation
/// ([`mr_rdf::IdTripleRec`] input, e.g. [`mr_rdf::ID_TRIPLES_FILE`]) and
/// requires the engine to carry the matching dictionary
/// (`Engine::with_dict`); the join cycles operate on triplegroup tuples
/// and are identical on both planes.
///
/// Jobs carry the plan's estimated output cardinalities, when it has
/// them, so the run's [`mrsim::WorkflowStats`] reports q-error. If the
/// optimizer chose a broadcast join but the *actual* build file exceeds
/// the engine's broadcast budget (an estimation miss), the cycle falls
/// back to the reduce-side exact join instead of failing the workflow.
pub fn execute_plan_on(
    plane: DataPlane,
    plan: &PhysicalPlan,
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<QueryRun, PlanError> {
    execute_plan_profiled(plane, plan, engine, query, input, label, extract_solutions)
        .map(|(run, _)| run)
}

/// [`execute_plan_on`], additionally returning the per-star Job 1 output
/// cardinalities — the record counts of the `{label}.ec{i}` equivalence-class
/// files, read *before* the workflow's finish deletes them. Feed the vector
/// to [`crate::profile::explain_analyze`] for the per-star q-error breakdown.
/// The vector is empty when Job 1 itself failed.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_profiled(
    plane: DataPlane,
    plan: &PhysicalPlan,
    engine: &Engine,
    query: &Query,
    input: &str,
    label: &str,
    extract_solutions: bool,
) -> Result<(QueryRun, Vec<u64>), PlanError> {
    let steps = join_schedule(query)?;
    if steps.len() != plan.cycles.len() || plan.eager_stars.len() != query.stars.len() {
        return Err(PlanError::Internal("plan shape does not match query".into()));
    }

    let mut wf = Workflow::new(engine, format!("{}/{label}", plan.workflow));
    let fail = |wf: Workflow<'_>, e: &mrsim::MrError, stars: Vec<u64>| {
        Ok((QueryRun { stats: wf.finish_failed(e), solutions: None }, stars))
    };

    let ec_files: Vec<String> = (0..query.stars.len()).map(|i| format!("{label}.ec{i}")).collect();
    let dict = match plane {
        DataPlane::Lexical => None,
        DataPlane::Ids => Some(engine.dict().map(|d| &**d).ok_or_else(|| {
            PlanError::Internal("ID-native execution needs Engine::with_dict".into())
        })?),
    };
    let mut job1 = group_filter_job(
        format!("{label}.group"),
        query,
        input,
        ec_files.clone(),
        plan.eager_stars.clone(),
        dict,
    )
    .with_reducers(plan.job1_reduce_tasks);
    job1.estimated_output_records = plan.estimated_job1_records;
    if let Err(e) = wf.run_job(job1) {
        return fail(wf, &e, Vec::new());
    }
    // Per-star output cardinalities, read now — finish deletes the ec files.
    let star_records: Vec<u64> = {
        let hdfs = engine.hdfs().lock();
        ec_files.iter().map(|f| hdfs.get(f).map(|d| d.len() as u64).unwrap_or(0)).collect()
    };

    let mut components: Vec<usize> = vec![0];
    let mut current_file = ec_files[0].clone();
    for (join_no, (step, cycle)) in steps.iter().zip(&plan.cycles).enumerate() {
        let left = JoinSide { file: current_file.clone(), component: step.lpos, role: step.lrole };
        let right = JoinSide { file: ec_files[step.other].clone(), component: 0, role: step.rrole };
        let out = format!("{label}.tgjoin{join_no}");
        let name = format!("{label}.tgjoin{join_no}");
        let mut job = match cycle.algo {
            JoinAlgo::Reduce { mode, reduce_tasks } => {
                tg_join_job(name, left, right, mode, &out).with_reducers(reduce_tasks)
            }
            JoinAlgo::Broadcast { build } => {
                let build_file = match build {
                    BuildSide::Left => &left.file,
                    BuildSide::Right => &right.file,
                };
                let actual = engine
                    .hdfs()
                    .lock()
                    .get(build_file)
                    .map_err(|e| PlanError::Internal(format!("broadcast input: {e}")))?
                    .text_bytes;
                if actual <= engine.broadcast_budget_bytes {
                    tg_broadcast_join_job(name, left, right, build, &out)
                } else {
                    // Estimation miss: repair to the reduce-side join
                    // rather than letting the engine refuse the job.
                    tg_join_job(name, left, right, UnnestMode::Exact, &out)
                }
            }
        };
        job.estimated_output_records = cycle.estimated_output_records;
        if let Err(e) = wf.run_job(job) {
            return fail(wf, &e, star_records);
        }
        components.push(step.other);
        current_file = out;
    }

    let stats = wf.finish(&[&current_file]);
    let solutions = if extract_solutions {
        let tuples: Vec<TgTuple> = engine
            .read_records(&current_file)
            .map_err(|e| PlanError::Internal(format!("reading final output: {e}")))?;
        Some(expand_tuples(&tuples, &components, query)?)
    } else {
        None
    };
    Ok((QueryRun { stats, solutions }, star_records))
}

/// Expand joined triplegroup tuples into a canonical solution set.
///
/// `components` maps each tuple position to its star index in `query`.
/// Each tuple's subjects and bound and unbound lists are walked straight
/// into answer rows over the query's [`SlotLayout`], through slots
/// compiled once per query. A combination that binds one variable to two
/// tokens (a variable repeated inside a star, or shared across stars) is
/// rejected, like any conflicting rebind. A row left with an unbound slot
/// is an internal error.
pub fn expand_tuples(
    tuples: &[TgTuple],
    components: &[usize],
    query: &Query,
) -> Result<SolutionSet, PlanError> {
    let layout = SlotLayout::of(query);
    let slots = components
        .iter()
        .map(|&i| {
            let star = query.stars.get(i).ok_or_else(|| {
                PlanError::Internal(format!("tuple component names missing star {i}"))
            })?;
            StarSlots::compile(star, &layout)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows = Vec::new();
    let mut row = layout.empty_row();
    let mut levels = Vec::new();
    for t in tuples {
        if t.0.len() != components.len() {
            return Err(PlanError::Internal("tuple arity mismatch".into()));
        }
        levels.clear();
        for (tg, star) in t.0.iter().zip(&slots) {
            star.levels(tg, &mut levels)?;
        }
        walk(&levels, &mut row, &mut rows);
    }
    layout
        .solutions(rows, query.projection.as_deref())
        .map_err(|e| PlanError::Internal(e.to_string()))
}

/// Where one star's tokens land in an answer row: the subject's slot, one
/// per bound pattern's object, and `[property, object]` per unbound
/// pattern. `None` is a position bound to a constant.
struct StarSlots {
    subject: Option<usize>,
    bound: Vec<Option<usize>>,
    unbound: Vec<[Option<usize>; 2]>,
}

impl StarSlots {
    fn compile(star: &StarPattern, layout: &SlotLayout) -> Result<Self, PlanError> {
        let slot = |var: Option<&str>| match var {
            None => Ok(None),
            Some(v) => layout
                .slot(v)
                .map(Some)
                .ok_or_else(|| PlanError::Internal(format!("?{v} missing from answer layout"))),
        };
        Ok(StarSlots {
            subject: slot(Some(&star.subject_var))?,
            bound: star
                .bound_patterns()
                .iter()
                .map(|p| slot(p.object.var()))
                .collect::<Result<_, _>>()?,
            unbound: star
                .unbound_patterns()
                .iter()
                .map(|p| Ok([slot(p.property.var())?, slot(p.object.var())?]))
                .collect::<Result<_, PlanError>>()?,
        })
    }

    /// Append one walk level per position of `tg`: its subject, then each
    /// bound list, then each unbound list.
    fn levels<'t>(&self, tg: &'t AnnTg, out: &mut Vec<Level<'t>>) -> Result<(), PlanError> {
        if tg.bound.len() != self.bound.len() || tg.unbound.len() != self.unbound.len() {
            return Err(PlanError::Internal("triplegroup/star shape mismatch".into()));
        }
        out.push(Level::Tokens(self.subject, std::slice::from_ref(&tg.subject)));
        for ((_, objs), &slot) in tg.bound.iter().zip(&self.bound) {
            out.push(Level::Tokens(slot, objs));
        }
        for (cands, &slots) in tg.unbound.iter().zip(&self.unbound) {
            out.push(Level::Pairs(slots, cands));
        }
        Ok(())
    }
}

/// One position of a tuple: the choices it may take, each binding up to
/// two slots.
enum Level<'t> {
    /// The subject or a bound pattern's objects, into one slot.
    Tokens(Option<usize>, &'t [Atom]),
    /// An unbound pattern's candidates, into `[property, object]` slots.
    Pairs([Option<usize>; 2], &'t [(Atom, Atom)]),
}

impl Level<'_> {
    fn len(&self) -> usize {
        match self {
            Level::Tokens(_, tokens) => tokens.len(),
            Level::Pairs(_, cands) => cands.len(),
        }
    }

    /// The `(slot, token)` writes of choice `i`.
    fn choice(&self, i: usize) -> [(Option<usize>, &Atom); 2] {
        match self {
            Level::Tokens(slot, tokens) => [(*slot, &tokens[i]), (None, &tokens[i])],
            Level::Pairs([ps, os], cands) => [(*ps, &cands[i].0), (*os, &cands[i].1)],
        }
    }
}

/// Depth-first over every combination of choices, binding each level's
/// tokens into `row` (and unbinding them on the way back). A combination
/// that would rebind a slot to a different token is pruned; every
/// complete combination is pushed to `rows`.
fn walk(levels: &[Level<'_>], row: &mut AnswerRow, rows: &mut Vec<AnswerRow>) {
    let Some((level, rest)) = levels.split_first() else {
        rows.push(row.clone());
        return;
    };
    for i in 0..level.len() {
        // Slots this choice binds for the first time, unbound again below.
        let mut fresh = [None; 2];
        let mut consistent = true;
        for (k, (slot, token)) in level.choice(i).into_iter().enumerate() {
            let Some(slot) = slot else { continue };
            match &row[slot] {
                None => {
                    row[slot] = Some(token.clone());
                    fresh[k] = Some(slot);
                }
                Some(bound) if bound == token => {}
                Some(_) => {
                    consistent = false;
                    break;
                }
            }
        }
        if consistent {
            walk(rest, row, rows);
        }
        for slot in fresh.into_iter().flatten() {
            row[slot] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Strategy;
    use mr_rdf::{load_store, load_store_ids};
    use mrsim::SimHdfs;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;
    use std::sync::Arc;

    fn store() -> TripleStore {
        let mut triples = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<syn>", "\"s\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
        ];
        for i in 0..6 {
            triples.push(STriple::new("<g1>", "<xGO>", format!("<go{}>", 1 + i % 2)));
            triples.push(STriple::new("<g2>", "<xRef>", format!("<r{i}>")));
        }
        TripleStore::from_triples(triples)
    }

    const UNBOUND_2STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    /// Optimize under the engine's own cost model and limits, then run.
    fn run_cost_based(engine: &Engine, query: &Query, s: &TripleStore) -> QueryRun {
        let plan = optimize(query, &s.stats(), &engine.cost, &OptimizerConfig::for_engine(engine))
            .unwrap();
        execute_plan_on(DataPlane::Lexical, &plan, engine, query, "t", "q", true).unwrap()
    }

    fn plan_for(q: &str, s: &TripleStore) -> PhysicalPlan {
        let query = parse_query(q).unwrap();
        optimize(&query, &s.stats(), &CostModel::scaled_to(s.text_bytes()), &Default::default())
            .unwrap()
    }

    #[test]
    fn optimized_plan_matches_naive() {
        let s = store();
        let engine = Engine::unbounded().with_cost(CostModel::scaled_to(s.text_bytes()));
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        assert!(!gold.is_empty());
        let run = run_cost_based(&engine, &query, &s);
        assert!(run.succeeded());
        assert_eq!(run.solutions.unwrap(), gold);
        // Every job carried an estimate, so the run reports a q-error.
        assert!(run.stats.max_q_error().is_some());
    }

    #[test]
    fn id_plane_matches_lexical_plane() {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);

        let lex = Engine::unbounded();
        load_store(&lex, "t", &s).unwrap();
        let stats = s.stats();
        let plan = optimize(&query, &stats, &lex.cost, &OptimizerConfig::for_engine(&lex)).unwrap();
        let lrun =
            execute_plan_on(DataPlane::Lexical, &plan, &lex, &query, "t", "q", true).unwrap();

        let ids = Engine::unbounded();
        let mut dict = rdf_model::Dictionary::default();
        load_store_ids(&ids, "tid", &s, &mut dict).unwrap();
        let ids = ids.with_dict(Arc::new(dict));
        let irun = execute_plan_on(DataPlane::Ids, &plan, &ids, &query, "tid", "q", true).unwrap();

        assert!(lrun.succeeded() && irun.succeeded());
        assert_eq!(lrun.solutions.unwrap(), gold);
        assert_eq!(irun.solutions.unwrap(), gold);
    }

    #[test]
    fn small_build_side_gets_broadcast() {
        // The <gl> star is tiny; shipping it beats shuffling everything.
        let plan = plan_for(UNBOUND_2STAR, &store());
        assert_eq!(plan.cycles.len(), 1);
        assert!(plan.broadcast_cycles() == 1, "expected a broadcast cycle in {}", plan.summary());
        assert_eq!(plan.cycles[0].estimated_shuffle_bytes, 0);
    }

    #[test]
    fn broadcast_disabled_without_budget() {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let config = OptimizerConfig { broadcast_budget_bytes: 0, ..Default::default() };
        let plan =
            optimize(&query, &s.stats(), &CostModel::scaled_to(s.text_bytes()), &config).unwrap();
        assert_eq!(plan.broadcast_cycles(), 0, "{}", plan.summary());
        match plan.cycles[0].algo {
            JoinAlgo::Reduce { reduce_tasks, .. } => assert!(reduce_tasks >= 1),
            JoinAlgo::Broadcast { .. } => panic!("broadcast chosen with zero budget"),
        }
    }

    #[test]
    fn optimizer_at_least_matches_every_hand_picked_strategy() {
        let s = store();
        let cost = CostModel::scaled_to(s.text_bytes());
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let config = OptimizerConfig::default();
        let plan = optimize(&query, &s.stats(), &cost, &config).unwrap();

        let run_with = |strategy| {
            let engine = Engine::unbounded().with_cost(cost.clone());
            load_store(&engine, "t", &s).unwrap();
            let plan = Strategy::plan(strategy, &query).unwrap();
            let r = execute_plan_on(DataPlane::Lexical, &plan, &engine, &query, "t", "q", false)
                .unwrap();
            assert!(r.succeeded());
            r.stats.sim_seconds
        };
        let best_hand = [
            Strategy::Eager,
            Strategy::LazyFull,
            Strategy::LazyPartial(1024),
            Strategy::Auto(1024),
        ]
        .into_iter()
        .map(run_with)
        .fold(f64::INFINITY, f64::min);

        let engine = Engine::unbounded().with_cost(cost.clone());
        load_store(&engine, "t", &s).unwrap();
        let run =
            execute_plan_on(DataPlane::Lexical, &plan, &engine, &query, "t", "q", false).unwrap();
        assert!(run.succeeded());
        assert!(
            run.stats.sim_seconds <= best_hand + 1e-9,
            "cost plan {} took {:.3}s vs best hand-picked {:.3}s",
            plan.summary(),
            run.stats.sim_seconds,
            best_hand
        );
    }

    #[test]
    fn oversized_actual_build_side_repairs_to_reduce_join() {
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        // Plan with a generous budget, run on an engine with a tiny one:
        // the actual file check must repair the cycle, not fail the run.
        let stats = s.stats();
        let plan = optimize(
            &query,
            &stats,
            &CostModel::scaled_to(s.text_bytes()),
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert!(plan.broadcast_cycles() > 0);
        let engine = Engine::unbounded().with_broadcast_budget(1);
        load_store(&engine, "t", &s).unwrap();
        let run =
            execute_plan_on(DataPlane::Lexical, &plan, &engine, &query, "t", "q", true).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.solutions.unwrap(), gold);
        assert_eq!(run.stats.jobs.last().unwrap().broadcast_files, 0);
    }

    #[test]
    fn single_star_plan_has_no_cycles() {
        let s = store();
        let plan = plan_for("SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }", &s);
        assert!(plan.cycles.is_empty());
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query("SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }").unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        let run =
            execute_plan_on(DataPlane::Lexical, &plan, &engine, &query, "t", "q", true).unwrap();
        assert_eq!(run.stats.mr_cycles, 1);
        assert_eq!(run.solutions.unwrap(), gold);
    }

    #[test]
    fn disk_full_reported_not_panicked() {
        let s = store();
        let engine = Engine::new(SimHdfs::new(s.text_bytes() + 20, 1));
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let run = run_cost_based(&engine, &query, &s);
        assert!(!run.succeeded());
        assert!(run.solutions.is_none());
    }

    #[test]
    fn redundant_star_stays_lazy() {
        // A store where one star expands 100× eagerly: the optimizer must
        // not pick eager for it.
        let mut triples = vec![STriple::new("<go1>", "<gl>", "\"x\"")];
        for i in 0..100 {
            triples.push(STriple::new("<g1>", "<xGO>", format!("<v{i}>")));
        }
        triples.push(STriple::new("<g1>", "<xGO>", "<go1>"));
        triples.push(STriple::new("<g1>", "<label>", "\"a\""));
        let s = TripleStore::from_triples(triples);
        let plan = plan_for(UNBOUND_2STAR, &s);
        assert!(!plan.eager_stars[0], "expansive star went eager: {}", plan.summary());
    }
}
