//! Hand-picked unnesting [`Strategy`]s, lowered to physical plans.
//!
//! A [`Strategy`] applies one policy uniformly: the same unnest placement
//! for every star, the same unnest mode rule for every join cycle, the
//! engine's default reduce parallelism everywhere. That makes it a single
//! point in the plan space [`crate::optimizer::optimize`] searches:
//! [`Strategy::plan`] lowers it to a [`PhysicalPlan`], which runs through
//! the same executor as a cost-based plan
//! ([`crate::optimizer::execute_plan_on`]). The statistics-driven
//! alternative derives those choices *per star* and *per cycle* from
//! [`rdf_model::StoreStats`] and the engine's cost model
//! (`--strategy auto-cost` in the figure binaries).

use crate::optimizer::{join_schedule, CyclePlan, CycleStep, JoinAlgo, PhysicalPlan};
use crate::physical::{JoinRole, UnnestMode, REDUCERS};
use mr_rdf::PlanError;
use rdf_query::{ObjPattern, Query};

/// When and how β-unnesting happens (Section 4).
///
/// These are the paper's hand-picked, query-wide policies; each applies
/// the same choice to every star and every join cycle. For data-dependent
/// per-star / per-cycle selection (including map-side broadcast joins),
/// use [`crate::optimizer::optimize`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// β-unnest during the star-join cycle (Job 1 reduce): intermediate
    /// results carry full redundancy from the start.
    Eager,
    /// Delay the β-unnest to the map phase of the join cycle that needs
    /// it, unnesting fully there (`TG_UnbJoin`).
    LazyFull,
    /// Delay and unnest only to φ_m partition granularity
    /// (`TG_OptUnbJoin`); the reduce completes the unnest.
    LazyPartial(u64),
    /// The paper's recommended policy: lazy, choosing *full* unnest for
    /// unbound patterns with partially-bound objects (selective, few
    /// candidates) and *partial* unnest with the given φ range for
    /// unbound-object patterns (many candidates).
    Auto(u64),
}

impl Strategy {
    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            Strategy::Eager => "EagerUnnest".into(),
            Strategy::LazyFull => "LazyUnnest(full)".into(),
            Strategy::LazyPartial(m) => format!("LazyUnnest(phi_{m})"),
            Strategy::Auto(m) => format!("LazyUnnest(auto,phi_{m})"),
        }
    }

    /// Lower this policy to the [`PhysicalPlan`] it stands for on `query`:
    ///
    /// | plan field       | lowered value                                     |
    /// |------------------|---------------------------------------------------|
    /// | `eager_stars[i]` | `self == Eager`, for every star                   |
    /// | reduce tasks     | [`REDUCERS`] for Job 1 and every cycle            |
    /// | cycle algorithm  | `JoinAlgo::Reduce` with the strategy's unnest mode |
    ///
    /// The plan is unpriced: it carries no cardinality estimates, so its
    /// runs report no q-error. Fails exactly when the query cannot be
    /// planned: invalid, unsupported, or a disconnected join graph.
    pub fn plan(self, query: &Query) -> Result<PhysicalPlan, PlanError> {
        let cycles = join_schedule(query)?
            .iter()
            .map(|step| CyclePlan {
                algo: JoinAlgo::Reduce {
                    mode: mode_for(self, &unbound_flags(query, step)),
                    reduce_tasks: REDUCERS,
                },
                estimated_output_records: None,
                estimated_output_bytes: 0.0,
                estimated_shuffle_bytes: 0,
                estimated_seconds: 0.0,
            })
            .collect();
        Ok(PhysicalPlan {
            workflow: format!("NTGA-{}", self.label()),
            eager_stars: vec![self == Strategy::Eager; query.stars.len()],
            job1_reduce_tasks: REDUCERS,
            estimated_job1_records: None,
            estimated_job1_bytes: 0.0,
            estimated_star_records: Vec::new(),
            estimated_job1_seconds: 0.0,
            cycles,
            estimated_seconds: 0.0,
        })
    }
}

/// For each side of `step` that joins on an unbound pattern's object
/// ([`JoinRole::UnboundObj`]), whether that object is partially bound
/// (filtered). Empty when neither side joins on an unbound object.
pub(crate) fn unbound_flags(query: &Query, step: &CycleStep) -> Vec<bool> {
    [(step.l_star, step.lrole), (step.other, step.rrole)]
        .into_iter()
        .filter_map(|(star, role)| match role {
            JoinRole::UnboundObj(u) => {
                let pat = query.stars[star].unbound_patterns()[u];
                Some(matches!(pat.object, ObjPattern::Filtered(_, _)))
            }
            _ => None,
        })
        .collect()
}

/// Pick the unnest mode for one join under a strategy.
///
/// `unbound_sides` carries, for each side with an [`JoinRole::UnboundObj`]
/// role, whether that unbound pattern's object is partially bound
/// (filtered).
pub(crate) fn mode_for(strategy: Strategy, unbound_sides: &[bool]) -> UnnestMode {
    if unbound_sides.is_empty() {
        return UnnestMode::Exact;
    }
    match strategy {
        // Eager: triplegroups are already perfect; keys are exact.
        Strategy::Eager => UnnestMode::Exact,
        Strategy::LazyFull => UnnestMode::Exact,
        Strategy::LazyPartial(m) => UnnestMode::Partial(m),
        Strategy::Auto(m) => {
            // Partially-bound objects are selective: full unnest is enough
            // (paper, Figure 11 discussion). Unbound objects benefit from
            // partial unnest.
            if unbound_sides.iter().all(|&filtered| filtered) {
                UnnestMode::Exact
            } else {
                UnnestMode::Partial(m)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{execute_plan_on, DataPlane};
    use mr_rdf::{load_store, QueryRun};
    use mrsim::{Engine, SimHdfs};
    use rdf_model::{STriple, TripleStore};
    use rdf_query::parse_query;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g1>", "<syn>", "\"s\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
            STriple::new("<go2>", "<gl>", "\"membrane\""),
        ])
    }

    /// Lower `strategy` on `query` and execute it on `plane`.
    fn run_on(
        plane: DataPlane,
        strategy: Strategy,
        engine: &Engine,
        query: &Query,
        input: &str,
    ) -> Result<QueryRun, PlanError> {
        execute_plan_on(plane, &strategy.plan(query)?, engine, query, input, "q", true)
    }

    fn run(strategy: Strategy, q: &str) -> QueryRun {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let query = parse_query(q).unwrap();
        run_on(DataPlane::Lexical, strategy, &engine, &query, "t").unwrap()
    }

    const ALL: [Strategy; 5] = [
        Strategy::Eager,
        Strategy::LazyFull,
        Strategy::LazyPartial(2),
        Strategy::LazyPartial(1024),
        Strategy::Auto(1024),
    ];

    const UNBOUND_2STAR: &str = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . }";

    #[test]
    fn all_strategies_match_naive() {
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert!(!gold.is_empty());
        for strategy in ALL {
            let r = run(strategy, UNBOUND_2STAR);
            assert!(r.succeeded(), "{strategy:?}");
            assert_eq!(r.solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn two_star_query_takes_two_cycles() {
        // The paper's headline structural claim: grouping computes all
        // star joins at once, so 2 cycles and ONE full scan (vs 3 cycles /
        // 2+ full scans relationally).
        let r = run(Strategy::LazyFull, UNBOUND_2STAR);
        assert_eq!(r.stats.mr_cycles, 2);
        assert_eq!(r.stats.full_scans, 1);
    }

    #[test]
    fn single_star_is_one_cycle() {
        let q = "SELECT * WHERE { ?g <label> ?l . ?g ?p ?o . }";
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        for strategy in ALL {
            let r = run(strategy, q);
            assert_eq!(r.stats.mr_cycles, 1, "{strategy:?}");
            assert_eq!(r.solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn lazy_writes_less_than_eager_in_job1() {
        let eager = run(Strategy::Eager, UNBOUND_2STAR);
        let lazy = run(Strategy::LazyFull, UNBOUND_2STAR);
        let eager_job1 = eager.stats.jobs[0].hdfs_write_bytes;
        let lazy_job1 = lazy.stats.jobs[0].hdfs_write_bytes;
        assert!(lazy_job1 < eager_job1, "lazy {lazy_job1} >= eager {eager_job1}");
    }

    #[test]
    fn bound_only_query_matches_naive() {
        let q = "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?go <gl> ?x . }";
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        for strategy in ALL {
            assert_eq!(run(strategy, q).solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn partially_bound_object_query() {
        let q = r#"SELECT * WHERE { ?g <label> ?l . ?g ?p ?go . ?go <gl> ?x . FILTER prefix(?go, "<go") }"#;
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        assert!(!gold.is_empty());
        for strategy in ALL {
            assert_eq!(run(strategy, q).solutions.unwrap(), gold, "{strategy:?}");
        }
    }

    #[test]
    fn unbound_not_in_join_stays_nested_to_the_end() {
        // B4-shaped: the unbound pattern's object is NOT the join var.
        let q = "SELECT * WHERE { ?g <label> ?l . ?g <xGO> ?go . ?g ?p ?o . ?go <gl> ?x . }";
        let query = parse_query(q).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &store());
        let lazy = run(Strategy::LazyFull, q);
        assert_eq!(lazy.solutions.unwrap(), gold);
        // Final output keeps candidates nested: fewer records than
        // solutions.
        let eager = run(Strategy::Eager, q);
        let lazy_final = run(Strategy::LazyFull, q).stats.jobs.last().unwrap().output_text_bytes;
        let eager_final = eager.stats.jobs.last().unwrap().output_text_bytes;
        assert!(lazy_final < eager_final, "lazy {lazy_final} >= eager {eager_final}");
    }

    #[test]
    fn disk_full_reported() {
        let s = store();
        let engine = Engine::new(SimHdfs::new(s.text_bytes() + 40, 1));
        load_store(&engine, "t", &s).unwrap();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let r = run_on(DataPlane::Lexical, Strategy::Eager, &engine, &query, "t").unwrap();
        assert!(!r.succeeded());
        assert!(r.solutions.is_none());
    }

    #[test]
    fn id_plane_matches_lexical_for_every_strategy() {
        use std::sync::Arc;
        let s = store();
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let gold = rdf_query::naive::evaluate(&query, &s);
        for strategy in ALL {
            let engine = Engine::unbounded();
            let mut dict = rdf_model::Dictionary::default();
            mr_rdf::load_store_ids(&engine, "tid", &s, &mut dict).unwrap();
            let engine = engine.with_dict(Arc::new(dict));
            let r = run_on(DataPlane::Ids, strategy, &engine, &query, "tid").unwrap();
            assert!(r.succeeded(), "{strategy:?}");
            assert_eq!(r.solutions.unwrap(), gold, "{strategy:?}");
        }
        // Without a dictionary the ID plane is a planning error, not a crash.
        let engine = Engine::unbounded();
        mr_rdf::load_store(&engine, "t", &s).unwrap();
        assert!(matches!(
            run_on(DataPlane::Ids, Strategy::Eager, &engine, &query, "t"),
            Err(PlanError::Internal(_))
        ));
    }

    #[test]
    fn lowered_plan_is_unpriced_and_uniform() {
        let query = parse_query(UNBOUND_2STAR).unwrap();
        let plan = Strategy::Eager.plan(&query).unwrap();
        assert_eq!(plan.workflow, "NTGA-EagerUnnest");
        assert_eq!(plan.eager_stars, vec![true, true]);
        assert_eq!(plan.job1_reduce_tasks, REDUCERS);
        assert!(plan.estimated_job1_records.is_none());
        let plan = Strategy::Auto(8).plan(&query).unwrap();
        assert_eq!(plan.eager_stars, vec![false, false]);
        assert_eq!(plan.cycles.len(), 1);
        assert_eq!(
            plan.cycles[0].algo,
            JoinAlgo::Reduce { mode: UnnestMode::Partial(8), reduce_tasks: REDUCERS }
        );
        assert!(plan.cycles[0].estimated_output_records.is_none());
        // No estimates, so the run reports no q-error.
        let r = run(Strategy::Auto(8), UNBOUND_2STAR);
        assert!(r.stats.max_q_error().is_none());
        assert!(r.stats.label.starts_with("NTGA-LazyUnnest(auto,phi_8)/"), "{}", r.stats.label);
    }

    #[test]
    fn auto_uses_full_for_partially_bound() {
        assert_eq!(mode_for(Strategy::Auto(8), &[true]), UnnestMode::Exact);
        assert_eq!(mode_for(Strategy::Auto(8), &[false]), UnnestMode::Partial(8));
        assert_eq!(mode_for(Strategy::Auto(8), &[]), UnnestMode::Exact);
        assert_eq!(mode_for(Strategy::LazyPartial(4), &[true]), UnnestMode::Partial(4));
        assert_eq!(mode_for(Strategy::LazyFull, &[false]), UnnestMode::Exact);
    }
}
