//! Plan explanation: render the MR workflow a plan would run, without
//! executing it.
//!
//! Mirrors `EXPLAIN` in SQL engines: one line per MR cycle with the
//! physical operator, its inputs, the unnest decision the strategy makes
//! (`TG_UnbJoin` vs `TG_OptUnbJoin` and the φ range), and the paper
//! vocabulary for each step, so the rewrite from Figure 6 is visible.
//! Cycles come from the same left-deep join schedule the executor runs.

use crate::optimizer::{join_schedule, JoinAlgo, PhysicalPlan};
use crate::physical::{BuildSide, JoinRole, UnnestMode};
use crate::planner::{mode_for, unbound_flags, Strategy};
use mr_rdf::{check_query, PlanError};
use rdf_query::{ObjPattern, Query};
use std::fmt::Write as _;

/// A rendered plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanText {
    /// One entry per MR cycle.
    pub cycles: Vec<String>,
    /// The strategy label.
    pub strategy: String,
    /// Operator-counter namespaces this plan records at runtime (see
    /// [`crate::physical::op`]): which of `ntga.group.*`, `ntga.unnest.*`
    /// and `ntga.partial.*` will show up on the run's `JobStats::ops`.
    pub counters: Vec<&'static str>,
    /// Per-cycle estimated output cardinalities (records, rounded), when
    /// the plan came from the cost-based optimizer. Empty for hand-picked
    /// strategies, which plan without statistics. Comparing these against
    /// the executed run's `JobStats::output_records` is exactly the
    /// per-job q-error the engine reports.
    pub estimates: Vec<u64>,
}

impl std::fmt::Display for PlanText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "NTGA plan [{}]:", self.strategy)?;
        for (i, c) in self.cycles.iter().enumerate() {
            match self.estimates.get(i) {
                Some(est) => writeln!(f, "  MR{}: {} (~{est} records)", i + 1, c)?,
                None => writeln!(f, "  MR{}: {}", i + 1, c)?,
            }
        }
        writeln!(f, "  counters: {}", self.counters.join(", "))?;
        Ok(())
    }
}

fn role_text(role: JoinRole, star: &rdf_query::StarPattern) -> String {
    match role {
        JoinRole::Subject => format!("?{}(subject)", star.subject_var),
        JoinRole::BoundObj(i) => {
            let pat = star.bound_patterns()[i];
            format!("object of {}", pat.property_token())
        }
        JoinRole::UnboundObj(i) => {
            let pat = star.unbound_patterns()[i];
            let filtered = matches!(pat.object, ObjPattern::Filtered(_, _));
            format!(
                "object of unbound pattern #{i}{}",
                if filtered { " (partially bound)" } else { "" }
            )
        }
    }
}

/// Internal helper trait so explain can print a pattern's property token.
trait PropertyToken {
    fn property_token(&self) -> String;
}

impl PropertyToken for rdf_query::TriplePattern {
    fn property_token(&self) -> String {
        match &self.property {
            rdf_query::PropPattern::Bound(p) => p.to_string(),
            rdf_query::PropPattern::Unbound(v) => format!("?{v}"),
        }
    }
}

/// Render the plan `strategy` lowers to on `query` (see
/// [`Strategy::plan`]). Fails exactly when the lowering fails.
pub fn explain(strategy: Strategy, query: &Query) -> Result<PlanText, PlanError> {
    let steps = join_schedule(query)?;
    let mut cycles = Vec::new();

    // Job 1.
    let mut job1 = String::from("TG_GroupByMap(T) + TG_GroupByReduce");
    let ec_desc: Vec<String> = query
        .stars
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let bound: Vec<String> = s.bound_properties().iter().map(|p| p.to_string()).collect();
            let unb = s.unbound_patterns().len();
            format!(
                "EC{i}=?{}{{{}{}}}",
                s.subject_var,
                bound.join(","),
                if unb > 0 { format!(",{unb}×unbound") } else { String::new() }
            )
        })
        .collect();
    let filter_op = if query.stars.iter().any(rdf_query::StarPattern::has_unbound) {
        "TG_UnbGrpFilter (σ^βγ)"
    } else {
        "TG_GrpFilter (σ^γ)"
    };
    write!(job1, " + {filter_op} -> {}", ec_desc.join(", ")).expect("write to string");
    if strategy == Strategy::Eager {
        job1.push_str(" + eager μ^β (perfect triplegroups materialized here)");
    }
    job1.push_str("   [1 full scan computes ALL star subpatterns]");
    cycles.push(job1);

    // Join cycles. Track which unnest flavors the plan will exercise for
    // the counter summary.
    let mut lazy_unnest = false;
    let mut partial_unnest = false;
    for step in &steps {
        let flags = unbound_flags(query, step);
        let op = match (strategy, mode_for(strategy, &flags)) {
            _ if flags.is_empty() => "TG_Join".to_string(),
            (Strategy::Eager, _) => "TG_Join (inputs already β-unnested eagerly)".to_string(),
            (Strategy::LazyFull, _) => {
                lazy_unnest = true;
                "TG_UnbJoin (lazy FULL μ^β at this cycle's map)".to_string()
            }
            (Strategy::LazyPartial(m), _) => {
                partial_unnest = true;
                format!("TG_OptUnbJoin (lazy PARTIAL μ^β_φ, φ range {m})")
            }
            (Strategy::Auto(_), UnnestMode::Exact) => {
                lazy_unnest = true;
                "TG_UnbJoin (Auto: partially-bound object -> full unnest)".to_string()
            }
            (Strategy::Auto(_), UnnestMode::Partial(m)) => {
                partial_unnest = true;
                format!("TG_OptUnbJoin (Auto: unbound object -> partial unnest, φ {m})")
            }
        };
        cycles.push(format!(
            "{op} on ?{}: left {} ⋈ right EC{} {}",
            step.var,
            role_text(step.lrole, &query.stars[step.l_star]),
            step.other,
            role_text(step.rrole, &query.stars[step.other]),
        ));
    }
    let mut counters = vec!["ntga.group.*"];
    if strategy == Strategy::Eager || lazy_unnest {
        counters.push("ntga.unnest.*");
    }
    if partial_unnest {
        counters.push("ntga.partial.*");
    }
    Ok(PlanText { cycles, strategy: strategy.label(), counters, estimates: Vec::new() })
}

/// Render a cost-based [`PhysicalPlan`]: one line per MR cycle with the
/// chosen operator (reduce-side join with its sized reducer count and φ,
/// or map-side `TG_BcastJoin` with the broadcast side) and the estimated
/// output cardinality the executed job will be scored against (q-error).
pub fn explain_plan(plan: &PhysicalPlan, query: &Query) -> Result<PlanText, PlanError> {
    query.validate()?;
    check_query(query)?;
    if plan.eager_stars.len() != query.stars.len() {
        return Err(PlanError::Internal("plan shape does not match query".into()));
    }
    let mut cycles = Vec::new();
    let mut estimates = Vec::new();

    let placements: Vec<String> = plan
        .eager_stars
        .iter()
        .enumerate()
        .map(|(i, &e)| format!("EC{i}={}", if e { "eager μ^β" } else { "lazy" }))
        .collect();
    cycles.push(format!(
        "TG_GroupByMap(T) + TG_UnbGrpFilter -> {} (r={})   [per-star unnest placement]",
        placements.join(", "),
        plan.job1_reduce_tasks
    ));
    estimates.extend(plan.estimated_job1_records.map(|r| r.round() as u64));

    let mut eager_unnest = plan.eager_stars.iter().any(|&e| e);
    let mut partial_unnest = false;
    for cycle in &plan.cycles {
        let desc = match cycle.algo {
            JoinAlgo::Reduce { mode: UnnestMode::Exact, reduce_tasks } => {
                format!("TG_UnbJoin (reduce-side, exact keys, r={reduce_tasks})")
            }
            JoinAlgo::Reduce { mode: UnnestMode::Partial(m), reduce_tasks } => {
                partial_unnest = true;
                format!("TG_OptUnbJoin (reduce-side, partial μ^β_φ, φ {m}, r={reduce_tasks})")
            }
            JoinAlgo::Broadcast { build } => {
                eager_unnest = true; // probe-side unnest records ntga.unnest.*
                let side = match build {
                    BuildSide::Left => "left",
                    BuildSide::Right => "right",
                };
                format!("TG_BcastJoin (map-side, {side} side broadcast — reduce cycle collapsed)")
            }
        };
        cycles.push(desc);
        estimates.extend(cycle.estimated_output_records.map(|r| r.round() as u64));
    }
    let mut counters = vec!["ntga.group.*"];
    if eager_unnest {
        counters.push("ntga.unnest.*");
    }
    if partial_unnest {
        counters.push("ntga.partial.*");
    }
    Ok(PlanText { cycles, strategy: format!("CostBased: {}", plan.summary()), counters, estimates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::parse_query;

    fn q() -> Query {
        parse_query(
            r#"SELECT * WHERE {
                ?g <label> ?l . ?g ?p ?go .
                ?go <gl> ?x .
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn explains_two_cycle_plan() {
        let plan = explain(Strategy::Auto(1024), &q()).unwrap();
        assert_eq!(plan.cycles.len(), 2);
        assert!(plan.cycles[0].contains("TG_UnbGrpFilter"));
        assert!(plan.cycles[0].contains("ALL star subpatterns"));
        assert!(plan.cycles[1].contains("TG_OptUnbJoin"));
        assert!(plan.cycles[1].contains("φ 1024"));
        assert_eq!(plan.counters, vec!["ntga.group.*", "ntga.partial.*"]);
    }

    #[test]
    fn counter_summary_tracks_unnest_flavor() {
        assert_eq!(
            explain(Strategy::Eager, &q()).unwrap().counters,
            vec!["ntga.group.*", "ntga.unnest.*"]
        );
        assert_eq!(
            explain(Strategy::LazyFull, &q()).unwrap().counters,
            vec!["ntga.group.*", "ntga.unnest.*"]
        );
        let text = explain(Strategy::LazyPartial(8), &q()).unwrap().to_string();
        assert!(text.contains("counters: ntga.group.*, ntga.partial.*"), "{text}");
    }

    #[test]
    fn eager_annotates_job1() {
        let plan = explain(Strategy::Eager, &q()).unwrap();
        assert!(plan.cycles[0].contains("eager μ^β"));
        assert!(plan.cycles[1].contains("already β-unnested"));
    }

    #[test]
    fn auto_chooses_full_for_partially_bound() {
        let q = parse_query(
            r#"SELECT * WHERE {
                ?g <label> ?l . ?g ?p ?go .
                ?go <gl> ?x .
                FILTER prefix(?go, "<go") .
            }"#,
        )
        .unwrap();
        let plan = explain(Strategy::Auto(64), &q).unwrap();
        assert!(plan.cycles[1].contains("full unnest"), "{}", plan.cycles[1]);
    }

    #[test]
    fn bound_query_uses_plain_operators() {
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . }").unwrap();
        let plan = explain(Strategy::LazyFull, &q).unwrap();
        assert!(plan.cycles[0].contains("TG_GrpFilter (σ^γ)"));
        assert!(plan.cycles[1].starts_with("TG_Join on ?b"));
    }

    #[test]
    fn display_renders_numbered_cycles() {
        let text = explain(Strategy::LazyFull, &q()).unwrap().to_string();
        assert!(text.contains("MR1:"));
        assert!(text.contains("MR2:"));
        assert!(text.contains("LazyUnnest(full)"));
    }

    #[test]
    fn explain_plan_renders_cost_based_choices() {
        use rdf_model::{STriple, TripleStore};
        let mut triples = vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<go1>", "<gl>", "\"nucleus\""),
        ];
        for i in 0..6 {
            triples.push(STriple::new("<g1>", "<xGO>", format!("<go{i}>")));
        }
        let s = TripleStore::from_triples(triples);
        let plan = crate::optimizer::optimize(
            &q(),
            &s.stats(),
            &mrsim::CostModel::scaled_to(s.text_bytes()),
            &Default::default(),
        )
        .unwrap();
        let text = explain_plan(&plan, &q()).unwrap();
        assert_eq!(text.cycles.len(), 2);
        assert_eq!(text.estimates.len(), 2);
        assert!(text.cycles[0].contains("per-star unnest placement"), "{}", text.cycles[0]);
        assert!(text.strategy.starts_with("CostBased:"));
        let rendered = text.to_string();
        assert!(rendered.contains("records)"), "{rendered}");
        // Hand-picked plans carry no estimates.
        assert!(explain(Strategy::LazyFull, &q()).unwrap().estimates.is_empty());
    }

    #[test]
    fn rejects_invalid_queries_like_execute() {
        let q = parse_query("SELECT * WHERE { ?a <p> ?b . }").unwrap();
        let mut disconnected = q.clone();
        disconnected.stars.push(rdf_query::StarPattern::new(
            "z",
            vec![rdf_query::TriplePattern::bound(
                "z",
                "<q>",
                rdf_query::ObjPattern::Var("w".into()),
            )],
        ));
        assert!(explain(Strategy::LazyFull, &disconnected).is_err());
    }
}
