//! Relational star-join jobs (one star subpattern per MR cycle).
//!
//! This is the baseline evaluation the paper compares against: the map
//! phase routes triples matching any of the star's patterns by subject
//! (performing vertical partitioning in-map, plus the full union scan for
//! unbound-property patterns); the reduce phase materializes the star's
//! matches as **flat 3k-arity n-tuples** ([`Row`]s) — every combination of
//! bound matches with every unbound match, the redundant representation
//! whose cost the paper quantifies.

use mr_rdf::{Row, RowSchema, TripleView};
use mrsim::{map_fn, reduce_fn, InputBinding, JobSpec, MrError, TypedMapEmitter, TypedOutEmitter};
use rdf_model::atom::Atom;
use rdf_query::{ObjPattern, PropPattern, StarPattern, SubjPattern};
use std::sync::Arc;

/// Default reducer count for relational jobs.
pub const REDUCERS: usize = 8;

/// Which pattern subset a mapper handles — Pig issues one LOAD per
/// relation group (bound VP relations in one pass, the unbound union in
/// another), so its star jobs bind two mappers to the same input file and
/// read it twice; Hive shares one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSet {
    /// All patterns in one scan (Hive shared scan).
    All,
    /// Only bound-property patterns (Pig's VP load).
    BoundOnly,
    /// Only unbound-property patterns (Pig's union-of-all load).
    UnboundOnly,
}

/// Shuffle value of star-join jobs: `(pattern index, (property, object))`.
pub type TaggedPo = (u64, (Atom, Atom));

/// Build the map operator for a star over a triple input.
pub fn star_mapper(star: StarPattern, which: PatternSet) -> Arc<dyn mrsim::RawMapOp> {
    map_fn::<TripleView<'_>, _, _, _>(move |t, out: &mut TypedMapEmitter<'_, Atom, TaggedPo>| {
        if !star.subject_accepts(t.s) {
            return Ok(());
        }
        for (idx, pat) in star.patterns.iter().enumerate() {
            let selected = match which {
                PatternSet::All => true,
                PatternSet::BoundOnly => !pat.is_unbound_property(),
                PatternSet::UnboundOnly => pat.is_unbound_property(),
            };
            if selected && pat.matches_tokens(t.s, t.p, t.o) {
                out.emit(t.s, &(idx as u64, (t.p, t.o)));
            }
        }
        Ok(())
    })
}

/// Build the reduce operator: per subject, cross product of per-pattern
/// matches into flat rows.
pub fn star_reducer(star: StarPattern) -> Arc<dyn mrsim::RawReduceOp> {
    reduce_fn(move |subject: Atom, values: Vec<TaggedPo>, out: &mut TypedOutEmitter<'_, Row>| {
        let k = star.patterns.len();
        let mut matches: Vec<Vec<(Atom, Atom)>> = vec![Vec::new(); k];
        for (idx, po) in values {
            let idx = idx as usize;
            if idx >= k {
                return Err(MrError::Op(format!("pattern index {idx} out of range")));
            }
            matches[idx].push(po);
        }
        if matches.iter().any(Vec::is_empty) {
            return Ok(()); // star structure violated for this subject
        }
        // Odometer cross product; emission is budget-checked so an
        // explosion aborts the job like a disk-full Hadoop task.
        let mut cursor = vec![0usize; k];
        loop {
            let mut row: Row = Vec::with_capacity(3 * k);
            for (i, c) in cursor.iter().enumerate() {
                let (p, o) = &matches[i][*c];
                row.push(subject.clone());
                row.push(p.clone());
                row.push(o.clone());
            }
            out.emit(&row)?;
            // increment odometer
            let mut pos = k;
            loop {
                if pos == 0 {
                    return Ok(());
                }
                pos -= 1;
                cursor[pos] += 1;
                if cursor[pos] < matches[pos].len() {
                    break;
                }
                cursor[pos] = 0;
            }
        }
    })
}

/// The schema of a star-join output: 3 columns per pattern.
pub fn star_schema(star: &StarPattern) -> RowSchema {
    let mut cols = Vec::with_capacity(star.patterns.len() * 3);
    for pat in &star.patterns {
        cols.push(match &pat.subject {
            SubjPattern::Var(v) => Some(v.clone()),
            SubjPattern::Const(_) => None,
        });
        cols.push(match &pat.property {
            PropPattern::Unbound(v) => Some(v.clone()),
            PropPattern::Bound(_) => None,
        });
        cols.push(match &pat.object {
            ObjPattern::Var(v) | ObjPattern::Filtered(v, _) => Some(v.clone()),
            ObjPattern::Const(_) => None,
        });
    }
    RowSchema::new(cols)
}

/// Build a full star-join job.
///
/// `pig_loads = true` binds separate bound/unbound mappers to the input
/// (double scan); otherwise one shared-scan mapper is used.
pub fn star_join_job(
    name: impl Into<String>,
    star: &StarPattern,
    input: &str,
    output: impl Into<String>,
    pig_loads: bool,
) -> (JobSpec, RowSchema) {
    let schema = star_schema(star);
    let mut inputs = Vec::new();
    if pig_loads {
        if !star.bound_patterns().is_empty() {
            inputs.push(InputBinding {
                file: input.to_string(),
                mapper: star_mapper(star.clone(), PatternSet::BoundOnly),
            });
        }
        if !star.unbound_patterns().is_empty() {
            inputs.push(InputBinding {
                file: input.to_string(),
                mapper: star_mapper(star.clone(), PatternSet::UnboundOnly),
            });
        }
    } else {
        inputs.push(InputBinding {
            file: input.to_string(),
            mapper: star_mapper(star.clone(), PatternSet::All),
        });
    }
    let spec = JobSpec::map_reduce(name, inputs, star_reducer(star.clone()), REDUCERS, output)
        .with_full_scan();
    (spec, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_rdf::load_store;
    use mrsim::Engine;
    use rdf_model::{STriple, TripleStore};
    use rdf_query::TriplePattern;

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            STriple::new("<g1>", "<label>", "\"a\""),
            STriple::new("<g1>", "<xGO>", "<go1>"),
            STriple::new("<g1>", "<xGO>", "<go2>"),
            STriple::new("<g2>", "<label>", "\"b\""),
            STriple::new("<g2>", "<other>", "<x>"),
        ])
    }

    fn bound_star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::bound("g", "<xGO>", ObjPattern::Var("go".into())),
            ],
        )
    }

    fn unbound_star() -> StarPattern {
        StarPattern::new(
            "g",
            vec![
                TriplePattern::bound("g", "<label>", ObjPattern::Var("l".into())),
                TriplePattern::unbound("g", "p", ObjPattern::Var("o".into())),
            ],
        )
    }

    fn run(star: StarPattern, pig: bool) -> (Vec<Row>, RowSchema, mrsim::JobStats) {
        let engine = Engine::unbounded();
        load_store(&engine, "t", &store()).unwrap();
        let (spec, schema) = star_join_job("sj", &star, "t", "out", pig);
        let stats = engine.run_job(&spec).unwrap();
        let mut rows: Vec<Row> = engine.read_records("out").unwrap();
        rows.sort();
        (rows, schema, stats)
    }

    /// The answers of a star's rows, as the planners extract them.
    fn answers(star: &StarPattern, schema: &RowSchema, rows: &[Row]) -> rdf_query::SolutionSet {
        let layout = rdf_query::SlotLayout::new(star.variables());
        schema.solutions(rows.to_vec(), &layout, None).unwrap()
    }

    #[test]
    fn bound_star_cross_product() {
        let (rows, schema, _) = run(bound_star(), false);
        // g1: 1 label × 2 xGO; g2 filtered out (no xGO).
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 6));
        let set = answers(&bound_star(), &schema, &rows);
        assert_eq!(set.len(), 2);
        assert!(set.iter().all(|b| &**b.get("g").unwrap() == "<g1>"));
    }

    #[test]
    fn unbound_star_produces_all_combinations() {
        let (rows, schema, _) = run(unbound_star(), false);
        // g1: 1 label × 3 triples (multiple roles!) = 3
        // g2: 1 label × 2 triples = 2
        assert_eq!(rows.len(), 5);
        // the label triple itself appears as unbound match
        let set = answers(&unbound_star(), &schema, &rows);
        assert!(set.iter().any(|b| &**b.get("p").unwrap() == "<label>"));
    }

    #[test]
    fn pig_loads_double_the_input_scan() {
        let (rows_shared, _, stats_shared) = run(unbound_star(), false);
        let (rows_pig, _, stats_pig) = run(unbound_star(), true);
        assert_eq!(rows_shared, rows_pig, "results must not depend on scan mode");
        assert_eq!(stats_pig.hdfs_read_bytes, 2 * stats_shared.hdfs_read_bytes);
    }

    #[test]
    fn redundancy_grows_with_multiplicity() {
        // Add more xGO triples -> unbound rows repeat the bound component
        // once per triple.
        let mut s = store();
        for i in 3..10 {
            s.insert(STriple::new("<g1>", "<xGO>", format!("<go{i}>")));
        }
        let engine = Engine::unbounded();
        load_store(&engine, "t", &s).unwrap();
        let (spec, _) = star_join_job("sj", &unbound_star(), "t", "out", false);
        engine.run_job(&spec).unwrap();
        let rows: Vec<Row> = engine.read_records("out").unwrap();
        // g1 now has 10 triples -> 10 combos; g2 2.
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn subject_filter_pushed_into_map() {
        let star = unbound_star()
            .with_subject_filter(rdf_query::ObjFilter::Equals(rdf_model::atom::atom("<g2>")));
        let (rows, schema, _) = run(star.clone(), false);
        assert_eq!(rows.len(), 2);
        let set = answers(&star, &schema, &rows);
        assert!(set.iter().all(|b| &**b.get("g").unwrap() == "<g2>"));
    }

    #[test]
    fn schema_marks_constants_none() {
        let star = StarPattern::new(
            "g",
            vec![TriplePattern::bound(
                "g",
                "<label>",
                ObjPattern::Const(rdf_model::atom::atom("\"a\"")),
            )],
        );
        let schema = star_schema(&star);
        assert_eq!(schema.cols, vec![Some("g".to_string()), None, None]);
    }
}
