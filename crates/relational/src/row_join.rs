//! Join of two materialized row relations on one shared variable — the
//! "join between stars" MR cycle of the relational plans.

use mr_rdf::{PlanError, Row, RowSchema};
use mrsim::{
    map_fn, map_only_fn_ctx, reduce_fn, InputBinding, JobSpec, MrError, Rec, TaskContext,
    TypedMapEmitter, TypedOutEmitter,
};
use rdf_model::atom::Atom;
use rdf_model::hash::DetHashMap;
use std::sync::Arc;

use crate::star_join::REDUCERS;

/// Shuffle value: `(side, row)` with side 0 = left, 1 = right.
type SidedRow = (u64, Row);

fn side_mapper(side: u64, key_col: usize) -> Arc<dyn mrsim::RawMapOp> {
    map_fn::<Row, _, _, _>(move |row, out: &mut TypedMapEmitter<'_, Atom, SidedRow>| {
        let key = row
            .get(key_col)
            .ok_or_else(|| {
                MrError::Op(format!("row arity {} too small for key column {key_col}", row.len()))
            })?
            .clone();
        out.emit(&key, &(side, row));
        Ok(())
    })
}

/// Build a join job of `left ⋈_var right`.
///
/// Returns the job and the output schema (left columns ++ right columns).
pub fn row_join_job(
    name: impl Into<String>,
    left: (&str, &RowSchema),
    right: (&str, &RowSchema),
    var: &str,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let lcol = left
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("left relation lacks join var ?{var}")))?;
    let rcol = right
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("right relation lacks join var ?{var}")))?;
    let schema = left.1.concat(right.1);
    let reducer =
        reduce_fn(move |_key: Atom, values: Vec<SidedRow>, out: &mut TypedOutEmitter<'_, Row>| {
            let mut lefts: Vec<&Row> = Vec::new();
            let mut rights: Vec<&Row> = Vec::new();
            for (side, row) in &values {
                match side {
                    0 => lefts.push(row),
                    1 => rights.push(row),
                    _ => return Err(MrError::Op("bad join side tag".into())),
                }
            }
            for l in &lefts {
                for r in &rights {
                    let mut joined: Row = Vec::with_capacity(l.len() + r.len());
                    joined.extend_from_slice(l);
                    joined.extend_from_slice(r);
                    out.emit(&joined)?;
                }
            }
            Ok(())
        });
    let spec = JobSpec::map_reduce(
        name,
        vec![
            InputBinding { file: left.0.to_string(), mapper: side_mapper(0, lcol) },
            InputBinding { file: right.0.to_string(), mapper: side_mapper(1, rcol) },
        ],
        reducer,
        REDUCERS,
        output,
    );
    Ok((spec, schema))
}

/// Build a **map-side broadcast** join of `left ⋈_var right`: the smaller
/// (`broadcast_left`-selected) relation ships to every map task through
/// the engine's distributed cache and the other streams through a map-only
/// scan — the relational counterpart of NTGA's `TG_BcastJoin`, collapsing
/// the join's shuffle and reduce phase entirely.
///
/// Output rows are left columns ++ right columns, exactly like
/// [`row_join_job`]; map-only output is concatenated in input order, so
/// the result is byte-identical across worker counts.
///
/// Returns the job and the output schema.
pub fn row_broadcast_join_job(
    name: impl Into<String>,
    left: (&str, &RowSchema),
    right: (&str, &RowSchema),
    var: &str,
    broadcast_left: bool,
    output: impl Into<String>,
) -> Result<(JobSpec, RowSchema), PlanError> {
    let lcol = left
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("left relation lacks join var ?{var}")))?;
    let rcol = right
        .1
        .index_of(var)
        .ok_or_else(|| PlanError::Internal(format!("right relation lacks join var ?{var}")))?;
    let schema = left.1.concat(right.1);
    let (build_file, probe_file) = if broadcast_left {
        (left.0.to_string(), right.0.to_string())
    } else {
        (right.0.to_string(), left.0.to_string())
    };
    let build_col = if broadcast_left { lcol } else { rcol };
    let probe_col = if broadcast_left { rcol } else { lcol };
    let mapper = map_only_fn_ctx::<Row, _, _>(
        move |ctx: &TaskContext, row, out: &mut TypedOutEmitter<'_, Row>| {
            let table = ctx.task_state(|| {
                let file = ctx.broadcast(0)?;
                let mut map: DetHashMap<Atom, Vec<Row>> = DetHashMap::default();
                for raw in &file.records {
                    let r = Row::from_bytes_with(raw, &ctx.atoms)?;
                    let key = r
                        .get(build_col)
                        .ok_or_else(|| {
                            MrError::Op(format!(
                                "row arity {} too small for key column {build_col}",
                                r.len()
                            ))
                        })?
                        .clone();
                    map.entry(key).or_default().push(r);
                }
                Ok(map)
            })?;
            let key = row.get(probe_col).ok_or_else(|| {
                MrError::Op(format!("row arity {} too small for key column {probe_col}", row.len()))
            })?;
            if let Some(matches) = table.get(key) {
                for b in matches {
                    // Reduce-side joins emit left columns then right columns;
                    // preserve that regardless of which side was broadcast.
                    let (l, r) = if broadcast_left { (b, &row) } else { (&row, b) };
                    let mut joined: Row = Vec::with_capacity(l.len() + r.len());
                    joined.extend_from_slice(l);
                    joined.extend_from_slice(r);
                    out.emit(&joined)?;
                }
            }
            Ok(())
        },
    );
    let spec = JobSpec::map_only(name, vec![probe_file], mapper, output).with_broadcast(build_file);
    Ok((spec, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsim::Engine;

    fn put_rows(engine: &Engine, name: &str, rows: Vec<Row>) {
        engine.put_records(name, rows).unwrap();
    }

    #[test]
    fn joins_on_shared_var() {
        let engine = Engine::unbounded();
        let lschema = RowSchema::new(vec![Some("a".into()), Some("x".into())]);
        let rschema = RowSchema::new(vec![Some("x".into()), Some("b".into())]);
        put_rows(
            &engine,
            "L",
            vec![
                vec!["<a1>".into(), "<k1>".into()],
                vec!["<a2>".into(), "<k1>".into()],
                vec!["<a3>".into(), "<k2>".into()],
            ],
        );
        put_rows(
            &engine,
            "R",
            vec![vec!["<k1>".into(), "<b1>".into()], vec!["<k3>".into(), "<b3>".into()]],
        );
        let (spec, schema) =
            row_join_job("join", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        engine.run_job(&spec).unwrap();
        let mut rows: Vec<Row> = engine.read_records("out").unwrap();
        rows.sort();
        // k1 matches: 2 lefts × 1 right.
        assert_eq!(rows.len(), 2);
        assert_eq!(schema.arity(), 4);
        let layout = rdf_query::SlotLayout::new(vec!["a".into(), "x".into(), "b".into()]);
        let set = schema.solutions(rows, &layout, None).unwrap();
        assert_eq!(set.len(), 2);
        for b in set.iter() {
            assert_eq!(&**b.get("x").unwrap(), "<k1>");
            assert_eq!(&**b.get("b").unwrap(), "<b1>");
        }
    }

    #[test]
    fn broadcast_join_matches_reduce_join_across_workers() {
        let lschema = RowSchema::new(vec![Some("a".into()), Some("x".into())]);
        let rschema = RowSchema::new(vec![Some("x".into()), Some("b".into())]);
        let lefts: Vec<Row> = vec![
            vec!["<a1>".into(), "<k1>".into()],
            vec!["<a2>".into(), "<k1>".into()],
            vec!["<a3>".into(), "<k2>".into()],
        ];
        let rights: Vec<Row> =
            vec![vec!["<k1>".into(), "<b1>".into()], vec!["<k2>".into(), "<b2>".into()]];

        let gold_engine = Engine::unbounded();
        put_rows(&gold_engine, "L", lefts.clone());
        put_rows(&gold_engine, "R", rights.clone());
        let (spec, gold_schema) =
            row_join_job("join", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        gold_engine.run_job(&spec).unwrap();
        let mut gold: Vec<Row> = gold_engine.read_records("out").unwrap();
        gold.sort();

        for broadcast_left in [true, false] {
            let mut raw_outputs = Vec::new();
            for workers in [1usize, 4, 8] {
                let engine = Engine::unbounded().with_workers(workers);
                put_rows(&engine, "L", lefts.clone());
                put_rows(&engine, "R", rights.clone());
                let (spec, schema) = row_broadcast_join_job(
                    "bjoin",
                    ("L", &lschema),
                    ("R", &rschema),
                    "x",
                    broadcast_left,
                    "out",
                )
                .unwrap();
                let stats = engine.run_job(&spec).unwrap();
                assert_eq!(stats.reduce_tasks, 0, "broadcast join must be map-only");
                assert_eq!(stats.broadcast_files, 1);
                assert_eq!(schema.cols, gold_schema.cols);
                let mut rows: Vec<Row> = engine.read_records("out").unwrap();
                raw_outputs.push(engine.hdfs().lock().get("out").unwrap().records.clone());
                rows.sort();
                assert_eq!(rows, gold, "broadcast_left={broadcast_left} workers={workers}");
            }
            assert!(
                raw_outputs.windows(2).all(|w| w[0] == w[1]),
                "map-only output must be byte-identical across worker counts"
            );
        }
    }

    #[test]
    fn missing_join_var_is_plan_error() {
        let lschema = RowSchema::new(vec![Some("a".into())]);
        let rschema = RowSchema::new(vec![Some("b".into())]);
        let r = row_join_job("j", ("L", &lschema), ("R", &rschema), "zz", "out");
        assert!(matches!(r, Err(PlanError::Internal(_))));
    }

    #[test]
    fn cross_product_within_key_group() {
        let engine = Engine::unbounded();
        let lschema = RowSchema::new(vec![Some("x".into()), Some("l".into())]);
        let rschema = RowSchema::new(vec![Some("x".into()), Some("r".into())]);
        let lefts: Vec<Row> =
            (0..3).map(|i| vec!["<k>".into(), format!("<l{i}>").into()]).collect();
        let rights: Vec<Row> =
            (0..4).map(|i| vec!["<k>".into(), format!("<r{i}>").into()]).collect();
        put_rows(&engine, "L", lefts);
        put_rows(&engine, "R", rights);
        let (spec, _) = row_join_job("j", ("L", &lschema), ("R", &rschema), "x", "out").unwrap();
        engine.run_job(&spec).unwrap();
        let rows: Vec<Row> = engine.read_records("out").unwrap();
        assert_eq!(rows.len(), 12);
    }
}
