//! Regression guard for the ID-native shuffle's wire-byte savings: the
//! benchmark workload (`benches/shuffle.rs`) shipped through varint
//! dictionary ids must put strictly fewer post-encoding bytes through the
//! shuffle than its lexical twin. Run with `--nocapture` to see the
//! numbers recorded in `BENCH_PR6.json`.

use mrsim::{
    combine_fn, map_fn, map_fn_ctx, reduce_fn, reduce_fn_ctx, Engine, InputBinding, JobSpec,
    TaskContext, TypedMapEmitter, TypedOutEmitter, VarId,
};
use rdf_model::atom::atom;
use rdf_model::Dictionary;
use std::sync::Arc;

const ROWS: usize = 30_000;
const FANOUT: usize = 4;
const PARTITIONS: usize = 8;

fn row(i: usize) -> (String, String) {
    let subject = format!("<http://example.org/resource/s{}>", i % 5_000);
    let object = match i % 3 {
        0 => format!("<http://example.org/vocab/class{}>", i % 97),
        1 => format!("\"literal value number {}\"", i % 977),
        _ => format!("<http://example.org/resource/s{}>", (i * 7) % 5_000),
    };
    (subject, object)
}

fn lexical_wire_bytes(with_combiner: bool) -> u64 {
    let engine = Engine::unbounded().with_workers(8);
    engine.put_records("in", (0..ROWS).map(row)).unwrap();
    let mapper = map_fn::<(String, String), _, _, _>(
        move |(s, o): (String, String), out: &mut TypedMapEmitter<'_, String, String>| {
            for k in 0..FANOUT {
                let key = if k == 0 { o.clone() } else { format!("{o}#{k}") };
                out.emit(&key, &s);
            }
            Ok(())
        },
    );
    let reducer = reduce_fn(
        |key: String, values: Vec<String>, out: &mut TypedOutEmitter<'_, (String, u64)>| {
            let total: u64 = values.iter().map(|v| v.len() as u64).sum();
            out.emit(&(key, total))
        },
    );
    let mut job = JobSpec::map_reduce(
        "lex",
        vec![InputBinding { file: "in".into(), mapper }],
        reducer,
        PARTITIONS,
        "out",
    );
    if with_combiner {
        job = job.with_combiner(combine_fn(
            |key: String, values: Vec<String>, out: &mut TypedMapEmitter<'_, String, String>| {
                let mut values = values;
                values.sort_unstable();
                values.dedup();
                for v in values {
                    out.emit(&key, &v);
                }
                Ok(())
            },
        ));
    }
    engine.run_job(&job).unwrap().shuffle_wire_bytes()
}

fn id_wire_bytes(with_combiner: bool) -> u64 {
    let engine = Engine::unbounded().with_workers(8);
    let mut dict = Dictionary::new();
    let rows: Vec<(VarId, VarId)> = (0..ROWS)
        .map(|i| {
            let (s, o) = row(i);
            (VarId(dict.encode(&atom(&s))), VarId(dict.encode(&atom(&o))))
        })
        .collect();
    engine.put_records("in", rows).unwrap();
    let engine = engine.with_dict(Arc::new(dict));
    let mapper = map_fn_ctx::<(VarId, VarId), _, _, _>(
        move |_ctx: &TaskContext,
              (s, o): (VarId, VarId),
              out: &mut TypedMapEmitter<'_, (VarId, VarId), VarId>| {
            for k in 0..FANOUT {
                out.emit(&(o, VarId(k as u32)), &s);
            }
            Ok(())
        },
    );
    let reducer = reduce_fn_ctx(
        |ctx: &TaskContext,
         (o, k): (VarId, VarId),
         values: Vec<VarId>,
         out: &mut TypedOutEmitter<'_, (String, u64)>| {
            let key = ctx.resolve_atom(o.0)?;
            let mut total = 0u64;
            for v in &values {
                total += ctx.resolve_atom(v.0)?.len() as u64;
            }
            out.emit(&(format!("{key}#{}", k.0), total))
        },
    );
    let mut job = JobSpec::map_reduce(
        "ids",
        vec![InputBinding { file: "in".into(), mapper }],
        reducer,
        PARTITIONS,
        "out",
    );
    if with_combiner {
        job = job.with_combiner(combine_fn(
            |key: (VarId, VarId),
             values: Vec<VarId>,
             out: &mut TypedMapEmitter<'_, (VarId, VarId), VarId>| {
                let mut values = values;
                values.sort_unstable_by_key(|v| v.0);
                values.dedup();
                for v in values {
                    out.emit(&key, &v);
                }
                Ok(())
            },
        ));
    }
    engine.run_job(&job).unwrap().shuffle_wire_bytes()
}

#[test]
fn id_shuffle_ships_a_fraction_of_lexical_wire_bytes() {
    for with_combiner in [false, true] {
        let lex = lexical_wire_bytes(with_combiner);
        let ids = id_wire_bytes(with_combiner);
        println!(
            "combiner={with_combiner}: lexical {lex} B, id {ids} B, reduction {:.1}%",
            (1.0 - ids as f64 / lex as f64) * 100.0
        );
        // The tokens average ~35 bytes each (plus 4-byte length prefixes);
        // the varint encoding fits a pair in ≤ 8 bytes. Demand at least a
        // 5× reduction so codec regressions can't hide in noise.
        assert!(
            ids * 5 < lex,
            "id wire {ids} not <5x below lexical {lex} (combiner={with_combiner})"
        );
    }
}
