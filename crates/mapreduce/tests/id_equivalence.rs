//! Equivalence of the ID-native shuffle with the lexical path: the same
//! grouping job run over LEB128-varint dictionary ids must decode to
//! byte-identical output records across worker counts {1, 4, 8}, with
//! and without a combiner. The two paths partition by different key
//! bytes, so equality is checked on the canonically sorted decoded
//! records; within the ID path, output files must be byte-identical
//! across worker counts.

use mrsim::{
    combine_fn, map_fn, map_fn_ctx, reduce_fn, reduce_fn_ctx, Engine, InputBinding, JobSpec, Rec,
    TypedMapEmitter, TypedOutEmitter, VarId,
};
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};
use proptest::strategy::Strategy;
use rdf_model::atom::atom;
use rdf_model::Dictionary;
use std::sync::Arc;

const TOKENS: [&str; 7] =
    ["<g1>", "<label>", "\"retinoid receptor\"", "<go:0005634>", "\"x\"", "<p>", "<g2>"];

fn arb_pairs() -> impl Strategy<Value = Vec<(String, String)>> {
    let tok = || prop::sample::select(TOKENS.to_vec()).prop_map(String::from);
    prop::collection::vec((tok(), tok()), 0..80)
}

/// Lexical reference: group `(a, b)` pairs by `a`, re-emit every pair.
fn run_lexical(
    pairs: &[(String, String)],
    workers: usize,
    with_combiner: bool,
) -> (mrsim::JobStats, Vec<Vec<u8>>) {
    let engine = Engine::unbounded().with_workers(workers);
    engine.put_records("in", pairs.to_vec()).unwrap();
    let mapper = map_fn::<(String, String), _, _, _>(
        |(a, b): (String, String), out: &mut TypedMapEmitter<'_, String, String>| {
            out.emit(&a, &b);
            Ok(())
        },
    );
    let reducer =
        reduce_fn(|a: String, bs: Vec<String>, out: &mut TypedOutEmitter<'_, (String, String)>| {
            for b in bs {
                out.emit(&(a.clone(), b))?;
            }
            Ok(())
        });
    let mut spec = JobSpec::map_reduce(
        "lex",
        vec![InputBinding { file: "in".into(), mapper }],
        reducer,
        3,
        "out",
    );
    if with_combiner {
        spec = spec.with_combiner(combine_fn(
            |a: String, bs: Vec<String>, out: &mut TypedMapEmitter<'_, String, String>| {
                for b in bs {
                    out.emit(&a, &b);
                }
                Ok(())
            },
        ));
    }
    let stats = engine.run_job(&spec).unwrap();
    let records = engine.hdfs().lock().get("out").unwrap().records.clone();
    (stats, records)
}

/// ID-native path: the same job over `(VarId, VarId)` records, resolving
/// ids at the output boundary and restoring the lexical value order.
fn run_ids(
    pairs: &[(String, String)],
    dict: &Dictionary,
    workers: usize,
    with_combiner: bool,
) -> (mrsim::JobStats, Vec<Vec<u8>>) {
    let engine = Engine::unbounded().with_workers(workers).with_dict(Arc::new(dict.clone()));
    let ids: Vec<(VarId, VarId)> = pairs
        .iter()
        .map(|(a, b)| (VarId(dict.get(&atom(a)).unwrap()), VarId(dict.get(&atom(b)).unwrap())))
        .collect();
    engine.put_records("in", ids).unwrap();
    let mapper = map_fn_ctx::<(VarId, VarId), _, _, _>(
        |_ctx: &mrsim::TaskContext,
         (a, b): (VarId, VarId),
         out: &mut TypedMapEmitter<'_, VarId, VarId>| {
            out.emit(&a, &b);
            Ok(())
        },
    );
    let reducer = reduce_fn_ctx(
        |ctx: &mrsim::TaskContext,
         a: VarId,
         bs: Vec<VarId>,
         out: &mut TypedOutEmitter<'_, (String, String)>| {
            let a = ctx.resolve_atom(a.0)?.to_string();
            let mut toks = bs
                .iter()
                .map(|b| Ok(ctx.resolve_atom(b.0)?.to_string()))
                .collect::<Result<Vec<String>, mrsim::MrError>>()?;
            // The lexical reducer sees values in encoded-token order (the
            // shuffle sorts by value bytes); restore it after resolution.
            toks.sort_by_cached_key(Rec::to_bytes);
            for b in toks {
                out.emit(&(a.clone(), b))?;
            }
            Ok(())
        },
    );
    let mut spec = JobSpec::map_reduce(
        "ids",
        vec![InputBinding { file: "in".into(), mapper }],
        reducer,
        3,
        "out",
    );
    if with_combiner {
        spec = spec.with_combiner(combine_fn(
            |a: VarId, bs: Vec<VarId>, out: &mut TypedMapEmitter<'_, VarId, VarId>| {
                for b in bs {
                    out.emit(&a, &b);
                }
                Ok(())
            },
        ));
    }
    let stats = engine.run_job(&spec).unwrap();
    let records = engine.hdfs().lock().get("out").unwrap().records.clone();
    (stats, records)
}

fn sorted(mut records: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    records.sort();
    records
}

proptest! {
    #[test]
    fn id_shuffle_decodes_byte_identical_to_lexical(
        pairs in arb_pairs(),
        with_combiner in 0usize..2,
    ) {
        let with_combiner = with_combiner == 1;
        let mut dict = Dictionary::new();
        for t in TOKENS {
            dict.encode(&atom(t));
        }
        let (_, lex_base) = run_lexical(&pairs, 1, with_combiner);
        let (_, id_base) = run_ids(&pairs, &dict, 1, with_combiner);
        // Same decoded records, canonically sorted (the two paths
        // partition by different key bytes, so file order differs).
        prop_assert_eq!(sorted(lex_base.clone()), sorted(id_base.clone()));

        for workers in [4usize, 8] {
            let (lex_stats, lex) = run_lexical(&pairs, workers, with_combiner);
            let (id_stats, id) = run_ids(&pairs, &dict, workers, with_combiner);
            // Worker count must not perturb either path's output file.
            prop_assert_eq!(&lex, &lex_base, "lexical diverged at {} workers", workers);
            prop_assert_eq!(&id, &id_base, "id diverged at {} workers", workers);
            prop_assert_eq!(lex_stats.reduce_groups, id_stats.reduce_groups);
            prop_assert_eq!(lex_stats.output_records, id_stats.output_records);
            if !pairs.is_empty() {
                // Varint ids beat length-prefixed tokens on the wire.
                prop_assert!(
                    id_stats.shuffle_wire_bytes() < lex_stats.shuffle_wire_bytes(),
                    "id wire {} >= lexical wire {}",
                    id_stats.shuffle_wire_bytes(),
                    lex_stats.shuffle_wire_bytes()
                );
            }
        }
    }
}

/// Large-input variant: enough records for multiple map tasks per worker,
/// so per-task combining and bucket absorption run on the ID path too.
#[test]
fn id_equivalence_across_multiple_map_tasks() {
    let pairs: Vec<(String, String)> = (0..6000)
        .map(|i| {
            (TOKENS[i % TOKENS.len()].to_string(), TOKENS[(i * 3 + 1) % TOKENS.len()].to_string())
        })
        .collect();
    let mut dict = Dictionary::new();
    for t in TOKENS {
        dict.encode(&atom(t));
    }
    for with_combiner in [false, true] {
        let (_, lex) = run_lexical(&pairs, 1, with_combiner);
        for workers in [1usize, 4, 8] {
            let (_, id) = run_ids(&pairs, &dict, workers, with_combiner);
            assert_eq!(
                sorted(lex.clone()),
                sorted(id),
                "workers={workers} combiner={with_combiner}"
            );
        }
    }
}
