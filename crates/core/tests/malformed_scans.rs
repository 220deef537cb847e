//! Malformed triple records through the scans that read them in place.
//!
//! Job 1, the relational star join and Pig's load copy read the triple
//! relation as borrowed views (`mr_rdf::TripleView`). A truncated record, a
//! record with trailing bytes and one with invalid UTF-8 must each fail the
//! scan with `MrError::Codec`; under skip mode each is quarantined once per
//! scan that reads it, and the answers equal those on the relation without
//! that triple.

use datagen::vocab::bsbm;
use mr_rdf::{load_store, TripleRec, TRIPLES_FILE};
use mrsim::{DfsFile, Engine, MrError, Rec};
use ntga_core::physical::group_filter_job;
use ntga_core::TgTuple;
use rdf_model::{STriple, TripleStore};
use rdf_query::{naive, parse_query, Query};
use relbase::{star_join_job, RelFlavor};

fn store() -> TripleStore {
    datagen::bsbm::generate(&datagen::BsbmConfig::with_products(12).with_seed(5))
}

fn query() -> Query {
    parse_query(&format!(
        "SELECT * WHERE {{ ?p {label} ?l1 . ?p ?u ?x . ?x {label} ?l2 . }}",
        label = bsbm::LABEL
    ))
    .unwrap()
}

/// Index of the triple to corrupt: a product label, which every query
/// here reads.
fn victim(store: &TripleStore) -> usize {
    store.iter().position(|t| &*t.p == bsbm::LABEL).expect("a label triple")
}

/// The three malformed forms of one record.
fn corruptions(record: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let truncated = record[..record.len() - 1].to_vec();
    let mut trailing = record.to_vec();
    trailing.push(0);
    // The record ends inside the object token; 0xff is never UTF-8.
    let mut bad_utf8 = record.to_vec();
    *bad_utf8.last_mut().unwrap() = 0xff;
    vec![("truncated", truncated), ("trailing bytes", trailing), ("invalid utf-8", bad_utf8)]
}

/// An engine whose triple relation is `store` with record `idx` replaced
/// by `bad`.
fn corrupted_engine(store: &TripleStore, idx: usize, bad: &[u8], skip: bool) -> Engine {
    let engine =
        if skip { Engine::unbounded().with_skip_bad_records(4) } else { Engine::unbounded() };
    let mut records: Vec<Vec<u8>> = store.iter().map(|t| TripleRec(t.clone()).to_bytes()).collect();
    records[idx] = bad.to_vec();
    let file = DfsFile { records, text_bytes: store.text_bytes(), ..DfsFile::default() };
    engine.hdfs().lock().put(TRIPLES_FILE, file).unwrap();
    engine
}

/// `store` without triple `idx`, loaded cleanly.
fn clean_engine(store: &TripleStore, idx: usize) -> (Engine, TripleStore) {
    let mut triples: Vec<STriple> = store.triples().to_vec();
    triples.remove(idx);
    let rest = TripleStore::from_triples(triples);
    let engine = Engine::unbounded();
    load_store(&engine, TRIPLES_FILE, &rest).unwrap();
    (engine, rest)
}

fn sorted<T: Rec>(records: &[T]) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = records.iter().map(Rec::to_bytes).collect();
    bytes.sort();
    bytes
}

#[test]
fn job1_rejects_or_quarantines_malformed_records() {
    let (store, q) = (store(), query());
    let idx = victim(&store);
    let job = || {
        let outputs = vec!["ec0".into(), "ec1".into()];
        group_filter_job("j1", &q, TRIPLES_FILE, outputs, vec![false; 2], None)
    };
    let (clean, _) = clean_engine(&store, idx);
    clean.run_job(&job()).unwrap();
    for (kind, bad) in corruptions(&TripleRec(store.triples()[idx].clone()).to_bytes()) {
        let err = corrupted_engine(&store, idx, &bad, false).run_job(&job()).unwrap_err();
        assert!(matches!(err, MrError::Codec(_)), "{kind}: {err:?}");

        let engine = corrupted_engine(&store, idx, &bad, true);
        let stats = engine.run_job(&job()).unwrap();
        assert_eq!(stats.records_skipped, 1, "{kind}");
        for out in ["ec0", "ec1"] {
            let got: Vec<TgTuple> = engine.read_records(out).unwrap();
            let want: Vec<TgTuple> = clean.read_records(out).unwrap();
            assert_eq!(sorted(&got), sorted(&want), "{kind}: {out}");
        }
    }
}

#[test]
fn star_join_rejects_or_quarantines_malformed_records() {
    let (store, q) = (store(), query());
    let idx = victim(&store);
    let star = &q.stars[0];
    // Pig's loads read the relation twice (bound and unbound mappers), so
    // the bad record is skipped once per read.
    for (pig_loads, reads) in [(false, 1), (true, 2)] {
        let job = || star_join_job("sj", star, TRIPLES_FILE, "out", pig_loads).0;
        let (clean, _) = clean_engine(&store, idx);
        clean.run_job(&job()).unwrap();
        let want: Vec<mr_rdf::Row> = clean.read_records("out").unwrap();
        for (kind, bad) in corruptions(&TripleRec(store.triples()[idx].clone()).to_bytes()) {
            let err = corrupted_engine(&store, idx, &bad, false).run_job(&job()).unwrap_err();
            assert!(matches!(err, MrError::Codec(_)), "{kind}: {err:?}");

            let engine = corrupted_engine(&store, idx, &bad, true);
            let stats = engine.run_job(&job()).unwrap();
            assert_eq!(stats.records_skipped, reads, "{kind} (pig loads {pig_loads})");
            let got: Vec<mr_rdf::Row> = engine.read_records("out").unwrap();
            assert_eq!(sorted(&got), sorted(&want), "{kind} (pig loads {pig_loads})");
        }
    }
}

#[test]
fn pig_load_rejects_or_quarantines_malformed_records() {
    let (store, q) = (store(), query());
    let idx = victim(&store);
    let (clean, rest) = clean_engine(&store, idx);
    let want = relbase::execute(RelFlavor::Pig, &clean, &q, TRIPLES_FILE, "q", true)
        .unwrap()
        .solutions
        .unwrap();
    assert_eq!(want, naive::evaluate(&q, &rest));
    for (kind, bad) in corruptions(&TripleRec(store.triples()[idx].clone()).to_bytes()) {
        let engine = corrupted_engine(&store, idx, &bad, false);
        let run = relbase::execute(RelFlavor::Pig, &engine, &q, TRIPLES_FILE, "q", true).unwrap();
        assert!(!run.succeeded(), "{kind}");
        let failure = run.stats.failure.as_deref().unwrap_or_default();
        assert!(failure.starts_with("codec error"), "{kind}: {failure}");

        let engine = corrupted_engine(&store, idx, &bad, true);
        let run = relbase::execute(RelFlavor::Pig, &engine, &q, TRIPLES_FILE, "q", true).unwrap();
        assert!(run.succeeded(), "{kind}");
        // The load copy quarantines the record; the star joins then read
        // the clean copy.
        let skipped: Vec<(&str, u64)> =
            run.stats.jobs.iter().map(|j| (j.name.as_str(), j.records_skipped)).collect();
        assert_eq!(skipped.iter().map(|(_, n)| n).sum::<u64>(), 1, "{kind}: {skipped:?}");
        assert!(skipped.iter().any(|&(name, n)| name.ends_with(".load") && n == 1), "{skipped:?}");
        assert_eq!(run.solutions.unwrap(), want, "{kind}");
    }
}
