//! Answer extraction against the naive oracle.
//!
//! Every MapReduce evaluator builds its solution set through one row
//! builder (`rdf_query::SlotLayout`): NTGA walks joined triplegroup tuples
//! into answer rows (`expand_tuples`), the relational planners map their
//! final rows' columns onto the same slots. These tests run both on
//! generated BSBM and Bio2RDF stores and compare with
//! `rdf_query::naive::evaluate`, covering projections that collapse
//! duplicates, variables repeated inside one star, variables shared across
//! stars, and the unbound-slot error.

use datagen::vocab::{bio2rdf as bio, bsbm};
use mr_rdf::{load_store, PlanError};
use mrsim::{CostModel, Engine};
use ntga_core::physical::group_filter_job;
use ntga_core::{execute_plan_on, expand_tuples, DataPlane, Strategy, TgTuple};
use rdf_model::{STriple, TripleStore};
use rdf_query::{naive, parse_query, Query, SolutionSet};
use relbase::{Grouping, RelFlavor};

fn bsbm_store() -> TripleStore {
    datagen::bsbm::generate(&datagen::BsbmConfig::with_products(24).with_seed(11))
}

fn bio2rdf_store() -> TripleStore {
    datagen::bio2rdf::generate(&datagen::Bio2RdfConfig::with_genes(24).with_seed(11))
}

fn engine_for(store: &TripleStore) -> Engine {
    let engine = Engine::unbounded().with_cost(CostModel::scaled_to(store.text_bytes()));
    load_store(&engine, "t", store).unwrap();
    engine
}

/// Every planner's answers to `text` on `store`, labelled.
fn all_answers(store: &TripleStore, text: &str) -> Vec<(String, SolutionSet)> {
    let query = parse_query(text).unwrap();
    let mut out = Vec::new();
    let strategies = [Strategy::Eager, Strategy::LazyFull, Strategy::LazyPartial(4)];
    for (i, strategy) in strategies.into_iter().chain([Strategy::Auto(1024)]).enumerate() {
        let engine = engine_for(store);
        let plan = strategy.plan(&query).unwrap();
        let run = execute_plan_on(
            DataPlane::Lexical,
            &plan,
            &engine,
            &query,
            "t",
            &format!("n{i}"),
            true,
        )
        .unwrap();
        assert!(run.succeeded(), "{}", strategy.label());
        out.push((strategy.label(), run.solutions.unwrap()));
    }
    for flavor in [RelFlavor::Pig, RelFlavor::Hive] {
        let engine = engine_for(store);
        let run = relbase::execute(flavor, &engine, &query, "t", "r", true).unwrap();
        assert!(run.succeeded(), "{flavor:?}");
        out.push((flavor.label().to_string(), run.solutions.unwrap()));
    }
    if !query.stars.iter().any(|s| s.has_unbound()) && query.stars.len() == 2 {
        // Sel-SJ-first fuses the second star into attach cycles.
        let engine = engine_for(store);
        let run = relbase::execute_grouping(Grouping::SelSjFirst, &engine, &query, "t", "g", true)
            .unwrap();
        assert!(run.succeeded(), "SelSjFirst");
        out.push(("SelSjFirst".to_string(), run.solutions.unwrap()));
    }
    out
}

fn assert_all_match_naive(store: &TripleStore, text: &str) -> SolutionSet {
    let gold = naive::evaluate(&parse_query(text).unwrap(), store);
    assert!(!gold.is_empty(), "query must have answers: {text}");
    for (label, got) in all_answers(store, text) {
        assert_eq!(got, gold, "{label} on {text}");
    }
    gold
}

#[test]
fn bsbm_answers_match_naive() {
    let store = bsbm_store();
    let (label, feature, producer, country) =
        (bsbm::LABEL, bsbm::PRODUCT_FEATURE, bsbm::PRODUCER, bsbm::COUNTRY);
    // Variables shared across stars (?pr), with an unbound pattern.
    assert_all_match_naive(
        &store,
        &format!(
            "SELECT * WHERE {{ ?p {label} ?l1 . ?p {producer} ?pr . ?p ?u ?any .
               ?pr {label} ?l2 . ?pr {country} ?c . }}"
        ),
    );
    // A projection that collapses every product's many rows into one
    // answer per (producer, country).
    let projected = assert_all_match_naive(
        &store,
        &format!(
            "SELECT ?pr ?c WHERE {{ ?p {label} ?l1 . ?p {feature} ?f . ?p {producer} ?pr .
               ?p ?u ?any . ?pr {label} ?l2 . ?pr {country} ?c . }}"
        ),
    );
    let full = naive::evaluate(
        &parse_query(&format!(
            "SELECT * WHERE {{ ?p {label} ?l1 . ?p {feature} ?f . ?p {producer} ?pr .
               ?p ?u ?any . ?pr {label} ?l2 . ?pr {country} ?c . }}"
        ))
        .unwrap(),
        &store,
    );
    assert!(projected.len() < full.len(), "projection must collapse duplicates");
    // Bound-only object-subject and object-object joins (the attach jobs).
    assert_all_match_naive(
        &store,
        &format!(
            "SELECT * WHERE {{ ?p {label} ?l1 . ?p {producer} ?pr .
               ?pr {label} ?l2 . ?pr {country} ?c . }}"
        ),
    );
    assert_all_match_naive(
        &store,
        &format!(
            "SELECT ?o ?r WHERE {{ ?o {} ?x . ?o {} ?price . ?r {} ?x . ?r {} ?rating . }}",
            bsbm::OFFER_PRODUCT,
            bsbm::PRICE,
            bsbm::REVIEW_FOR,
            bsbm::RATING
        ),
    );
}

#[test]
fn bio2rdf_answers_match_naive() {
    let store = bio2rdf_store();
    let (label, ref_db) = (bio::LABEL, bio::REF_DB);
    // Unbound patterns in both stars; ?r shared across them.
    assert_all_match_naive(
        &store,
        &format!(
            "SELECT * WHERE {{ ?g {label} ?l . ?g ?u1 ?r . ?r {ref_db} ?db . ?r ?u2 ?z .
               FILTER contains(?z, \"pubmed\") . }}"
        ),
    );
    // Projected single star with a partially bound object.
    assert_all_match_naive(
        &store,
        &format!("SELECT ?g WHERE {{ ?g {label} ?l . ?g ?u ?x . FILTER prefix(?x, \"<ref\") . }}"),
    );
}

/// Job 1 then `expand_tuples` over its single output, for one-star
/// queries the planners refuse up front (a variable repeated inside a
/// star): the row walk itself must reject the conflicting rebind.
fn job1_answers(store: &TripleStore, query: &Query, eager: bool) -> SolutionSet {
    let engine = engine_for(store);
    let job = group_filter_job("j1", query, "t", vec!["ec0".into()], vec![eager], None);
    engine.run_job(&job).unwrap();
    let tuples: Vec<TgTuple> = engine.read_records("ec0").unwrap();
    expand_tuples(&tuples, &[0], query).unwrap()
}

#[test]
fn variable_repeated_inside_a_star_matches_naive() {
    let mut store = bsbm_store();
    for i in 0..6 {
        store.insert(STriple::new(format!("<s{i}>"), "<self>", format!("<s{i}>")));
        store.insert(STriple::new(format!("<s{i}>"), "<self>", format!("<t{i}>")));
        store.insert(STriple::new(format!("<s{i}>"), bsbm::LABEL, format!("\"s{i}\"")));
    }
    for text in [
        // Bound pattern whose object repeats the subject.
        "SELECT * WHERE { ?x <self> ?x . ?x ?u ?o . }",
        // Unbound pattern whose object repeats the subject.
        "SELECT * WHERE { ?x <rdfs:label> ?l . ?x ?u ?x . }",
        // Two unbound patterns sharing their object, projected.
        "SELECT ?x ?o WHERE { ?x <self> ?t . ?x ?u ?o . ?x ?v ?o . }",
    ] {
        let query = parse_query(text).unwrap();
        let gold = naive::evaluate(&query, &store);
        assert!(!gold.is_empty(), "{text}");
        for eager in [false, true] {
            assert_eq!(job1_answers(&store, &query, eager), gold, "{text} (eager {eager})");
        }
    }
}

#[test]
fn unbound_slot_is_an_internal_error() {
    let store = bsbm_store();
    let query = parse_query(&format!(
        "SELECT * WHERE {{ ?p {} ?pr . ?pr {} ?c . }}",
        bsbm::PRODUCER,
        bsbm::COUNTRY
    ))
    .unwrap();
    let engine = engine_for(&store);
    let outputs = vec!["ec0".into(), "ec1".into()];
    engine.run_job(&group_filter_job("j1", &query, "t", outputs, vec![false; 2], None)).unwrap();
    let tuples: Vec<TgTuple> = engine.read_records("ec0").unwrap();
    assert!(!tuples.is_empty());
    // Tuples of star 0 alone never bind star 1's ?c: an evaluator bug,
    // never a silently dropped answer.
    let err = expand_tuples(&tuples, &[0], &query).unwrap_err();
    assert!(matches!(&err, PlanError::Internal(m) if m.contains("?c")), "{err:?}");
    // Even when the projection drops ?c.
    let projected = query.clone().with_projection(vec!["p".into()]);
    assert!(matches!(expand_tuples(&tuples, &[0], &projected), Err(PlanError::Internal(_))));
}
