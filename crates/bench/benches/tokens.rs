//! Token-representation benchmark: the decode → group-by → full β-unnest
//! hot path over a BSBM-like batch, run with three token representations:
//!
//! * `string` — the historical owned `String` tokens (re-implemented here
//!   as a mirror of the pre-migration code), re-copied at every clone site;
//! * `atom` — every record decoded into interned `Atom`s, cloned by
//!   bumping a reference count;
//! * `view` — every record read in place as a borrowed `TripleView` and
//!   grouped by borrowed tokens; each group's tokens are interned once,
//!   when the triplegroup is built (scans borrow, typed decode interns).

use criterion::{criterion_group, criterion_main, Criterion};
use mr_rdf::{TripleRec, TripleView};
use mrsim::Rec;
use ntga_core::logical::{beta_group_filter, beta_unnest, group_by_subject, TripleGroup};
use rdf_model::atom::AtomTable;
use rdf_query::StarPattern;
use std::collections::BTreeMap;
use std::hint::black_box;

fn star() -> StarPattern {
    // Two unbound patterns: the full unnest materializes the cross product
    // of their candidate lists, cloning the whole bound component into
    // every combination — the redundancy whose token-copy cost the Atom
    // migration removes.
    rdf_query::parse_query(
        "SELECT * WHERE { ?p <rdfs:label> ?l . ?p <bsbm:productFeature> ?f . ?p ?u ?x . ?p ?v ?y . }",
    )
    .unwrap()
    .stars
    .remove(0)
}

/// The encoded batch a map task would decode: every BSBM triple as wire
/// bytes (identical for both representations — the codec is byte-stable).
fn encoded_batch() -> Vec<Vec<u8>> {
    let store = datagen::bsbm::generate(&datagen::BsbmConfig::with_products(300));
    store.triples().iter().map(|t| TripleRec(t.clone()).to_bytes()).collect()
}

// ---- String mirror of the pre-migration pipeline ----------------------

struct StringTriple {
    s: String,
    p: String,
    o: String,
}

fn decode_string(buf: &[u8]) -> StringTriple {
    fn read_str(buf: &[u8], at: &mut usize) -> String {
        let len = u32::from_le_bytes(buf[*at..*at + 4].try_into().unwrap()) as usize;
        *at += 4;
        let s = std::str::from_utf8(&buf[*at..*at + len]).unwrap().to_string();
        *at += len;
        s
    }
    let mut at = 0;
    let s = read_str(buf, &mut at);
    let p = read_str(buf, &mut at);
    let o = read_str(buf, &mut at);
    StringTriple { s, p, o }
}

struct StringAnnTg {
    subject: String,
    bound: Vec<(String, Vec<String>)>,
    unbound: Vec<Vec<(String, String)>>,
}

/// group-by + σ^βγ + full μ^β with owned-String clones, mirroring the
/// pre-migration operators structure-for-structure: the only difference
/// from `atom_pipeline` is the token type, so the measured gap is the cost
/// of copying heap strings at every clone site.
fn string_pipeline(batch: &[Vec<u8>], star: &StarPattern) -> usize {
    // Decode the whole chunk first, as the typed adapter era did.
    let decoded: Vec<StringTriple> = batch.iter().map(|rec| decode_string(rec)).collect();
    // γ: group triples by subject. `group_by_subject` takes a borrowed
    // slice, so the String era cloned every token here.
    let mut groups: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for t in &decoded {
        groups.entry(t.s.clone()).or_default().push((t.p.clone(), t.o.clone()));
    }
    // σ^βγ: admit subjects carrying every bound property; candidates for
    // each unbound pattern are the subject's full pair list.
    let bound_props: Vec<String> = star.bound_properties().iter().map(|p| p.to_string()).collect();
    let n_unbound = star.unbound_patterns().len();
    let mut anns: Vec<StringAnnTg> = Vec::new();
    for (subject, pairs) in &groups {
        let mut bound = Vec::with_capacity(bound_props.len());
        let mut ok = true;
        for bp in &bound_props {
            let objs: Vec<String> =
                pairs.iter().filter(|(p, _)| p == bp).map(|(_, o)| o.clone()).collect();
            if objs.is_empty() {
                ok = false;
                break;
            }
            bound.push((bp.clone(), objs));
        }
        if !ok {
            continue;
        }
        let cands: Vec<(String, String)> = pairs.clone();
        anns.push(StringAnnTg { subject: subject.clone(), bound, unbound: vec![cands; n_unbound] });
    }
    // μ^β: one perfect triplegroup per combination — subject, the whole
    // bound component, and the pinned candidate are all cloned and the
    // perfect groups accumulated, exactly as the pre-migration
    // `beta_unnest` did.
    let mut out = 0usize;
    for ann in &anns {
        let dims: Vec<usize> = ann.unbound.iter().map(Vec::len).collect();
        if dims.contains(&0) {
            continue;
        }
        let mut perfect: Vec<StringAnnTg> = Vec::new();
        let mut done = false;
        let mut cursor = vec![0usize; dims.len()];
        while !done {
            let unbound: Vec<Vec<(String, String)>> =
                cursor.iter().enumerate().map(|(j, &c)| vec![ann.unbound[j][c].clone()]).collect();
            perfect.push(StringAnnTg {
                subject: ann.subject.clone(),
                bound: ann.bound.clone(),
                unbound,
            });
            let mut pos = dims.len();
            loop {
                if pos == 0 {
                    done = true;
                    break;
                }
                pos -= 1;
                cursor[pos] += 1;
                if cursor[pos] < dims[pos] {
                    break;
                }
                cursor[pos] = 0;
            }
        }
        out += black_box(perfect).len();
    }
    out
}

/// Interned decode of every record, `group_by_subject`, σ^βγ, full μ^β.
fn atom_pipeline(batch: &[Vec<u8>], star: &StarPattern) -> usize {
    let table = AtomTable::new();
    let triples: Vec<rdf_model::STriple> =
        batch.iter().map(|rec| TripleRec::from_bytes_with(rec, &table).unwrap().0).collect();
    let tgs = group_by_subject(&triples);
    let anns = beta_group_filter(&tgs, star, 0);
    anns.iter().map(|ann| black_box(beta_unnest(ann)).len()).sum()
}

/// Scans read in place: borrowed tokens are grouped by subject, and each
/// group's tokens are interned once when its triplegroup is built.
fn view_pipeline(batch: &[Vec<u8>], star: &StarPattern) -> usize {
    let table = AtomTable::new();
    let mut groups: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
    for rec in batch {
        let t = TripleView::parse(rec).unwrap();
        groups.entry(t.s).or_default().push((t.p, t.o));
    }
    let tgs: Vec<TripleGroup> = groups
        .into_iter()
        .map(|(s, pairs)| TripleGroup {
            subject: table.intern(s),
            pairs: pairs.into_iter().map(|(p, o)| (table.intern(p), table.intern(o))).collect(),
        })
        .collect();
    let anns = beta_group_filter(&tgs, star, 0);
    anns.iter().map(|ann| black_box(beta_unnest(ann)).len()).sum()
}

fn bench_tokens(c: &mut Criterion) {
    let batch = encoded_batch();
    let star = star();
    let perfect = atom_pipeline(&batch, &star);
    assert_eq!(string_pipeline(&batch, &star), perfect, "string and atom rows disagree");
    assert_eq!(view_pipeline(&batch, &star), perfect, "view and atom rows disagree");
    let mut group = c.benchmark_group("token_repr");
    group.bench_function("string/decode_group_unnest", |b| {
        b.iter(|| string_pipeline(black_box(&batch), black_box(&star)))
    });
    group.bench_function("atom/decode_group_unnest", |b| {
        b.iter(|| atom_pipeline(black_box(&batch), black_box(&star)))
    });
    group.bench_function("view/decode_group_unnest", |b| {
        b.iter(|| view_pipeline(black_box(&batch), black_box(&star)))
    });
    group.finish();
}

criterion_group!(benches, bench_tokens);
criterion_main!(benches);
