//! Figure 11 — lazy *full* versus lazy *partial* β-unnesting, measured on
//! the last MR cycle (the join on the unbound-property pattern).
//!
//! Paper shape: for unbound-object patterns (B1) partial unnesting shrinks
//! the shuffle and wins; for partially-bound-object patterns (B2, B3) the
//! candidate sets are already small and a full unnest is sufficient —
//! partial adds reduce-side overhead for nothing. This is the ablation
//! behind the paper's Auto policy.

use ntga::{run_query, Approach};
use ntga_bench::{report, BenchOpts, Scale};

fn main() {
    let opts = BenchOpts::from_env();
    if opts.strategy.is_some() {
        eprintln!("note: fig11 is a fixed full-vs-partial ablation; --strategy is ignored");
    }
    let scale = Scale::from_env();
    let store = datagen::bsbm::generate(&datagen::BsbmConfig {
        products: scale.entities(150),
        features: 120,
        max_features_per_product: 48,
        multi_feature_fraction: 0.97,
        ..Default::default()
    });
    let cluster = opts.cluster(ntga::ClusterConfig {
        cost: mrsim::CostModel::scaled_to(store.text_bytes()),
        ..Default::default()
    });
    println!(
        "dataset: BSBM-2M analog, {} triples ({})",
        store.len(),
        report::human_bytes(store.text_bytes()),
    );
    let queries: Vec<(String, rdf_query::Query)> = ntga::testbed::b_series()
        .into_iter()
        .filter(|t| ["B1", "B2", "B3"].contains(&t.id.as_str()))
        .map(|t| (t.id, t.query))
        .collect();

    println!(
        "\n=== Figure 11: last MR cycle (join on unbound pattern), lazy full vs partial ===\n\
         paper shape: partial unnest wins for unbound objects (B1); full is sufficient for partially-bound objects (B2, B3)\n"
    );
    println!(
        "{:<6} {:<22} {:>12} {:>12} {:>12} {:>6} {:>10} {:>12} {:>12}",
        "query",
        "strategy",
        "map-out",
        "shuffle",
        "max-part",
        "skew",
        "last(s)",
        "nested.B",
        "expanded.B"
    );
    let mut rows = Vec::new();
    for (qid, query) in &queries {
        for (label, approach) in [
            ("LazyUnnest(full)", Approach::NtgaLazyFull),
            ("LazyUnnest(phi_16)", Approach::NtgaLazyPartial(16)),
            ("LazyUnnest(phi_64)", Approach::NtgaLazyPartial(64)),
            ("LazyUnnest(phi_1K)", Approach::NtgaLazyPartial(1024)),
        ] {
            let run_label = format!("{qid}-{label}");
            let engine = cluster.engine_with(&store);
            let run = run_query(approach, &engine, query, &run_label, false)
                .unwrap_or_else(|e| panic!("{run_label}: planning failed: {e}"));
            let last = run.stats.jobs.last().expect("join cycle");
            println!(
                "{:<6} {:<22} {:>12} {:>12} {:>12} {:>6.2} {:>10.1} {:>12} {:>12}",
                qid,
                label,
                report::human_bytes(last.map_output_bytes),
                report::human_bytes(last.shuffle_bytes()),
                report::human_bytes(last.max_partition_shuffle_bytes()),
                last.reduce_skew(),
                last.sim_seconds,
                report::human_bytes(last.ops.get(ntga_core::physical::op::PARTIAL_NESTED_BYTES)),
                report::human_bytes(last.ops.get(ntga_core::physical::op::PARTIAL_EXPANDED_BYTES)),
            );
            rows.push(report::Row::from_run(qid, label, &run));
        }
        println!("{}", "-".repeat(110));
    }
    opts.write_profile(&cluster, &store, &queries);
    opts.finish(&rows);
}
