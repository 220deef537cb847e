//! Host-time benchmark of the NTGA reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bsbm_panel|bio2rdf_costplan|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client runs one operation at a time, with one engine
//! worker thread. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer split (see `perfbench/README.md`).
//! The last line of standard output is the JSON result.

mod reference;
mod stats;
mod trace;
mod workloads;

use stats::{geomean, median, quantile, Fingerprint};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Counts, Family, OpOut, Workload};

/// Set-up runs this many times before the loop, then once more whenever
/// [`SETUP_EVERY`] of loop time has passed, so that its samples see the
/// same machine conditions as the operations; `setup_s` is the median.
const SETUP_FIRST_REPS: usize = 3;
const SETUP_EVERY: Duration = Duration::from_millis(250);
/// `peak_rss_mib` is the median over this many fresh processes, each
/// running one pass of the workload.
const RSS_PROBES: usize = 3;
/// An operation still running after this long counts as failed and is
/// abandoned (a hung engine cannot be cancelled from outside).
const WATCHDOG: Duration = Duration::from_secs(20);
/// Time past `--seconds` after which no new operation starts, so that a
/// run with hung operations still ends well inside three minutes.
const HANG_ALLOWANCE: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: compute the naive oracle into this file and exit.
    oracle_out: Option<PathBuf>,
    /// Internal: run one pass and print the peak resident set size.
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if map.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| map.remove(k);
    let workload = take("--workload").ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {:?}", workloads::NAMES));
    }
    let num = |v: Option<String>, k: &str, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |s| s.parse().map_err(|e| format!("{k} {s}: {e}")))
    };
    let seed = num(take("--seed"), "--seed", 1)?;
    let seconds = num(take("--seconds"), "--seconds", 10)?;
    let trace = match take("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let oracle_out = take("--oracle-out").map(PathBuf::from);
    let rss_probe = take("--rss-probe").is_some_and(|v| v == "1");
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace, oracle_out, rss_probe })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.oracle_out {
        Some(path) => write_oracle(&args, path).map(|()| true),
        None if args.rss_probe => rss_probe(&args).map(|()| true),
        None => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Directory of the benchmark package; its `.cache` and `out`
/// subdirectories hold the oracle/count caches and the trace output.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Identity of the running binary, so caches never outlive the code that
/// wrote them.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut h = stats::Hasher2::default();
    h.write(&bytes);
    let (a, b) = h.finish();
    Ok(format!("{a:016x}{b:016x}"))
}

fn cache_path(kind: &str, args: &Args, build: &str) -> PathBuf {
    bench_dir().join(".cache").join(format!("{kind}-{}-s{}-{build}.txt", args.workload, args.seed))
}

fn setup_once(
    args: &Args,
    seed: u64,
) -> Result<(Box<dyn Workload>, workloads::SetupTimes), String> {
    workloads::setup(&args.workload, seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))
}

/// Child-process mode: evaluate every query with the naive evaluator and
/// write the answers' fingerprints. Runs in its own process so neither its
/// time nor its memory reaches the measured run.
fn write_oracle(args: &Args, path: &Path) -> Result<(), String> {
    let (w, _) = setup_once(args, args.seed)?;
    let tasks = w.oracle_tasks();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(tasks.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut answers: Vec<(usize, Fingerprint)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((_, q, store)) = tasks.get(i) else { break out };
                        out.push((i, Fingerprint::of(&rdf_query::naive::evaluate(q, store))));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    answers.sort_by_key(|&(i, _)| i);
    let mut text = String::new();
    for (i, fp) in answers {
        writeln!(text, "{}", fp.to_line(&tasks[i].0)).expect("writing to a String");
    }
    write_file(path, &text)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // Write then rename, so a killed run never leaves a truncated cache.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
}

/// The oracle's answers for this workload and seed: from the cache, or
/// computed by a child process.
fn load_oracle(args: &Args, build: &str) -> Result<BTreeMap<String, Fingerprint>, String> {
    let path = cache_path("oracle", args, build);
    if !path.exists() {
        let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
        let status = std::process::Command::new(exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .arg("--oracle-out")
            .arg(&path)
            .status()
            .map_err(|e| format!("starting the oracle: {e}"))?;
        if !status.success() {
            return Err(format!("oracle process failed: {status}"));
        }
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|l| Fingerprint::from_line(l).ok_or_else(|| format!("bad oracle line {l:?}")))
        .collect()
}

/// Child-process mode: set up, run every cell once, print the peak
/// resident set size in MiB.
fn rss_probe(args: &Args) -> Result<(), String> {
    let (w, _) = setup_once(args, args.seed)?;
    let w: Arc<dyn Workload> = Arc::from(w);
    let mut runner = Runner::new(Arc::clone(&w));
    for cell in 0..w.cells().len() {
        // Answers are checked by the measuring process; only memory counts here.
        let _ = runner.run(cell, None);
    }
    runner.stop();
    println!("{}", peak_rss_mib()?);
    Ok(())
}

/// Median peak RSS over [`RSS_PROBES`] fresh processes.
fn probe_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--rss-probe", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the memory probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(mib) if out.status.success() => peaks.push(mib),
            _ => return Err(format!("memory probe failed: {} {text:?}", out.status)),
        }
    }
    Ok(median(&peaks))
}

/// One measured operation.
struct Sample {
    pass: usize,
    cell: usize,
    traced: bool,
    out: OpOut,
    /// Reference normalization factor in force for this operation.
    scale: f64,
}

impl Sample {
    /// Normalized operation latency in ms.
    fn latency_ms(&self) -> f64 {
        ms(self.out.latency_ns) * self.scale
    }

    /// Normalized ingest time in ms.
    fn ingest_ms(&self) -> f64 {
        ms(self.out.ingest_ns) * self.scale
    }
}

type Job = (usize, Option<Arc<Tracer>>);

/// The thread operations run on, one at a time, under a watchdog: a panic
/// or a hang becomes a failed operation. One long-lived thread keeps the
/// allocator's per-thread state the same for every operation.
struct Runner {
    workload: Arc<dyn Workload>,
    thread: Option<(mpsc::Sender<Job>, mpsc::Receiver<OpOut>, std::thread::JoinHandle<()>)>,
}

impl Runner {
    fn new(workload: Arc<dyn Workload>) -> Self {
        Runner { workload, thread: None }
    }

    fn run(&mut self, cell: usize, tracer: Option<&Arc<Tracer>>) -> OpOut {
        let (jobs, results, _) = self.thread.get_or_insert_with(|| {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let (out_tx, out_rx) = mpsc::channel();
            let w = Arc::clone(&self.workload);
            let handle = std::thread::Builder::new()
                .name("operations".into())
                .spawn(move || {
                    for (cell, tracer) in job_rx {
                        let reference_ns = reference::time_ns();
                        let mut out =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                w.run(cell, tracer.as_ref())
                            }))
                            .unwrap_or_else(|panic| {
                                let why = panic
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_else(|| "unknown panic".into());
                                OpOut::failure(format!("panic: {why}"))
                            });
                        out.reference_ns = reference_ns;
                        if out_tx.send(out).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawning the operation thread");
            (job_tx, out_rx, handle)
        });
        jobs.send((cell, tracer.cloned())).expect("the operation thread outlives its jobs");
        match results.recv_timeout(WATCHDOG) {
            Ok(out) => out,
            Err(e) => {
                // A hung operation cannot be cancelled: leave its thread
                // behind (it holds only its own engine, and process exit
                // reclaims it) and start a fresh one for the next job.
                self.thread = None;
                OpOut::failure(format!("operation thread: {e} after {WATCHDOG:?}"))
            }
        }
    }

    /// Stop the operation thread and wait for it to end.
    fn stop(mut self) {
        if let Some((jobs, _, handle)) = self.thread.take() {
            drop(jobs);
            handle.join().expect("the operation thread catches panics");
        }
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn commit() -> String {
    let root = bench_dir().join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Geometric mean over cells of each cell's median time `value`, for the
/// samples `keep` selects. Cells differ in cost by design, so a median
/// pooled over cells would sit on the boundary between them.
fn cell_median_geomean(
    samples: &[&Sample],
    cells: usize,
    value: fn(&Sample) -> f64,
    keep: impl Fn(&Sample) -> bool,
) -> f64 {
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); cells];
    for s in samples.iter().filter(|s| keep(s)) {
        per_cell[s.cell].push(value(s));
    }
    let medians: Vec<f64> = per_cell.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    geomean(&medians)
}

/// Timings of every set-up of a run.
#[derive(Default)]
struct SetupSamples {
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    stats_ms: Vec<f64>,
}

impl SetupSamples {
    /// Set the workload up once more, timing it. Set-up runs on the main
    /// thread, so the reference kernel is timed there, just before.
    fn take(&mut self, args: &Args) -> Result<Box<dyn Workload>, String> {
        let mut scale = reference::Scale::default();
        for _ in 0..3 {
            scale.push(reference::time_ns());
        }
        let scale = scale.factor();
        let t = Instant::now();
        let (w, times) = setup_once(args, args.seed)?;
        self.setup_s.push(t.elapsed().as_secs_f64() * scale);
        self.generate_ms.push(ms(times.generate_ns) * scale);
        self.stats_ms.push(ms(times.stats_ns) * scale);
        Ok(w)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let build = build_id()?;

    // Set-up, several times; the last copy is the one measured.
    let mut setups = SetupSamples::default();
    let mut hashes = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_FIRST_REPS {
        drop(workload.take());
        let w = setups.take(args)?;
        hashes.push(w.data_hash());
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let mut problems: Vec<String> = Vec::new();
    if hashes.iter().any(|h| *h != hashes[0]) {
        problems.push("one seed generated different data on repeated set-ups".into());
    }
    let (other, _) = setup_once(args, args.seed.wrapping_add(1))?;
    if other.data_hash() == hashes[0] {
        problems.push(format!(
            "seeds {} and {} generated identical data",
            args.seed,
            args.seed.wrapping_add(1)
        ));
    }
    drop(other);

    if !workload.oracle_tasks().is_empty() {
        workload.set_oracle(load_oracle(args, &build)?);
    }
    let workload: Arc<dyn Workload> = Arc::from(workload);
    let cells = workload.cells().to_vec();

    // Closed loop: pass 0 warms up; passes then repeat every cell in a
    // fixed order until the time is up. In a traced run odd passes are
    // traced and even ones are not, which measures tracing overhead.
    let epoch = Instant::now();
    let tracer = args.trace.then(|| Arc::new(Tracer::new(epoch)));
    let mut samples = Vec::new();
    let mut exec_cells: BTreeMap<u32, usize> = BTreeMap::new();
    let mut execs = 0u32;
    let deadline = Duration::from_secs(args.seconds);
    let mut measure_start = None;
    let mut pass = 0usize;
    let mut runner = Runner::new(Arc::clone(&workload));
    let mut last_setup = Instant::now();
    let mut scale = reference::Scale::default();
    scale.push(reference::time_ns());
    let mut reference_ms = Vec::new();
    'passes: loop {
        let traced = args.trace && pass % 2 == 1;
        for cell in 0..cells.len() {
            if pass > 0 && measure_start.is_some_and(|t: Instant| t.elapsed() >= deadline) {
                break 'passes;
            }
            // Hung operations must not stall the run past its budget.
            if epoch.elapsed() >= deadline + HANG_ALLOWANCE {
                break 'passes;
            }
            let out = runner.run(cell, if traced { tracer.as_ref() } else { None });
            if traced {
                execs += 1;
                exec_cells.insert(execs, cell);
            }
            if out.reference_ns > 0 {
                scale.push(out.reference_ns);
                reference_ms.push(ms(out.reference_ns));
            }
            let scale = scale.factor();
            samples.push(Sample { pass, cell, traced, out, scale });
            if last_setup.elapsed() >= SETUP_EVERY {
                drop(setups.take(args)?);
                last_setup = Instant::now();
            }
        }
        if pass == 0 {
            measure_start = Some(Instant::now());
        }
        pass += 1;
    }
    let measured_s = measure_start.map_or(0.0, |t| t.elapsed().as_secs_f64());
    runner.stop();
    let peak_rss = if args.trace { 0.0 } else { probe_rss(args)? };

    // Correctness and the per-pass determinism self-check.
    let attempted = samples.len();
    let mut failed = 0usize;
    for s in &samples {
        if let Err(e) = &s.out.verdict {
            failed += 1;
            if failed <= 5 {
                eprintln!("perfbench: pass {} {}: {e}", s.pass, cells[s.cell].name);
            }
        }
    }
    let mut pass_totals: BTreeMap<usize, (usize, Counts)> = BTreeMap::new();
    for s in &samples {
        let e = pass_totals.entry(s.pass).or_default();
        e.0 += 1;
        e.1.merge(&s.out.counts);
    }
    let complete: Vec<&Counts> =
        pass_totals.values().filter(|(n, _)| *n == cells.len()).map(|(_, c)| c).collect();
    let totals = complete.first().copied().cloned().unwrap_or_default();
    if complete.len() < 2 {
        problems.push("fewer than two complete passes; raise --seconds".into());
    }
    if complete.iter().any(|c| c.exact() != totals.exact()) {
        problems.push("count metrics differ between passes of one seed".into());
    }
    let counts_path = cache_path("counts", args, &build);
    match std::fs::read_to_string(&counts_path) {
        Ok(prev) if prev.trim() != totals.exact() => {
            problems
                .push(format!("count metrics differ from an earlier run of seed {}", args.seed));
        }
        Ok(_) => {}
        Err(_) => write_file(&counts_path, &totals.exact())?,
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    let timed: Vec<&Sample> =
        samples.iter().filter(|s| s.pass > 0 && s.out.verdict.is_ok()).collect();
    let (triples, text_bytes) = workload.data_size();
    let raw_query_ms = cell_median_geomean(&timed, cells.len(), |s| ms(s.out.latency_ns), |_| true);
    let env = format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"triples\": {triples}, \"text_bytes\": {text_bytes}, \
         \"cells\": {}, \"passes\": {}, \"samples\": {}, \"measured_s\": {measured_s:.3}, \
         \"worker_threads\": {}, \"nproc\": {}, \"commit\": \"{}\", \"build\": \"{build}\", \"profile\": \"{}\", \
         \"trace\": {}, \"raw_query_ms_p50\": {raw_query_ms}, \"reference_ms_p50\": {}}}}}",
        args.workload,
        args.seed,
        cells.len(),
        pass,
        timed.len(),
        workloads::ENGINE_WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        u8::from(args.trace),
        median(&reference_ms),
    );
    println!("{env}");

    let metrics = if args.trace {
        let tracer = tracer.expect("traced run has a tracer");
        per_layer(args, &cells, &timed, &totals, &tracer, &exec_cells, &setups)?
    } else {
        let setup_s = median(&setups.setup_s);
        end_to_end(args, &cells, &timed, &totals, attempted, failed, setup_s, peak_rss)?
    };
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        println!("{:<28} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
        if i > 0 {
            json.push_str(", ");
        }
        // A metric left undefined by failed operations is written as null.
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        write!(json, "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            .expect("writing to a String");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    args: &Args,
    cells: &[workloads::Cell],
    timed: &[&Sample],
    totals: &Counts,
    attempted: usize,
    failed: usize,
    setup_s: f64,
    peak_rss: f64,
) -> Result<Vec<Metric>, String> {
    if timed.len() < 100 {
        eprintln!("perfbench: only {} timed operations (want at least 100)", timed.len());
    }
    let mut cell_medians = vec![Vec::new(); cells.len()];
    for s in timed {
        cell_medians[s.cell].push(s.latency_ms());
    }
    let cell_medians: Vec<f64> = cell_medians.iter().map(|v| median(v)).collect();
    let slowdowns: Vec<f64> = timed.iter().map(|s| s.latency_ms() / cell_medians[s.cell]).collect();
    let op_s: f64 = timed.iter().map(|s| s.latency_ms() / 1e3).sum();
    let ingest_ms: Vec<f64> = timed.iter().map(|s| s.ingest_ms()).collect();
    let ingest_s: f64 = ingest_ms.iter().sum::<f64>() / 1e3;
    let ingested: u64 = timed.iter().map(|s| s.out.counts.loaded_triples).sum();
    // `ingest` runs no MapReduce job. Its four MapReduce-only counts read
    // 1 rather than 0, because no end-to-end metric may be 0.
    let mr = |v: f64| if args.workload == "ingest" { 1.0 } else { v };
    let m = |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
    Ok(vec![
        m(
            "query_ms_p50",
            cell_median_geomean(timed, cells.len(), Sample::latency_ms, |_| true),
            "ms",
        ),
        m("query_slowdown_p90", quantile(&slowdowns, 0.9), "ratio"),
        m("queries_per_s", timed.len() as f64 / op_s, "1/s"),
        m("sim_s", mr(totals.sim_s), "sim_s"),
        m("mr_cycles", mr(totals.mr_cycles as f64), "count"),
        m("hdfs_write_bytes", totals.hdfs_write_bytes as f64, "bytes"),
        m("shuffle_bytes", mr(totals.shuffle_bytes as f64), "bytes"),
        m("shuffle_wire_bytes", mr(totals.shuffle_wire_bytes as f64), "bytes"),
        m(
            "ingest_ms_p50",
            cell_median_geomean(timed, cells.len(), Sample::ingest_ms, |_| true),
            "ms",
        ),
        m("ingest_ms_p90", quantile(&ingest_ms, 0.9), "ms"),
        m("ingest_triples_per_s", ingested as f64 / ingest_s, "1/s"),
        m(
            "dfs_bytes_per_text_byte",
            totals.stored_bytes as f64 / totals.text_bytes as f64,
            "ratio",
        ),
        m("setup_s", setup_s, "s"),
        m("success_rate", 1.0 - failed as f64 / attempted as f64, "ratio"),
        m("peak_rss_mib", peak_rss, "MiB"),
    ])
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    cells: &[workloads::Cell],
    timed: &[&Sample],
    totals: &Counts,
    tracer: &Tracer,
    exec_cells: &BTreeMap<u32, usize>,
    setups: &SetupSamples,
) -> Result<Vec<Metric>, String> {
    let spans = tracer.spans();
    let splits = trace::split(&spans)?;
    let n = splits.len().max(1) as f64;
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &splits {
        for (name, ns) in &s.self_ns {
            *self_ms.entry(name).or_default() += ms(*ns) / n;
        }
    }
    write_trace(args, cells, &spans, &splits, exec_cells)?;

    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let traced = cell_median_geomean(timed, cells.len(), Sample::latency_ms, |s| s.traced);
    let untraced = cell_median_geomean(timed, cells.len(), Sample::latency_ms, |s| !s.traced);
    let family = |f: Family| {
        cell_median_geomean(timed, cells.len(), Sample::latency_ms, |s| {
            s.traced && cells[s.cell].family == f
        })
    };
    let in_setup = |v: &[f64]| if v.iter().all(|&x| x == 0.0) { 0.0 } else { median(v) };
    let m = |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
    let selectivity = if totals.map_input_records == 0 {
        0.0
    } else {
        totals.map_output_records as f64 / totals.map_input_records as f64
    };
    let stats_ms =
        if args.workload == "ingest" { layer("rdf.stats") } else { in_setup(&setups.stats_ms) };
    Ok(vec![
        m("mapreduce.map_ms", layer("mapreduce.map"), "ms"),
        m("mapreduce.map_only_ms", layer("mapreduce.map_only"), "ms"),
        m("mapreduce.reduce_ms", layer("mapreduce.reduce"), "ms"),
        m("mapreduce.driver_ms", layer("mapreduce.workflow"), "ms"),
        m("core.extract_ms", layer("core.extract"), "ms"),
        m("relational.extract_ms", layer("relational.extract"), "ms"),
        m("core.plan_ms", layer("core.plan"), "ms"),
        m("relational.plan_ms", layer("relational.plan"), "ms"),
        m("core.optimize_ms", layer("core.optimize"), "ms"),
        m("query.parse_ms", layer("query.parse"), "ms"),
        m("mrrdf.load_store_ms", layer("mrrdf.load_store"), "ms"),
        m("mrrdf.load_store_ids_ms", layer("mrrdf.load_store_ids"), "ms"),
        m("rdf.ntriples_parse_ms", layer("rdf.ntriples_parse"), "ms"),
        m("rdf.stats_ms", stats_ms, "ms"),
        m("mrrdf.read_store_ms", layer("mrrdf.read_store"), "ms"),
        m("datagen.generate_ms", in_setup(&setups.generate_ms), "ms"),
        m("bench.remainder_ms", layer(trace::ROOT), "ms"),
        m("bench.trace_overhead_ms", traced - untraced, "ms"),
        m("relational.query_ms_p50", family(Family::Relational), "ms"),
        m("core.query_ms_p50", family(Family::Core), "ms"),
        m("core.query_ms_p50.lex", family(Family::CoreLex), "ms"),
        m("core.query_ms_p50.id", family(Family::CoreId), "ms"),
        m("mapreduce.jobs", totals.jobs as f64, "count"),
        m("mapreduce.map_input_records", totals.map_input_records as f64, "count"),
        m("mapreduce.map_output_records", totals.map_output_records as f64, "count"),
        m("mapreduce.map_selectivity", selectivity, "ratio"),
        m("mapreduce.reduce_groups", totals.reduce_groups as f64, "count"),
        m("mapreduce.output_records", totals.output_records as f64, "count"),
        m("mapreduce.peak_arena_bytes", totals.peak_arena_bytes as f64, "bytes"),
        m("mapreduce.peak_spill_entries", totals.peak_spill_entries as f64, "count"),
        m("mapreduce.task_retries", totals.task_retries as f64, "count"),
        m("mapreduce.broadcast_bytes", totals.broadcast_bytes as f64, "bytes"),
        m("core.broadcast_cycles", totals.broadcast_cycles as f64, "count"),
        m("core.max_q_error", totals.max_q_error, "ratio"),
        m("rdf.dict_terms", totals.dict_terms as f64, "count"),
    ])
}

/// Write every span and every execution's split as JSON lines under
/// `perfbench/out/`.
fn write_trace(
    args: &Args,
    cells: &[workloads::Cell],
    spans: &[trace::Span],
    splits: &[trace::ExecSplit],
    exec_cells: &BTreeMap<u32, usize>,
) -> Result<(), String> {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {id}, \"exec\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.exec, s.name, s.start, s.end
        )
        .expect("writing to a String");
    }
    for s in splits {
        let cell = exec_cells.get(&s.exec).map_or("?", |&c| cells[c].name.as_str());
        let layers: Vec<String> = s
            .self_ns
            .iter()
            .filter(|(name, _)| **name != trace::ROOT)
            .map(|(name, ns)| format!("\"{name}\": {}", ms(*ns)))
            .collect();
        writeln!(
            out,
            "{{\"exec\": {}, \"cell\": \"{cell}\", \"wall_ms\": {}, \"remainder_ms\": {}, \"self_ms\": {{{}}}}}",
            s.exec,
            ms(s.wall_ns),
            ms(s.self_ns.get(trace::ROOT).copied().unwrap_or(0)),
            layers.join(", ")
        )
        .expect("writing to a String");
    }
    let path =
        bench_dir().join("out").join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
    write_file(&path, &out)
}
