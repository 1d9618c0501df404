//! `wirebench` — the wire-level benchmark of `dna serve --listen`.
//!
//! One run = one workload at one seed:
//!
//! 1. generate the inputs from the seed (`inputs`), before any server
//!    starts;
//! 2. start the real `dna serve <snap> --listen 127.0.0.1:0` several
//!    times, timing each start to its first reply (`setup_s`), and keep
//!    the last one;
//! 3. drive the workload over at most two TCP connections from at most
//!    two threads (`wirerun`), untraced;
//! 4. check every reply against an in-process reference `Session`,
//!    outside the timed region (`check`);
//! 5. with `--trace 1`, replay the same inputs in-process with spans
//!    around each crate's public calls (`traced`) and report per-layer
//!    metrics instead of the end-to-end ones.
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the run's tags. Inputs, server logs, spans and a full result
//! file land under `.bench_work/` in the working directory.
//!
//! `--self-check` runs every workload briefly, traced, with all
//! reference checks, and exits non-zero if any check fails.

mod check;
mod inputs;
mod stats;
mod traced;
mod wire;
mod wirerun;

use check::Tally;
use inputs::{Ingest, Workload, PROBE_QUERY_RATE, WORKLOADS};
use stats::{json_str, ms, quantile, result_json, us, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    dna: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dna: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--dna" => args.dna = PathBuf::from(&value),
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("not a whole number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.dna.is_file() {
        return Err(format!("no dna binary at {:?} (--dna)", args.dna));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check(&args);
    }
    let Some(w) = args.workload.as_deref().and_then(inputs::workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("wirebench: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    if args.seconds == 0 {
        eprintln!("wirebench: --seconds must be at least 1");
        return ExitCode::from(2);
    }
    let outcome = run_one(&args.dna, w, args.seed, args.seconds, args.trace);
    println!("{}", outcome.tags);
    println!(
        "{}",
        result_json(
            outcome.correct(),
            outcome.tally.attempted.max(1),
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    if outcome.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--self-check`: every workload, briefly, traced, all checks on.
fn self_check(args: &Args) -> ExitCode {
    let seconds = if args.seconds == 0 { 2 } else { args.seconds };
    let mut total = Tally::default();
    let mut all_correct = true;
    for w in WORKLOADS {
        let outcome = run_one(&args.dna, w, args.seed, seconds, true);
        eprintln!(
            "self-check {}: correct={} attempted={} failed={}",
            w.name,
            outcome.correct(),
            outcome.tally.attempted,
            outcome.tally.failed
        );
        all_correct &= outcome.correct();
        total.attempted += outcome.tally.attempted;
        total.failed += outcome.tally.failed;
    }
    println!(
        "{}",
        result_json(
            all_correct,
            total.attempted.max(1),
            total.failed,
            &Metrics::default()
        )
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Outcome {
    tally: Tally,
    metrics: Metrics,
    tags: String,
    error: Option<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.error.is_none() && self.tally.failed == 0
    }
}

fn run_one(dna: &Path, w: &Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{seed}-trace{}",
        w.name,
        u8::from(trace)
    ));
    let mut outcome = Outcome {
        tally: Tally::default(),
        metrics: Metrics::default(),
        tags: String::new(),
        error: None,
    };
    let result = (|| -> Result<Vec<(&'static str, String)>, String> {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let started = std::time::Instant::now();
        let phase = |what: &str| {
            eprintln!(
                "wirebench: {}: {what} at {:.1}s",
                w.name,
                started.elapsed().as_secs_f64()
            )
        };
        let inputs = inputs::generate(w, seed, seconds);
        phase("inputs generated");
        let run = wirerun::run(w, &inputs, seconds, dna, &work)?;
        phase("wire run done");
        write_exchanges(&work.join("acks.csv"), run.acks.iter())?;
        write_exchanges(
            &work.join("queries.csv"),
            run.queries
                .iter()
                .map(|q| &q.x)
                .chain(run.probe_queries.iter().map(|(_, x)| x)),
        )?;
        write_pushes(
            &work.join("pushes.csv"),
            run.pushes.iter().chain(&run.probe_pushes),
        )?;
        outcome.tally = check::check(w, &inputs, &run);
        phase("reference checked");
        let (e2e, tails) = wire_metrics(w, &run, &mut outcome.tally);
        let mut counts = vec![
            ("epochs_acked", run.acks.len().to_string()),
            (
                "queries_sent",
                (run.queries.len() + run.probe_queries.len()).to_string(),
            ),
            (
                "pushes_received",
                (run.pushes.len() + run.probe_pushes.len()).to_string(),
            ),
            ("notify_probe_epochs", run.probe_acks.len().to_string()),
            (
                "generator_late_p50_ms",
                format!("{:.4}", ms(quantile(&run.late, 0.5).unwrap_or(0.0))),
            ),
            (
                "generator_late_max_ms",
                format!("{:.4}", ms(quantile(&run.late, 1.0).unwrap_or(0.0))),
            ),
        ];
        if trace {
            let budget = Duration::from_secs(seconds);
            let tr = traced::run(w, &inputs, run.acks.len(), budget, &work)?;
            tr.write_spans(&work.join("spans.jsonl"))?;
            phase("traced run done");
            counts.push(("traced_epochs", tr.epochs.to_string()));
            outcome.metrics = per_layer(&run, &tr, &e2e, tails, &mut outcome.tally);
        } else {
            outcome.metrics = e2e;
        }
        Ok(counts)
    })();
    let counts = match result {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wirebench: {}: {e}", w.name);
            outcome.tally.fail(e.clone());
            outcome.error = Some(e);
            Vec::new()
        }
    };
    for note in &outcome.tally.notes {
        eprintln!("wirebench: {}: FAILED {note}", w.name);
    }
    outcome.tags = tags(w, seed, seconds, trace, &counts);
    let file = work.join("result.json");
    let body = format!(
        "{{\"tags\": {},\n\"result\": {},\n\"failures\": [{}]}}\n",
        outcome.tags,
        result_json(
            outcome.correct(),
            outcome.tally.attempted.max(1),
            outcome.tally.failed,
            &outcome.metrics
        ),
        outcome
            .tally
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = std::fs::write(&file, body) {
        eprintln!("wirebench: write {}: {e}", file.display());
    }
    outcome
}

/// Writes one line per exchange: index, due, sent, done (seconds since
/// its stream began).
fn write_exchanges<'a>(
    path: &Path,
    xs: impl Iterator<Item = &'a wire::Exchange>,
) -> Result<(), String> {
    let mut text = String::from("index,due_s,sent_s,done_s\n");
    for (i, x) in xs.enumerate() {
        text.push_str(&format!("{i},{:.6},{:.6},{:.6}\n", x.due, x.sent, x.done));
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Writes one line per pushed notify: its epoch and arrival time
/// (seconds since its stream began).
fn write_pushes<'a>(
    path: &Path,
    pushes: impl Iterator<Item = &'a (f64, String)>,
) -> Result<(), String> {
    let mut text = String::from("epoch,arrival_s\n");
    for (at, artifact) in pushes {
        if let Some(epoch) = push_epoch(artifact) {
            text.push_str(&format!("{epoch},{at:.6}\n"));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The `q`-quantile of `samples`, recording an empty sample as a
/// failure: every end-to-end metric must be measured on every run.
fn require(t: &mut Tally, what: &str, samples: &[f64], q: f64) -> f64 {
    match quantile(samples, q) {
        Some(v) => v,
        None => {
            t.fail(format!("no samples for {what}"));
            0.0
        }
    }
}

/// The epoch a pushed notify belongs to.
fn push_epoch(text: &str) -> Option<u64> {
    let n = dna_io::parse_notify(text).ok()?;
    n.events.first().map(|e| e.epoch())
}

/// The wire run's figures: the end-to-end metrics, and the figures
/// (`wire.*`) reported with the per-layer metrics of a traced run. On a
/// shared 2-vCPU host the p95 / p99 of a 20-second run are set by host
/// stalls as much as by the server (their spread across seeds was
/// 0.3–1.0 of the median), and the notify median by the client's
/// delayed-ACK timer (0.16–0.30), so no change can be judged by them.
fn wire_metrics(w: &Workload, run: &wirerun::WireRun, t: &mut Tally) -> (Metrics, Metrics) {
    let mut m = Metrics::default();
    let mut tails = Metrics::default();
    m.put("setup_s", require(t, "setup_s", &run.setup_s, 0.5), "s");
    let acks: Vec<f64> = run.acks.iter().map(|x| ms(x.done - x.due)).collect();
    m.put(
        "ingest_ack_p50_ms",
        require(t, "ingest ack", &acks, 0.5),
        "ms",
    );
    tails.put(
        "wire.ingest_ack_p95_ms",
        require(t, "ingest ack", &acks, 0.95),
        "ms",
    );
    let eps = match (run.acks.first(), run.acks.last()) {
        (Some(first), Some(last)) if last.done > first.due => {
            run.acks.len() as f64 / (last.done - first.due)
        }
        _ => {
            t.fail("no ingest window".into());
            0.0
        }
    };
    m.put("ingest_eps", eps, "1/s");
    let queries: Vec<f64> = if w.query_rate.is_some() {
        run.queries.iter().map(|q| us(q.x.done - q.x.due)).collect()
    } else {
        run.probe_queries
            .iter()
            .map(|(_, x)| us(x.done - x.due))
            .collect()
    };
    m.put("query_p50_us", require(t, "query", &queries, 0.5), "us");
    tails.put(
        "wire.query_p99_us",
        require(t, "query", &queries, 0.99),
        "us",
    );
    // Notify latency, one sample per epoch that pushed anything: from
    // the epoch's due time (open loop) or send time (closed-loop probe)
    // to the arrival of the epoch's last push. Per epoch, not per push:
    // one epoch that fires a hundred subscriptions would otherwise
    // decide the median.
    let (pushes, due): (&[(f64, String)], Vec<f64>) = if w.watch_subs > 0 {
        (&run.pushes, run.acks.iter().map(|x| x.due).collect())
    } else {
        let mut due = vec![f64::NAN; run.acks.len()];
        due.extend(run.probe_acks.iter().map(|x| x.sent));
        (&run.probe_pushes, due)
    };
    let mut last_push: BTreeMap<u64, f64> = BTreeMap::new();
    for (at, text) in pushes {
        if let Some(epoch) = push_epoch(text) {
            let slot = last_push.entry(epoch).or_insert(*at);
            *slot = slot.max(*at);
        }
    }
    let notify: Vec<f64> = last_push
        .iter()
        .filter_map(|(epoch, at)| {
            let d = *due.get(*epoch as usize)?;
            d.is_finite().then(|| ms(at - d))
        })
        .collect();
    tails.put(
        "wire.notify_p50_ms",
        require(t, "notify", &notify, 0.5),
        "ms",
    );
    tails.put(
        "wire.notify_p95_ms",
        require(t, "notify", &notify, 0.95),
        "ms",
    );
    m.put("server_rss_mb", run.rss_mb, "MB");
    (m, tails)
}

fn per_layer(
    run: &wirerun::WireRun,
    tr: &traced::TracedRun,
    e2e: &Metrics,
    tails: Metrics,
    t: &mut Tally,
) -> Metrics {
    const MS: f64 = 1e-6;
    const US: f64 = 1e-3;
    let mut m = tails;
    let d = |root: &str, name: &str, scale: f64| tr.durations(Some(root), name, scale);
    m.put_p50_p95(
        "io.parse_snapshot_ms",
        &d("setup", "io.parse_snapshot", MS),
        "ms",
    );
    m.put_p50_p95("io.parse_trace_us", &d("epoch", "io.parse_trace", US), "us");
    m.put_p50_p95("io.parse_query_us", &d("query", "io.parse_query", US), "us");
    m.put_p50_p95(
        "io.write_response_us",
        &d("query", "io.write_response", US),
        "us",
    );
    m.put_p50_p95(
        "io.write_checkpoint_ms",
        &d("probe", "io.write_checkpoint", MS),
        "ms",
    );
    m.put_p50_p95("cp.apply_ms", &d("epoch", "cp.apply", MS), "ms");
    m.put_p50_p95("cp.tuples", &tr.cp_tuples, "count");
    m.put_p50_p95("cp.nodes_skipped", &tr.nodes_skipped, "count");
    m.put_p50_p95("dp.apply_ms", &d("epoch", "dp.apply", MS), "ms");
    m.put_p50_p95("dp.dirty_classes", &tr.dirty_classes, "count");
    m.put_p50_p95("dp.classes", &tr.classes, "count");
    m.put_p50_p95("dp.query_us", &d("probe", "dp.query", US), "us");
    m.put_p50_p95("core.open_ms", &d("probe", "core.open", MS), "ms");
    m.put_p50_p95("core.apply_ms", &d("epoch", "core.apply", MS), "ms");
    m.put_p50_p95(
        "core.decorate_ms",
        &tr.self_durations("epoch", "core.apply", MS),
        "ms",
    );
    m.put_p50_p95("core.view_ms", &d("probe", "core.view", MS), "ms");
    m.put_p50_p95("core.view_drop_ms", &d("probe", "core.view_drop", MS), "ms");
    m.put_p50_p95("serve.open_ms", &d("setup", "serve.open", MS), "ms");
    let ingest = d("epoch", "serve.ingest", MS);
    m.put_p50_p95("serve.ingest_ms", &ingest, "ms");
    m.put_p50_p95("serve.epilogue_ms", &tr.epilogue_ms, "ms");
    m.put_p50_p95(
        "serve.view_refresh_us",
        &d("query", "serve.view_refresh", US),
        "us",
    );
    m.put_p50_p95(
        "serve.view_answer_us",
        &d("query", "serve.view_answer", US),
        "us",
    );
    m.put_p50_p95(
        "serve.checkpoint_ms",
        &tr.durations(None, "serve.checkpoint", MS),
        "ms",
    );
    m.put_p50_p95(
        "serve.notify_drain_us",
        &tr.durations(None, "serve.notify_drain", US),
        "us",
    );
    let fired = check::notify_counters(&run.metrics)
        .map(|(pushed, suppressed)| pushed as f64 / (pushed + suppressed).max(1) as f64);
    if fired.is_none() {
        t.fail(format!(
            "no notify counters in metrics scrape: {}",
            run.metrics
        ));
    }
    m.put("subs.fired_ratio", fired.unwrap_or(0.0), "ratio");
    let rtt: Vec<f64> = run.idle_rtt.iter().map(|x| us(x.done - x.sent)).collect();
    m.put_p50_p95("net.idle_rtt_us", &rtt, "us");
    // Tracing plus transport: what the wire added to the traced ingest.
    let wire_p50 = e2e.get("ingest_ack_p50_ms").unwrap_or(0.0);
    let wire_p95 = m.get("wire.ingest_ack_p95_ms").unwrap_or(0.0);
    for (q, name, wire) in [(0.5, "p50", wire_p50), (0.95, "p95", wire_p95)] {
        let traced = quantile(&ingest, q).unwrap_or(0.0);
        m.put(
            format!("net.ingest_overhead_ms.{name}"),
            wire - traced,
            "ms",
        );
    }
    match tr.unattributed("epoch", MS) {
        Ok(v) => m.put_p50_p95("trace.unattributed_ms", &v, "ms"),
        Err(e) => t.fail(format!("trace tree: {e}")),
    }
    if tr.tree_violations > 0 {
        t.fail(format!(
            "{} spans whose children outlast them",
            tr.tree_violations
        ));
    }
    if tr.bad_replies > 0 {
        t.fail(format!(
            "{} wrong replies in the traced run",
            tr.bad_replies
        ));
    }
    m.put_p50_p95("obs.server_stage_sum_ms", &tr.server_stage_sum_ms, "ms");
    // The wire server's own epoch spans, for the load window's epochs:
    // what the server attributes to an epoch, against what the client
    // waited for it.
    let load_epochs = run.acks.len() as u64;
    let wire_spans: Vec<f64> = dna_io::parse_spans(&run.spans)
        .map(|r| r.spans)
        .unwrap_or_default()
        .iter()
        .filter(|s| s.epoch < load_epochs)
        .map(|s| s.total_ns as f64 * MS)
        .collect();
    if wire_spans.is_empty() {
        t.fail("no epoch spans in the server's trace scrape".into());
    }
    m.put_p50_p95("obs.wire_epoch_total_ms", &wire_spans, "ms");
    m.put_p50_p95(
        "obs.server_span_coverage",
        &tr.server_span_coverage,
        "ratio",
    );
    let late: Vec<f64> = run.late.iter().map(|&s| ms(s)).collect();
    m.put_p50_p95("gen.late_ms", &late, "ms");
    m.put("trace.epochs", tr.epochs as f64, "count");
    m
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a git work tree reports "unknown".
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the repository's sources (`Cargo.toml`, `Cargo.lock`,
/// everything under `crates/`), so results from a checkout without git
/// still say which code ran.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn tags(w: &Workload, seed: u64, seconds: u64, trace: bool, counts: &[(&str, String)]) -> String {
    let ingest = match w.ingest {
        Ingest::Closed => "closed-loop".to_string(),
        Ingest::Open { eps } => format!("{eps}/s open-loop"),
    };
    let query = match w.query_rate {
        Some(r) => format!("{r}/s open-loop"),
        None => format!("{PROBE_QUERY_RATE}/s open-loop probe after load"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", json_str(w.name)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("fat_tree_k", w.k.to_string()),
        ("devices", w.fabric_devices().to_string()),
        ("ingest_offered", json_str(&ingest)),
        ("query_offered", json_str(&query)),
        ("subscriptions", w.watch_subs.to_string()),
        (
            "checkpoint_every",
            w.checkpoint_every.map_or("null".into(), |c| c.to_string()),
        ),
        ("setups", w.setups.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("commit", json_str(&commit())),
        ("source_digest", json_str(&source_digest())),
    ];
    fields.extend(counts.iter().map(|(k, v)| (*k, json_str(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"tags\": {{{}}}}}", body.join(", "))
}
