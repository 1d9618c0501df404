//! `dna` — the command-line front-end of the reproduction.
//!
//! Subcommands:
//!
//! * `dna dump`   — generate a topo-gen topology (and optionally a change
//!   trace) and serialize it to disk as `dna-io` artifacts;
//! * `dna check`  — parse and validate a snapshot file;
//! * `dna diff`   — replay a change trace through an analyzer, printing
//!   per-epoch behavior diffs and stage timings (text or json-lines);
//! * `dna replay --verify` — replay through *both* analyzers and assert
//!   their canonical reports are byte-identical (the offline form of the
//!   E8 equivalence experiment);
//! * `dna serve`  — long-running service: keep live engines resident,
//!   ingest artifacts from stdin (and answer unix-socket clients),
//!   respond to queries against the evolving state;
//! * `dna query`  — compose a protocol query (stdout) or send it to a
//!   serving socket and print the response;
//! * `dna watch`  — subscribe a standing query over TCP and stream the
//!   pushed `notify` artifacts live as commits change its answer.
//!
//! Exit codes: 0 success, 1 usage/parse/analysis errors, 2 verification
//! or validation failures (or an `error` response to `dna query`).

use dna_core::{classify, render, summarize, BehaviorDiff, ReplayMode, ReplaySession};
use dna_io::{
    parse_snapshot, parse_trace, write_query, write_report, write_snapshot, write_trace, EpochDiff,
    Query, QueryKind, Report, Response, SubscriptionSpec, Trace,
};
use dna_serve::SessionConfig;
use net_model::{Flow, Snapshot};
use std::fmt::Write as _;
use std::process::ExitCode;
use topo_gen::{fat_tree, wan, Routing, ScenarioGen, ScenarioKind, WanShape, ALL_SCENARIOS};

const USAGE: &str = "\
dna — differential network analysis over dna-io artifacts

USAGE:
  dna dump  --topo fat-tree|wan --out <snap-file> [topology options]
            [--trace <trace-file> --epochs <n> [--scenarios <list|all>]]
  dna check <snap-file|ckpt-file>
  dna diff  <snap-file> <trace-file> [--engine differential|scratch]
            [--format text|json-lines] [--limit <n>] [--out <report-file>]
            [--shards <n>]
  dna replay <snap-file> <trace-file> --verify [--quiet] [--shards <n>]
  dna serve [name=]<snap-file>... [--retain <n>] [--retain-bytes <n>]
            [--verify] [--quiet] [--shards <n>] [--socket <path>]
            [--listen <addr>] [--follow [name=]<trace-file>]...
            [--metrics-interval <secs>] [--coalesce <max>]
            [--checkpoint-dir <dir> [--checkpoint-every <n>] [--resume]]
  dna query [--session <name>] [--socket <path>] [--connect <addr>]
            [--prometheus] [--rates] <command>
  dna watch --connect <addr> [--session <name>] [--count <n>]
            <subscription>
  dna top   [--socket <path> | --connect <addr>] [--watch <secs>]
  dna checkpoint inspect <ckpt-file>
  dna checkpoint write <snap-file> --out <ckpt-file> [--session <name>]
            [--ref] [--retain <n>] [--verify]
  dna checkpoint resume <ckpt-file> [--trace <trace-file>] [--shards <n>]
            [--out <report-file>] [--quiet]

TOPOLOGY OPTIONS (dump):
  --topo fat-tree   --k <even 4..32>      --routing ebgp|ospf
  --topo wan        --n <2..512>          --shape ring|line|mesh
                    --extra <chords>      --max-cost <cost>
  --seed <u64>      seed for topology (wan) and scenario generation

TRACE OPTIONS (dump):
  --trace <file>    also record a change trace against the snapshot
  --epochs <n>      number of change epochs to record (default 10)
  --scenarios <l>   comma-separated scenario kinds, or 'all' (default)

SERVE: each positional opens one named session (default name: the file
stem), the first becoming the default target. The server then reads a
stream of dna-io artifacts from stdin — snapshots (re)load the default
session, traces ingest incrementally, queries are answered — emitting
one response artifact each to stdout, until end of input. With
--socket, clients connect concurrently and the server keeps running
after stdin ends. --follow tails a growing trace file (repeatable;
name= targets a session, default the default session), ingesting each
epoch as it completes and finishing when the trace's end sentinel is
written. --listen binds a TCP front door (e.g. 127.0.0.1:7700; port 0
picks a free port, announced on stderr): each connection is served by
its own reader thread, and read-only queries (reach, reach-pair,
blast, report, stats) are answered from the session's latest
published read view — one atomic version check, no engine-thread
round trip — while ingest and the remaining queries route to the
engine. Whichever transports feed it, the server runs every session on
its own engine thread (parallel bring-up, concurrent multi-session
ingest), and a session whose engine panics is fenced off: it answers
`failed` errors until a snapshot reloads it, while the server and the
other sessions keep serving. --coalesce <max> lets a session with an
ingest backlog merge up to <max> queued epochs into one commit (0 or 1
disables). --shards fans engine
bring-up out over N workers (identical results, see README). --retain
bounds the per-session epoch history (default 64) and --retain-bytes
adds a byte budget on its canonical serialized size; --verify attaches
a from-scratch shadow that cross-checks every ingested epoch.

DURABILITY: --checkpoint-dir makes every session durable — an atomic
per-session checkpoint is written after every --checkpoint-every
epochs (default 16; 0 disables the cadence) and on demand via the
`checkpoint` query. `dna serve --resume --checkpoint-dir <dir>`
restores every checkpointed session (all in parallel, one engine
thread each) observationally identical to sessions that never
restarted; snapshot positionals may still open additional fresh
sessions. `dna checkpoint` inspects, seeds and offline-resumes the
artifacts.

QUERY COMMANDS:
  reach <src-device> <src-ip> <dst-ip> <proto> <sport> <dport>
  reach-pair <src-device> <dst-device>
  blast <n-epochs>
  report <from> <to>
  stats
  sessions
  checkpoint
  metrics
  trace [n]
  health
  history [n]
  subscribe <subscription>        (see STANDING QUERIES)
  unsubscribe <id>
  notifications <id>
Without --socket/--connect the query artifact is printed to stdout
(compose mode, for piping into `dna serve`); with --socket (unix
socket path) or --connect (TCP host:port) it is sent to a server and
the response is printed instead.

STANDING QUERIES: `subscribe` registers an incrementally-maintained
view on a session; after every applied commit the server re-evaluates
it from that commit's diff (an epoch that cannot intersect a
subscription does zero work and pushes zero bytes) and records a
`notify` event only when the answer changed. Subscriptions:
  reach <src-device> <src-ip> <dst-ip> <proto> <sport> <dport>
  reach-pair <src-device> <dst-device>
  blast <device>
  invariant never-reach <src-device> <dst-device>
  invariant no-blackhole <src-device> <src-ip> <dst-ip> <proto> <sport> <dport>
`subscribe` acks with the subscription id; `dna query notifications
<id>` drains the accumulated events on any transport, and `dna watch
<subscription> --connect <addr>` holds one TCP connection open and
streams each notify as it is pushed (--count exits after n pushed
artifacts). Pushed and polled streams carry byte-identical events. A
slow watcher never blocks the engine: its queue is bounded, overflow
drops the oldest notifies, and the stream resumes with a `resync`
event naming the dropped count.

OBSERVABILITY: `metrics` scrapes the server's live counters, gauges
and latency histograms as a canonical `metrics` artifact (every
transport answers it without an engine round trip; --session narrows
to one session's series); --prometheus re-renders the scrape as
Prometheus text exposition format. `trace [n]` returns the last n
(default: all retained) per-epoch lifecycle spans — parse, control
plane, data plane, view publish timings — as a `spans` artifact.
`health` classifies the server and each session ok|degraded|failed
(engine-thread watchdog: stale heartbeat under queued work, deep
ingest queue, growing epoch lag, panic fence). `history [n]` returns
the server's periodic registry samples as a `history` artifact
(recorded every 15s by default; --metrics-interval tightens the
cadence and also dumps each scrape to stderr); --rates re-renders the
window as per-second counter rates. `dna top` shows a per-session
resource table (rates + queue/lag/memory gauges) one-shot or
refreshing with --watch. Setting DNA_OBS_DISABLED=1 in the server's
environment kills all telemetry recording (telemetry queries then
answer empty artifacts, never errors); DNA_OBS_SLOW_EPOCH_MS=<ms>
logs epochs slower than the threshold; DNA_OBS_SLOW_QUERY_US=<us>
logs queries slower than the threshold; DNA_OBS_STALE_MS,
DNA_OBS_QUEUE_DEPTH_WARN and DNA_OBS_EPOCHS_BEHIND_WARN tune the
health thresholds.

EXAMPLES:
  dna dump --topo fat-tree --k 6 --routing ebgp --out ft6.snap.dna \\
           --trace ft6.trace.dna --epochs 12 --scenarios link-failure,link-recovery
  dna check ft6.snap.dna
  dna diff ft6.snap.dna ft6.trace.dna --format json-lines
  dna replay ft6.snap.dna ft6.trace.dna --verify
  { cat ft6.trace.dna; dna query blast 8; } | dna serve ft6.snap.dna
  dna serve ft6.snap.dna --socket /tmp/dna.sock < /dev/null &
  dna query --socket /tmp/dna.sock reach-pair edge0_0 edge1_1
  dna serve ft6.snap.dna --listen 127.0.0.1:7700 < /dev/null &
  dna query --connect 127.0.0.1:7700 reach-pair edge0_0 edge1_1
  dna watch reach-pair edge0_0 edge1_1 --connect 127.0.0.1:7700
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dna: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::FAILURE);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "dump" => cmd_dump(rest),
        "check" => cmd_check(rest),
        "diff" => cmd_diff(rest),
        "replay" => cmd_replay(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "watch" => cmd_watch(rest),
        "top" => cmd_top(rest),
        "checkpoint" => cmd_checkpoint(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?} (try `dna help`)")),
    }
}

/// Minimal flag cursor: positional arguments plus `--flag value` pairs.
struct Args<'a> {
    rest: &'a [String],
    positionals: Vec<&'a str>,
    flags: Vec<(&'a str, usize)>, // (name, index of value or usize::MAX)
}

impl<'a> Args<'a> {
    fn parse(
        rest: &'a [String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Self, String> {
        let mut positionals = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if let Some(name) = a.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    flags.push((name, usize::MAX));
                } else if value_flags.contains(&name) {
                    i += 1;
                    if i >= rest.len() {
                        return Err(format!("--{name} needs a value"));
                    }
                    flags.push((name, i));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                positionals.push(a);
            }
            i += 1;
        }
        Ok(Args {
            rest,
            positionals,
            flags,
        })
    }

    fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, idx)| {
                if *idx == usize::MAX {
                    ""
                } else {
                    self.rest[*idx].as_str()
                }
            })
    }

    /// Every value of a repeatable flag, in order of appearance.
    fn flag_values(&self, name: &str) -> Vec<&'a str> {
        self.flags
            .iter()
            .filter(|(n, idx)| *n == name && *idx != usize::MAX)
            .map(|(_, idx)| self.rest[*idx].as_str())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value {v:?}")),
        }
    }
}

/// Prints a line to stdout, reporting whether the write succeeded.
/// Downstream consumers closing the pipe early (`dna diff … | head`) is
/// normal operation, not a panic.
fn println_pipe(s: &str) -> bool {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{s}").is_ok()
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn load_snapshot(path: &str) -> Result<Snapshot, String> {
    parse_snapshot(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    parse_trace(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

// ---- dump -------------------------------------------------------------

fn cmd_dump(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        rest,
        &[
            "topo",
            "k",
            "routing",
            "n",
            "shape",
            "extra",
            "max-cost",
            "seed",
            "out",
            "trace",
            "epochs",
            "scenarios",
        ],
        &[],
    )?;
    let seed: u64 = args.parsed("seed", 0)?;
    let topo = args.flag("topo").ok_or("dump needs --topo fat-tree|wan")?;
    // Reject flags belonging to the other topology rather than silently
    // ignoring them — a crossed flag means the user asked for something
    // this artifact will not contain.
    let foreign: &[&str] = match topo {
        "fat-tree" => &["n", "shape", "extra", "max-cost"],
        "wan" => &["k", "routing"],
        _ => &[],
    };
    for f in foreign {
        if args.has(f) {
            return Err(format!("--{f} does not apply to --topo {topo}"));
        }
    }
    let snapshot = match topo {
        "fat-tree" => {
            let k: u32 = args.parsed("k", 4)?;
            if !(4..=32).contains(&k) || !k.is_multiple_of(2) {
                return Err(format!("--k must be even in [4, 32], got {k}"));
            }
            let routing = match args.flag("routing").unwrap_or("ebgp") {
                "ebgp" => Routing::Ebgp,
                "ospf" => Routing::Ospf,
                other => return Err(format!("--routing must be ebgp|ospf, got {other:?}")),
            };
            fat_tree(k, routing).snapshot
        }
        "wan" => {
            let n: usize = args.parsed("n", 10)?;
            if !(2..=512).contains(&n) {
                return Err(format!("--n must be in [2, 512], got {n}"));
            }
            let extra: usize = args.parsed("extra", n / 2)?;
            let shape = match args.flag("shape").unwrap_or("mesh") {
                "ring" => WanShape::Ring,
                "line" => WanShape::Line,
                "mesh" => WanShape::Mesh { extra },
                other => return Err(format!("--shape must be ring|line|mesh, got {other:?}")),
            };
            let max_cost: u32 = args.parsed("max-cost", 8)?;
            wan(n, shape, max_cost, seed).snapshot
        }
        other => return Err(format!("--topo must be fat-tree|wan, got {other:?}")),
    };
    let out = args.flag("out").ok_or("dump needs --out <snap-file>")?;
    write_file(out, &write_snapshot(&snapshot))?;
    println_pipe(&format!(
        "wrote {out}: {} devices, {} links",
        snapshot.device_count(),
        snapshot.links.len()
    ));
    if let Some(trace_path) = args.flag("trace") {
        let epochs: usize = args.parsed("epochs", 10)?;
        let kinds = parse_scenarios(args.flag("scenarios").unwrap_or("all"))?;
        let mut gen = ScenarioGen::new(seed);
        let labeled = gen.labeled_sequence(&snapshot, &kinds, epochs);
        if labeled.len() < epochs {
            eprintln!(
                "note: only {} of {epochs} requested epochs had opportunities",
                labeled.len()
            );
        }
        let trace =
            Trace::from_labeled(labeled.into_iter().map(|(kind, cs)| (kind.to_string(), cs)));
        write_file(trace_path, &write_trace(&trace))?;
        println_pipe(&format!(
            "wrote {trace_path}: {} epochs, {} primitive changes",
            trace.epochs.len(),
            trace.change_count()
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_scenarios(spec: &str) -> Result<Vec<ScenarioKind>, String> {
    if spec == "all" {
        return Ok(ALL_SCENARIOS.to_vec());
    }
    spec.split(',')
        .map(|s| s.trim().parse::<ScenarioKind>())
        .collect()
}

// ---- check ------------------------------------------------------------

fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &[], &[])?;
    let [path] = args.positionals.as_slice() else {
        return Err("check needs exactly one <snap-file|ckpt-file>".into());
    };
    let text = read_file(path)?;
    // `check` validates snapshots and checkpoints alike: a checkpoint
    // is checked through the snapshot it would resume (inline or ref).
    let (snapshot, ok_line) = match dna_io::sniff(&text).map_err(|e| format!("{path}: {e}"))? {
        (_, dna_io::Artifact::Checkpoint) => {
            let ckpt = dna_io::parse_checkpoint(&text).map_err(|e| format!("{path}: {e}"))?;
            let snapshot = checkpoint_snapshot(path, &ckpt)?;
            let ok = format!(
                "{path}: ok (checkpoint of session {:?}: {} epochs applied, {} retained, {} devices)",
                ckpt.session,
                ckpt.epochs,
                ckpt.history.len(),
                snapshot.device_count()
            );
            (snapshot, ok)
        }
        _ => {
            let snapshot = parse_snapshot(&text).map_err(|e| format!("{path}: {e}"))?;
            let ok = format!(
                "{path}: ok ({} devices, {} links, {} down, {} external routes)",
                snapshot.device_count(),
                snapshot.links.len(),
                snapshot.environment.down_links.len() + snapshot.environment.down_devices.len(),
                snapshot.environment.external_routes.len()
            );
            (snapshot, ok)
        }
    };
    let problems = snapshot.validate();
    if problems.is_empty() {
        println_pipe(&ok_line);
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            eprintln!("{path}: {p}");
        }
        eprintln!("{path}: {} validation error(s)", problems.len());
        Ok(ExitCode::from(2))
    }
}

/// Loads a checkpoint's snapshot, resolving `ref` sources relative to
/// the checkpoint file's own directory.
fn checkpoint_snapshot(path: &str, ckpt: &dna_io::Checkpoint) -> Result<Snapshot, String> {
    dna_serve::resolve_checkpoint_snapshot(ckpt, std::path::Path::new(path).parent())
}

// ---- diff -------------------------------------------------------------

fn cmd_diff(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["engine", "format", "limit", "out", "shards"], &[])?;
    let [snap_path, trace_path] = args.positionals.as_slice() else {
        return Err("diff needs <snap-file> <trace-file>".into());
    };
    let snapshot = load_snapshot(snap_path)?;
    let trace = load_trace(trace_path)?;
    let mode = match args.flag("engine").unwrap_or("differential") {
        "differential" => ReplayMode::Differential,
        "scratch" => ReplayMode::Scratch,
        other => {
            return Err(format!(
                "--engine must be differential|scratch, got {other:?}"
            ))
        }
    };
    let json = match args.flag("format").unwrap_or("text") {
        "text" => false,
        "json-lines" => true,
        other => return Err(format!("--format must be text|json-lines, got {other:?}")),
    };
    let limit: usize = args.parsed("limit", 10)?;
    let shards: usize = args.parsed("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let mut session = ReplaySession::with_shards(snapshot, mode, shards)
        .map_err(|e| format!("initial analysis: {e}"))?;
    let mut report = Report::default();
    let mut stdout_open = true;
    for (i, ep) in trace.epochs.iter().enumerate() {
        let out = session
            .step(&ep.changes)
            .map_err(|e| format!("epoch {i}: {e}"))?;
        let diff = out.primary();
        let text = if json {
            epoch_json(i, ep.label.as_deref(), &ep.changes, diff)
        } else {
            let label = ep.label.as_deref().unwrap_or("unlabeled");
            format!(
                "== epoch {i} [{label}] ({} change{}) ==\n{}",
                ep.changes.len(),
                if ep.changes.len() == 1 { "" } else { "s" },
                render(diff, limit).trim_end_matches('\n')
            )
        };
        if stdout_open && !println_pipe(&text) {
            // Keep replaying so --out still gets the full report; just
            // stop talking to the closed pipe.
            stdout_open = false;
            if args.flag("out").is_none() {
                return Ok(ExitCode::SUCCESS);
            }
        }
        report
            .epochs
            .push(EpochDiff::from_behavior(ep.label.clone(), diff));
    }
    if let Some(out_path) = args.flag("out") {
        write_file(out_path, &write_report(&report))?;
        if stdout_open && !json {
            println_pipe(&format!(
                "wrote {out_path}: {} epoch(s)",
                report.epochs.len()
            ));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// One epoch as a single JSON object on one line. Hand-rolled emission
/// (the workspace has no JSON dependency); strings go through
/// [`json_str`] so arbitrary device names stay well-formed.
fn epoch_json(
    index: usize,
    label: Option<&str>,
    changes: &net_model::ChangeSet,
    diff: &BehaviorDiff,
) -> String {
    let s = summarize(diff);
    let mut out = String::new();
    let _ = write!(out, "{{\"epoch\":{index}");
    if let Some(l) = label {
        let _ = write!(out, ",\"label\":{}", json_str(l));
    }
    let _ = write!(
        out,
        ",\"changes\":{},\"rib_installed\":{},\"rib_withdrawn\":{},\"fib_added\":{},\"fib_removed\":{},\"flow_classes\":{}",
        changes.len(),
        s.routes.0,
        s.routes.1,
        s.fib.0,
        s.fib.1,
        diff.flows.len()
    );
    let _ = write!(out, ",\"kinds\":{{");
    for (i, (kind, n)) in s.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{n}", json_str(&kind.to_string()));
    }
    out.push('}');
    let _ = write!(out, ",\"flows\":[");
    for (i, f) in dna_core::sorted_flows(diff).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"src\":{},\"kind\":{},\"headers\":[",
            json_str(&f.src),
            json_str(&classify(f).to_string())
        );
        for (j, h) in f.headers.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_str(h));
        }
        let _ = write!(
            out,
            "],\"example\":{{\"src\":\"{}\",\"dst\":\"{}\",\"proto\":{},\"sport\":{},\"dport\":{}}}",
            f.example.src, f.example.dst, f.example.proto, f.example.src_port, f.example.dst_port
        );
        for (name, set) in [("before", &f.before), ("after", &f.after)] {
            let _ = write!(out, ",\"{name}\":[");
            for (j, o) in set.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(&o.to_string()));
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push(']');
    let _ = write!(
        out,
        ",\"cp_ms\":{:.3},\"dp_ms\":{:.3},\"total_ms\":{:.3},\"engine_tuples\":{},\"dirty_classes\":{}}}",
        diff.stats.cp_time.as_secs_f64() * 1e3,
        diff.stats.dp_time.as_secs_f64() * 1e3,
        diff.stats.total_time.as_secs_f64() * 1e3,
        diff.stats.cp_tuples,
        diff.stats.dirty_classes
    );
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---- serve ------------------------------------------------------------

/// Splits a `[name=]path` session argument; an unnamed session is named
/// after its file stem (`corpus/ft6.snap.dna` → `ft6`). A prefix
/// containing a path separator is part of the path, not a name —
/// `/data/run=5/ft4.snap.dna` is one path.
fn split_session_arg(arg: &str) -> (String, &str) {
    if let Some((name, path)) = arg.split_once('=') {
        if !name.is_empty() && !name.contains(['/', '\\']) {
            return (name.to_string(), path);
        }
    }
    let base = arg.rsplit(['/', '\\']).next().unwrap_or(arg);
    let stem = base.split('.').next().unwrap_or(base);
    (if stem.is_empty() { "main" } else { stem }.to_string(), arg)
}

/// Splits a `[name=]path` `--follow` argument. Unlike session
/// positionals, an unnamed follow targets the server's *default*
/// session, not a session named after the file stem.
fn split_follow_arg(arg: &str) -> (Option<String>, &str) {
    if let Some((name, path)) = arg.split_once('=') {
        if !name.is_empty() && !name.contains(['/', '\\']) {
            return (Some(name.to_string()), path);
        }
    }
    (None, arg)
}

fn cmd_serve(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        rest,
        &[
            "retain",
            "retain-bytes",
            "socket",
            "listen",
            "shards",
            "follow",
            "checkpoint-dir",
            "checkpoint-every",
            "metrics-interval",
            "coalesce",
        ],
        &["verify", "quiet", "resume"],
    )?;
    let resume = args.has("resume");
    if args.positionals.is_empty() && !resume {
        return Err("serve needs at least one [name=]<snap-file> (or --resume)".into());
    }
    let retain: usize = args.parsed("retain", 64)?;
    if retain == 0 {
        return Err("--retain must be at least 1".into());
    }
    let retain_bytes: Option<usize> = match args.flag("retain-bytes") {
        None => None,
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("bad --retain-bytes value {v:?}"))?;
            if n == 0 {
                return Err("--retain-bytes must be at least 1".into());
            }
            Some(n)
        }
    };
    let shards: usize = args.parsed("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let quiet = args.has("quiet");
    // All operator-facing stderr below routes through dna_obs::log:
    // `info` lines honor --quiet, `announce` lines always print.
    dna_obs::log::set_quiet(quiet);
    let metrics_interval: u64 = args.parsed("metrics-interval", 0)?;
    {
        // The metrics ticker always runs (default: a coarse 15 s
        // cadence), recording each registry scrape into the history
        // ring behind `dna query history` / `dna top`; an explicit
        // --metrics-interval tightens the cadence AND dumps each
        // scrape to stderr — the same canonical artifact `dna query
        // metrics` returns. Detached thread, dies with the process;
        // under DNA_OBS_DISABLED the ring drops everything.
        let dump = metrics_interval > 0;
        let tick = if dump { metrics_interval } else { 15 };
        std::thread::spawn(move || {
            // An immediate t≈0 sample gives `history --rates` and
            // `dna top` a baseline one tick sooner.
            dna_obs::history().record(dna_obs::uptime_ms(), &dna_obs::global().snapshot(None));
            loop {
                std::thread::sleep(std::time::Duration::from_secs(tick));
                let snap = dna_obs::global().snapshot(None);
                dna_obs::history().record(dna_obs::uptime_ms(), &snap);
                if dump {
                    let report = dna_serve::obs::metrics_report(&snap);
                    eprint!("{}", dna_io::write_metrics(&report));
                }
            }
        });
    }
    let checkpoint_dir = args.flag("checkpoint-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --checkpoint-dir {}: {e}", dir.display()))?;
    }
    // Cadence default: with a checkpoint directory, persist every 16
    // epochs unless told otherwise; without one the value is inert.
    let checkpoint_every: usize = args.parsed("checkpoint-every", 16)?;
    if args.has("checkpoint-every") && checkpoint_dir.is_none() {
        return Err("--checkpoint-every needs --checkpoint-dir".into());
    }
    // Backlog epoch coalescing: 0/1 disables; N>=2 lets a flooded
    // session merge up to N queued epochs into one engine commit.
    let coalesce: usize = args.parsed("coalesce", 0)?;
    let config = SessionConfig {
        retain,
        retain_bytes,
        verify: args.has("verify"),
        shards,
        checkpoint_dir: checkpoint_dir.clone(),
        checkpoint_every,
        coalesce,
    };
    // Parse every startup artifact up front so a bad file fails fast,
    // before any engine spends seconds on bring-up.
    let mut preload: Vec<(String, Snapshot)> = Vec::new();
    for pos in &args.positionals {
        let (name, path) = split_session_arg(pos);
        // Opening an existing name silently replaces its engine — fine
        // for a stream reload, but two startup positionals colliding
        // (same file stem) would drop a snapshot the operator asked for.
        if preload.iter().any(|(n, _)| *n == name) {
            return Err(format!(
                "duplicate session name {name:?} (from {path}); disambiguate with name=path"
            ));
        }
        preload.push((name, load_snapshot(path)?));
    }
    // --resume restores every checkpoint found in the checkpoint
    // directory, under the session names recorded inside the artifacts.
    // A positional naming a session that also has a checkpoint yields
    // to the checkpoint: resuming is the point of the flag, and the
    // checkpointed state strictly extends the snapshot's.
    let mut resumes: Vec<(dna_io::Checkpoint, Snapshot)> = Vec::new();
    if resume {
        let Some(dir) = &checkpoint_dir else {
            return Err("--resume needs --checkpoint-dir".into());
        };
        let mut seen: std::collections::BTreeMap<String, std::path::PathBuf> = Default::default();
        for (path, ckpt) in scan_checkpoints(dir)? {
            let snapshot = dna_serve::resolve_checkpoint_snapshot(&ckpt, path.parent())?;
            if let Some(prev) = seen.get(&ckpt.session) {
                return Err(format!(
                    "two checkpoints resume session {:?} ({} and {})",
                    ckpt.session,
                    prev.display(),
                    path.display()
                ));
            }
            if let Some(pos) = preload.iter().position(|(n, _)| *n == ckpt.session) {
                dna_obs::log::info(&format!(
                    "dna serve: session {:?}: resuming from {} (snapshot positional ignored)",
                    ckpt.session,
                    path.display()
                ));
                preload.remove(pos);
            }
            seen.insert(ckpt.session.clone(), path);
            resumes.push((ckpt, snapshot));
        }
        if resumes.is_empty() && preload.is_empty() {
            return Err(format!(
                "--resume found no checkpoints in {} and no snapshots were given",
                dir.display()
            ));
        }
    }
    let follows: Vec<(Option<String>, String)> = args
        .flag_values("follow")
        .into_iter()
        .map(|arg| {
            let (session, path) = split_follow_arg(arg);
            if !std::path::Path::new(path).exists() {
                return Err(format!("--follow {path}: file does not exist yet"));
            }
            // Session names are fully known at startup; a typo'd name
            // would otherwise ship every epoch into "unknown session"
            // errors while the follow itself reports success.
            if let Some(name) = &session {
                if !preload.iter().any(|(n, _)| n == name)
                    && !resumes.iter().any(|(c, _)| &c.session == name)
                {
                    return Err(format!(
                        "--follow {arg}: no session named {name:?} (sessions: {})",
                        preload
                            .iter()
                            .map(|(n, _)| format!("{n:?}"))
                            .chain(resumes.iter().map(|(c, _)| format!("{:?}", c.session)))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
            Ok((session, path.to_string()))
        })
        .collect::<Result<_, String>>()?;
    let (socket, listen) = (args.flag("socket"), args.flag("listen"));
    serve(config, preload, resumes, follows, socket, listen)
}

/// Every `<name>.ckpt.dna` checkpoint in a directory, parsed, in file
/// name order (deterministic). Temp files from in-flight atomic writes
/// (dot-prefixed) and other file types are ignored.
fn scan_checkpoints(
    dir: &std::path::Path,
) -> Result<Vec<(std::path::PathBuf, dna_io::Checkpoint)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".ckpt.dna") && !n.starts_with('.'))
        })
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let ckpt =
            dna_io::parse_checkpoint(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, ckpt));
    }
    Ok(out)
}

fn print_summary(summary: &dna_serve::ServeSummary) {
    let failures = if summary.failures > 0 {
        format!(", {} session failure(s)", summary.failures)
    } else {
        String::new()
    };
    dna_obs::log::info(&format!(
        "dna serve: {} artifact(s): {} epoch(s) ingested, {} query(ies) answered, {} error(s){failures}",
        summary.artifacts, summary.epochs, summary.queries, summary.errors
    ));
}

/// Runs the server. Every transport — stdin always, plus the
/// `--follow` tails and the `--socket`/`--listen` front doors when
/// given — pumps raw artifact text into one [`dna_serve::Router`],
/// which runs each session on its own engine thread. Returns once
/// every pump is done: at end of stdin in pipe mode, when the follows
/// finish, never while a front door listens (either door may be
/// absent; a pipe-mode or `--follow`-only server has none).
fn serve(
    config: SessionConfig,
    preload: Vec<(String, Snapshot)>,
    resumes: Vec<(dna_io::Checkpoint, Snapshot)>,
    follows: Vec<(Option<String>, String)>,
    socket: Option<&str>,
    listen: Option<&str>,
) -> Result<ExitCode, String> {
    use std::sync::{mpsc, Arc};
    #[cfg(not(unix))]
    if socket.is_some() {
        return Err("--socket requires a unix platform".into());
    }
    // The view registry backing the TCP read path and the notify hub
    // backing pushed standing-query deltas. Attached to the router only
    // when a TCP front door is requested — without readers or
    // watchers, publishing per epoch would be pure overhead.
    let views = Arc::new(dna_serve::ViewRegistry::new());
    let hub = Arc::new(dna_serve::NotifyHub::new());
    // Engine bring-up happens BEFORE the socket exists or any pump
    // starts: a bad snapshot must fail the process while it is still
    // invisible to clients, not after they can connect.
    let mut router = dna_serve::Router::new(config);
    if listen.is_some() {
        router = router
            .with_views(Arc::clone(&views))
            .with_notify_hub(Arc::clone(&hub));
    }
    let loaded: Vec<(String, usize)> = preload
        .iter()
        .map(|(n, s)| (n.clone(), s.device_count()))
        .collect();
    let resumed: Vec<(String, u64, usize)> = resumes
        .iter()
        .map(|(c, s)| (c.session.clone(), c.epochs, s.device_count()))
        .collect();
    router.preload(preload)?;
    // All checkpointed sessions come back concurrently — one engine
    // thread each, max-of-resumes wall-clock.
    router.preload_checkpoints(resumes)?;
    for (name, devices) in loaded {
        dna_obs::log::info(&format!(
            "dna serve: session {name:?} loaded ({devices} devices)"
        ));
    }
    for (name, epochs, devices) in resumed {
        dna_obs::log::info(&format!(
            "dna serve: session {name:?} resumed at epoch {epochs} ({devices} devices)"
        ));
    }
    #[cfg(unix)]
    let unix_listener = socket.map(bind_unix_socket).transpose()?;
    let (tx, rx) = mpsc::channel();
    let stdin_tx = tx.clone();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = dna_serve::pump_stream(&stdin_tx, &mut stdin.lock(), &mut stdout.lock()) {
            dna_obs::log::announce(&format!("dna serve: stdin: {e}"));
        }
        // Dropping stdin's sender leaves the other pumps' alive: the
        // server keeps serving them after stdin ends.
    });
    for (session, path) in follows {
        let follow_tx = tx.clone();
        std::thread::spawn(move || {
            let target = std::path::PathBuf::from(&path);
            match dna_serve::follow_trace(
                &follow_tx,
                session.as_deref(),
                &target,
                std::time::Duration::from_millis(50),
            ) {
                Ok(epochs) => dna_obs::log::info(&format!(
                    "dna serve: follow {path}: trace ended ({epochs} epoch(s) shipped)"
                )),
                // Failures always reach stderr, --quiet or not.
                Err(e) => dna_obs::log::announce(&format!("dna serve: follow {path}: {e}")),
            }
        });
    }
    #[cfg(unix)]
    if let Some(listener) = unix_listener {
        let accept_tx = tx.clone();
        std::thread::spawn(move || {
            let _ = dna_serve::accept_loop(accept_tx, listener);
        });
        dna_obs::log::info(&format!(
            "dna serve: listening on {}",
            socket.unwrap_or_default()
        ));
    }
    if let Some(addr) = listen {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind tcp {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("tcp local address: {e}"))?;
        // Announced even under --quiet: with port 0 this line is the
        // only way a client (or a test harness) learns the port.
        dna_obs::log::announce(&format!("dna serve: listening on tcp {local}"));
        let accept_tx = tx.clone();
        let views = Arc::clone(&views);
        let hub = Arc::clone(&hub);
        std::thread::spawn(move || {
            let _ = dna_serve::tcp_accept_loop(accept_tx, listener, views, hub);
        });
    }
    drop(tx);
    print_summary(&router.run(rx));
    Ok(ExitCode::SUCCESS)
}

/// Binds the `--socket` unix listener. Unix sockets stay next to TCP
/// for one property loopback TCP cannot give: access control through
/// filesystem permissions on the socket path.
#[cfg(unix)]
fn bind_unix_socket(path: &str) -> Result<std::os::unix::net::UnixListener, String> {
    let sock = std::path::Path::new(path);
    if sock.exists() {
        // Only reclaim the path from a DEAD server: a connectable
        // socket means another instance is live, and deleting its
        // socket would silently divert that server's clients here.
        if std::os::unix::net::UnixStream::connect(sock).is_ok() {
            return Err(format!("{path} is already served by a running instance"));
        }
        std::fs::remove_file(sock)
            .map_err(|e| format!("cannot replace stale socket {path}: {e}"))?;
    }
    std::os::unix::net::UnixListener::bind(sock).map_err(|e| format!("cannot bind {path}: {e}"))
}

// ---- query ------------------------------------------------------------

/// Parses the five positional flow tokens (`<src-ip> <dst-ip> <proto>
/// <sport> <dport>`) shared by `reach`, `subscribe reach` and
/// `subscribe invariant no-blackhole`.
fn parse_flow(tokens: &[&str]) -> Result<Flow, String> {
    let [sip, dip, proto, sport, dport] = tokens else {
        return Err(format!(
            "a flow takes 5 tokens (<src-ip> <dst-ip> <proto> <sport> <dport>), got {}",
            tokens.len()
        ));
    };
    Ok(Flow {
        src: sip
            .parse()
            .map_err(|_| format!("bad source address {sip:?}"))?,
        dst: dip
            .parse()
            .map_err(|_| format!("bad destination address {dip:?}"))?,
        proto: proto
            .parse()
            .map_err(|_| format!("bad protocol {proto:?}"))?,
        src_port: sport
            .parse()
            .map_err(|_| format!("bad source port {sport:?}"))?,
        dst_port: dport
            .parse()
            .map_err(|_| format!("bad destination port {dport:?}"))?,
    })
}

/// Parses the positional grammar shared by `dna query subscribe …` and
/// `dna watch …` into a standing-query spec.
fn parse_subscribe(tokens: &[&str]) -> Result<SubscriptionSpec, String> {
    Ok(match tokens {
        ["reach", src, flow @ ..] => SubscriptionSpec::Reach {
            src: src.to_string(),
            flow: parse_flow(flow)?,
        },
        ["reach-pair", src, dst] => SubscriptionSpec::ReachPair {
            src: src.to_string(),
            dst: dst.to_string(),
        },
        ["blast", device] => SubscriptionSpec::Blast {
            device: device.to_string(),
        },
        ["invariant", "never-reach", src, dst] => SubscriptionSpec::NeverReach {
            src: src.to_string(),
            dst: dst.to_string(),
        },
        ["invariant", "no-blackhole", src, flow @ ..] => SubscriptionSpec::NoBlackhole {
            src: src.to_string(),
            flow: parse_flow(flow)?,
        },
        other => {
            return Err(format!(
                "bad subscription {:?} (see QUERY COMMANDS in `dna help`)",
                other.join(" ")
            ))
        }
    })
}

fn cmd_query(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        rest,
        &["session", "socket", "connect"],
        &["prometheus", "rates"],
    )?;
    let kind = match args.positionals.as_slice() {
        ["reach", src, flow @ ..] => QueryKind::Reach {
            src: src.to_string(),
            flow: parse_flow(flow)?,
        },
        ["reach-pair", src, dst] => QueryKind::ReachPair {
            src: src.to_string(),
            dst: dst.to_string(),
        },
        ["blast", last] => QueryKind::Blast {
            last: last.parse().map_err(|_| format!("bad window {last:?}"))?,
        },
        ["report", from, to] => QueryKind::Report {
            from: from
                .parse()
                .map_err(|_| format!("bad range start {from:?}"))?,
            to: to.parse().map_err(|_| format!("bad range end {to:?}"))?,
        },
        ["stats"] => QueryKind::Stats,
        ["sessions"] => QueryKind::Sessions,
        ["checkpoint"] => QueryKind::Checkpoint,
        ["metrics"] => QueryKind::Metrics,
        ["trace"] => QueryKind::TraceSpans { last: None },
        ["trace", last] => QueryKind::TraceSpans {
            last: Some(last.parse().map_err(|_| format!("bad window {last:?}"))?),
        },
        ["health"] => QueryKind::Health,
        ["history"] => QueryKind::History { last: None },
        ["history", last] => QueryKind::History {
            last: Some(last.parse().map_err(|_| format!("bad window {last:?}"))?),
        },
        ["subscribe", spec @ ..] => QueryKind::Subscribe(parse_subscribe(spec)?),
        ["unsubscribe", id] => QueryKind::Unsubscribe {
            id: id
                .parse()
                .map_err(|_| format!("bad subscription id {id:?}"))?,
        },
        ["notifications", id] => QueryKind::Notifications {
            id: id
                .parse()
                .map_err(|_| format!("bad subscription id {id:?}"))?,
        },
        [] => return Err("query needs a command (see `dna help`)".into()),
        other => return Err(format!("bad query command {:?}", other.join(" "))),
    };
    let prometheus = args.has("prometheus");
    if prometheus && !matches!(kind, QueryKind::Metrics) {
        return Err("--prometheus only applies to `dna query metrics`".into());
    }
    let rates = args.has("rates");
    if rates && !matches!(kind, QueryKind::History { .. }) {
        return Err("--rates only applies to `dna query history`".into());
    }
    let render = Render { prometheus, rates };
    let query = Query {
        session: args.flag("session").map(str::to_string),
        kind,
    };
    let text = write_query(&query);
    match (args.flag("socket"), args.flag("connect")) {
        (Some(_), Some(_)) => Err("--socket and --connect are mutually exclusive".into()),
        (Some(path), None) => query_over_socket(path, &text, render),
        (None, Some(addr)) => {
            let response = dna_serve::query_tcp(addr, &text)
                .map_err(|e| format!("cannot query tcp {addr}: {e}"))?;
            print_response(addr, &response, render)
        }
        (None, None) => {
            if prometheus || rates {
                return Err(
                    "--prometheus/--rates need a live server (--socket or --connect)".into(),
                );
            }
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
    }
}

// ---- watch ------------------------------------------------------------

/// `dna watch`: subscribe over TCP and stream the pushed `notify`
/// artifacts to stdout as commits land — the live-tail counterpart of
/// polling `dna query notifications <id>`. The subscribe ack goes to
/// stderr so stdout carries exactly the pushed delta stream.
fn cmd_watch(rest: &[String]) -> Result<ExitCode, String> {
    use std::io::Write;
    let args = Args::parse(rest, &["session", "connect", "count"], &[])?;
    let spec = parse_subscribe(&args.positionals)?;
    let addr = args
        .flag("connect")
        .ok_or("watch needs --connect <addr> (a `dna serve --listen` front door)")?;
    let count: Option<u64> = match args.flag("count") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad --count value {v:?}"))?),
    };
    let query = Query {
        session: args.flag("session").map(str::to_string),
        kind: QueryKind::Subscribe(spec),
    };
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect tcp {addr}: {e}"))?;
    (&stream)
        .write_all(write_query(&query).as_bytes())
        .map_err(|e| format!("cannot send subscribe to {addr}: {e}"))?;
    (&stream)
        .flush()
        .map_err(|e| format!("cannot send subscribe to {addr}: {e}"))?;
    let mut reader = std::io::BufReader::new(&stream);
    let next = |r: &mut std::io::BufReader<&std::net::TcpStream>| {
        dna_serve::read_artifact(r).map_err(|e| format!("lost connection to {addr}: {e}"))
    };
    let ack = next(&mut reader)?.ok_or_else(|| format!("{addr} closed before acknowledging"))?;
    let Ok(n) = dna_io::parse_notify(&ack) else {
        // Anything else is the server's refusal (unknown session or
        // device, failed session, …): print it under the usual exit
        // code contract.
        return print_response(addr, &ack, Render::default());
    };
    eprintln!(
        "dna watch: subscription {} on session {:?} ({addr})",
        n.subscription, n.session
    );
    let mut seen = 0u64;
    while count.is_none_or(|c| seen < c) {
        let Some(text) = next(&mut reader)? else {
            break; // server shut down
        };
        seen += 1;
        let mut out = std::io::stdout().lock();
        // A closed downstream (`dna watch … | head`) ends the tail,
        // it doesn't error it.
        if out.write_all(text.as_bytes()).is_err() || out.flush().is_err() {
            break;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Client-side rendering switches for a server's answer (both default
/// off: print the canonical artifact bytes).
#[derive(Clone, Copy, Default)]
struct Render {
    /// Re-render a metrics scrape as Prometheus exposition text.
    prometheus: bool,
    /// Re-render a history dump as derived per-second counter rates.
    rates: bool,
}

/// Prints a server's response and maps it to the exit code contract:
/// 0 for an answer, 2 for a protocol-level `error` response. Telemetry
/// queries come back as their own artifact kinds (`metrics`, `spans`,
/// `history`, `health`) rather than a `response`; all are validated
/// before printing, and `--prometheus` / `--rates` re-render
/// client-side (the wire always carries the canonical artifact).
fn print_response(origin: &str, response: &str, render: Render) -> Result<ExitCode, String> {
    match dna_io::sniff(response) {
        Ok((_, dna_io::Artifact::Metrics)) => {
            let report = dna_io::parse_metrics(response)
                .map_err(|e| format!("malformed metrics from {origin}: {e}"))?;
            if render.prometheus {
                print!("{}", prometheus_text(&report));
            } else {
                print!("{response}");
            }
            return Ok(ExitCode::SUCCESS);
        }
        Ok((_, dna_io::Artifact::Spans)) => {
            dna_io::parse_spans(response)
                .map_err(|e| format!("malformed spans from {origin}: {e}"))?;
            print!("{response}");
            return Ok(ExitCode::SUCCESS);
        }
        Ok((_, dna_io::Artifact::History)) => {
            let report = dna_io::parse_history(response)
                .map_err(|e| format!("malformed history from {origin}: {e}"))?;
            if render.rates {
                print!("{}", rates_text(&report));
            } else {
                print!("{response}");
            }
            return Ok(ExitCode::SUCCESS);
        }
        Ok((_, dna_io::Artifact::Health)) => {
            dna_io::parse_health(response)
                .map_err(|e| format!("malformed health from {origin}: {e}"))?;
            print!("{response}");
            return Ok(ExitCode::SUCCESS);
        }
        // Subscription commands answer with `notify` artifacts: the
        // subscribe/unsubscribe ack, or a `notifications` poll batch.
        Ok((_, dna_io::Artifact::Notify)) => {
            dna_io::parse_notify(response)
                .map_err(|e| format!("malformed notify from {origin}: {e}"))?;
            print!("{response}");
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    print!("{response}");
    match dna_io::parse_response(response) {
        Ok(Response::Error(_)) => Ok(ExitCode::from(2)),
        Ok(_) => Ok(ExitCode::SUCCESS),
        Err(e) => Err(format!("malformed response from {origin}: {e}")),
    }
}

/// Converts wire history samples into the [`dna_obs`] sample shape so
/// rate derivation has one implementation.
fn obs_samples(report: &dna_io::HistoryReport) -> Vec<dna_obs::Sample> {
    let series = |r: &dna_io::SeriesRow| dna_obs::SeriesValue {
        name: r.name.clone(),
        session: r.session.clone(),
        value: r.value,
    };
    report
        .samples
        .iter()
        .map(|s| dna_obs::Sample {
            t_ms: s.t_ms,
            counters: s.counters.iter().map(series).collect(),
            gauges: s.gauges.iter().map(series).collect(),
        })
        .collect()
}

/// Renders `--rates`: per-second counter deltas across the history
/// window (first sample → last). Lines mirror the metrics grammar's
/// scoping so the output greps the same way.
fn rates_text(report: &dna_io::HistoryReport) -> String {
    let samples = obs_samples(report);
    let mut out = String::new();
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        let _ = writeln!(out, "; history is empty — no window to derive rates over");
        return out;
    };
    let _ = writeln!(
        out,
        "; rates over {:.1}s ({} samples)",
        last.t_ms.saturating_sub(first.t_ms) as f64 / 1_000.0,
        samples.len()
    );
    for r in dna_obs::rates(&samples) {
        match &r.session {
            Some(s) => {
                let _ = writeln!(out, "{} session {:?} {:.2}/s", r.name, s, r.per_second);
            }
            None => {
                let _ = writeln!(out, "{} global {:.2}/s", r.name, r.per_second);
            }
        }
    }
    out
}

/// Renders a metrics scrape in the Prometheus text exposition format:
/// `dna_`-prefixed names, `# TYPE` once per family, histograms in
/// seconds with cumulative `le` buckets. Kept dependency-free on
/// purpose — the format is line-oriented text, like everything else
/// this repo writes.
fn prometheus_text(report: &dna_io::MetricsReport) -> String {
    fn esc(label: &str) -> String {
        label
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }
    fn labels(session: &Option<String>) -> String {
        match session {
            Some(s) => format!("{{session=\"{}\"}}", esc(s)),
            None => String::new(),
        }
    }
    fn labels_le(session: &Option<String>, le: &str) -> String {
        match session {
            Some(s) => format!("{{session=\"{}\",le=\"{le}\"}}", esc(s)),
            None => format!("{{le=\"{le}\"}}"),
        }
    }
    let mut out = String::new();
    let mut last_family = String::new();
    let mut family = |out: &mut String, name: &str, kind: &str| {
        if last_family != name {
            let _ = writeln!(out, "# TYPE dna_{name} {kind}");
            last_family = name.to_string();
        }
    };
    for c in &report.counters {
        family(&mut out, &c.name, "counter");
        let _ = writeln!(out, "dna_{}{} {}", c.name, labels(&c.session), c.value);
    }
    for g in &report.gauges {
        family(&mut out, &g.name, "gauge");
        let _ = writeln!(out, "dna_{}{} {}", g.name, labels(&g.session), g.value);
    }
    for h in &report.histograms {
        // Our native unit is microseconds (`_us` suffix); Prometheus
        // convention is base seconds.
        let name = format!("{}_seconds", h.name.strip_suffix("_us").unwrap_or(&h.name));
        family(&mut out, &name, "histogram");
        let mut cumulative = 0u64;
        for (bound, count) in &h.buckets {
            cumulative += count;
            let le = match bound {
                Some(us) => format!("{}", *us as f64 / 1e6),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(
                out,
                "dna_{name}_bucket{} {cumulative}",
                labels_le(&h.session, &le)
            );
        }
        let _ = writeln!(
            out,
            "dna_{name}_sum{} {}",
            labels(&h.session),
            h.sum_ns as f64 / 1e9
        );
        let _ = writeln!(out, "dna_{name}_count{} {}", labels(&h.session), h.count);
    }
    out
}

#[cfg(unix)]
fn query_over_socket(path: &str, text: &str, render: Render) -> Result<ExitCode, String> {
    let response = dna_serve::query_socket(std::path::Path::new(path), text)
        .map_err(|e| format!("cannot query {path}: {e}"))?;
    print_response(path, &response, render)
}

#[cfg(not(unix))]
fn query_over_socket(_path: &str, _text: &str, _render: Render) -> Result<ExitCode, String> {
    Err("--socket requires a unix platform".into())
}

// ---- top --------------------------------------------------------------

/// `dna top`: a one-shot (or `--watch <secs>` refreshing) per-session
/// resource table derived from the server's history ring — rates
/// between the freshest two samples, live gauges from the last one.
/// With fewer than two samples the table still prints (rates read 0)
/// and the command exits 0: an empty ring is a young server, not an
/// error.
fn cmd_top(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["socket", "connect", "watch"], &[])?;
    if !args.positionals.is_empty() {
        return Err(format!(
            "top takes no positionals, got {:?}",
            args.positionals
        ));
    }
    let watch: u64 = args.parsed("watch", 0)?;
    let query = write_query(&Query {
        session: None,
        kind: QueryKind::History { last: Some(2) },
    });
    let fetch = || -> Result<String, String> {
        match (args.flag("socket"), args.flag("connect")) {
            (Some(_), Some(_)) => Err("--socket and --connect are mutually exclusive".into()),
            (Some(path), None) => dna_serve::query_socket(std::path::Path::new(path), &query)
                .map_err(|e| format!("cannot query {path}: {e}")),
            (None, Some(addr)) => dna_serve::query_tcp(addr, &query)
                .map_err(|e| format!("cannot query tcp {addr}: {e}")),
            (None, None) => Err("top needs a live server (--socket or --connect)".into()),
        }
    };
    loop {
        let response = fetch()?;
        let report = match dna_io::sniff(&response) {
            Ok((_, dna_io::Artifact::History)) => dna_io::parse_history(&response)
                .map_err(|e| format!("malformed history from server: {e}"))?,
            // Anything else is the server's error story — surface it.
            _ => match dna_io::parse_response(&response) {
                Ok(Response::Error(e)) => return Err(format!("server: {e}")),
                _ => return Err("server sent neither history nor an error response".into()),
            },
        };
        let table = top_table(&report);
        if watch == 0 {
            print!("{table}");
            return Ok(ExitCode::SUCCESS);
        }
        // Watch mode refreshes on stderr (stdout stays clean for
        // piping) until interrupted.
        eprint!("\n{table}");
        std::thread::sleep(std::time::Duration::from_secs(watch));
    }
}

/// Renders the `dna top` table: one row per session seen in the
/// freshest sample, columns mixing derived rates (counters) and live
/// values (gauges).
fn top_table(report: &dna_io::HistoryReport) -> String {
    let samples = obs_samples(report);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>9} {:>7} {:>7} {:>10} {:>10}",
        "SESSION", "EPOCHS/S", "QUERY/S", "QUEUE", "BEHIND", "HIST-B", "VIEW-B"
    );
    let Some(last) = samples.last() else {
        let _ = writeln!(out, "; history is empty — the server has not ticked yet");
        return out;
    };
    let rates = dna_obs::rates(&samples);
    let rate = |name: &str, session: &str| {
        rates
            .iter()
            .find(|r| r.name == name && r.session.as_deref() == Some(session))
            .map_or(0.0, |r| r.per_second)
    };
    let gauge = |name: &str, session: &str| {
        last.gauges
            .iter()
            .find(|g| g.name == name && g.session.as_deref() == Some(session))
            .map_or(0, |g| g.value)
    };
    let mut sessions: Vec<&str> = last
        .counters
        .iter()
        .chain(last.gauges.iter())
        .filter_map(|r| r.session.as_deref())
        .collect();
    sessions.sort_unstable();
    sessions.dedup();
    for s in sessions {
        let _ = writeln!(
            out,
            "{:<16} {:>9.2} {:>9.2} {:>7} {:>7} {:>10} {:>10}",
            s,
            rate("epochs_applied", s),
            rate("queries_answered", s),
            gauge("ingest_queue_depth", s),
            gauge("epochs_behind", s),
            gauge("history_bytes", s),
            gauge("view_bytes", s),
        );
    }
    out
}

// ---- checkpoint -------------------------------------------------------

fn cmd_checkpoint(rest: &[String]) -> Result<ExitCode, String> {
    let Some(sub) = rest.first() else {
        return Err("checkpoint needs a subcommand: inspect | write | resume".into());
    };
    let rest = &rest[1..];
    match sub.as_str() {
        "inspect" => checkpoint_inspect(rest),
        "write" => checkpoint_write(rest),
        "resume" => checkpoint_resume(rest),
        other => Err(format!(
            "unknown checkpoint subcommand {other:?} (inspect | write | resume)"
        )),
    }
}

/// `dna checkpoint inspect <file>`: a human summary of a checkpoint.
fn checkpoint_inspect(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &[], &[])?;
    let [path] = args.positionals.as_slice() else {
        return Err("checkpoint inspect needs exactly one <ckpt-file>".into());
    };
    let text = read_file(path)?;
    let ckpt = dna_io::parse_checkpoint(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "{path}: checkpoint of session {:?}", ckpt.session);
    let _ = writeln!(
        out,
        "  epochs applied: {} ({} shadow mismatch(es))",
        ckpt.epochs, ckpt.mismatches
    );
    match (ckpt.history.first(), ckpt.history.last()) {
        (Some((from, _)), Some((to, _))) => {
            let _ = writeln!(
                out,
                "  retained window: {} epoch(s) [{from}..={to}]",
                ckpt.history.len()
            );
        }
        _ => {
            let _ = writeln!(out, "  retained window: empty");
        }
    }
    match &ckpt.source {
        dna_io::CheckpointSource::Ref(p) => {
            let _ = writeln!(out, "  snapshot: ref {p:?}");
        }
        dna_io::CheckpointSource::Inline(s) => {
            let _ = writeln!(
                out,
                "  snapshot: inline ({} devices, {} links)",
                s.device_count(),
                s.links.len()
            );
        }
    }
    let c = &ckpt.config;
    let _ = writeln!(
        out,
        "  config: retain {} retain-bytes {} verify {} (brought up with {} shard(s))",
        c.retain,
        c.retain_bytes.map_or("-".to_string(), |b| b.to_string()),
        if c.verify { "on" } else { "off" },
        c.shards
    );
    let t = &ckpt.totals;
    let _ = writeln!(
        out,
        "  totals: {} changes, {} rib, {} fib, {} flow diffs; cp {:.2?} dp {:.2?} total {:.2?}",
        t.changes,
        t.rib,
        t.fib,
        t.flows,
        std::time::Duration::from_nanos(t.cp_ns),
        std::time::Duration::from_nanos(t.dp_ns),
        std::time::Duration::from_nanos(t.total_ns)
    );
    let _ = write!(out, "  artifact size: {} bytes", text.len());
    println_pipe(&out);
    Ok(ExitCode::SUCCESS)
}

/// `dna checkpoint write <snap-file> --out <ckpt-file>`: an epoch-0
/// checkpoint over a snapshot — the hand-authored seed of a resumable
/// session. `--ref` stores the snapshot path instead of embedding it.
fn checkpoint_write(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["out", "session", "retain"], &["ref", "verify"])?;
    let [snap_path] = args.positionals.as_slice() else {
        return Err("checkpoint write needs exactly one <snap-file>".into());
    };
    let out = args
        .flag("out")
        .ok_or("checkpoint write needs --out <ckpt-file>")?;
    let snapshot = load_snapshot(snap_path)?;
    let retain: u64 = args.parsed("retain", 64)?;
    if retain == 0 {
        return Err("--retain must be at least 1".into());
    }
    let session = match args.flag("session") {
        Some(s) => s.to_string(),
        None => split_session_arg(snap_path).0,
    };
    let source = if args.has("ref") {
        // Refs resolve relative to the *checkpoint file's* directory,
        // not the cwd this command ran in — store the snapshot's
        // absolute path so the artifact works no matter where --out
        // put it (a stored-verbatim relative path would dangle the
        // moment the two directories differ).
        let abs = std::path::absolute(snap_path)
            .map_err(|e| format!("cannot resolve {snap_path}: {e}"))?;
        dna_io::CheckpointSource::Ref(abs.to_string_lossy().into_owned())
    } else {
        dna_io::CheckpointSource::Inline(snapshot.clone())
    };
    let ckpt = dna_io::Checkpoint {
        session: session.clone(),
        config: dna_io::CheckpointConfig {
            retain,
            retain_bytes: None,
            verify: args.has("verify"),
            shards: 1,
        },
        epochs: 0,
        mismatches: 0,
        totals: dna_io::CheckpointTotals::default(),
        source,
        history: Vec::new(),
    };
    write_file(out, &dna_io::write_checkpoint(&ckpt))?;
    println_pipe(&format!(
        "wrote {out}: epoch-0 checkpoint of session {session:?} ({} devices)",
        snapshot.device_count()
    ));
    Ok(ExitCode::SUCCESS)
}

/// `dna checkpoint resume <ckpt-file> [--trace <file>]`: bring the
/// checkpointed session back up (proving the artifact is resumable)
/// and optionally replay a trace through it — the offline form of
/// `dna serve --resume`, sharing `dna diff`'s report output.
fn checkpoint_resume(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["trace", "shards", "out"], &["quiet"])?;
    let [ckpt_path] = args.positionals.as_slice() else {
        return Err("checkpoint resume needs exactly one <ckpt-file>".into());
    };
    let shards: usize = args.parsed("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let quiet = args.has("quiet");
    let text = read_file(ckpt_path)?;
    let ckpt = dna_io::parse_checkpoint(&text).map_err(|e| format!("{ckpt_path}: {e}"))?;
    let snapshot = checkpoint_snapshot(ckpt_path, &ckpt)?;
    let server = SessionConfig {
        shards,
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let session = dna_serve::Session::resume(&ckpt, snapshot, &server)?;
    if !quiet {
        println_pipe(&format!(
            "resumed session {:?} at epoch {} in {:.2?} ({} devices, {} retained epoch(s))",
            session.name(),
            session.epochs(),
            start.elapsed(),
            session.snapshot().device_count(),
            ckpt.history.len()
        ));
    }
    let Some(trace_path) = args.flag("trace") else {
        return Ok(ExitCode::SUCCESS);
    };
    let trace = load_trace(trace_path)?;
    let mut report = Report::default();
    let base = session.epochs();
    let mut session = session;
    for (i, ep) in trace.epochs.iter().enumerate() {
        session
            .ingest(ep)
            .map_err(|e| format!("epoch {}: {e}", base + i))?;
        // The freshest history record is the epoch just applied.
        match session.answer(&QueryKind::Report {
            from: base + i,
            to: base + i + 1,
        }) {
            Response::Report { epochs } if epochs.len() == 1 => {
                let (_, diff) = epochs.into_iter().next().expect("one epoch");
                if !quiet {
                    println_pipe(&format!(
                        "== epoch {} [{}] ({} flow diff(s), {} rib, {} fib) ==",
                        base + i,
                        ep.label.as_deref().unwrap_or("unlabeled"),
                        diff.flows.len(),
                        diff.rib.len(),
                        diff.fib.len()
                    ));
                }
                report.epochs.push(diff);
            }
            _ => return Err(format!("epoch {}: history record missing", base + i)),
        }
    }
    if let Some(out_path) = args.flag("out") {
        write_file(out_path, &write_report(&report))?;
        if !quiet {
            println_pipe(&format!(
                "wrote {out_path}: {} epoch(s) (indices relative to the resumed trace)",
                report.epochs.len()
            ));
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---- replay --verify --------------------------------------------------

fn cmd_replay(rest: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(rest, &["shards"], &["verify", "quiet"])?;
    let [snap_path, trace_path] = args.positionals.as_slice() else {
        return Err("replay needs <snap-file> <trace-file>".into());
    };
    if !args.has("verify") {
        return Err("replay currently requires --verify (for plain replay, use `dna diff`)".into());
    }
    let quiet = args.has("quiet");
    let shards: usize = args.parsed("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let snapshot = load_snapshot(snap_path)?;
    let trace = load_trace(trace_path)?;
    let mut session = ReplaySession::with_shards(snapshot, ReplayMode::Both, shards)
        .map_err(|e| format!("initial analysis: {e}"))?;
    let mut mismatches = 0usize;
    for (i, ep) in trace.epochs.iter().enumerate() {
        let out = session
            .step(&ep.changes)
            .map_err(|e| format!("epoch {i}: {e}"))?;
        let diff = out.differential.as_ref().expect("both mode");
        let scratch = out.scratch.as_ref().expect("both mode");
        // Byte-level comparison of the canonical serialized reports: the
        // strongest form of agreement, and exactly what golden tests pin.
        let a = write_report(&Report {
            epochs: vec![EpochDiff::from_behavior(ep.label.clone(), diff)],
        });
        let b = write_report(&Report {
            epochs: vec![EpochDiff::from_behavior(ep.label.clone(), scratch)],
        });
        let label = ep.label.as_deref().unwrap_or("unlabeled");
        if a == b {
            if !quiet {
                println_pipe(&format!(
                    "epoch {i} [{label}]: OK ({} flow diffs, {} rib, {} fib; cp {:.2?} dp {:.2?})",
                    diff.flows.len(),
                    diff.rib.len(),
                    diff.fib.len(),
                    diff.stats.cp_time,
                    diff.stats.dp_time
                ));
            }
        } else {
            mismatches += 1;
            eprintln!("epoch {i} [{label}]: MISMATCH");
            for (la, lb) in a.lines().zip(b.lines()) {
                if la != lb {
                    eprintln!("  differential: {la}");
                    eprintln!("  from-scratch: {lb}");
                    break;
                }
            }
            let (n_a, n_b) = (a.lines().count(), b.lines().count());
            if n_a != n_b {
                eprintln!("  report lengths differ: {n_a} vs {n_b} lines");
            }
        }
    }
    if mismatches == 0 {
        println_pipe(&format!(
            "replayed {} epoch(s): analyzers byte-identical",
            trace.epochs.len()
        ));
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "replayed {} epoch(s): {mismatches} mismatch(es)",
            trace.epochs.len()
        );
        Ok(ExitCode::from(2))
    }
}
