//! The traced run: a single-threaded, in-process replay of a wire run's
//! inputs, with spans (name, start, end, parent) around the calls into
//! each crate's public functions, kept in memory and written out at the
//! end.
//!
//! Three kinds of span appear:
//!
//! * **measured** spans wrap one public call (`dna_io::parse_trace`,
//!   `Session::ingest_timed`, `QueryView::answer`, ...);
//! * **in-band** spans are read from the `DiffStats` that
//!   `DiffEngine::apply` returns inside `Session::ingest_timed`
//!   (`core.apply` → `cp.apply`, `dp.apply`), placed inside their
//!   `serve.ingest` parent and marked `synthetic`;
//! * **probe** spans re-run one call outside the production path to
//!   time a stage the production path runs where no span can reach
//!   (`DiffEngine::view` and dropping its result, `DiffEngine::new`,
//!   `EngineView::query`, `dna_io::write_checkpoint`). They sit under
//!   roots named `probe`.
//!
//! Every root's self time (its duration minus its children's) is the
//! reported unattributed remainder, so per root the self times of all
//! its spans add up to the root's duration.

use crate::inputs::{Inputs, PoolQuery, Workload, PROBE_SUBS, SESSION};
use dna_core::{DiffEngine, EngineView};
use dna_io::{parse_notify, parse_query, parse_snapshot, parse_trace, write_response, QueryKind};
use dna_serve::{NotifyHub, Session, SessionConfig, ViewReader, ViewSlot};
use net_model::{Flow, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    pub synthetic: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store.
pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
            synthetic: false,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    fn timed<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` inside a span of its own `probe` root.
    fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let root = self.begin("probe", None);
        let out = self.timed(name, Some(root), f);
        self.end(root);
        out
    }

    fn synth(&mut self, name: &'static str, parent: usize, start: u64, dur: u64) -> usize {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start,
            end: start + dur,
            synthetic: true,
        });
        self.spans.len() - 1
    }

    fn last_dur(&self) -> u64 {
        self.spans.last().map_or(0, Span::dur)
    }
}

/// What the traced run measured.
pub struct TracedRun {
    pub rec: Recorder,
    /// Per-epoch counts read from `DiffStats` and the engine.
    pub cp_tuples: Vec<f64>,
    pub nodes_skipped: Vec<f64>,
    pub dirty_classes: Vec<f64>,
    pub classes: Vec<f64>,
    /// Per-epoch `serve.epilogue`: `serve.ingest − core.apply −
    /// core.view` (− `core.view_drop` where no reader holds views, so
    /// the previous view is freed inside the publish), milliseconds.
    pub epilogue_ms: Vec<f64>,
    /// The server's own epoch span (`dna_obs::EpochSpan`), per epoch:
    /// `cp + dp + publish` in milliseconds, and that sum as a share of
    /// the traced `serve.ingest`.
    pub server_stage_sum_ms: Vec<f64>,
    pub server_span_coverage: Vec<f64>,
    /// Main epochs replayed.
    pub epochs: usize,
    /// Spans whose children cover more than the span itself.
    pub tree_violations: u64,
    /// Traced answers whose reply kind was wrong.
    pub bad_replies: u64,
}

/// The flow a reach-like query traces, resolved the way the server
/// resolves it (`reach-pair`: TCP/80 to the destination's lowest-named
/// interface address).
fn reach_target(kind: &QueryKind, snapshot: &Snapshot) -> Option<(String, Flow)> {
    match kind {
        QueryKind::Reach { src, flow } => Some((src.clone(), *flow)),
        QueryKind::ReachPair { src, dst } => {
            let addr = snapshot.devices.get(dst)?.interfaces.values().next()?.addr;
            Some((src.clone(), Flow::tcp_to(addr, 80)))
        }
        _ => None,
    }
}

struct Replay<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    rec: Recorder,
    session: Session,
    slot: Arc<ViewSlot>,
    reader: ViewReader,
    seen_version: u64,
    hub: Arc<NotifyHub>,
    watcher: u64,
    pushed: dna_obs::Counter,
    bad_replies: u64,
}

impl Replay<'_> {
    /// One epoch through the production ingest path, under a root named
    /// `root`. Returns the `serve.ingest` span id.
    fn epoch(&mut self, root_name: &'static str, index: usize) -> Result<usize, String> {
        let before = self.pushed.get();
        let root = self.rec.begin(root_name, None);
        let trace = self
            .rec
            .timed("io.parse_trace", Some(root), || {
                parse_trace(&self.inputs.epoch_texts[index])
            })
            .map_err(|e| format!("epoch {index}: {e}"))?;
        let parse_ns = self.rec.last_dur();
        let epoch = &trace.epochs[0];
        let ingest = self.rec.begin("serve.ingest", Some(root));
        let applied = self.session.ingest_timed(epoch, parse_ns);
        self.rec.end(ingest);
        applied?;
        let stats = self
            .session
            .replay()
            .last_stats()
            .cloned()
            .ok_or("no epoch stats after ingest")?;
        let start = self.rec.spans[ingest].start;
        let total = stats.total_time.as_nanos() as u64;
        let cp = stats.cp_time.as_nanos() as u64;
        let dp = stats.dp_time.as_nanos() as u64;
        let apply = self.rec.synth("core.apply", ingest, start, total);
        self.rec.synth("cp.apply", apply, start, cp);
        self.rec.synth("dp.apply", apply, start + cp, dp);
        // The server's `--checkpoint-every` cadence, on the same epochs.
        let checkpoint = self
            .w
            .checkpoint_every
            .is_some_and(|every| self.session.epochs().is_multiple_of(every));
        if checkpoint {
            self.rec.timed("serve.checkpoint", Some(root), || {
                self.session.write_checkpoint()
            })?;
        }
        if self.pushed.get() > before {
            let batch = self
                .rec
                .timed("serve.notify_drain", Some(root), || {
                    self.hub.wait(self.watcher)
                })
                .ok_or("notify hub closed")?;
            if batch.iter().any(|a| a.contains("\nresync ")) {
                self.bad_replies += 1;
            }
        }
        self.rec.end(root);
        if checkpoint {
            let artifact = self.session.checkpoint_artifact();
            self.rec.probe("io.write_checkpoint", || {
                dna_io::write_checkpoint(&artifact)
            });
        }
        Ok(ingest)
    }

    /// One query through the TCP read path's public calls.
    fn query(&mut self, q: &PoolQuery, probe_view: Option<&EngineView>) -> Result<(), String> {
        let root = self.rec.begin("query", None);
        let parsed = self
            .rec
            .timed("io.parse_query", Some(root), || parse_query(&q.text))
            .map_err(|e| e.to_string())?;
        let version = self.slot.version();
        let reader = &mut self.reader;
        let slot = &self.slot;
        let view = if version != self.seen_version {
            self.seen_version = version;
            self.rec.timed("serve.view_refresh", Some(root), || {
                reader.current(slot).cloned()
            })
        } else {
            reader.current(slot).cloned()
        }
        .ok_or("no published view")?;
        let response = self
            .rec
            .timed("serve.view_answer", Some(root), || {
                view.answer(&parsed.kind)
            })
            .ok_or("the view cannot answer a pool query")?;
        let text = self.rec.timed("io.write_response", Some(root), || {
            write_response(&response)
        });
        self.rec.end(root);
        if crate::wire::reply_line(&text) != format!("ok {}", q.expect) {
            self.bad_replies += 1;
        }
        if let (Some(view), Some((src, flow))) =
            (probe_view, reach_target(&q.kind, &self.inputs.snapshot))
        {
            self.rec.probe("dp.query", || view.query(&src, &flow));
        }
        Ok(())
    }

    fn capture_view(&mut self) -> Result<EngineView, String> {
        let replay = self.session.replay();
        self.rec
            .probe("core.view", || replay.view())
            .ok_or_else(|| "session has no differential engine".to_string())
    }

    fn subscribe_all(&mut self, subs: &[crate::inputs::Sub]) -> Result<(), String> {
        for sub in subs {
            let reply = self
                .session
                .subscription_reply(&QueryKind::Subscribe(sub.spec.clone()))
                .ok_or("subscribe has no notify reply")?;
            let ack = parse_notify(&reply).map_err(|e| format!("subscribe: {e}: {reply}"))?;
            self.hub.watch(self.watcher, SESSION, ack.subscription);
        }
        Ok(())
    }
}

/// Replays up to `epochs` load-window epochs of the wire run (stopping
/// once `budget` is spent), then the workload's probes, all traced.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    epochs: usize,
    budget: Duration,
    work: &Path,
) -> Result<TracedRun, String> {
    let ckpt_dir = work.join("trace-checkpoints");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("{}: {e}", ckpt_dir.display()))?;
    // The cadence is driven from here (same epochs as the server's
    // `--checkpoint-every`), so each write gets a span of its own.
    let config = SessionConfig {
        checkpoint_dir: Some(ckpt_dir),
        checkpoint_every: 0,
        ..SessionConfig::default()
    };
    let mut rec = Recorder::new();
    let slot = Arc::new(ViewSlot::new());
    let mut session = None;
    for _ in 0..w.setups {
        drop(session.take());
        let root = rec.begin("setup", None);
        let snapshot = rec
            .timed("io.parse_snapshot", Some(root), || {
                parse_snapshot(&inputs.snapshot_text)
            })
            .map_err(|e| e.to_string())?;
        let mut s = rec.timed("serve.open", Some(root), || {
            Session::open(SESSION, snapshot, config.clone())
        })?;
        rec.timed("serve.attach_view", Some(root), || {
            s.set_view_slot(Arc::clone(&slot))
        });
        rec.end(root);
        let snapshot = inputs.snapshot.clone();
        let engine = rec.probe("core.open", || DiffEngine::new(snapshot));
        engine.map_err(|e| e.to_string())?;
        session = Some(s);
    }
    let mut session = session.ok_or("a workload sets up at least once")?;
    let hub = Arc::new(NotifyHub::new());
    session.set_notify_hub(Arc::clone(&hub));
    let watcher = hub.register();
    let mut t = Replay {
        w,
        inputs,
        rec,
        session,
        seen_version: slot.version(),
        slot,
        reader: ViewReader::new(),
        hub,
        watcher,
        pushed: dna_obs::global().counter_for("notifies_pushed", SESSION),
        bad_replies: 0,
    };
    if w.watch_subs > 0 {
        t.subscribe_all(&inputs.subs)?;
    }
    let readers_hold_views = w.query_rate.is_some();
    if readers_hold_views {
        // A reader thread holds the current view between queries.
        t.reader.current(&t.slot);
    }
    let per_epoch = match (w.query_rate, w.ingest) {
        (Some(q), crate::inputs::Ingest::Open { eps }) => (q / eps).round() as usize,
        _ => 0,
    };
    let mut out = TracedRun {
        rec: Recorder::new(),
        cp_tuples: Vec::new(),
        nodes_skipped: Vec::new(),
        dirty_classes: Vec::new(),
        classes: Vec::new(),
        epilogue_ms: Vec::new(),
        server_stage_sum_ms: Vec::new(),
        server_span_coverage: Vec::new(),
        epochs: 0,
        tree_violations: 0,
        bad_replies: 0,
    };
    let started = Instant::now();
    let mut next_query = 0;
    while out.epochs < epochs && started.elapsed() < budget {
        let i = out.epochs;
        let ingest = t.epoch("epoch", i)?;
        out.epochs += 1;
        let stats = t
            .session
            .replay()
            .last_stats()
            .cloned()
            .ok_or("no epoch stats")?;
        out.cp_tuples.push(stats.cp_tuples as f64);
        out.nodes_skipped.push(stats.nodes_skipped as f64);
        out.dirty_classes.push(stats.dirty_classes as f64);
        let classes = t.session.replay().engine().map_or(0, |e| e.class_count());
        out.classes.push(classes as f64);
        let ingest_ns = t.rec.spans[ingest].dur();
        if let Some(span) = dna_obs::spans().snapshot(Some(SESSION), Some(1)).pop() {
            let sum = span.cp_ns + span.dp_ns + span.publish_ns;
            out.server_stage_sum_ms.push(sum as f64 / 1e6);
            out.server_span_coverage
                .push(sum as f64 / ingest_ns.max(1) as f64);
        }
        let view = t.capture_view()?;
        let view_ns = t.rec.last_dur();
        for _ in 0..per_epoch {
            let q = &inputs.queries[inputs.schedule[next_query % inputs.schedule.len()]];
            next_query += 1;
            t.query(q, Some(&view))?;
        }
        t.rec.probe("core.view_drop", move || drop(view));
        let drop_ns = if readers_hold_views {
            0
        } else {
            t.rec.last_dur()
        };
        let apply_ns = stats.total_time.as_nanos() as u64;
        let epilogue = ingest_ns as f64 - apply_ns as f64 - view_ns as f64 - drop_ns as f64;
        out.epilogue_ms.push(epilogue / 1e6);
    }
    if per_epoch == 0 {
        // Closed-loop read probe on the final state, as on the wire.
        let view = t.capture_view()?;
        for &qi in &inputs.schedule {
            t.query(&inputs.queries[qi], Some(&view))?;
        }
        t.rec.probe("core.view_drop", move || drop(view));
    }
    if w.watch_subs == 0 {
        // Notify probe: subscribe, then the next epochs, closed-loop.
        t.subscribe_all(&inputs.subs[..PROBE_SUBS.min(inputs.subs.len())])?;
        for j in 0..w.probe_epochs {
            t.epoch("notify_epoch", out.epochs + j)?;
        }
    }
    if w.checkpoint_every.is_none() {
        // One checkpoint of the final state, so every layer is timed.
        let root = t.rec.begin("final", None);
        t.rec.timed("serve.checkpoint", Some(root), || {
            t.session.write_checkpoint()
        })?;
        t.rec.end(root);
        let artifact = t.session.checkpoint_artifact();
        t.rec.probe("io.write_checkpoint", || {
            dna_io::write_checkpoint(&artifact)
        });
    }
    t.hub.unregister(t.watcher);
    out.bad_replies = t.bad_replies;
    out.rec = t.rec;
    out.tree_violations = self_times(&out.rec.spans)
        .iter()
        .filter(|&&s| s < 0)
        .count() as u64;
    Ok(out)
}

/// Each span's self time: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut out: Vec<i128> = spans.iter().map(|s| s.dur() as i128).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur() as i128;
        }
    }
    out
}

/// The root of each span.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        out.push(s.parent.map_or(i, |p| out[p]));
    }
    out
}

impl TracedRun {
    /// Durations of spans named `name` under roots named `root` (any
    /// root when `None`), in `scale` units per nanosecond.
    pub fn durations(&self, root: Option<&str>, name: &str, scale: f64) -> Vec<f64> {
        let spans = &self.rec.spans;
        let roots = roots(spans);
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && root.is_none_or(|r| spans[roots[*i]].name == r))
            .map(|(_, s)| s.dur() as f64 * scale)
            .collect()
    }

    /// Self times of spans named `name` under roots named `root`.
    pub fn self_durations(&self, root: &str, name: &str, scale: f64) -> Vec<f64> {
        let spans = &self.rec.spans;
        let roots = roots(spans);
        let selfs = self_times(spans);
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && spans[roots[*i]].name == root)
            .map(|(i, _)| selfs[i] as f64 * scale)
            .collect()
    }

    /// For every root named `root`: the root's self time (the
    /// unattributed remainder), after checking that the self times of
    /// all spans under it add up to its duration. `Err` names the first
    /// root that does not.
    pub fn unattributed(&self, root: &str, scale: f64) -> Result<Vec<f64>, String> {
        let spans = &self.rec.spans;
        let roots = roots(spans);
        let selfs = self_times(spans);
        let mut sums: BTreeMap<usize, i128> = BTreeMap::new();
        for (i, r) in roots.iter().enumerate() {
            *sums.entry(*r).or_default() += selfs[i];
        }
        let mut out = Vec::new();
        for (r, sum) in sums {
            if spans[r].name != root {
                continue;
            }
            if sum != spans[r].dur() as i128 {
                return Err(format!(
                    "root {r} ({root}): self times sum to {sum} ns, root lasts {} ns",
                    spans[r].dur()
                ));
            }
            out.push(selfs[r] as f64 * scale);
        }
        Ok(out)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let selfs = self_times(&self.rec.spans);
        let mut text = String::with_capacity(self.rec.spans.len() * 96);
        for (i, s) in self.rec.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"synthetic\": {}}}",
                s.name, s.start, s.end, selfs[i], s.synthetic
            );
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
