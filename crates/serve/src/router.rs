//! The one engine-side dispatcher of `dna serve`: per-session engine
//! threads behind a request channel.
//!
//! Every transport — stdin, a followed trace file, unix-socket and TCP
//! connections — pumps raw artifact text plus a reply channel (see
//! [`crate::server::Request`]) into the router. The router thread only
//! sniffs and routes; each session runs on its own engine thread, which
//! owns its [`Session`] (engine state never crosses threads) and sends
//! serialized responses straight to the requesting client. Two clients
//! ingesting into different sessions therefore run truly in parallel,
//! with queries interleaving against both, while per-session ordering
//! is preserved by each session's command channel. Session bring-up
//! (the expensive initial analysis) also parallelizes: opening N
//! sessions at startup runs N engine initializations concurrently.
//!
//! Because every mode routes through here, the panic fence and the
//! `DNA_SERVE_FAULT_LABEL` hook cover every mode, pipe mode included.

use crate::server::{Request, ServeSummary};
use crate::session::{Session, SessionConfig};
use crate::subs::NotifyHub;
use crate::view::{ViewRegistry, ViewSlot};
use dna_io::{
    parse_query, parse_snapshot, parse_trace, write_response, Artifact, Checkpoint, Query,
    QueryKind, Response, SessionInfo,
};
use net_model::Snapshot;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

/// One command on a session thread's channel. The reply is a
/// serialized response artifact sent directly to the requesting
/// client. Split from the work payload so the session loop always
/// holds the reply sender *outside* the panic fence — whatever the
/// engine does to the payload, the client gets an answer.
struct SessionCmd {
    work: SessionWork,
    reply: mpsc::Sender<String>,
    /// When the router queued this command — the engine thread turns
    /// it into the `ingest_queue_wait_us` histogram at pickup.
    enqueued: std::time::Instant,
    /// Change epochs this command *looks like* it carries (a cheap
    /// line scan of trace text, counted before the real parse). The
    /// router adds it to the `epochs_behind` gauge at enqueue; the
    /// engine thread subtracts the same stored number when the command
    /// finishes, so the gauge is symmetric and leak-free even when the
    /// parse later disagrees (or fails).
    epochs_hint: u64,
}

impl SessionCmd {
    fn new(work: SessionWork, reply: mpsc::Sender<String>) -> Self {
        let epochs_hint = match &work {
            SessionWork::IngestText(text) => count_epoch_lines(text),
            _ => 0,
        };
        SessionCmd {
            work,
            reply,
            enqueued: std::time::Instant::now(),
            epochs_hint,
        }
    }
}

/// Counts the `epoch` lines of raw trace text — the enqueue-side hint
/// behind the `epochs_behind` gauge. A scan, not a parse: routing must
/// stay cheap, and the decrement uses the same stored hint, so an
/// imprecise count can never leak.
fn count_epoch_lines(text: &str) -> u64 {
    text.lines()
        .map(str::trim)
        .filter(|l| *l == "epoch" || l.starts_with("epoch "))
        .count() as u64
}

/// The engine-side payload of one [`SessionCmd`].
enum SessionWork {
    /// (Re)open the session over an already-parsed snapshot (preload).
    Load(Box<Snapshot>),
    /// (Re)open the session by resuming a checkpoint whose snapshot
    /// source is already resolved (`--resume` preload and streamed
    /// checkpoint artifacts).
    Resume(Box<(Checkpoint, Snapshot)>),
    /// Parse raw snapshot artifact text, then (re)open over it. Raw
    /// text so the parse of a large artifact runs on this session's
    /// thread, never stalling the router (and with it other sessions).
    LoadText(String),
    /// Parse raw trace artifact text, then ingest it epoch by epoch.
    IngestText(String),
    /// Answer one query.
    Query(Box<QueryKind>),
    /// Deliberately panic the engine thread — the regression hook for
    /// the panic fence, compiled only into this crate's tests.
    #[cfg(test)]
    Poison,
}

/// What one command answers with: almost always a [`Response`], but
/// standing-query commands reply with pre-serialized `notify` artifacts
/// (see [`Session::subscription_reply`]) that must reach the client
/// byte-exactly.
enum Reply {
    Response(Response),
    Raw(String),
}

/// Locks an info cell even when a previous holder panicked mid-update:
/// the cell is a single `Option` assignment, valid at every
/// instruction boundary, so mutex poison carries no information — and
/// must never turn a `sessions` listing into a second panic.
fn lock_info(info: &Mutex<Option<SessionInfo>>) -> MutexGuard<'_, Option<SessionInfo>> {
    info.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running session thread.
struct SessionThread {
    tx: mpsc::Sender<SessionCmd>,
    /// Info line maintained by the session thread after every command
    /// (`None` until a load succeeded). Lets the router answer a
    /// `sessions` query without blocking behind in-flight engine work.
    info: Arc<Mutex<Option<SessionInfo>>>,
    /// Queue-side accounting handles (shared cells with the engine
    /// thread's own registration): the router marks work queued here,
    /// the session loop marks it picked up and done.
    acct: dna_obs::SessionAccounting,
    join: std::thread::JoinHandle<ServeSummary>,
}

impl SessionThread {
    /// Queues one command, marking it in the ingest-queue accounting;
    /// a send into a dead thread is unwound from the gauges before the
    /// error (carrying the command) is handed back.
    fn send(
        &self,
        work: SessionWork,
        reply: mpsc::Sender<String>,
    ) -> Result<(), mpsc::SendError<SessionCmd>> {
        let cmd = SessionCmd::new(work, reply);
        self.acct.queue_depth.add(1);
        self.acct.epochs_behind.add(cmd.epochs_hint);
        let result = self.tx.send(cmd);
        if let Err(mpsc::SendError(cmd)) = &result {
            self.acct.queue_depth.sub(1);
            self.acct.epochs_behind.sub(cmd.epochs_hint);
        }
        result
    }
}

/// Everything a session thread's commands run against besides the
/// session itself: its name, its policy, the info cell it shares with
/// the router, and the read-view slot and notify hub each (re)opened
/// session is attached to — present only when the router has them
/// (the TCP front door).
struct SessionCtx {
    name: String,
    config: SessionConfig,
    info: Arc<Mutex<Option<SessionInfo>>>,
    view: Option<Arc<ViewSlot>>,
    hub: Option<Arc<NotifyHub>>,
}

impl SessionCtx {
    /// The error every command gets once the panic fence has tripped.
    fn failed(&self, reason: &str) -> Response {
        Response::Error(format!("session {:?} failed: {reason}", self.name))
    }
}

fn spawn_session(ctx: SessionCtx) -> SessionThread {
    let (tx, rx) = mpsc::channel::<SessionCmd>();
    let info = Arc::clone(&ctx.info);
    let acct = dna_obs::SessionAccounting::register(dna_obs::global(), &ctx.name);
    let join = std::thread::spawn(move || session_loop(ctx, rx));
    SessionThread {
        tx,
        info,
        acct,
        join,
    }
}

/// (Re)opens `slot` with a session brought up from `snapshot` by
/// `open` (a fresh open or a checkpoint resume), attached to the
/// context's view and hub. A failed bring-up keeps the previous
/// session: a bad reload never costs the state already serving.
fn bring_up(
    ctx: &SessionCtx,
    slot: &mut Option<Session>,
    snapshot: Snapshot,
    open: impl FnOnce(Snapshot) -> Result<Session, String>,
) -> Response {
    let devices = snapshot.device_count() as u64;
    let links = snapshot.links.len() as u64;
    match open(snapshot) {
        Ok(mut s) => {
            if let Some(view) = &ctx.view {
                s.set_view_slot(Arc::clone(view));
            }
            if let Some(hub) = &ctx.hub {
                s.set_notify_hub(Arc::clone(hub));
            }
            let session = s.name().to_string();
            *slot = Some(s);
            Response::Loaded {
                session,
                devices,
                links,
            }
        }
        Err(e) => Response::Error(e),
    }
}

/// The engine loop of one session: processes its commands in order
/// until the router drops the channel. Counts what it answers (the
/// router counts only what it answers itself); the per-thread summaries
/// are summed at shutdown.
///
/// Every command runs inside a panic fence: if the engine panics, the
/// session is marked **failed** (see [`fence`]) and this loop keeps
/// answering, with errors, so one wedged session never takes the
/// server (or even this session's own clients) down with it. A later
/// snapshot load or checkpoint resume lifts the fence.
fn session_loop(ctx: SessionCtx, rx: mpsc::Receiver<SessionCmd>) -> ServeSummary {
    let mut session: Option<Session> = None;
    let mut summary = ServeSummary::default();
    let mut failed: Option<String> = None;
    // Engine-side accounting handles: the same shared cells the router
    // bumps at enqueue. Registered while this loop runs, retired with
    // it — the health query's session list is exactly the sessions
    // whose engine loop is alive.
    let registry = dna_obs::global();
    let acct = dna_obs::SessionAccounting::register(registry, &ctx.name);
    // Engine-path query latency, labeled by answer path (the scope
    // slot carries the transport, not a session — see `crate::obs`).
    let query_latency = registry.histogram_for("query_latency_us", "broker");
    // A command the coalescing drain pulled off the channel that turned
    // out not to be ingest work: processed on the next iteration, so
    // per-session command order is preserved exactly.
    let mut carry: Option<SessionCmd> = None;
    loop {
        let cmd = match carry.take() {
            Some(c) => c,
            None => match rx.recv() {
                Ok(c) => c,
                Err(_) => break,
            },
        };
        let SessionCmd {
            work,
            reply,
            enqueued,
            epochs_hint,
        } = cmd;
        // One beat per command-loop iteration: a live heartbeat with a
        // non-empty queue is the watchdog's proof the engine is moving.
        acct.beat();
        acct.queue_depth.sub(1);
        acct.queue_wait.observe(enqueued.elapsed());
        if matches!(
            work,
            SessionWork::Load(_) | SessionWork::Resume(_) | SessionWork::LoadText(_)
        ) {
            // A fresh load replaces whatever state the panic ruined.
            failed = None;
            acct.failed.set(0);
        }
        if let Some(reason) = &failed {
            acct.epochs_behind.sub(epochs_hint);
            let response = ctx.failed(reason);
            summary.count(&response, 0);
            let _ = reply.send(write_response(&response));
            continue;
        }
        // Backlog epoch coalescing (--coalesce): if more ingest work is
        // already queued behind this command, the queue is deep — drain
        // it and merge the pooled epochs into commits of up to
        // `config.coalesce` epochs each (see `apply_ingest_batch`).
        // Draining stops at the first non-ingest command, carried into
        // the next iteration, so command order is preserved; each
        // drained artifact still gets its own reply. A lone ingest with
        // an empty queue takes the per-epoch path below — coalescing
        // never touches a shallow queue.
        if ctx.config.coalesce >= 2 && matches!(work, SessionWork::IngestText(_)) {
            let mut extras: Vec<(String, mpsc::Sender<String>, u64)> = Vec::new();
            // Bounded drain: drained artifacts' replies are withheld
            // until the whole batch commits, so one drain must not
            // swallow an unbounded flood.
            while extras.len() + 1 < 64 {
                match rx.try_recv() {
                    Ok(c) if matches!(c.work, SessionWork::IngestText(_)) => {
                        acct.queue_depth.sub(1);
                        acct.queue_wait.observe(c.enqueued.elapsed());
                        let SessionWork::IngestText(text) = c.work else {
                            unreachable!("matched IngestText above");
                        };
                        extras.push((text, c.reply, c.epochs_hint));
                    }
                    // Pulled but deliberately not processed here: its
                    // pick-up accounting runs when the next iteration
                    // takes it out of the carry slot.
                    Ok(c) => {
                        carry = Some(c);
                        break;
                    }
                    Err(_) => break,
                }
            }
            if !extras.is_empty() {
                let SessionWork::IngestText(text) = work else {
                    unreachable!("matched IngestText above");
                };
                let mut texts = vec![text];
                let mut replies = vec![(reply, epochs_hint)];
                for (text, reply, hint) in extras {
                    texts.push(text);
                    replies.push((reply, hint));
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    apply_ingest_batch(&ctx.name, &ctx.config, &mut session, &texts)
                }));
                for (_, hint) in &replies {
                    acct.epochs_behind.sub(*hint);
                }
                match outcome {
                    Ok(results) => {
                        *lock_info(&ctx.info) = session.as_ref().map(Session::info);
                        for ((response, epochs), (reply, _)) in results.into_iter().zip(&replies) {
                            summary.count(&response, epochs);
                            let _ = reply.send(write_response(&response));
                        }
                    }
                    // Every client in the drained batch gets the
                    // failure answer — none may be left hanging.
                    Err(payload) => {
                        let waiting: Vec<_> = replies.iter().map(|(reply, _)| reply).collect();
                        let reason = panic_reason(payload.as_ref());
                        fence(&ctx, &mut session, &acct, &mut summary, &reason, &waiting);
                        failed = Some(reason);
                    }
                }
                continue;
            }
        }
        let query_kind = match &work {
            SessionWork::Query(k) => Some(k.name()),
            _ => None,
        };
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| apply(&ctx, &mut session, work)));
        // The enqueue-side hint comes off however the work ended —
        // applied, failed mid-trace, or panicked — so `epochs_behind`
        // can never leak.
        acct.epochs_behind.sub(epochs_hint);
        let (reply_body, epochs) = match outcome {
            Ok(out) => out,
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                fence(&ctx, &mut session, &acct, &mut summary, &reason, &[&reply]);
                failed = Some(reason);
                continue;
            }
        };
        if let Some(kind) = query_kind {
            let total_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            query_latency.observe_ns(total_ns);
            dna_obs::query_spans().record(dna_obs::QuerySpan {
                transport: "broker",
                session: Some(ctx.name.clone()),
                kind,
                total_ns,
            });
        }
        // Publish the refreshed info line BEFORE acknowledging: once a
        // client holds our reply, a `sessions` listing must already
        // reflect the command it acknowledges.
        *lock_info(&ctx.info) = session.as_ref().map(Session::info);
        match reply_body {
            Reply::Response(response) => {
                summary.count(&response, epochs);
                let _ = reply.send(write_response(&response));
            }
            // A notify-artifact reply: counted like the other
            // non-`response` query answers (telemetry).
            Reply::Raw(text) => {
                summary.count_obs();
                let _ = reply.send(text);
            }
        }
    }
    acct.retire(registry);
    summary
}

/// The panic fence's failure path, shared by the single-command and
/// coalesced-batch paths. Half-mutated state must never answer again,
/// so the session is dropped and its published view withdrawn. It
/// stays listed — operators must see the wreck — but flagged `failed`
/// with its last known counters, and the health query reads the fence
/// off the `session_failed` gauge. Every client waiting on the
/// panicked work gets the failure answer.
fn fence(
    ctx: &SessionCtx,
    session: &mut Option<Session>,
    acct: &dna_obs::SessionAccounting,
    summary: &mut ServeSummary,
    reason: &str,
    waiting: &[&mpsc::Sender<String>],
) {
    *session = None;
    if let Some(view) = &ctx.view {
        view.clear();
        dna_obs::global()
            .counter_for("view_withdrawals", &ctx.name)
            .inc();
    }
    let mut guard = lock_info(&ctx.info);
    let last = guard.take();
    *guard = Some(SessionInfo {
        name: ctx.name.clone(),
        epochs: last.as_ref().map_or(0, |i| i.epochs),
        devices: last.as_ref().map_or(0, |i| i.devices),
        verify: ctx.config.verify,
        failed: true,
    });
    drop(guard);
    summary.failures += 1;
    acct.failed.set(1);
    let response = ctx.failed(reason);
    let text = write_response(&response);
    for reply in waiting {
        summary.count(&response, 0);
        let _ = reply.send(text.clone());
    }
}

/// Applies one command payload to the session slot (the code inside
/// the panic fence). Returns the reply plus epochs applied.
fn apply(ctx: &SessionCtx, session: &mut Option<Session>, work: SessionWork) -> (Reply, u64) {
    let name = ctx.name.as_str();
    let open = |snapshot: Snapshot| Session::open(name, snapshot, ctx.config.clone());
    match work {
        SessionWork::Load(snapshot) => {
            (Reply::Response(bring_up(ctx, session, *snapshot, open)), 0)
        }
        SessionWork::Resume(boxed) => {
            let (ckpt, snapshot) = *boxed;
            let resume = |snapshot: Snapshot| Session::resume(&ckpt, snapshot, &ctx.config);
            (Reply::Response(bring_up(ctx, session, snapshot, resume)), 0)
        }
        SessionWork::LoadText(text) => {
            let response = match parse_snapshot(&text) {
                Ok(snapshot) => bring_up(ctx, session, snapshot, open),
                Err(e) => Response::Error(e.to_string()),
            };
            (Reply::Response(response), 0)
        }
        SessionWork::IngestText(text) => {
            let start = std::time::Instant::now();
            let (response, epochs) = match parse_trace(&text) {
                Err(e) => (Response::Error(e.to_string()), 0),
                Ok(trace) => {
                    fault_check(&trace);
                    match session.as_mut() {
                        None => (
                            Response::Error(format!("session {name:?} has no loaded snapshot")),
                            0,
                        ),
                        Some(s) => {
                            // Hand the parse cost to the session so epoch
                            // lifecycle spans start at the wire.
                            let parse_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            match s.ingest_trace_timed(&trace, parse_ns) {
                                Ok((epochs, flows)) => (
                                    Response::Ingested {
                                        session: name.to_string(),
                                        epochs: epochs as u64,
                                        flows: flows as u64,
                                        total: s.epochs() as u64,
                                    },
                                    epochs as u64,
                                ),
                                Err((applied, e)) => (Response::Error(e), applied as u64),
                            }
                        }
                    }
                }
            };
            (Reply::Response(response), epochs)
        }
        SessionWork::Query(kind) => {
            let reply = match session.as_ref() {
                None => Reply::Response(Response::Error(format!(
                    "session {name:?} has no loaded snapshot"
                ))),
                // Standing-query commands answer with notify artifacts;
                // everything else stays a `response`.
                Some(s) => match s.subscription_reply(&kind) {
                    Some(text) => Reply::Raw(text),
                    None => Reply::Response(s.answer(&kind)),
                },
            };
            (reply, 0)
        }
        #[cfg(test)]
        SessionWork::Poison => panic!("deliberately poisoned (test hook)"),
    }
}

/// Applies a drained backlog of ingest artifacts with epoch coalescing
/// (the code inside the panic fence for the batched path). Every
/// artifact is parsed, then the epochs of all of them are pooled in
/// arrival order and merged into commits of up to `config.coalesce`
/// epochs each ([`Session::ingest_coalesced`]); the final engine state
/// is identical to ingesting them one by one. Returns one
/// `(response, epochs applied)` pair per artifact, in artifact order.
///
/// Error semantics mirror the sequential path per artifact: a failing
/// epoch skips the rest of **its** artifact (stream semantics) while
/// other artifacts' epochs continue, and its error reply counts the
/// artifact's earlier applied epochs. A merged commit is atomic, so on
/// failure it falls back to per-epoch ingest to recover exactly those
/// semantics. Replies report the session's epoch total at drain
/// completion (commit granularity — the N intermediate totals never
/// exist under coalescing).
fn apply_ingest_batch(
    name: &str,
    config: &SessionConfig,
    session: &mut Option<Session>,
    texts: &[String],
) -> Vec<(Response, u64)> {
    // Per-artifact accounting, separate from the parsed traces so the
    // chunk loop can hold epoch borrows while it updates counters.
    #[derive(Default, Clone)]
    struct Acc {
        applied: usize,
        flows: usize,
        error: Option<String>,
    }
    /// Ingests a chunk per-epoch with sequential stream semantics: a
    /// failing epoch fails its artifact (skipping the artifact's later
    /// epochs) while other artifacts continue.
    fn seq_ingest(
        s: &mut Session,
        chunk: &[(usize, &dna_io::TraceEpoch)],
        parse_share: &[u64],
        acc: &mut [Acc],
    ) {
        for (ai, ep) in chunk {
            if acc[*ai].error.is_some() {
                continue;
            }
            match s.ingest_timed(ep, parse_share[*ai]) {
                Ok(n) => {
                    acc[*ai].applied += 1;
                    acc[*ai].flows += n;
                }
                Err(e) => {
                    acc[*ai].error = Some(format!(
                        "{e} ({} earlier epoch(s) of this trace applied)",
                        acc[*ai].applied
                    ));
                }
            }
        }
    }
    let parsed: Vec<(Result<dna_io::Trace, String>, u64)> = texts
        .iter()
        .map(|text| {
            let start = std::time::Instant::now();
            let trace = parse_trace(text).map_err(|e| e.to_string());
            if let Ok(t) = &trace {
                fault_check(t);
            }
            let parse_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            (trace, parse_ns)
        })
        .collect();
    let Some(s) = session.as_mut() else {
        let msg = format!("session {name:?} has no loaded snapshot");
        return parsed
            .iter()
            .map(|(p, _)| match p {
                Err(e) => (Response::Error(e.clone()), 0),
                Ok(_) => (Response::Error(msg.clone()), 0),
            })
            .collect();
    };
    let mut acc = vec![Acc::default(); parsed.len()];
    // The pooled epoch stream: (artifact, epoch) indices in arrival
    // order, with each artifact's parse cost amortized evenly across
    // its epochs like the sequential path does (`ingest_trace_timed`).
    let mut stream: Vec<(usize, usize)> = Vec::new();
    let mut parse_share = vec![0u64; parsed.len()];
    for (ai, (p, parse_ns)) in parsed.iter().enumerate() {
        if let Ok(t) = p {
            parse_share[ai] = parse_ns / t.epochs.len().max(1) as u64;
            stream.extend((0..t.epochs.len()).map(|ei| (ai, ei)));
        }
    }
    let max = config.coalesce.max(1);
    let mut next = 0;
    while next < stream.len() {
        // Collect the next commit's epochs, skipping artifacts already
        // failed (their remaining epochs are dead under stream
        // semantics).
        let mut chunk: Vec<(usize, &dna_io::TraceEpoch)> = Vec::new();
        while next < stream.len() && chunk.len() < max {
            let (ai, ei) = stream[next];
            next += 1;
            if acc[ai].error.is_some() {
                continue;
            }
            let trace = parsed[ai].0.as_ref().expect("streamed artifacts parsed");
            chunk.push((ai, &trace.epochs[ei]));
        }
        match chunk.as_slice() {
            [] => {}
            [_] => seq_ingest(s, &chunk, &parse_share, &mut acc),
            many => {
                let epochs: Vec<&dna_io::TraceEpoch> = many.iter().map(|(_, ep)| *ep).collect();
                let parse_ns = many.iter().map(|(ai, _)| parse_share[*ai]).sum();
                match s.ingest_coalesced(&epochs, parse_ns) {
                    Ok(flows) => {
                        for (ai, _) in many {
                            acc[*ai].applied += 1;
                        }
                        // The merged commit's flow diffs belong to the
                        // commit, not any single epoch; they are
                        // attributed to the artifact that completed it.
                        let (last, _) = many.last().expect("non-empty chunk");
                        acc[*last].flows += flows;
                    }
                    // Atomic failure: nothing applied. Re-run the chunk
                    // per-epoch so partial-failure semantics (and the
                    // error attribution) match the sequential path.
                    Err(_) => seq_ingest(s, &chunk, &parse_share, &mut acc),
                }
            }
        }
    }
    let total = s.epochs() as u64;
    parsed
        .iter()
        .zip(acc)
        .map(|((p, _), a)| match (p, a.error) {
            (Err(e), _) => (Response::Error(e.clone()), 0),
            (Ok(_), Some(e)) => (Response::Error(e), a.applied as u64),
            (Ok(_), None) => (
                Response::Ingested {
                    session: name.to_string(),
                    epochs: a.applied as u64,
                    flows: a.flows as u64,
                    total,
                },
                a.applied as u64,
            ),
        })
        .collect()
}

/// The fault-injection hook behind `DNA_SERVE_FAULT_LABEL`: routing a
/// trace epoch whose scenario label equals the variable's value panics
/// the engine thread — inside the panic fence, so what CI (and an
/// operator rehearsing an incident) gets is the real failure path:
/// session fenced and `failed` in health, server still serving. Every
/// transport routes through here, so the hook works in every mode.
fn fault_check(trace: &dna_io::Trace) {
    let Ok(label) = std::env::var("DNA_SERVE_FAULT_LABEL") else {
        return;
    };
    if !label.is_empty()
        && trace
            .epochs
            .iter()
            .any(|e| e.label.as_deref() == Some(label.as_str()))
    {
        panic!("fault injected: epoch label {label:?} (DNA_SERVE_FAULT_LABEL)");
    }
}

/// A human-readable reason out of a panic payload (`panic!` with a
/// string literal or a formatted message covers effectively all of
/// std and this codebase).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// The router: one engine thread per session, spawned on demand.
pub struct Router {
    config: SessionConfig,
    sessions: BTreeMap<String, SessionThread>,
    default: Option<String>,
    summary: ServeSummary,
    /// Bring-ups run by [`Router::preload`] / [`Router::preload_checkpoints`].
    /// Session threads count them like any load, but they are startup
    /// work, not served artifacts, so [`Router::run`] leaves them out.
    preloaded: u64,
    /// When attached (the TCP front door), every session thread gets a
    /// [`ViewSlot`] from this registry and publishes a read view after
    /// each applied epoch; reader threads resolve slots through the
    /// same registry.
    views: Option<Arc<ViewRegistry>>,
    /// When attached (the TCP front door), every session thread pushes
    /// notify artifacts through this hub to watching connections.
    hub: Option<Arc<NotifyHub>>,
}

impl Router {
    /// An empty router; sessions opened later inherit `config`.
    pub fn new(config: SessionConfig) -> Self {
        Router {
            config,
            sessions: BTreeMap::new(),
            default: None,
            summary: ServeSummary::default(),
            preloaded: 0,
            views: None,
            hub: None,
        }
    }

    /// Attaches the view registry shared with reader threads; sessions
    /// spawned from here on publish read views into it.
    pub fn with_views(mut self, views: Arc<ViewRegistry>) -> Self {
        self.views = Some(views);
        self
    }

    /// Attaches the notify hub shared with TCP connection threads;
    /// sessions spawned from here on push standing-query deltas into it.
    pub fn with_notify_hub(mut self, hub: Arc<NotifyHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Opens the named sessions concurrently — one engine thread each,
    /// all running their initial analysis in parallel — and waits for
    /// every bring-up to finish. The first name becomes the default
    /// stream target. On any failure the error is returned and the
    /// router is left without the failed session.
    pub fn preload(&mut self, snapshots: Vec<(String, Snapshot)>) -> Result<Vec<String>, String> {
        let cmds = snapshots
            .into_iter()
            .map(|(name, snapshot)| (name, SessionWork::Load(Box::new(snapshot))))
            .collect::<Vec<_>>();
        self.preload_with(cmds)
    }

    /// [`Router::preload`] for checkpoints: every session resumes on
    /// its own engine thread concurrently — a server hosting N
    /// checkpointed sessions pays max-of-resumes, not sum — and the
    /// call returns once all of them are back. Each checkpoint's
    /// snapshot source must already be resolved (see
    /// [`crate::resolve_checkpoint_snapshot`]).
    pub fn preload_checkpoints(
        &mut self,
        checkpoints: Vec<(Checkpoint, Snapshot)>,
    ) -> Result<Vec<String>, String> {
        let cmds = checkpoints
            .into_iter()
            .map(|(ckpt, snapshot)| {
                let name = ckpt.session.clone();
                (name, SessionWork::Resume(Box::new((ckpt, snapshot))))
            })
            .collect::<Vec<_>>();
        self.preload_with(cmds)
    }

    /// The named session's thread, spawned (with its view slot, when a
    /// registry is attached) if it does not exist yet.
    fn thread_entry(&mut self, name: &str) -> &SessionThread {
        let ctx = SessionCtx {
            name: name.to_string(),
            config: self.config.clone(),
            info: Arc::new(Mutex::new(None)),
            view: self.views.as_ref().map(|v| v.slot(name)),
            hub: self.hub.clone(),
        };
        self.sessions
            .entry(name.to_string())
            .or_insert_with(|| spawn_session(ctx))
    }

    /// Records the default stream target, mirroring it into the view
    /// registry so readers resolve unaddressed queries the same way
    /// the router does.
    fn set_default(&mut self, name: Option<String>) {
        if let Some(views) = &self.views {
            views.set_default(name.as_deref());
        }
        self.default = name;
    }

    /// Shared preload machinery: route one bring-up command per named
    /// session (spawning engine threads as needed, so every bring-up
    /// runs concurrently), then wait for all of them. On any failure
    /// the error is returned and the failed session is removed.
    fn preload_with(&mut self, cmds: Vec<(String, SessionWork)>) -> Result<Vec<String>, String> {
        let mut pending = Vec::new();
        for (name, work) in cmds {
            let (reply_tx, reply_rx) = mpsc::channel();
            let sent = self.thread_entry(&name).send(work, reply_tx);
            if sent.is_err() {
                // A session loop only exits when its channel closes, so
                // a dead thread here is exceptional — fail the bring-up
                // cleanly rather than panicking the router.
                self.remove(&name);
                return Err(format!("session {name:?}: engine thread is gone"));
            }
            if self.default.is_none() {
                self.set_default(Some(name.clone()));
            }
            pending.push((name, reply_rx));
        }
        let mut loaded = Vec::new();
        for (name, reply_rx) in pending {
            let text = reply_rx
                .recv()
                .map_err(|_| format!("session {name:?}: bring-up thread died"))?;
            match dna_io::parse_response(&text) {
                Ok(Response::Error(e)) => {
                    self.remove(&name);
                    return Err(e);
                }
                Ok(_) => {
                    self.preloaded += 1;
                    loaded.push(text);
                }
                Err(e) => return Err(format!("session {name:?}: malformed load reply: {e}")),
            }
        }
        Ok(loaded)
    }

    fn remove(&mut self, name: &str) {
        if let Some(t) = self.sessions.remove(name) {
            drop(t.tx);
            if let Ok(s) = t.join.join() {
                self.summary.merge(&s);
            }
        }
        if self.default.as_deref() == Some(name) {
            let next = self.sessions.keys().next().cloned();
            self.set_default(next);
        }
    }

    /// Routes one request. The reply reaches the client from whichever
    /// thread answers; the router never blocks on engine work, and only
    /// sniffs artifact headers — full parsing of snapshot/trace bodies
    /// happens on the owning session's thread. A session name exists
    /// from the moment a load is first routed to it: if that load then
    /// fails, the name keeps answering "no loaded snapshot" errors (and
    /// stays out of the `sessions` listing) until a later load
    /// succeeds.
    fn dispatch(&mut self, req: Request) {
        let stream_session = req.session.as_deref();
        let kind = match dna_io::sniff(&req.text) {
            Ok((_, kind)) => kind,
            Err(e) => return self.answer(&req.reply, Response::Error(e.to_string())),
        };
        match kind {
            Artifact::Snapshot => {
                let name = stream_session
                    .or(self.default.as_deref())
                    .unwrap_or("main")
                    .to_string();
                self.load(name, SessionWork::LoadText(req.text), req.reply);
            }
            Artifact::Trace => match stream_session.or(self.default.as_deref()) {
                Some(name) => {
                    let name = name.to_string();
                    self.forward(&name, SessionWork::IngestText(req.text), req.reply);
                }
                None => self.answer(&req.reply, Response::Error("no session is open".into())),
            },
            // A streamed checkpoint artifact resumes its own named
            // session. Unlike snapshot/trace bodies, the artifact must
            // be parsed *here*: the target session's name lives inside
            // it. Checkpoint loads are rare (startup, recovery), so the
            // routing stall is acceptable; the bring-up itself still
            // runs on the session's thread.
            Artifact::Checkpoint => match dna_io::parse_checkpoint(&req.text) {
                Ok(ckpt) => match crate::session::resolve_checkpoint_snapshot(&ckpt, None) {
                    Ok(snapshot) => {
                        let name = ckpt.session.clone();
                        let work = SessionWork::Resume(Box::new((ckpt, snapshot)));
                        self.load(name, work, req.reply);
                    }
                    Err(e) => self.answer(&req.reply, Response::Error(e)),
                },
                Err(e) => self.answer(&req.reply, Response::Error(e.to_string())),
            },
            Artifact::Query => {
                let started = std::time::Instant::now();
                match parse_query(&req.text) {
                    Ok(q) => self.route_query(q, req.reply, started),
                    Err(e) => self.answer(&req.reply, Response::Error(e.to_string())),
                }
            }
            Artifact::Report
            | Artifact::Response
            | Artifact::Metrics
            | Artifact::Spans
            | Artifact::History
            | Artifact::Health
            | Artifact::Notify => self.answer(
                &req.reply,
                Response::Error(format!("cannot serve a {kind} artifact")),
            ),
        }
    }

    /// Routes a (re)load to the named session's thread, spawning it
    /// first if needed; the first name ever loaded becomes the default
    /// stream target.
    fn load(&mut self, name: String, work: SessionWork, reply: mpsc::Sender<String>) {
        self.thread_entry(&name);
        self.forward(&name, work, reply);
        if self.default.is_none() {
            self.set_default(Some(name));
        }
    }

    /// Queues work on an existing session's thread. An unknown name, or
    /// a thread that is gone, is answered from here so the client is
    /// never left hanging on a dead channel.
    fn forward(&mut self, name: &str, work: SessionWork, reply: mpsc::Sender<String>) {
        let sent = match self.sessions.get(name) {
            Some(thread) => thread.send(work, reply),
            None => {
                let msg = format!("unknown session {name:?}");
                return self.answer(&reply, Response::Error(msg));
            }
        };
        if let Err(mpsc::SendError(cmd)) = sent {
            let msg = format!("session {name:?}: engine thread is gone");
            self.answer(&cmd.reply, Response::Error(msg));
        }
    }

    /// Routes one parsed query. Server-level queries are answered on
    /// this thread — telemetry is process-global and `sessions` reads
    /// the per-thread info caches, so neither ever queues behind
    /// engine work — and recorded in the query plane under `broker`,
    /// like the answers session threads time themselves.
    fn route_query(&mut self, q: Query, reply: mpsc::Sender<String>, started: std::time::Instant) {
        if let Some(text) = crate::obs::obs_reply_for(&q) {
            self.summary.count_obs();
            let _ = reply.send(text);
        } else if q.kind == QueryKind::Sessions {
            let list = self.session_infos();
            self.answer(&reply, Response::Sessions(list));
        } else if let Some(name) = q.session.clone().or_else(|| self.default.clone()) {
            return self.forward(&name, SessionWork::Query(Box::new(q.kind)), reply);
        } else {
            self.answer(&reply, Response::Error("no session is open".into()));
        }
        crate::obs::record_query("broker", &q, started.elapsed());
    }

    /// Collects every session's info line (name-ordered; sessions whose
    /// load failed are omitted, sessions whose engine *panicked* are
    /// listed with a `failed` marker) from the per-thread caches, so a
    /// `sessions` query never stalls routing behind a session's
    /// in-flight engine work. The answer can trail commands still in a
    /// session's queue — the price of not blocking every other session
    /// behind the slowest one.
    fn session_infos(&self) -> Vec<SessionInfo> {
        self.sessions
            .values()
            .filter_map(|t| lock_info(&t.info).clone())
            .collect()
    }

    /// Answers a request from the router thread itself.
    fn answer(&mut self, reply: &mpsc::Sender<String>, response: Response) {
        self.summary.count(&response, 0);
        let _ = reply.send(write_response(&response));
    }

    /// Runs the routing loop until every request sender is dropped,
    /// then drains the session threads and returns the summed summary
    /// of the artifacts served (preloads excluded).
    pub fn run(mut self, requests: mpsc::Receiver<Request>) -> ServeSummary {
        for req in requests {
            self.dispatch(req);
        }
        let mut summary = self.summary;
        for (_, thread) in std::mem::take(&mut self.sessions) {
            drop(thread.tx);
            if let Ok(s) = thread.join.join() {
                summary.merge(&s);
            }
        }
        summary.artifacts = summary.artifacts.saturating_sub(self.preloaded);
        summary
    }
}

/// Serves one artifact stream through `router`: the router runs on its
/// own thread while this one pumps `input` into it and writes the
/// replies to `output`, until end of input. The in-process shape of
/// `dna serve`'s pipe mode.
pub fn route_stream(
    router: Router,
    input: &mut impl std::io::BufRead,
    output: &mut impl std::io::Write,
) -> std::io::Result<ServeSummary> {
    let (tx, rx) = mpsc::channel();
    let summary_thread = std::thread::spawn(move || router.run(rx));
    crate::server::pump_stream(&tx, input, output)?;
    drop(tx);
    // Session panics are fenced inside their own loops; the router
    // thread itself panicking is a bug, but it must surface as an I/O
    // error to the caller, not a second panic that unwinds the server.
    summary_thread
        .join()
        .map_err(|_| std::io::Error::other("router thread panicked"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{pump_stream, read_artifact};
    use dna_io::{parse_response, write_query, write_snapshot, write_trace, Query};
    use std::io::Cursor;
    use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

    fn ft4() -> Snapshot {
        fat_tree(4, Routing::Ebgp).snapshot
    }

    #[test]
    fn router_preloads_sessions_in_parallel_and_routes_queries() {
        let mut router = Router::new(SessionConfig::default());
        let loaded = router
            .preload(vec![
                ("a".into(), ft4()),
                ("b".into(), fat_tree(4, Routing::Ospf).snapshot),
            ])
            .expect("both sessions open");
        assert_eq!(loaded.len(), 2);
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || router.run(rx));
        let stream = format!(
            "{}{}{}",
            write_query(&Query {
                session: None,
                kind: QueryKind::Sessions,
            }),
            write_query(&Query {
                session: Some("b".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: Some("ghost".into()),
                kind: QueryKind::Stats,
            }),
        );
        let mut out = Vec::new();
        pump_stream(&tx, &mut Cursor::new(stream.into_bytes()), &mut out).unwrap();
        drop(tx);
        let summary = handle.join().unwrap();
        assert_eq!(summary.artifacts, 3); // preloads are not served artifacts
        assert_eq!(summary.queries, 2); // sessions + stats (loads and the error are not queries)
        assert_eq!(summary.errors, 1);
        let out = String::from_utf8(out).unwrap();
        let mut cursor = Cursor::new(out.into_bytes());
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Sessions(list) => {
                assert_eq!(
                    list.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
                    vec!["a", "b"]
                );
            }
            other => panic!("expected sessions, got {other:?}"),
        }
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!(s.session, "b"),
            other => panic!("expected stats, got {other:?}"),
        }
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Error(_)
        ));
    }

    #[test]
    fn streamed_snapshot_and_trace_reach_their_session() {
        let snap = ft4();
        let mut gen = ScenarioGen::new(11);
        let cs = gen.generate(&snap, ScenarioKind::LinkFailure).unwrap();
        let trace = dna_io::Trace::from_changesets(vec![cs]);
        let stream = format!(
            "{}{}{}",
            write_snapshot(&snap),
            write_trace(&trace),
            write_query(&Query {
                session: Some("main".into()),
                kind: QueryKind::Stats,
            }),
        );
        let router = Router::new(SessionConfig::default());
        let mut out = Vec::new();
        let summary =
            route_stream(router, &mut Cursor::new(stream.into_bytes()), &mut out).unwrap();
        assert_eq!(summary.artifacts, 3);
        assert_eq!(summary.epochs, 1);
        assert_eq!(summary.errors, 0);
        let out = String::from_utf8(out).unwrap();
        let mut cursor = Cursor::new(out.into_bytes());
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Loaded { .. }
        ));
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Ingested { epochs: 1, .. }
        ));
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!((s.session.as_str(), s.epochs), ("main", 1)),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    /// Regression for the panic fence: before it, a panicking session
    /// thread died with its reply channels and the whole serve loop
    /// came down with `join().expect(...)`. Now the panic is caught on
    /// the session's own thread — the session answers `failed` errors,
    /// the `sessions` listing flags it, the `health` query reports it
    /// **failed** (while the *server* stays ok — containment is the
    /// healthy outcome), every *other* session keeps serving, and a
    /// fresh snapshot load revives the name, flipping health back.
    ///
    /// Session names are unique to this test: the accounting gauges
    /// health reads live in the process-global registry, so names
    /// shared with other tests would race.
    #[test]
    fn panicked_session_is_fenced_and_server_keeps_serving() {
        use dna_io::HealthStatus;
        let fence_health = |text: &str| -> Vec<(String, HealthStatus, Option<String>)> {
            dna_io::parse_health(text)
                .expect("health artifact parses")
                .sessions
                .into_iter()
                .filter(|s| s.name.starts_with("fence-"))
                .map(|s| (s.name, s.status, s.reason))
                .collect()
        };
        let mut router = Router::new(SessionConfig::default());
        router
            .preload(vec![
                ("fence-a".into(), ft4()),
                ("fence-b".into(), fat_tree(4, Routing::Ospf).snapshot),
            ])
            .expect("both sessions open");
        // Deliberately poison session "fence-a"'s engine thread.
        let (ptx, prx) = mpsc::channel();
        router
            .sessions
            .get("fence-a")
            .unwrap()
            .send(SessionWork::Poison, ptx)
            .expect("thread is live");
        match parse_response(&prx.recv().expect("fence answers the poisoned command")).unwrap() {
            Response::Error(msg) => {
                assert!(msg.contains("failed"), "{msg}");
                assert!(msg.contains("deliberately poisoned"), "{msg}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || router.run(rx));
        let stream = format!(
            "{}{}{}{}",
            write_query(&Query {
                session: None,
                kind: QueryKind::Sessions,
            }),
            write_query(&Query {
                session: Some("fence-a".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: Some("fence-b".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: None,
                kind: QueryKind::Health,
            }),
        );
        let mut out = Vec::new();
        pump_stream(&tx, &mut Cursor::new(stream.into_bytes()), &mut out).unwrap();
        // A fresh snapshot load lifts the fence and revives the name.
        let mut out2 = Vec::new();
        let stream2 = format!(
            "{}{}{}",
            write_snapshot(&ft4()),
            write_query(&Query {
                session: Some("fence-a".into()),
                kind: QueryKind::Stats,
            }),
            write_query(&Query {
                session: None,
                kind: QueryKind::Health,
            }),
        );
        crate::server::pump_stream_as(
            &tx,
            Some("fence-a"),
            &mut Cursor::new(stream2.into_bytes()),
            &mut out2,
        )
        .unwrap();
        drop(tx);
        let summary = handle.join().unwrap();
        assert_eq!(summary.failures, 1, "exactly one fenced panic");
        let out = String::from_utf8(out).unwrap();
        let mut cursor = Cursor::new(out.into_bytes());
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Sessions(list) => {
                let flags: Vec<(&str, bool)> = list
                    .iter()
                    .filter(|s| s.name.starts_with("fence-"))
                    .map(|s| (s.name.as_str(), s.failed))
                    .collect();
                assert_eq!(flags, vec![("fence-a", true), ("fence-b", false)]);
            }
            other => panic!("expected sessions, got {other:?}"),
        }
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Error(msg) => assert!(msg.contains("failed"), "{msg}"),
            other => panic!("failed session must answer errors, got {other:?}"),
        }
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!(s.session, "fence-b"),
            other => panic!("healthy session must keep serving, got {other:?}"),
        }
        let health_text = read_artifact(&mut cursor).unwrap().unwrap();
        assert_eq!(
            fence_health(&health_text),
            vec![
                (
                    "fence-a".to_string(),
                    HealthStatus::Failed,
                    Some("panic".to_string())
                ),
                ("fence-b".to_string(), HealthStatus::Ok, None),
            ],
            "health must flip the fenced session to failed"
        );
        let out2 = String::from_utf8(out2).unwrap();
        let mut cursor = Cursor::new(out2.into_bytes());
        assert!(matches!(
            parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap(),
            Response::Loaded { .. }
        ));
        match parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!((s.session.as_str(), s.epochs), ("fence-a", 0)),
            other => panic!("revived session must answer, got {other:?}"),
        }
        let revived = read_artifact(&mut cursor).unwrap().unwrap();
        assert_eq!(
            fence_health(&revived),
            vec![
                ("fence-a".to_string(), HealthStatus::Ok, None),
                ("fence-b".to_string(), HealthStatus::Ok, None),
            ],
            "a fresh load must lift the health fence"
        );
    }

    /// Regression for info-mutex poisoning: a reader that panicked
    /// while holding a session's info lock used to make every later
    /// `sessions` query panic in turn (`lock().expect("info mutex")`).
    /// The info cell is poison-proof now, for both the router's reads
    /// and the session thread's writes.
    #[test]
    fn poisoned_info_mutex_neither_kills_listing_nor_session() {
        let mut router = Router::new(SessionConfig::default());
        router
            .preload(vec![("a".into(), ft4())])
            .expect("session opens");
        let info = Arc::clone(&router.sessions.get("a").unwrap().info);
        let _ = std::thread::spawn(move || {
            let _guard = info.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(
            router.sessions.get("a").unwrap().info.is_poisoned(),
            "test must actually poison the mutex"
        );
        // Router-side read shrugs the poison off.
        let list = router.session_infos();
        assert_eq!(list.len(), 1);
        assert_eq!((list[0].name.as_str(), list[0].failed), ("a", false));
        // Session-side write (after answering a query) does too.
        let (qtx, qrx) = mpsc::channel();
        router
            .sessions
            .get("a")
            .unwrap()
            .send(SessionWork::Query(Box::new(QueryKind::Stats)), qtx)
            .unwrap();
        match parse_response(&qrx.recv().unwrap()).unwrap() {
            Response::Stats(s) => assert_eq!(s.session, "a"),
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(router.session_infos().len(), 1);
    }
}
