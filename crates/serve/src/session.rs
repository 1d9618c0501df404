//! The session layer: one live analysis per loaded snapshot.
//!
//! A [`Session`] keeps a [`dna_core::DiffEngine`] resident across epochs
//! (plus an optional [`dna_core::ScratchDiffer`] verification shadow),
//! ingests change epochs incrementally, and retains a bounded window of
//! canonical per-epoch diffs so history queries (blast radius, report
//! ranges) are answered from memory. A server runs each named session
//! on its own engine thread behind the [`crate::Router`], which owns
//! the session and is the only code that dispatches to it; tests and
//! benchmarks drive a `Session` directly.
//!
//! Every query is answered from incrementally maintained state; nothing
//! on the query path re-simulates the network.

use crate::subs::{InvariantCheck, NotifyHub, SubKind, SubscriptionRegistry};
use crate::view::{QueryView, ViewSlot};
use data_plane::Outcome;
use dna_core::{ReplayCheckpoint, ReplayMode, ReplaySession, ReplayTotals};
use dna_io::{
    Checkpoint, CheckpointConfig, CheckpointSource, CheckpointTotals, EpochDiff, Notify,
    NotifyEvent, QueryKind, Response, ServiceStats, SessionInfo, SubscriptionSpec, Trace,
    TraceEpoch,
};
use dna_obs::EpochSpan;
use net_model::{Flow, Snapshot};
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-session policy, fixed at open time.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Maximum per-epoch diffs retained for history queries. Older
    /// epochs age out; ingest continues unbounded.
    pub retain: usize,
    /// Additional byte budget for the retained history: when set, old
    /// epochs also age out once the canonical serialized size of the
    /// retained diffs exceeds the budget (the freshest epoch is always
    /// kept, even when it alone is over budget).
    pub retain_bytes: Option<usize>,
    /// Attach a from-scratch shadow and cross-check every epoch.
    pub verify: bool,
    /// Shard count for engine bring-up (`DiffEngine::with_shards`).
    pub shards: usize,
    /// Directory for durable per-session checkpoints. Enables both the
    /// ingest-cadence checkpoints and the on-demand `checkpoint` query.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint after every N ingested epochs (0 disables the
    /// cadence; on-demand checkpoints still work). Only meaningful with
    /// a checkpoint directory.
    pub checkpoint_every: usize,
    /// Backlog epoch coalescing: when this session's ingest queue is
    /// deep, up to this many pending epochs are merged into **one**
    /// dataflow commit (one engine commit, one history record with a
    /// `coalesced(N): ...` label — see FORMAT.md). 0 or 1 disables
    /// coalescing; every epoch then commits individually.
    pub coalesce: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            retain: 64,
            retain_bytes: None,
            verify: false,
            shards: 1,
            checkpoint_dir: None,
            checkpoint_every: 0,
            coalesce: 0,
        }
    }
}

/// The merged history label of a coalesced commit (the format FORMAT.md
/// documents): `coalesced(N)` followed by the constituent epochs'
/// labels in arrival order joined with ` + `. Unlabeled epochs are
/// skipped; an all-unlabeled merge keeps the bare `coalesced(N)`.
pub fn coalesced_label(epochs: &[&TraceEpoch]) -> String {
    let mut label = format!("coalesced({})", epochs.len());
    let mut sep = ": ";
    for ep in epochs {
        if let Some(l) = &ep.label {
            label.push_str(sep);
            label.push_str(l);
            sep = " + ";
        }
    }
    label
}

/// The on-disk file name of a session's checkpoint inside the
/// checkpoint directory. Session names are arbitrary strings (the wire
/// format quotes them); a name made only of `[A-Za-z0-9._-]` is used
/// verbatim, anything else is sanitized **and** suffixed with a hash
/// of the real name — two distinct sessions must never share a file,
/// or the later cadence write would silently destroy the earlier
/// session's durability. The authoritative name lives *inside* the
/// artifact; the file name is only an address.
pub fn checkpoint_file_name(session: &str) -> String {
    let safe = !session.is_empty()
        && session
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if safe {
        return format!("{session}.ckpt.dna");
    }
    let stem: String = session
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    // FNV-1a over the original name disambiguates the sanitized stem.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{stem}-{hash:016x}.ckpt.dna")
}

/// Loads a checkpoint's snapshot: inline checkpoints carry it; `ref`
/// checkpoints name a snapshot artifact on disk, resolved relative to
/// `base_dir` (the checkpoint file's directory — `None` means the
/// process working directory, the only base a streamed artifact has).
pub fn resolve_checkpoint_snapshot(
    ckpt: &Checkpoint,
    base_dir: Option<&Path>,
) -> Result<Snapshot, String> {
    match &ckpt.source {
        CheckpointSource::Inline(snap) => Ok(snap.clone()),
        CheckpointSource::Ref(path) => {
            let mut full = PathBuf::from(path);
            if full.is_relative() {
                if let Some(base) = base_dir {
                    full = base.join(full);
                }
            }
            let text = std::fs::read_to_string(&full)
                .map_err(|e| format!("checkpoint snapshot ref {}: {e}", full.display()))?;
            dna_io::parse_snapshot(&text)
                .map_err(|e| format!("checkpoint snapshot ref {}: {e}", full.display()))
        }
    }
}

/// One retained epoch: its absolute index, canonical diff, and the
/// diff's canonical serialized size (0 when no byte budget is set).
/// The diff is `Arc`'d so publishing a [`QueryView`] after epoch N
/// shares the window with the previous view instead of deep-copying
/// `retain` diffs per epoch.
struct EpochRecord {
    index: usize,
    diff: Arc<EpochDiff>,
    bytes: usize,
}

/// Telemetry handles for one session's hot paths, resolved against the
/// process-global registry once at open/resume so per-epoch work never
/// re-hashes a registry key. When telemetry is killed via
/// `DNA_OBS_DISABLED` every handle is a no-op and recording costs two
/// branch misses per epoch.
struct SessionObs {
    epochs_applied: dna_obs::Counter,
    epoch_apply_us: dna_obs::Histogram,
    view_publishes: dna_obs::Counter,
    view_publish_us: dna_obs::Histogram,
    checkpoint_writes: dna_obs::Counter,
    checkpoint_write_us: dna_obs::Histogram,
    queries_answered: dna_obs::Counter,
    /// Standing queries currently registered on this session.
    subscriptions_active: dna_obs::Gauge,
    /// Notify events delivered (queued for poll, and pushed when a hub
    /// watcher is attached) because a commit changed a subscription's
    /// answer.
    notifies_pushed: dna_obs::Counter,
    /// Commit × subscription evaluations that produced no event — the
    /// proof that non-intersecting epochs cost zero bytes.
    notify_suppressed: dna_obs::Counter,
    /// Epochs folded into an already-open merged commit by backlog
    /// coalescing — i.e. engine commits saved (a merged commit of N
    /// epochs adds N-1).
    epochs_coalesced: dna_obs::Counter,
    /// Dataflow operators skipped by dirty-node scheduling, summed
    /// over every commit this session applied.
    dd_nodes_skipped: dna_obs::Counter,
    /// Dataflow tuples processed, summed over every commit — the
    /// cheap allocation-pressure proxy for the commit path (tuple
    /// traffic is what the hot-path maps and batches allocate for).
    dd_tuples: dna_obs::Counter,
    /// Live resource accounting (heartbeat, retained/published bytes).
    /// The session layer shares these cells with the router's engine
    /// thread — registration is get-or-create — so a session driven
    /// directly (tests, benchmarks) still beats the heartbeat and
    /// reports memory.
    acct: dna_obs::SessionAccounting,
}

impl SessionObs {
    fn new(session: &str) -> Self {
        let r = dna_obs::global();
        SessionObs {
            epochs_applied: r.counter_for("epochs_applied", session),
            epoch_apply_us: r.histogram_for("epoch_apply_us", session),
            view_publishes: r.counter_for("view_publishes", session),
            view_publish_us: r.histogram_for("view_publish_us", session),
            checkpoint_writes: r.counter_for("checkpoint_writes", session),
            checkpoint_write_us: r.histogram_for("checkpoint_write_us", session),
            queries_answered: r.counter_for("queries_answered", session),
            subscriptions_active: r.gauge_for("subscriptions_active", session),
            notifies_pushed: r.counter_for("notifies_pushed", session),
            notify_suppressed: r.counter_for("notify_suppressed", session),
            epochs_coalesced: r.counter_for("epochs_coalesced", session),
            dd_nodes_skipped: r.counter_for("dd_nodes_skipped", session),
            dd_tuples: r.counter_for("dd_tuples", session),
            acct: dna_obs::SessionAccounting::register(r, session),
        }
    }
}

/// A live differential analysis of one snapshot.
pub struct Session {
    name: String,
    replay: ReplaySession,
    config: SessionConfig,
    history: VecDeque<EpochRecord>,
    /// Total canonical bytes of the retained history (0 unless a byte
    /// budget is configured).
    history_bytes: usize,
    mismatches: u64,
    /// Where this session publishes its immutable [`QueryView`] after
    /// every applied epoch (see [`crate::view`]). `None` outside the
    /// TCP front door — other transports never pay the capture.
    view: Option<Arc<ViewSlot>>,
    /// Standing queries ([`crate::subs`]). Interior mutability because
    /// subscribe/poll arrive on the `&self` query path while
    /// commit-tail evaluation runs on the ingest path of the same
    /// thread; the lock is never contended across threads.
    subs: Mutex<SubscriptionRegistry>,
    /// Push fan-out to TCP watchers; `None` outside the TCP front door
    /// (the `notifications` poll works on every transport regardless).
    hub: Option<Arc<NotifyHub>>,
    obs: SessionObs,
}

/// Locks a session's subscription registry even when a previous holder
/// panicked mid-update: every mutation under the lock is registry
/// bookkeeping, valid at each instruction boundary, so poison carries
/// no information — and must never fail the ingest path.
fn lock_subs(m: &Mutex<SubscriptionRegistry>) -> MutexGuard<'_, SubscriptionRegistry> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Session {
    /// Opens a session: runs the one-time from-scratch initialization of
    /// the differential engine (and the shadow when `config.verify`),
    /// fanned out over `config.shards` bring-up workers.
    pub fn open(name: &str, snapshot: Snapshot, config: SessionConfig) -> Result<Self, String> {
        let mode = if config.verify {
            ReplayMode::Both
        } else {
            ReplayMode::Differential
        };
        let mut replay = ReplaySession::with_shards(snapshot, mode, config.shards)
            .map_err(|e| format!("session {name:?}: initial analysis: {e}"))?;
        // Per-epoch stat records serve the same history window as the
        // diff history; both stay bounded on an unbounded stream.
        replay.set_stats_retention(config.retain);
        Ok(Session {
            name: name.to_string(),
            replay,
            config,
            history: VecDeque::new(),
            history_bytes: 0,
            mismatches: 0,
            view: None,
            subs: Mutex::new(SubscriptionRegistry::default()),
            hub: None,
            obs: SessionObs::new(name),
        })
    }

    /// Rebuilds a session from a checkpoint plus its (already resolved)
    /// snapshot: engine bring-up on the checkpointed state, then a
    /// fast-forward of the counters and retained history. Retention and
    /// verify policy come from the **checkpoint** — they are observable
    /// in the session's responses, so resume must restore them for the
    /// session to be indistinguishable from one that never restarted.
    /// Shard count and checkpoint cadence come from `server` — neither
    /// is observable, and the resuming host knows its own hardware and
    /// durability policy.
    pub fn resume(
        ckpt: &Checkpoint,
        snapshot: Snapshot,
        server: &SessionConfig,
    ) -> Result<Self, String> {
        let name = ckpt.session.clone();
        // Checked counter restoration: a checkpoint's u64 counters may
        // not fit this host's usize (32-bit resumer of a 64-bit write)
        // and its history window must sit below its epoch count — the
        // old `as usize` casts silently wrapped instead of refusing.
        let counters = ckpt
            .resume_counters()
            .map_err(|e| format!("session {name:?}: {e}"))?;
        let config = SessionConfig {
            retain: counters.retain,
            retain_bytes: counters.retain_bytes,
            verify: ckpt.config.verify,
            shards: server.shards,
            checkpoint_dir: server.checkpoint_dir.clone(),
            checkpoint_every: server.checkpoint_every,
            coalesce: server.coalesce,
        };
        let mode = if config.verify {
            ReplayMode::Both
        } else {
            ReplayMode::Differential
        };
        let t = &ckpt.totals;
        let replay_ckpt = ReplayCheckpoint {
            snapshot,
            epochs: counters.epochs,
            totals: ReplayTotals {
                epochs: counters.epochs,
                changes: counters.changes,
                rib: counters.rib,
                fib: counters.fib,
                flows: counters.flows,
                cp_time: Duration::from_nanos(t.cp_ns),
                dp_time: Duration::from_nanos(t.dp_ns),
                total_time: Duration::from_nanos(t.total_ns),
            },
        };
        let mut replay = ReplaySession::resume(replay_ckpt, mode, config.shards)
            .map_err(|e| format!("session {name:?}: resume analysis: {e}"))?;
        replay.set_stats_retention(config.retain);
        let mut session = Session {
            obs: SessionObs::new(&name),
            name,
            replay,
            config,
            history: VecDeque::new(),
            history_bytes: 0,
            mismatches: ckpt.mismatches,
            view: None,
            subs: Mutex::new(SubscriptionRegistry::default()),
            hub: None,
        };
        for (index, diff) in &ckpt.history {
            session.push_history(*index, diff.clone());
        }
        Ok(session)
    }

    /// Captures the session's durable state as a `dna-io` checkpoint
    /// artifact value (always with the snapshot inline — the live
    /// session's current snapshot exists nowhere else on disk).
    pub fn checkpoint_artifact(&self) -> Checkpoint {
        let t = self.replay.totals();
        Checkpoint {
            session: self.name.clone(),
            config: CheckpointConfig {
                retain: self.config.retain as u64,
                retain_bytes: self.config.retain_bytes.map(|b| b as u64),
                verify: self.config.verify,
                shards: self.config.shards as u64,
            },
            epochs: self.epochs() as u64,
            mismatches: self.mismatches,
            totals: CheckpointTotals {
                changes: t.changes as u64,
                rib: t.rib as u64,
                fib: t.fib as u64,
                flows: t.flows as u64,
                cp_ns: t.cp_time.as_nanos() as u64,
                dp_ns: t.dp_time.as_nanos() as u64,
                total_ns: t.total_time.as_nanos() as u64,
            },
            source: CheckpointSource::Inline(self.snapshot().clone()),
            history: self
                .history
                .iter()
                .map(|r| (r.index, (*r.diff).clone()))
                .collect(),
        }
    }

    /// Writes the session's checkpoint into the configured directory,
    /// atomically (write to a temp file in the same directory, then
    /// rename over the target): a crash mid-write leaves either the
    /// previous checkpoint or the new one, never a torn file. Returns
    /// the target path and the artifact's size in bytes.
    pub fn write_checkpoint(&self) -> Result<(PathBuf, u64), String> {
        let Some(dir) = &self.config.checkpoint_dir else {
            return Err(format!(
                "session {:?}: no checkpoint directory configured",
                self.name
            ));
        };
        let text = dna_io::write_checkpoint(&self.checkpoint_artifact());
        let bytes = text.len() as u64;
        let target = dir.join(checkpoint_file_name(&self.name));
        // The temp name must be unique per in-flight write, not just
        // per process: session engine threads checkpoint concurrently,
        // and two writers sharing a temp path could rename a torn file
        // over the target.
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{seq}",
            checkpoint_file_name(&self.name),
            std::process::id()
        ));
        let fail = |what: &str, e: std::io::Error| {
            format!("session {:?}: {what} {}: {e}", self.name, tmp.display())
        };
        let start = Instant::now();
        std::fs::write(&tmp, &text).map_err(|e| fail("write checkpoint temp", e))?;
        std::fs::rename(&tmp, &target).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!(
                "session {:?}: rename checkpoint into {}: {e}",
                self.name,
                target.display()
            )
        })?;
        self.obs.checkpoint_writes.inc();
        self.obs.checkpoint_write_us.observe(start.elapsed());
        Ok((target, bytes))
    }

    /// Session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Epochs ingested since open.
    pub fn epochs(&self) -> usize {
        self.replay.epochs_replayed()
    }

    /// Epochs on which the verification shadow disagreed.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// The session's current snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        self.replay.snapshot()
    }

    /// The underlying replay session (stats, engine access).
    pub fn replay(&self) -> &ReplaySession {
        &self.replay
    }

    /// Applies one change epoch incrementally. Returns the flow-diff
    /// count of the epoch. On error nothing is applied.
    pub fn ingest(&mut self, epoch: &TraceEpoch) -> Result<usize, String> {
        self.ingest_timed(epoch, 0)
    }

    /// [`Session::ingest`] with the wire-parse time the caller already
    /// spent on this epoch, so the recorded lifecycle span covers the
    /// whole parse → control-plane → data-plane → publish pipeline
    /// (pass 0 when the epoch never crossed a wire).
    pub fn ingest_timed(&mut self, epoch: &TraceEpoch, parse_ns: u64) -> Result<usize, String> {
        let start = Instant::now();
        self.obs.acct.beat();
        let out = self
            .replay
            .step(&epoch.changes)
            .map_err(|e| format!("session {:?}: epoch {}: {e}", self.name, self.epochs()))?;
        if out.analyzers_agree() == Some(false) {
            self.mismatches += 1;
        }
        let index = out.index;
        let diff = EpochDiff::from_behavior(epoch.label.clone(), out.primary());
        let flows = self.push_history(index, diff);
        self.commit_epilogue(
            index,
            epoch.label.clone(),
            epoch.changes.len(),
            1,
            parse_ns,
            start,
            flows,
        );
        Ok(flows)
    }

    /// Applies several pending change epochs as **one** dataflow commit
    /// (see [`dna_core::ReplaySession::step_coalesced`]): the backlog
    /// drain path behind `--coalesce`. One engine commit, one retained
    /// history record carrying the merged `coalesced(N): ...` label
    /// (documented in FORMAT.md), one view publish, one lifecycle span.
    /// The final engine state is identical to ingesting the epochs one
    /// by one; what is lost is the N-1 intermediate history records.
    /// Atomic: on error nothing is applied (callers wanting stream
    /// semantics fall back to per-epoch ingest — the router does).
    pub fn ingest_coalesced(
        &mut self,
        epochs: &[&TraceEpoch],
        parse_ns: u64,
    ) -> Result<usize, String> {
        if let [single] = epochs {
            return self.ingest_timed(single, parse_ns);
        }
        if epochs.is_empty() {
            return Ok(0);
        }
        let start = Instant::now();
        self.obs.acct.beat();
        let out = self
            .replay
            .step_coalesced(epochs.iter().map(|e| &e.changes))
            .map_err(|e| format!("session {:?}: epoch {}: {e}", self.name, self.epochs()))?;
        if out.analyzers_agree() == Some(false) {
            self.mismatches += 1;
        }
        let index = out.index;
        let label = Some(coalesced_label(epochs));
        let diff = EpochDiff::from_behavior(label.clone(), out.primary());
        let flows = self.push_history(index, diff);
        // N epochs, one commit: N-1 engine commits amortized away.
        self.obs.epochs_coalesced.add(epochs.len() as u64 - 1);
        let changes = epochs.iter().map(|e| e.changes.len()).sum();
        self.commit_epilogue(index, label, changes, epochs.len(), parse_ns, start, flows);
        Ok(flows)
    }

    /// The shared tail of every applied commit — view publish, cadence
    /// checkpoint, hot-path counters, lifecycle span — so the per-epoch
    /// and coalesced ingest paths stay observably identical per commit.
    // Every argument is one fact about the commit just applied; a
    // params struct would only rename the call sites.
    #[allow(clippy::too_many_arguments)]
    fn commit_epilogue(
        &mut self,
        index: usize,
        label: Option<String>,
        changes: usize,
        epochs_in_commit: usize,
        parse_ns: u64,
        start: Instant,
        flows: usize,
    ) {
        // Standing queries re-evaluate from this commit's diff before
        // the view publish: the epoch lifecycle is parse → cp → dp →
        // diff → subscriptions → publish → ack, so a client that holds
        // the commit's ack has already had its notifies queued/pushed.
        self.notify_subscriptions(index);
        // Publish the refreshed read view before acknowledging the
        // epoch: a client that holds our reply must find a view at
        // least this fresh (cheap no-op when no slot is attached).
        let publish_ns = self.publish_view();
        // Cadence checkpoints ride the ingest path. A failed write must
        // not fail the epoch (the analysis state is fine — durability
        // degraded, which the operator hears about on stderr). A
        // coalesced commit advances the epoch counter by N, so the
        // cadence test is "did this commit cross a multiple", not
        // "did it land on one".
        if self.config.checkpoint_dir.is_some()
            && self.config.checkpoint_every > 0
            && self.epochs() / self.config.checkpoint_every
                > (self.epochs() - epochs_in_commit) / self.config.checkpoint_every
        {
            if let Err(e) = self.write_checkpoint() {
                // Durability degradation outranks --quiet: always heard.
                dna_obs::log::announce(&format!("dna serve: checkpoint failed: {e}"));
            }
        }
        let apply_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.obs.epochs_applied.inc();
        self.obs.epoch_apply_us.observe_ns(apply_ns);
        // The engine's own per-epoch record carries the stage split; the
        // span adds what the engine cannot know — parse and publish.
        let (cp_ns, dp_ns) = self.replay.last_stats().map_or((0, 0), |s| {
            (
                s.cp_time.as_nanos().min(u64::MAX as u128) as u64,
                s.dp_time.as_nanos().min(u64::MAX as u128) as u64,
            )
        });
        if let Some(s) = self.replay.last_stats() {
            self.obs.dd_nodes_skipped.add(s.nodes_skipped as u64);
            self.obs.dd_tuples.add(s.cp_tuples as u64);
        }
        dna_obs::spans().record(EpochSpan {
            session: self.name.clone(),
            epoch: index as u64,
            label,
            parse_ns,
            cp_ns,
            dp_ns,
            publish_ns,
            total_ns: parse_ns.saturating_add(apply_ns),
            changes: changes as u64,
            flows: flows as u64,
        });
    }

    /// Appends one canonical diff to the retained history and applies
    /// the retention bounds (shared by ingest and resume, so a resumed
    /// history is bounded exactly like a live one).
    fn push_history(&mut self, index: usize, mut diff: EpochDiff) -> usize {
        let flows = diff.flows.len();
        // Sizing only runs when a byte budget is configured — the
        // serialization is pure overhead otherwise.
        let bytes = if self.config.retain_bytes.is_some() {
            let wrapped = dna_io::Report { epochs: vec![diff] };
            let n = dna_io::write_report(&wrapped).len();
            diff = wrapped.epochs.into_iter().next().expect("just wrapped");
            n
        } else {
            0
        };
        self.history_bytes += bytes;
        self.history.push_back(EpochRecord {
            index,
            diff: Arc::new(diff),
            bytes,
        });
        while self.history.len() > self.config.retain
            || (self.history.len() > 1
                && self
                    .config
                    .retain_bytes
                    .is_some_and(|budget| self.history_bytes > budget))
        {
            if let Some(old) = self.history.pop_front() {
                self.history_bytes -= old.bytes;
            }
        }
        self.obs.acct.history_bytes.set(self.history_bytes as u64);
        flows
    }

    /// Canonical serialized size of the retained history (0 unless a
    /// byte budget is configured).
    pub fn history_bytes(&self) -> usize {
        self.history_bytes
    }

    /// Applies a whole trace epoch by epoch; returns `(epochs applied,
    /// flow diffs produced)`. Stops at the first failing epoch; earlier
    /// epochs stay applied (stream semantics), so the error side also
    /// carries how many were — state mutation is never misreported.
    pub fn ingest_trace(&mut self, trace: &Trace) -> Result<(usize, usize), (usize, String)> {
        self.ingest_trace_timed(trace, 0)
    }

    /// [`Session::ingest_trace`] with the wire-parse time the caller
    /// spent on the whole trace artifact, amortized evenly across its
    /// epochs for the recorded lifecycle spans (a trace parses as one
    /// artifact; per-epoch parse cost is not separately observable).
    pub fn ingest_trace_timed(
        &mut self,
        trace: &Trace,
        parse_ns: u64,
    ) -> Result<(usize, usize), (usize, String)> {
        let per_epoch_ns = parse_ns / trace.epochs.len().max(1) as u64;
        let mut flows = 0;
        for (applied, ep) in trace.epochs.iter().enumerate() {
            match self.ingest_timed(ep, per_epoch_ns) {
                Ok(n) => flows += n,
                Err(e) => {
                    return Err((
                        applied,
                        format!("{e} ({applied} earlier epoch(s) of this trace applied)"),
                    ))
                }
            }
        }
        Ok((trace.epochs.len(), flows))
    }

    /// Answers one query against this session. Infallible at this layer:
    /// domain problems (unknown device, empty engine) come back as
    /// [`Response::Error`].
    pub fn answer(&self, kind: &QueryKind) -> Response {
        self.obs.acct.beat();
        self.obs.queries_answered.inc();
        match kind {
            QueryKind::Reach { src, flow } => self.reach(src, flow),
            QueryKind::ReachPair { src, dst } => match self.resolve_dst(dst) {
                Ok(flow) => self.reach(src, &flow),
                Err(e) => Response::Error(e),
            },
            QueryKind::Blast { last } => self.blast(*last),
            QueryKind::Report { from, to } => self.report(*from, *to),
            QueryKind::Stats => Response::Stats(self.stats()),
            QueryKind::Sessions => {
                Response::Error("sessions is a server-level query; the router answers it".into())
            }
            // Telemetry is process-global: every transport intercepts
            // these before session dispatch (see [`crate::obs`]), so
            // reaching a session is a routing bug surfaced as an error.
            QueryKind::Metrics
            | QueryKind::TraceSpans { .. }
            | QueryKind::Health
            | QueryKind::History { .. } => Response::Error(
                "metrics/trace/health/history are server-level queries; the transport answers them"
                    .into(),
            ),
            // Standing-query commands reply with notify artifacts, not
            // responses: every transport dispatches them through
            // [`Session::subscription_reply`] first, so reaching this
            // arm is a routing bug surfaced as an error.
            QueryKind::Subscribe(_)
            | QueryKind::Unsubscribe { .. }
            | QueryKind::Notifications { .. } => Response::Error(
                "subscription queries are answered with notify artifacts; the transport dispatches them"
                    .into(),
            ),
            QueryKind::Checkpoint => match self.write_checkpoint() {
                Ok((_path, bytes)) => Response::Checkpointed {
                    session: self.name.clone(),
                    epochs: self.epochs() as u64,
                    bytes,
                },
                Err(e) => Response::Error(e),
            },
        }
    }

    fn reach(&self, src: &str, flow: &Flow) -> Response {
        if !self.snapshot().devices.contains_key(src) {
            return Response::Error(format!("unknown source device {src:?}"));
        }
        match self.replay.query(src, flow) {
            Some(outcomes) => Response::Reach { outcomes },
            None => Response::Error("session has no live differential engine".into()),
        }
    }

    /// Resolves an endpoint-pair destination to a representative flow:
    /// a TCP/80 packet to the canonical (lowest-named interface)
    /// address of `dst`. Deterministic, so responses are byte-stable.
    fn resolve_dst(&self, dst: &str) -> Result<Flow, String> {
        let dc = self
            .snapshot()
            .devices
            .get(dst)
            .ok_or_else(|| format!("unknown destination device {dst:?}"))?;
        let (_, ic) = dc
            .interfaces
            .iter()
            .next()
            .ok_or_else(|| format!("destination device {dst:?} has no interfaces"))?;
        Ok(Flow::tcp_to(ic.addr, 80))
    }

    fn blast(&self, last: usize) -> Response {
        crate::view::blast(self.history.iter().map(|r| (r.index, &*r.diff)), last)
    }

    fn report(&self, from: usize, to: usize) -> Response {
        crate::view::report(self.history.iter().map(|r| (r.index, &*r.diff)), from, to)
    }

    /// The session's statistics — counters and state sizes straight off
    /// the engine, timings off [`ReplaySession::totals`] (the same
    /// records the bench harness tabulates).
    pub fn stats(&self) -> ServiceStats {
        let t = self.replay.totals();
        let (tuples, classes) = match self.replay.engine() {
            Some(e) => {
                let (tuples, atoms, _psets) = e.state_size();
                (tuples as u64, atoms as u64)
            }
            None => (0, 0),
        };
        let snap = self.snapshot();
        ServiceStats {
            session: self.name.clone(),
            epochs: self.epochs() as u64,
            retained: self.history.len() as u64,
            retained_from: self.history.front().map_or(self.epochs(), |r| r.index) as u64,
            devices: snap.device_count() as u64,
            links: snap.links.len() as u64,
            classes,
            tuples,
            flows: t.flows as u64,
            mismatches: self.mismatches,
            cp_us: t.cp_time.as_micros() as u64,
            dp_us: t.dp_time.as_micros() as u64,
            total_us: t.total_time.as_micros() as u64,
        }
    }

    pub(crate) fn info(&self) -> SessionInfo {
        SessionInfo {
            name: self.name.clone(),
            epochs: self.epochs() as u64,
            devices: self.snapshot().device_count() as u64,
            verify: self.config.verify,
            failed: false,
        }
    }

    /// Attaches the slot this session publishes its read views into,
    /// and publishes the current state immediately — from the first
    /// moment a reader can resolve the session, a view exists.
    pub fn set_view_slot(&mut self, slot: Arc<ViewSlot>) {
        self.view = Some(slot);
        self.publish_view();
    }

    /// Publishes an immutable [`QueryView`] of the current state into
    /// the attached slot (no-op without one). Runs on the engine
    /// thread after every applied epoch; readers swap to the new view
    /// with one atomic version check. Returns the nanoseconds the
    /// capture took (0 when nothing was published).
    fn publish_view(&self) -> u64 {
        let Some(slot) = &self.view else { return 0 };
        let Some(engine) = self.replay.view() else {
            return 0;
        };
        let start = Instant::now();
        let devices: std::collections::BTreeMap<_, _> = self
            .snapshot()
            .devices
            .iter()
            .map(|(name, dc)| {
                let addr = dc.interfaces.values().next().map(|ic| ic.addr);
                (name.clone(), addr)
            })
            .collect();
        let history: Vec<_> = self
            .history
            .iter()
            .map(|r| (r.index, Arc::clone(&r.diff)))
            .collect();
        // A coarse per-element memory estimate for the `view_bytes`
        // accounting gauge — proportional to what the view pins alive
        // (device table + retained diffs), not an allocator measurement.
        let approx_bytes = 64 * devices.len()
            + history
                .iter()
                .map(|(_, d)| 96 + d.flows.len() * 128)
                .sum::<usize>();
        self.obs.acct.view_bytes.set(approx_bytes as u64);
        slot.publish(Arc::new(QueryView::assemble(
            self.name.clone(),
            engine,
            devices,
            history,
            self.stats(),
        )));
        let publish_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.obs.view_publishes.inc();
        self.obs.view_publish_us.observe_ns(publish_ns);
        publish_ns
    }

    /// Attaches the hub this session pushes notify artifacts through
    /// (the TCP front door). Polling works without one.
    pub fn set_notify_hub(&mut self, hub: Arc<NotifyHub>) {
        self.hub = Some(hub);
    }

    /// Re-evaluates every standing query against the commit that just
    /// applied (its diff is the freshest retained history record).
    /// Incremental by construction: a no-op commit suppresses every
    /// subscription without evaluating; a blast subscription only fires
    /// when the diff contains flow changes sourced at its device; the
    /// reach-like views compare the incrementally maintained answer set
    /// against the last delivered one, so an unchanged answer costs a
    /// set comparison and zero bytes. Changed answers are queued for
    /// the `notifications` poll and pushed to hub watchers; neither
    /// path can block the engine (both queues are bounded, drop-oldest
    /// with `resync` markers).
    fn notify_subscriptions(&self, index: usize) {
        let mut subs = lock_subs(&self.subs);
        if subs.is_empty() {
            return;
        }
        let Some(rec) = self.history.back() else {
            return;
        };
        let diff = Arc::clone(&rec.diff);
        if diff.is_noop() {
            self.obs.notify_suppressed.add(subs.len() as u64);
            return;
        }
        let epoch = index as u64;
        let mut pushes: Vec<(u64, NotifyEvent)> = Vec::new();
        for (id, sub) in subs.iter_mut() {
            let ev = match &mut sub.kind {
                SubKind::Blast { device } => {
                    let flows = diff.flows.iter().filter(|f| f.src == *device).count() as u64;
                    (flows > 0).then_some(NotifyEvent::Blast { epoch, flows })
                }
                SubKind::Reach { src, flow, last } => match self.replay.query(src, flow) {
                    Some(outcomes) if outcomes != *last => {
                        last.clone_from(&outcomes);
                        Some(NotifyEvent::Reach { epoch, outcomes })
                    }
                    _ => None,
                },
                SubKind::Invariant {
                    check,
                    src,
                    flow,
                    last,
                } => match self.replay.query(src, flow) {
                    Some(outcomes) if outcomes != *last => {
                        last.clone_from(&outcomes);
                        Some(NotifyEvent::Invariant {
                            epoch,
                            holds: check.holds(&outcomes),
                            outcomes,
                        })
                    }
                    _ => None,
                },
            };
            match ev {
                None => self.obs.notify_suppressed.inc(),
                Some(ev) => {
                    self.obs.notifies_pushed.inc();
                    sub.push(ev.clone());
                    pushes.push((id, ev));
                }
            }
        }
        drop(subs);
        let Some(hub) = &self.hub else { return };
        for (id, ev) in pushes {
            // Rendering is skipped when no connection watches this
            // subscription — the poll queue above already has the event.
            if !hub.wanted(&self.name, id) {
                continue;
            }
            let text = dna_io::write_notify(&Notify {
                subscription: id,
                session: self.name.clone(),
                events: vec![ev],
            });
            hub.publish(&self.name, id, epoch, &text);
        }
    }

    /// Answers the standing-query commands, whose replies are `notify`
    /// artifacts (or serialized `error` responses), not [`Response`]
    /// values — the transports dispatch these before [`Session::answer`].
    /// `None` for every other query kind.
    pub fn subscription_reply(&self, kind: &QueryKind) -> Option<String> {
        let reply = match kind {
            QueryKind::Subscribe(spec) => self.subscribe(spec),
            QueryKind::Unsubscribe { id } => self.unsubscribe(*id),
            QueryKind::Notifications { id } => self.notifications(*id),
            _ => return None,
        };
        self.obs.acct.beat();
        self.obs.queries_answered.inc();
        Some(match reply {
            Ok(n) => dna_io::write_notify(&n),
            Err(e) => dna_io::write_response(&Response::Error(e)),
        })
    }

    /// The zero-event notify acknowledging a subscribe/unsubscribe.
    fn ack(&self, id: u64) -> Notify {
        Notify {
            subscription: id,
            session: self.name.clone(),
            events: Vec::new(),
        }
    }

    /// Validates a subscription's devices and captures its baseline
    /// answer — the view is materialized once here; commits afterwards
    /// only diff against it.
    fn materialize(&self, spec: &SubscriptionSpec) -> Result<SubKind, String> {
        let baseline = |src: &str, flow: &Flow| -> Result<BTreeSet<Outcome>, String> {
            if !self.snapshot().devices.contains_key(src) {
                return Err(format!("unknown source device {src:?}"));
            }
            self.replay
                .query(src, flow)
                .ok_or_else(|| "session has no live differential engine".to_string())
        };
        Ok(match spec {
            SubscriptionSpec::Reach { src, flow } => SubKind::Reach {
                last: baseline(src, flow)?,
                src: src.clone(),
                flow: *flow,
            },
            SubscriptionSpec::ReachPair { src, dst } => {
                let flow = self.resolve_dst(dst)?;
                SubKind::Reach {
                    last: baseline(src, &flow)?,
                    src: src.clone(),
                    flow,
                }
            }
            SubscriptionSpec::Blast { device } => {
                if !self.snapshot().devices.contains_key(device) {
                    return Err(format!("unknown source device {device:?}"));
                }
                SubKind::Blast {
                    device: device.clone(),
                }
            }
            SubscriptionSpec::NeverReach { src, dst } => {
                let flow = self.resolve_dst(dst)?;
                SubKind::Invariant {
                    check: InvariantCheck::NeverReach { dst: dst.clone() },
                    last: baseline(src, &flow)?,
                    src: src.clone(),
                    flow,
                }
            }
            SubscriptionSpec::NoBlackhole { src, flow } => SubKind::Invariant {
                check: InvariantCheck::NoBlackhole,
                last: baseline(src, flow)?,
                src: src.clone(),
                flow: *flow,
            },
        })
    }

    fn subscribe(&self, spec: &SubscriptionSpec) -> Result<Notify, String> {
        let kind = self.materialize(spec)?;
        let mut subs = lock_subs(&self.subs);
        let id = subs.insert(kind);
        self.obs.subscriptions_active.set(subs.len() as u64);
        drop(subs);
        Ok(self.ack(id))
    }

    fn unsubscribe(&self, id: u64) -> Result<Notify, String> {
        let mut subs = lock_subs(&self.subs);
        if !subs.remove(id) {
            return Err(format!("session {:?} has no subscription {id}", self.name));
        }
        self.obs.subscriptions_active.set(subs.len() as u64);
        drop(subs);
        Ok(self.ack(id))
    }

    fn notifications(&self, id: u64) -> Result<Notify, String> {
        let events = lock_subs(&self.subs)
            .drain(id)
            .ok_or_else(|| format!("session {:?} has no subscription {id}", self.name))?;
        Ok(Notify {
            subscription: id,
            session: self.name.clone(),
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_io::write_response;
    use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

    fn k4_session(config: SessionConfig) -> (Session, Vec<TraceEpoch>) {
        let ft = fat_tree(4, Routing::Ebgp);
        let mut gen = ScenarioGen::new(7);
        let labeled = gen.labeled_sequence(
            &ft.snapshot,
            &[ScenarioKind::LinkFailure, ScenarioKind::LinkRecovery],
            6,
        );
        let epochs: Vec<TraceEpoch> = labeled
            .into_iter()
            .map(|(kind, changes)| TraceEpoch {
                label: Some(kind.to_string()),
                changes,
            })
            .collect();
        let session = Session::open("t", ft.snapshot, config).expect("opens");
        (session, epochs)
    }

    #[test]
    fn ingest_retention_and_history_queries() {
        let (mut s, epochs) = k4_session(SessionConfig {
            retain: 3,
            ..Default::default()
        });
        assert_eq!(epochs.len(), 6);
        let mut total_flows = 0;
        for ep in &epochs {
            total_flows += s.ingest(ep).expect("epoch applies");
        }
        assert_eq!(s.epochs(), 6);
        assert!(total_flows > 0, "link churn must change flows");
        // Retention bounds history; ingest count is unbounded.
        let stats = s.stats();
        assert_eq!(stats.epochs, 6);
        assert_eq!(stats.retained, 3);
        assert_eq!(stats.retained_from, 3);
        assert_eq!(stats.flows, total_flows as u64);
        assert!(stats.classes > 0 && stats.tuples > 0);
        // Report range clamps to what is retained.
        match s.answer(&QueryKind::Report { from: 0, to: 100 }) {
            Response::Report { epochs } => {
                assert_eq!(
                    epochs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                    vec![3, 4, 5]
                );
                for (_, d) in &epochs {
                    assert!(d.label.is_some());
                }
            }
            other => panic!("expected report, got {other:?}"),
        }
        // Blast window wider than history clamps too; device counts sum
        // to the window's flow total.
        match s.answer(&QueryKind::Blast { last: 100 }) {
            Response::Blast {
                epochs,
                flows,
                devices,
            } => {
                assert_eq!(epochs, 3);
                assert_eq!(devices.iter().map(|(_, n)| n).sum::<u64>(), flows);
                assert!(devices.windows(2).all(|w| w[0].0 < w[1].0), "name-sorted");
            }
            other => panic!("expected blast, got {other:?}"),
        }
    }

    #[test]
    fn byte_budget_bounds_history_alongside_epoch_count() {
        // Generous epoch bound, tight byte budget: bytes must be the
        // binding constraint, and the freshest epoch must survive even
        // if it alone exceeds the budget.
        let (mut s, epochs) = k4_session(SessionConfig {
            retain: 64,
            retain_bytes: Some(1),
            ..Default::default()
        });
        for ep in &epochs {
            s.ingest(ep).unwrap();
        }
        assert_eq!(s.epochs(), 6);
        let stats = s.stats();
        assert_eq!(stats.retained, 1, "1-byte budget keeps only the freshest");
        assert_eq!(stats.retained_from, 5);
        assert!(s.history_bytes() > 0);
        // A budget that fits the whole history changes nothing.
        let (mut roomy, epochs) = k4_session(SessionConfig {
            retain: 64,
            retain_bytes: Some(1 << 20),
            ..Default::default()
        });
        let (mut unbounded, _) = k4_session(SessionConfig::default());
        for ep in &epochs {
            roomy.ingest(ep).unwrap();
            unbounded.ingest(ep).unwrap();
        }
        assert_eq!(roomy.stats().retained, 6);
        assert!(roomy.history_bytes() <= 1 << 20);
        // Same retained diffs as the unbudgeted session, byte for byte.
        let report = |s: &Session| write_response(&s.answer(&QueryKind::Report { from: 0, to: 6 }));
        assert_eq!(report(&roomy), report(&unbounded));
    }

    #[test]
    fn reach_pair_resolves_and_is_deterministic() {
        let (mut s, epochs) = k4_session(SessionConfig::default());
        let q = QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_0".into(),
        };
        let before = write_response(&s.answer(&q));
        assert!(before.contains("ok reach"));
        assert_eq!(before, write_response(&s.answer(&q)), "byte-stable");
        for ep in &epochs {
            s.ingest(ep).unwrap();
        }
        // Still answerable (and still deterministic) on evolved state.
        let after = write_response(&s.answer(&q));
        assert!(after.contains("ok reach"));
        assert_eq!(after, write_response(&s.answer(&q)));
        // Unknown devices are protocol errors, not panics.
        assert!(matches!(
            s.answer(&QueryKind::ReachPair {
                src: "edge0_0".into(),
                dst: "ghost".into()
            }),
            Response::Error(_)
        ));
        assert!(matches!(
            s.answer(&QueryKind::Reach {
                src: "ghost".into(),
                flow: Flow::tcp_to(net_model::ip("10.0.0.1"), 80)
            }),
            Response::Error(_)
        ));
    }

    #[test]
    fn checkpoint_file_names_are_filesystem_safe_and_collision_free() {
        assert_eq!(checkpoint_file_name("ft4"), "ft4.ckpt.dna");
        assert_eq!(checkpoint_file_name("x.y-z_0"), "x.y-z_0.ckpt.dna");
        // Unsafe names sanitize with a disambiguating hash: names that
        // would collide after sanitization get distinct files (the
        // later cadence write must never clobber another session).
        let hostile = ["a/b", "a_b\\", "a b", "", "a\nb", "prod/east"];
        let mut seen = std::collections::BTreeSet::new();
        for name in hostile {
            let file = checkpoint_file_name(name);
            assert!(
                file.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
                "{file:?} must be filesystem-safe"
            );
            assert!(seen.insert(file.clone()), "{name:?} collided: {file}");
        }
        // A sanitized name never collides with the verbatim-safe form
        // of its own sanitization ("prod_east" vs "prod/east").
        assert_ne!(
            checkpoint_file_name("prod_east"),
            checkpoint_file_name("prod/east")
        );
    }

    /// The full durability loop at the session layer: ingest with a
    /// checkpoint cadence, pick up the file a `kill -9` would leave
    /// behind, resume from its parsed bytes, ingest the rest — and
    /// answer every deterministic query byte-for-byte like the session
    /// that never restarted.
    #[test]
    fn cadence_checkpoint_resumes_byte_identical() {
        let dir = std::env::temp_dir().join(format!("dna-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = SessionConfig {
            retain: 4,
            retain_bytes: Some(1 << 20),
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 3,
            ..Default::default()
        };
        let (mut live, epochs) = k4_session(config.clone());
        let (mut straight, _) = k4_session(config.clone());
        for ep in &epochs {
            straight.ingest(ep).unwrap();
        }
        // Drive the live session only to the cadence point, then
        // simulate the crash: all that survives is the file.
        for ep in &epochs[..3] {
            live.ingest(ep).unwrap();
        }
        let path = dir.join(checkpoint_file_name("t"));
        let text = std::fs::read_to_string(&path).expect("cadence checkpoint written");
        drop(live);
        let ckpt = dna_io::parse_checkpoint(&text).expect("checkpoint parses");
        assert_eq!(ckpt.epochs, 3);
        let snapshot = resolve_checkpoint_snapshot(&ckpt, Some(&dir)).unwrap();
        let mut resumed = Session::resume(&ckpt, snapshot, &config).expect("resumes");
        assert_eq!(resumed.epochs(), 3);
        for ep in &epochs[3..] {
            resumed.ingest(ep).unwrap();
        }
        assert_eq!(resumed.epochs(), straight.epochs());
        assert_eq!(resumed.history_bytes(), straight.history_bytes());
        for q in [
            QueryKind::ReachPair {
                src: "edge0_0".into(),
                dst: "edge1_0".into(),
            },
            QueryKind::Blast { last: 16 },
            QueryKind::Report { from: 0, to: 64 },
        ] {
            assert_eq!(
                write_response(&resumed.answer(&q)),
                write_response(&straight.answer(&q)),
                "resumed answer diverged for {q:?}"
            );
        }
        // Stats counters (not timings) survive the restart exactly.
        let (a, b) = (resumed.stats(), straight.stats());
        assert_eq!(
            (a.epochs, a.retained, a.retained_from, a.flows, a.mismatches),
            (b.epochs, b.retained, b.retained_from, b.flows, b.mismatches)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An on-demand `checkpoint` query writes the file and reports its
    /// exact canonical size; without a configured directory it is a
    /// protocol error, not a panic.
    #[test]
    fn on_demand_checkpoint_query() {
        let dir = std::env::temp_dir().join(format!("dna-ckpt-q-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut s, epochs) = k4_session(SessionConfig {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        });
        s.ingest(&epochs[0]).unwrap();
        match s.answer(&QueryKind::Checkpoint) {
            Response::Checkpointed {
                session,
                epochs,
                bytes,
            } => {
                assert_eq!((session.as_str(), epochs), ("t", 1));
                let written = std::fs::read_to_string(dir.join(checkpoint_file_name("t")))
                    .expect("checkpoint written");
                assert_eq!(written.len() as u64, bytes);
                assert_eq!(
                    dna_io::parse_checkpoint(&written).unwrap(),
                    s.checkpoint_artifact()
                );
            }
            other => panic!("expected checkpointed, got {other:?}"),
        }
        let (undurable, _) = k4_session(SessionConfig::default());
        assert!(matches!(
            undurable.answer(&QueryKind::Checkpoint),
            Response::Error(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_shadow_agrees_on_real_scenarios() {
        let (mut s, epochs) = k4_session(SessionConfig {
            verify: true,
            ..Default::default()
        });
        for ep in &epochs {
            s.ingest(ep).unwrap();
        }
        assert_eq!(s.mismatches(), 0, "analyzers must agree");
        assert_eq!(s.stats().mismatches, 0);
    }

    #[test]
    fn partial_trace_failure_reports_applied_epochs() {
        let ft = fat_tree(4, Routing::Ebgp);
        let mut s = Session::open("p", ft.snapshot.clone(), SessionConfig::default()).unwrap();
        let mut gen = ScenarioGen::new(5);
        let good = gen
            .generate(&ft.snapshot, ScenarioKind::LinkFailure)
            .unwrap();
        let bad = net_model::ChangeSet::single(net_model::Change::DeviceDown("ghost".into()));
        let trace = Trace::from_changesets(vec![good, bad]);
        // The first epoch stays applied (stream semantics); the error
        // must not hide that from the caller's accounting.
        match s.ingest_trace(&trace) {
            Err((applied, msg)) => {
                assert!(msg.contains("1 earlier epoch"), "{msg}");
                assert_eq!(applied, 1);
            }
            Ok(other) => panic!("expected a partial failure, got {other:?}"),
        }
        assert_eq!(s.epochs(), 1);
    }
}
