//! Reference checks: an in-process `Session` built from the same inputs
//! replays what the server acknowledged, after the timed region, and
//! every reply the wire run collected is compared against it.

use crate::inputs::{Inputs, Workload, SESSION};
use crate::wire::{reply_line, Exchange};
use crate::wirerun::WireRun;
use dna_io::{
    parse_notify, parse_response, write_notify, write_response, Notify, NotifyEvent, QueryKind,
    Response, ServiceStats,
};
use dna_serve::{Session, SessionConfig};
use std::collections::BTreeMap;

/// Operations attempted and failed, with the first few failures spelled out.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// A failure that is not one attempted operation of its own.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

/// The deterministic fields of a stats reply (timings excluded).
fn stats_key(s: &ServiceStats) -> [u64; 9] {
    [
        s.epochs,
        s.retained,
        s.retained_from,
        s.devices,
        s.links,
        s.classes,
        s.tuples,
        s.flows,
        s.mismatches,
    ]
}

/// Whether `reply` answers `kind` exactly as the reference session
/// does now: byte-equal, or for `stats` equal in every deterministic
/// field and the session name.
fn same_answer(reference: &Session, kind: &QueryKind, reply: &str) -> bool {
    match kind {
        QueryKind::Stats => match parse_response(reply) {
            Ok(Response::Stats(got)) => {
                let want = reference.stats();
                got.session == want.session && stats_key(&got) == stats_key(&want)
            }
            _ => false,
        },
        _ => reply == write_response(&reference.answer(kind)),
    }
}

fn short(s: &str) -> String {
    s.chars().take(200).collect::<String>().replace('\n', "⏎")
}

/// Replays one epoch into the reference and checks the server's ack.
fn ingest_and_check(
    reference: &mut Session,
    inputs: &Inputs,
    epoch: usize,
    ack: &Exchange,
    tally: &mut Tally,
) {
    let trace = dna_io::parse_trace(&inputs.epoch_texts[epoch]).expect("generated traces parse");
    match reference.ingest(&trace.epochs[0]) {
        Ok(flows) => {
            let want = write_response(&Response::Ingested {
                session: SESSION.to_string(),
                epochs: 1,
                flows: flows as u64,
                total: reference.epochs() as u64,
            });
            tally.check(ack.reply == want, || {
                format!(
                    "epoch {epoch} ack: got {} want {}",
                    short(&ack.reply),
                    short(&want)
                )
            });
        }
        Err(e) => tally.check(false, || format!("reference rejects epoch {epoch}: {e}")),
    }
}

/// Subscribes `specs` on the reference in order, checking each wire ack
/// is byte-identical; returns the subscription ids.
fn subscribe(
    reference: &Session,
    inputs: &Inputs,
    count: usize,
    acks: &[String],
    tally: &mut Tally,
) -> Vec<u64> {
    let mut ids = Vec::with_capacity(count);
    for (i, sub) in inputs.subs[..count].iter().enumerate() {
        let want = reference
            .subscription_reply(&QueryKind::Subscribe(sub.spec.clone()))
            .expect("subscribe answers with a notify");
        let got = acks.get(i).map_or("", String::as_str);
        tally.check(got == want, || {
            format!("subscribe {i}: got {} want {}", short(got), short(&want))
        });
        if let Ok(n) = parse_notify(&want) {
            ids.push(n.subscription);
        }
    }
    ids
}

/// Drains every subscription on the reference (a poll after the commit
/// just applied) into the push stream it implies: one notify artifact
/// per event, as the server pushes them.
fn poll_into(reference: &Session, ids: &[u64], expected: &mut BTreeMap<u64, Vec<String>>) {
    for &id in ids {
        let text = reference
            .subscription_reply(&QueryKind::Notifications { id })
            .expect("notifications answers with a notify");
        let drained = parse_notify(&text).expect("reference notify parses");
        for ev in drained.events {
            expected.entry(id).or_default().push(write_notify(&Notify {
                subscription: id,
                session: SESSION.to_string(),
                events: vec![ev],
            }));
        }
    }
}

/// Compares pushed artifacts with the poll-derived expectation, per
/// subscription and in order. Every expected push is one attempted
/// operation; missing, extra, different and `resync` pushes fail.
fn compare_pushes(
    what: &str,
    got: &[(f64, String)],
    expected: &BTreeMap<u64, Vec<String>>,
    tally: &mut Tally,
) {
    let mut by_sub: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (_, text) in got {
        match parse_notify(text) {
            Ok(n)
                if n.events
                    .iter()
                    .any(|e| matches!(e, NotifyEvent::Resync { .. })) =>
            {
                tally.fail(format!("{what}: resync pushed: {}", short(text)));
            }
            Ok(n) => by_sub.entry(n.subscription).or_default().push(text),
            Err(e) => tally.fail(format!("{what}: unparsable push ({e}): {}", short(text))),
        }
    }
    for (id, want) in expected {
        let have = by_sub.remove(id).unwrap_or_default();
        for (i, w) in want.iter().enumerate() {
            tally.check(have.get(i) == Some(&w.as_str()), || {
                format!("{what}: subscription {id} push {i} missing or different")
            });
        }
        if have.len() > want.len() {
            tally.fail(format!(
                "{what}: subscription {id}: {} extra pushes",
                have.len() - want.len()
            ));
        }
    }
    for (id, have) in by_sub {
        tally.fail(format!("{what}: {} unexpected pushes for {id}", have.len()));
    }
}

/// Checks every reply of `run` against the reference.
pub fn check(w: &Workload, inputs: &Inputs, run: &WireRun) -> Tally {
    let mut t = Tally::default();
    for x in &run.idle_rtt {
        t.check(reply_line(&x.reply) == "ok stats", || {
            format!("idle stats: {}", short(&x.reply))
        });
    }
    let mut reference = Session::open(SESSION, inputs.snapshot.clone(), SessionConfig::default())
        .expect("the generated fabric opens");

    let mut watch_ids = Vec::new();
    let mut expected = BTreeMap::new();
    if w.watch_subs > 0 {
        watch_ids = subscribe(&reference, inputs, w.watch_subs, &run.sub_acks, &mut t);
    }
    for (i, ack) in run.acks.iter().enumerate() {
        ingest_and_check(&mut reference, inputs, i, ack, &mut t);
        poll_into(&reference, &watch_ids, &mut expected);
    }
    if w.watch_subs > 0 {
        compare_pushes("load pushes", &run.pushes, &expected, &mut t);
    }
    for q in &run.queries {
        t.check(q.kind_ok, || {
            format!(
                "query {:?}: wrong reply kind: {}",
                inputs.queries[q.pool].kind,
                short(&q.x.reply)
            )
        });
    }

    // The read probe ran on the post-load state.
    let mut want: BTreeMap<usize, String> = BTreeMap::new();
    for (pool, x) in &run.probe_queries {
        let kind = &inputs.queries[*pool].kind;
        let ok = match kind {
            QueryKind::Stats => same_answer(&reference, kind, &x.reply),
            _ => {
                *want
                    .entry(*pool)
                    .or_insert_with(|| write_response(&reference.answer(kind)))
                    == x.reply
            }
        };
        t.check(ok, || format!("probe query {kind:?}: {}", short(&x.reply)));
    }

    if w.watch_subs == 0 {
        let n = run.sub_acks.len();
        let ids = subscribe(&reference, inputs, n, &run.sub_acks, &mut t);
        let mut expected = BTreeMap::new();
        let first = run.acks.len();
        for (j, ack) in run.probe_acks.iter().enumerate() {
            ingest_and_check(&mut reference, inputs, first + j, ack, &mut t);
            poll_into(&reference, &ids, &mut expected);
        }
        t.check(run.probe_acks.len() == w.probe_epochs, || {
            format!(
                "notify probe ran {} of {} epochs",
                run.probe_acks.len(),
                w.probe_epochs
            )
        });
        compare_pushes("probe pushes", &run.probe_pushes, &expected, &mut t);
    }

    for (q, reply) in inputs.queries.iter().zip(&run.final_replies) {
        t.check(same_answer(&reference, &q.kind, reply), || {
            format!("final {:?}: {}", q.kind, short(reply))
        });
    }
    let report = QueryKind::Report {
        from: 0,
        to: usize::MAX,
    };
    t.check(same_answer(&reference, &report, &run.final_report), || {
        format!("final report: {}", short(&run.final_report))
    });
    t.check(
        same_answer(&reference, &QueryKind::Stats, &run.final_stats),
        || format!("final stats: {}", short(&run.final_stats)),
    );
    t
}

/// The server's notify counters from its `metrics` scrape:
/// `(notifies_pushed, notify_suppressed)` for the session.
pub fn notify_counters(metrics: &str) -> Option<(u64, u64)> {
    let report = dna_io::parse_metrics(metrics).ok()?;
    let get = |name: &str| {
        report
            .counters
            .iter()
            .find(|r| r.name == name && r.session.as_deref() == Some(SESSION))
            .map(|r| r.value)
    };
    Some((get("notifies_pushed")?, get("notify_suppressed")?))
}
