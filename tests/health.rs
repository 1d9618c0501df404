//! The health & accounting plane, end to end:
//!
//! * `health` is a transport-level answer: the same registry state must
//!   render **byte-identically** on every answer path — the TCP front
//!   door's connection thread, the router's request channel (what the
//!   unix-socket and `--follow` pumps feed), and a pipe-mode stream
//!   through `route_stream`;
//! * the watchdog semantics hold under forced conditions: a saturated
//!   ingest queue degrades its session *and* the server rollup, while a
//!   failed (panic-fenced) session stays contained — listed `failed`,
//!   server still `ok`;
//! * `history` carries enough to derive real rates: two samples
//!   recorded around a live TCP ingest show a nonzero
//!   `epochs_applied` per-second rate for the ingesting session.
//!
//! Everything lives in ONE test function: the registry, history ring
//! and span rings are process-global, so sequencing inside a single
//! `#[test]` is what makes the byte-identity assertions meaningful.

use dna_io::{
    parse_health, parse_history, write_query, write_trace, HealthStatus, Query, QueryKind, Trace,
};
use dna_serve::{
    query_tcp, route_stream, tcp_accept_loop, Request, Router, SessionConfig, ViewRegistry,
};
use std::io::Cursor;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};

const EPOCHS: usize = 4;

fn q(kind: QueryKind) -> String {
    write_query(&Query {
        session: None,
        kind,
    })
}

/// Converts a parsed wire `history` artifact back into the obs layer's
/// sample type so the same `dna_obs::rates` derivation the CLI renders
/// can be asserted against.
fn obs_samples(h: &dna_io::HistoryReport) -> Vec<dna_obs::Sample> {
    let rows = |rows: &[dna_io::SeriesRow]| {
        rows.iter()
            .map(|r| dna_obs::SeriesValue {
                name: r.name.clone(),
                session: r.session.clone(),
                value: r.value,
            })
            .collect()
    };
    h.samples
        .iter()
        .map(|s| dna_obs::Sample {
            t_ms: s.t_ms,
            counters: rows(&s.counters),
            gauges: rows(&s.gauges),
        })
        .collect()
}

#[test]
fn health_is_byte_identical_on_every_transport() {
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(71);
    let epochs: Vec<_> = gen
        .labeled_sequence(
            &ft.snapshot,
            &[ScenarioKind::LinkFailure, ScenarioKind::LinkRecovery],
            EPOCHS,
        )
        .into_iter()
        .map(|(kind, changes)| dna_io::TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();

    // A router with published views behind a real TCP listener.
    let views = Arc::new(ViewRegistry::new());
    let mut router = Router::new(SessionConfig::default()).with_views(Arc::clone(&views));
    router
        .preload(vec![("hp".into(), ft.snapshot)])
        .expect("session opens");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || router.run(rx));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let accept_tx = tx.clone();
    let hub = Arc::new(dna_serve::NotifyHub::new());
    std::thread::spawn(move || tcp_accept_loop(accept_tx, listener, views, hub));

    // ---- history, phase 1: a sample before any ingest. ----
    dna_obs::history().record(dna_obs::uptime_ms(), &dna_obs::global().snapshot(None));

    // Live ingest over TCP.
    let ack = query_tcp(&addr, &write_trace(&Trace { epochs })).expect("trace over tcp");
    assert!(
        matches!(
            dna_io::parse_response(&ack).expect("ack parses"),
            dna_io::Response::Ingested { epochs: e, .. } if e == EPOCHS as u64
        ),
        "unexpected ingest ack:\n{ack}"
    );

    // ---- history, phase 2: a sample after, on a nonzero window. ----
    std::thread::sleep(std::time::Duration::from_millis(20));
    dna_obs::history().record(dna_obs::uptime_ms(), &dna_obs::global().snapshot(None));

    // ---- health, every transport, byte for byte. ----
    let health_q = q(QueryKind::Health);

    // 1. TCP front door (answered on the connection thread).
    let over_tcp = query_tcp(&addr, &health_q).expect("health over tcp");

    // 2. The router's engine-side request channel (what a unix-socket
    //    accept loop in router mode forwards to).
    let (rtx, rrx) = mpsc::channel();
    tx.send(Request {
        text: health_q.clone(),
        session: None,
        reply: rtx,
    })
    .expect("router request");
    let over_router = rrx.recv().expect("router reply");

    // 3. Pipe mode: a stream through a second, empty router. Health is
    //    a transport-level answer and must not need an open session.
    let mut pipe_out = Vec::new();
    route_stream(
        Router::new(SessionConfig::default()),
        &mut Cursor::new(health_q.clone().into_bytes()),
        &mut pipe_out,
    )
    .expect("pipe serve");
    let over_pipe = String::from_utf8(pipe_out).expect("utf-8");

    assert_eq!(over_tcp, over_router, "tcp vs router health bytes drifted");
    assert_eq!(over_tcp, over_pipe, "tcp vs pipe health bytes drifted");

    let healthy = parse_health(&over_tcp).expect("health parses");
    assert_eq!(healthy.server, HealthStatus::Ok);
    let hp = healthy
        .sessions
        .iter()
        .find(|s| s.name == "hp")
        .expect("the ingesting session is listed");
    assert_eq!((hp.status, hp.reason.as_deref()), (HealthStatus::Ok, None));

    // ---- forced degradation: a saturated ingest queue. ----
    let sat = dna_obs::SessionAccounting::register(dna_obs::global(), "hp-sat");
    sat.beat(); // fresh heartbeat: depth, not staleness, is the finding
    sat.queue_depth.set(65); // default DNA_OBS_QUEUE_DEPTH_WARN is 64
    let degraded = parse_health(&query_tcp(&addr, &health_q).expect("health")).expect("parses");
    assert_eq!(
        degraded.server,
        HealthStatus::Degraded,
        "a degraded session must degrade the server rollup"
    );
    let row = degraded
        .sessions
        .iter()
        .find(|s| s.name == "hp-sat")
        .expect("saturated session listed");
    assert_eq!(
        (row.status, row.reason.as_deref()),
        (HealthStatus::Degraded, Some("queue-depth"))
    );
    sat.retire(dna_obs::global());

    // ---- forced failure: a panic-fenced session stays contained. ----
    let dead = dna_obs::SessionAccounting::register(dna_obs::global(), "hp-dead");
    dead.failed.set(1);
    let contained = parse_health(&query_tcp(&addr, &health_q).expect("health")).expect("parses");
    assert_eq!(
        contained.server,
        HealthStatus::Ok,
        "a failed session is fenced off, not a server-level failure"
    );
    let row = contained
        .sessions
        .iter()
        .find(|s| s.name == "hp-dead")
        .expect("failed session listed");
    assert_eq!(
        (row.status, row.reason.as_deref()),
        (HealthStatus::Failed, Some("panic"))
    );
    dead.retire(dna_obs::global());

    // Retiring both restores the exact pre-fault bytes.
    let restored = query_tcp(&addr, &health_q).expect("health");
    assert_eq!(restored, over_tcp, "retired sessions must leave no residue");

    // ---- history --rates: the ingest shows up as a real rate. ----
    let dump = query_tcp(&addr, &q(QueryKind::History { last: None })).expect("history over tcp");
    let report = parse_history(&dump).expect("dump is a canonical history artifact");
    assert!(
        report.samples.len() >= 2,
        "both recorded samples must be retained"
    );
    let rates = dna_obs::rates(&obs_samples(&report));
    let applied = rates
        .iter()
        .find(|r| r.name == "epochs_applied" && r.session.as_deref() == Some("hp"))
        .expect("the ingesting session has an epochs_applied rate");
    assert!(
        applied.per_second > 0.0,
        "a live ingest inside the window must derive a nonzero rate, got {}",
        applied.per_second
    );
    // `history 1` trims to the freshest sample (rates then degenerate).
    let tail = parse_history(
        &query_tcp(&addr, &q(QueryKind::History { last: Some(1) })).expect("history tail"),
    )
    .expect("tail parses");
    assert_eq!(tail.samples.len(), 1);
    assert_eq!(
        tail.samples.last(),
        report.samples.last(),
        "the last-n window must be the dump's suffix"
    );
}
