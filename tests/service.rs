//! End-to-end service test: a `dna-serve` session sustains incremental
//! ingest of a 64-epoch trace while answering interleaved reachability,
//! blast-radius and report queries — with byte-stable responses across
//! runs, and query answers that exactly match a from-scratch analysis
//! of the final state (proving the query path tracked every epoch
//! without ever re-simulating).
//!
//! This is the in-process twin of the CI service smoke (which drives
//! the same protocol through the `dna serve` binary on a corpus
//! snapshot); it uses k=4 so the debug-profile test run stays fast —
//! the k=6 form is the `harness serve` experiment (E9).

use dna_core::DiffEngine;
use dna_io::{parse_response, write_query, write_trace, Query, QueryKind, Response, Trace};
use dna_serve::{read_artifact, route_stream, Router, Session, SessionConfig};
use std::io::Cursor;
use topo_gen::{fat_tree, Routing, ScenarioGen, ALL_SCENARIOS};

const EPOCHS: usize = 64;

fn workload() -> (net_model::Snapshot, Trace) {
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(4242);
    let labeled = gen.labeled_sequence(&ft.snapshot, ALL_SCENARIOS, EPOCHS);
    assert_eq!(labeled.len(), EPOCHS, "workload must have {EPOCHS} epochs");
    let trace = Trace::from_labeled(labeled.into_iter().map(|(k, cs)| (k.to_string(), cs)));
    (ft.snapshot, trace)
}

/// The interleaved input stream: after every 8-epoch trace slice, a
/// reachability and a blast query probe the evolving state; report and
/// stats queries close the session.
fn input_stream(trace: &Trace) -> String {
    let mut input = String::new();
    let q = |kind: QueryKind| {
        write_query(&Query {
            session: None,
            kind,
        })
    };
    for slice in trace.epochs.chunks(8) {
        input.push_str(&write_trace(&Trace {
            epochs: slice.to_vec(),
        }));
        input.push_str(&q(QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        }));
        input.push_str(&q(QueryKind::Blast { last: 8 }));
    }
    input.push_str(&q(QueryKind::Report {
        from: EPOCHS - 4,
        to: EPOCHS,
    }));
    input.push_str(&q(QueryKind::Stats));
    input
}

/// Serves `input` through a router preloaded with `session` over
/// `snapshot` — the pipe-mode shape of `dna serve`.
fn serve(
    session: &str,
    snapshot: net_model::Snapshot,
    input: String,
) -> (dna_serve::ServeSummary, String) {
    let mut router = Router::new(SessionConfig::default());
    router
        .preload(vec![(session.into(), snapshot)])
        .expect("session opens");
    let mut out = Vec::new();
    let summary = route_stream(router, &mut Cursor::new(input.into_bytes()), &mut out)
        .expect("serve loop runs");
    (
        summary,
        String::from_utf8(out).expect("responses are utf-8"),
    )
}

fn serve_once(snapshot: &net_model::Snapshot, input: &str) -> (dna_serve::ServeSummary, String) {
    let (summary, out) = serve("svc", snapshot.clone(), input.to_string());
    // A reference session driven directly with the same trace: its
    // final answers are the ones the served session gave.
    let (_, trace) = workload();
    let mut s = Session::open("svc", snapshot.clone(), SessionConfig::default()).expect("opens");
    s.ingest_trace(&trace).expect("reference ingest");
    assert_eq!(s.epochs(), EPOCHS);
    let mut cursor = Cursor::new(out.clone().into_bytes());
    let mut replies = Vec::new();
    while let Some(text) = read_artifact(&mut cursor).unwrap() {
        replies.push(text);
    }
    // The served session absorbed everything: its last reach-pair
    // answer (after the final slice) is the reference's final answer.
    let final_reach = QueryKind::ReachPair {
        src: "edge0_0".into(),
        dst: "edge1_1".into(),
    };
    assert_eq!(
        replies.get(22).map(String::as_str),
        Some(dna_io::write_response(&s.answer(&final_reach)).as_str()),
        "served answer diverged from the reference session"
    );
    // Query answers must equal a from-scratch analysis of the FINAL
    // state: the incremental path tracked all 64 epochs exactly.
    let fresh = DiffEngine::new(s.snapshot().clone()).expect("fresh engine on final state");
    for (src, dst) in [("edge0_0", "edge1_1"), ("edge1_0", "edge0_1")] {
        match s.answer(&QueryKind::ReachPair {
            src: src.into(),
            dst: dst.into(),
        }) {
            Response::Reach { outcomes } => {
                let dc = &s.snapshot().devices[dst];
                let flow = net_model::Flow::tcp_to(dc.interfaces.values().next().unwrap().addr, 80);
                assert_eq!(
                    outcomes,
                    fresh.query(src, &flow),
                    "incremental answer for {src}->{dst} diverged from scratch"
                );
            }
            other => panic!("expected reach, got {other:?}"),
        }
    }
    (summary, out)
}

/// Strips the one nondeterministic response line (cumulative wall-clock
/// stage timings in `ok stats`).
fn without_timings(out: &str) -> String {
    out.lines()
        .filter(|l| !l.trim_start().starts_with("time "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The in-process form of the CI service smoke: serve the corpus
/// ft4_failures snapshot, pipe its trace plus three queries through,
/// and require the checked-in response bytes exactly. (CI repeats this
/// through the `dna serve` binary; both pin the same golden file.)
#[test]
fn corpus_service_smoke_responses_are_pinned() {
    let snapshot = dna_io::parse_snapshot(include_str!("corpus/ft4_failures.snap.dna"))
        .expect("corpus snapshot parses");
    let q = |kind: QueryKind| {
        write_query(&Query {
            session: None,
            kind,
        })
    };
    let input = format!(
        "{}{}{}{}",
        include_str!("corpus/ft4_failures.trace.dna"),
        q(QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        }),
        q(QueryKind::Blast { last: 8 }),
        q(QueryKind::Report { from: 0, to: 1 }),
    );
    let (summary, out) = serve("ft4_failures", snapshot, input);
    assert_eq!(summary.errors, 0);
    assert_eq!(
        out,
        include_str!("corpus/service_smoke.expected.dna"),
        "service responses drifted from the pinned corpus smoke"
    );
}

#[test]
fn service_sustains_ingest_with_interleaved_queries() {
    let (snapshot, trace) = workload();
    let input = input_stream(&trace);
    let (summary, out) = serve_once(&snapshot, &input);
    // 8 trace slices + 16 interleaved + 2 closing queries.
    assert_eq!(summary.artifacts, 8 + 16 + 2);
    assert_eq!(summary.epochs as usize, EPOCHS);
    assert_eq!(summary.queries, 18);
    assert_eq!(summary.errors, 0);
    // One response artifact per inbound artifact, all well-formed.
    let mut responses = Vec::new();
    let mut cursor = Cursor::new(out.clone().into_bytes());
    while let Some(text) = read_artifact(&mut cursor).unwrap() {
        responses.push(parse_response(&text).expect("response parses"));
    }
    assert_eq!(responses.len(), 26);
    // The report query returns exactly the requested retained range.
    let Some(Response::Report { epochs }) = responses.get(24) else {
        panic!("expected the report response at position 24");
    };
    assert_eq!(
        epochs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![EPOCHS - 4, EPOCHS - 3, EPOCHS - 2, EPOCHS - 1]
    );
    // Stats counters are exact.
    let Some(Response::Stats(stats)) = responses.get(25) else {
        panic!("expected the stats response at position 25");
    };
    assert_eq!(stats.epochs as usize, EPOCHS);
    assert_eq!(stats.session, "svc");
    assert_eq!(stats.mismatches, 0);
    assert!(stats.classes > 0 && stats.tuples > 0);
    // Byte-stability: a second run over a fresh manager produces the
    // identical byte stream, wall-clock stage timings aside.
    let (_, out2) = serve_once(&snapshot, &input);
    assert_eq!(
        without_timings(&out),
        without_timings(&out2),
        "service responses must be byte-stable across runs"
    );
}
