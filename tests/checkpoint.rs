//! Checkpoint/resume regression net: a session that is checkpointed,
//! "killed" (dropped — all that survives is the artifact's bytes) and
//! resumed must be **observationally identical** to one that never
//! restarted. Three layers of pinning:
//!
//! 1. **Corpus reports** — every checked-in workload replayed half,
//!    checkpointed through the wire format, resumed (sharded), and
//!    replayed to the end must reproduce the pinned report
//!    byte-for-byte.
//! 2. **Pinned service responses** — the corpus service smoke's exact
//!    response bytes (`tests/corpus/service_smoke.expected.dna`) must
//!    come back from a server that crashed and resumed mid-trace. The
//!    CI crash-resume smoke drives the same property through the real
//!    binary with `kill -9`.
//! 3. **Proptest** — checkpoint → resume → remaining epochs ≡
//!    straight-through replay, under randomized epoch boundaries,
//!    retention configs and shard counts 1/2/4.

use dna_io::{
    parse_checkpoint, parse_snapshot, parse_trace, write_checkpoint, write_query, write_report,
    write_response, Query, QueryKind, Report, Response, Trace,
};
use dna_serve::{
    checkpoint_file_name, read_artifact, resolve_checkpoint_snapshot, route_stream, Router,
    Session, SessionConfig,
};
use proptest::prelude::*;
use std::io::Cursor;

struct Workload {
    name: &'static str,
    snapshot: &'static str,
    trace: &'static str,
    report: &'static str,
}

const CORPUS: &[Workload] = &[
    Workload {
        name: "ft4_failures",
        snapshot: include_str!("corpus/ft4_failures.snap.dna"),
        trace: include_str!("corpus/ft4_failures.trace.dna"),
        report: include_str!("corpus/ft4_failures.report.dna"),
    },
    Workload {
        name: "ft6_policy",
        snapshot: include_str!("corpus/ft6_policy.snap.dna"),
        trace: include_str!("corpus/ft6_policy.trace.dna"),
        report: include_str!("corpus/ft6_policy.report.dna"),
    },
    Workload {
        name: "wan16_mixed",
        snapshot: include_str!("corpus/wan16_mixed.snap.dna"),
        trace: include_str!("corpus/wan16_mixed.trace.dna"),
        report: include_str!("corpus/wan16_mixed.report.dna"),
    },
];

/// Round-trips a live session through the wire format the way a real
/// restart does: serialize its checkpoint, drop the session, parse the
/// bytes back, resolve the snapshot, resume. Every checkpoint detail
/// that matters must survive this path — in-memory shortcuts would
/// hide serialization bugs.
fn kill_and_resume(session: Session, server: &SessionConfig) -> Session {
    let text = write_checkpoint(&session.checkpoint_artifact());
    drop(session);
    let ckpt = parse_checkpoint(&text).expect("checkpoint round-trips");
    let snapshot = resolve_checkpoint_snapshot(&ckpt, None).expect("inline snapshot");
    Session::resume(&ckpt, snapshot, server).expect("session resumes")
}

/// Corpus pinning: checkpoint at the half-way epoch, resume with a
/// 2-shard bring-up, replay the rest — the concatenated per-epoch
/// report must equal the checked-in report file byte-for-byte.
#[test]
fn corpus_reports_survive_checkpoint_resume_byte_for_byte() {
    for w in CORPUS {
        let snapshot = parse_snapshot(w.snapshot).expect("corpus snapshot parses");
        let trace = parse_trace(w.trace).expect("corpus trace parses");
        let mid = trace.epochs.len() / 2;
        let config = SessionConfig::default();
        let mut session = Session::open(w.name, snapshot, config.clone()).expect("opens");
        for ep in &trace.epochs[..mid] {
            session
                .ingest(ep)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
        let server = SessionConfig {
            shards: 2,
            ..config
        };
        let mut session = kill_and_resume(session, &server);
        assert_eq!(session.epochs(), mid, "{}: resumed at the boundary", w.name);
        for ep in &trace.epochs[mid..] {
            session
                .ingest(ep)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
        // The retained history now holds every epoch (corpus traces fit
        // the default retention); its diffs are the full report.
        let full = match session.answer(&QueryKind::Report {
            from: 0,
            to: trace.epochs.len(),
        }) {
            Response::Report { epochs } => epochs,
            other => panic!("{}: expected report, got {other:?}", w.name),
        };
        assert_eq!(full.len(), trace.epochs.len(), "{}: full history", w.name);
        let report = Report {
            epochs: full.into_iter().map(|(_, d)| d).collect(),
        };
        assert_eq!(
            write_report(&report),
            w.report,
            "{}: resumed report diverged from the pinned corpus report",
            w.name
        );
    }
}

/// Service pinning: the exact pinned smoke response bytes from a
/// server that crashed after half the trace and resumed. The trace
/// splits into two ingest artifacts (4 + 4 epochs), so the second
/// run's responses are compared artifact-by-artifact against the tail
/// of the pinned file.
#[test]
fn pinned_service_smoke_responses_survive_crash_resume() {
    let snapshot =
        parse_snapshot(include_str!("corpus/ft4_failures.snap.dna")).expect("snapshot parses");
    let trace = parse_trace(include_str!("corpus/ft4_failures.trace.dna")).expect("trace parses");
    let mid = trace.epochs.len() / 2;
    let halves = [
        Trace {
            epochs: trace.epochs[..mid].to_vec(),
        },
        Trace {
            epochs: trace.epochs[mid..].to_vec(),
        },
    ];
    let q = |kind: QueryKind| {
        write_query(&Query {
            session: None,
            kind,
        })
    };
    // First life: load, ingest half, checkpoint on demand, "crash" —
    // all that survives is the file the served session wrote.
    let dir = std::env::temp_dir().join(format!("dna-ckpt-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let mut router = Router::new(SessionConfig {
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    });
    router
        .preload(vec![("ft4_failures".into(), snapshot)])
        .expect("session opens");
    let first = format!(
        "{}{}",
        dna_io::write_trace(&halves[0]),
        q(QueryKind::Checkpoint)
    );
    let summary = route_stream(
        router,
        &mut Cursor::new(first.into_bytes()),
        &mut Vec::new(),
    )
    .expect("first life serves");
    assert_eq!(summary.errors, 0);
    let ckpt_text = std::fs::read_to_string(dir.join(checkpoint_file_name("ft4_failures")))
        .expect("checkpoint written");
    let _ = std::fs::remove_dir_all(&dir);
    // Second life: a fresh router resumes from the bytes, ingests the
    // rest, and answers the pinned smoke queries.
    let ckpt = parse_checkpoint(&ckpt_text).expect("checkpoint parses");
    assert_eq!(ckpt.epochs as usize, mid);
    let snapshot = resolve_checkpoint_snapshot(&ckpt, None).expect("inline snapshot");
    let mut router = Router::new(SessionConfig::default());
    let loaded = router
        .preload_checkpoints(vec![(ckpt, snapshot)])
        .expect("session resumes");
    match dna_io::parse_response(&loaded[0]) {
        Ok(Response::Loaded { session, .. }) => assert_eq!(session, "ft4_failures"),
        other => panic!("expected loaded, got {other:?}"),
    }
    let input = format!(
        "{}{}{}{}",
        dna_io::write_trace(&halves[1]),
        q(QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        }),
        q(QueryKind::Blast { last: 8 }),
        q(QueryKind::Report { from: 0, to: 1 }),
    );
    let mut out = Vec::new();
    let summary = route_stream(router, &mut Cursor::new(input.into_bytes()), &mut out)
        .expect("second life serves");
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.epochs as usize, trace.epochs.len() - mid);
    // Pinned expectations: [ingest, reach, blast, report] responses.
    // The resumed run's ingest response differs (4 epochs, not 8), but
    // its three query responses must match the pinned bytes exactly.
    let artifacts = |bytes: &str| {
        let mut cursor = Cursor::new(bytes.as_bytes().to_vec());
        let mut v = Vec::new();
        while let Some(a) = read_artifact(&mut cursor).expect("framed") {
            v.push(a);
        }
        v
    };
    let expected = artifacts(include_str!("corpus/service_smoke.expected.dna"));
    let got = artifacts(&String::from_utf8(out).expect("utf-8"));
    assert_eq!(expected.len(), 4, "pinned file shape");
    assert_eq!(got.len(), 4);
    assert_eq!(
        &got[1..],
        &expected[1..],
        "resumed query responses diverged from the pinned smoke bytes"
    );
    // And the ingest response accounts for exactly the resumed half.
    match dna_io::parse_response(&got[0]).expect("ingest response parses") {
        Response::Ingested { epochs, total, .. } => {
            assert_eq!((epochs as usize, total as usize), (mid, trace.epochs.len()));
        }
        other => panic!("expected ingested, got {other:?}"),
    }
}

/// A k=4 workload for the randomized boundary/retention/shard sweep.
fn proptest_workload() -> (net_model::Snapshot, Vec<dna_io::TraceEpoch>) {
    use topo_gen::{fat_tree, Routing, ScenarioGen, ScenarioKind};
    let ft = fat_tree(4, Routing::Ebgp);
    let mut gen = ScenarioGen::new(77);
    let labeled = gen.labeled_sequence(
        &ft.snapshot,
        &[
            ScenarioKind::LinkFailure,
            ScenarioKind::LinkRecovery,
            ScenarioKind::AclInsert,
            ScenarioKind::AclRemove,
        ],
        6,
    );
    let epochs = labeled
        .into_iter()
        .map(|(kind, changes)| dna_io::TraceEpoch {
            label: Some(kind.to_string()),
            changes,
        })
        .collect();
    (ft.snapshot, epochs)
}

proptest! {
    // Each case pays several engine bring-ups; keep the count modest —
    // the sweep's value is hitting edge boundaries (0, len) and tight
    // retention, not volume.
    #![proptest_config(ProptestConfig::with_cases_and_seed(8, 0xD9A_2001))]

    /// checkpoint → resume → remaining epochs ≡ straight-through
    /// replay, for any checkpoint boundary, any retention config, and
    /// shards 1/2/4 — pinned on the serialized bytes of every
    /// deterministic query response.
    #[test]
    fn resume_equals_straight_through(
        boundary in 0usize..=6,
        retain in 1usize..=8,
        retain_bytes in prop::option::of(512usize..4096),
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (snapshot, epochs) = proptest_workload();
        let config = SessionConfig {
            retain,
            retain_bytes,
            ..Default::default()
        };
        let mut straight = Session::open("p", snapshot.clone(), config.clone()).expect("opens");
        let mut live = Session::open("p", snapshot, config.clone()).expect("opens");
        for ep in &epochs {
            straight.ingest(ep).expect("straight ingest");
        }
        for ep in &epochs[..boundary] {
            live.ingest(ep).expect("pre-crash ingest");
        }
        let server = SessionConfig { shards, ..config };
        let mut resumed = kill_and_resume(live, &server);
        prop_assert_eq!(resumed.epochs(), boundary);
        for ep in &epochs[boundary..] {
            resumed.ingest(ep).expect("post-resume ingest");
        }
        for q in [
            QueryKind::ReachPair { src: "edge0_0".into(), dst: "edge1_1".into() },
            QueryKind::ReachPair { src: "agg0_0".into(), dst: "edge1_0".into() },
            QueryKind::Blast { last: 4 },
            QueryKind::Blast { last: 64 },
            QueryKind::Report { from: 0, to: 6 },
            QueryKind::Report { from: boundary, to: boundary + 1 },
        ] {
            prop_assert_eq!(
                write_response(&resumed.answer(&q)),
                write_response(&straight.answer(&q)),
                "answer diverged for {:?} (boundary {}, retain {}, shards {})",
                q, boundary, retain, shards
            );
        }
        let (a, b) = (resumed.stats(), straight.stats());
        prop_assert_eq!(
            (a.epochs, a.retained, a.retained_from, a.flows, a.mismatches),
            (b.epochs, b.retained, b.retained_from, b.flows, b.mismatches)
        );
    }
}
