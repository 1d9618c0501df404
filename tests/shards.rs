//! Shard-equivalence golden tests: the sharded init pipeline must be
//! *observationally identical* to the unsharded bring-up. Every
//! corpus scenario is replayed through engines brought up with
//! `--shards 1/2/4` and must reproduce the checked-in report
//! byte-for-byte; the pinned service smoke must produce the identical
//! response bytes from a 4-shard session. (CI repeats both through the
//! `dna` binary; `crates/control-plane/tests/sharding.rs` additionally
//! proptests random, unbalanced partitions.)

use dna_core::{ReplayMode, ReplaySession};
use dna_io::{parse_snapshot, parse_trace, write_query, write_report, EpochDiff, Report};
use dna_serve::{route_stream, Router, SessionConfig};
use std::io::Cursor;

const CORPUS: &[(&str, &str, &str, &str)] = &[
    (
        "ft4_failures",
        include_str!("corpus/ft4_failures.snap.dna"),
        include_str!("corpus/ft4_failures.trace.dna"),
        include_str!("corpus/ft4_failures.report.dna"),
    ),
    (
        "ft6_policy",
        include_str!("corpus/ft6_policy.snap.dna"),
        include_str!("corpus/ft6_policy.trace.dna"),
        include_str!("corpus/ft6_policy.report.dna"),
    ),
    (
        "wan16_mixed",
        include_str!("corpus/wan16_mixed.snap.dna"),
        include_str!("corpus/wan16_mixed.trace.dna"),
        include_str!("corpus/wan16_mixed.report.dna"),
    ),
];

#[test]
fn corpus_reports_are_byte_identical_under_sharded_init() {
    for (name, snap_text, trace_text, report_text) in CORPUS {
        let snap = parse_snapshot(snap_text).expect("corpus snapshot parses");
        let trace = parse_trace(trace_text).expect("corpus trace parses");
        for shards in [1usize, 2, 4] {
            let mut session =
                ReplaySession::with_shards(snap.clone(), ReplayMode::Differential, shards)
                    .expect("sharded bring-up");
            let mut report = Report::default();
            for ep in &trace.epochs {
                let out = session.step(&ep.changes).expect("epoch applies");
                report
                    .epochs
                    .push(EpochDiff::from_behavior(ep.label.clone(), out.primary()));
            }
            assert_eq!(
                write_report(&report),
                *report_text,
                "{name}: report drifted under --shards {shards}"
            );
        }
    }
}

/// The pinned service smoke, from a session brought up with 4 shards:
/// response bytes must match the same golden file the unsharded smoke
/// pins (tests/service.rs and CI).
#[test]
fn service_smoke_responses_are_byte_identical_under_sharded_init() {
    let snapshot =
        parse_snapshot(include_str!("corpus/ft4_failures.snap.dna")).expect("snapshot parses");
    let q = |kind: dna_io::QueryKind| {
        write_query(&dna_io::Query {
            session: None,
            kind,
        })
    };
    let input = format!(
        "{}{}{}{}",
        include_str!("corpus/ft4_failures.trace.dna"),
        q(dna_io::QueryKind::ReachPair {
            src: "edge0_0".into(),
            dst: "edge1_1".into(),
        }),
        q(dna_io::QueryKind::Blast { last: 8 }),
        q(dna_io::QueryKind::Report { from: 0, to: 1 }),
    );
    let mut router = Router::new(SessionConfig {
        shards: 4,
        ..Default::default()
    });
    router
        .preload(vec![("ft4_failures".into(), snapshot)])
        .expect("session opens");
    let mut out = Vec::new();
    let summary = route_stream(router, &mut Cursor::new(input.into_bytes()), &mut out)
        .expect("serve loop runs");
    assert_eq!(summary.errors, 0);
    assert_eq!(
        String::from_utf8(out).expect("utf-8"),
        include_str!("corpus/service_smoke.expected.dna"),
        "4-shard service responses drifted from the pinned smoke"
    );
}
