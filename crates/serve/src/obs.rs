//! The telemetry query surface: one serializer for every answer path.
//!
//! `metrics` and `trace` are **server-level** queries like `sessions` —
//! they read the process-global [`dna_obs`] registry and span ring, not
//! any one session's engine state, so they are answered without an
//! engine-thread round trip: the router thread (for every transport
//! that pumps into it) and the TCP connection threads ([`crate::net`])
//! both call [`obs_reply_for`] before normal dispatch. Because both
//! paths funnel through this one function, they produce byte-identical
//! artifacts for the same registry state.
//!
//! A `session` line on the query narrows the scrape to that session's
//! labeled series (process-wide series are always kept) — an unknown
//! name simply yields no labeled series, never an error, matching
//! Prometheus-style scrape semantics where absence is data.

use dna_io::{
    write_health, write_history, write_metrics, write_spans, Artifact, HealthReport, HealthStatus,
    HistogramRow, HistoryReport, HistorySample, MetricsReport, Query, QueryKind, SeriesRow,
    SessionHealth, SpanReport, SpanRow,
};
use dna_obs::{EpochSpan, MetricsSnapshot, Sample, BUCKET_BOUNDS_US};

/// Serializes the process-global registry, span ring, history ring or
/// health classification as the reply to an already-parsed telemetry
/// query; `None` for every other kind (the caller dispatches those
/// normally).
pub fn obs_reply_for(q: &Query) -> Option<String> {
    match &q.kind {
        QueryKind::Metrics => {
            let snap = dna_obs::global().snapshot(q.session.as_deref());
            Some(write_metrics(&metrics_report(&snap)))
        }
        QueryKind::TraceSpans { last } => {
            let spans = dna_obs::spans().snapshot(q.session.as_deref(), *last);
            Some(write_spans(&spans_report(&spans)))
        }
        QueryKind::History { last } => {
            let samples = dna_obs::history().snapshot(q.session.as_deref(), *last);
            Some(write_history(&history_report(&samples)))
        }
        // Health classifies the whole process — a `session` line on the
        // query is ignored rather than narrowing, so every client sees
        // the same picture.
        QueryKind::Health => {
            let snap = dna_obs::global().snapshot(None);
            let report = health_report(&snap, dna_obs::uptime_ms(), &Thresholds::from_env());
            Some(write_health(&report))
        }
        _ => None,
    }
}

/// [`record_query`] over raw artifact text — non-queries (and
/// unparseable text) no-op, so a transport can call it unconditionally
/// after answering.
pub(crate) fn record_query_span(transport: &'static str, text: &str, elapsed: std::time::Duration) {
    let Ok((_, kind)) = dna_io::sniff(text) else {
        return;
    };
    if kind != Artifact::Query {
        return;
    }
    if let Ok(q) = dna_io::parse_query(text) {
        record_query(transport, &q, elapsed);
    }
}

/// Records one answered query into the query plane: a
/// `query_latency_us` observation labeled with the answer path (`tcp`
/// or `broker` in the scope slot) plus a [`dna_obs::QuerySpan`] in the
/// slow-query ring.
pub(crate) fn record_query(transport: &'static str, q: &Query, elapsed: std::time::Duration) {
    let total_ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
    dna_obs::global()
        .histogram_for("query_latency_us", transport)
        .observe_ns(total_ns);
    dna_obs::query_spans().record(dna_obs::QuerySpan {
        transport,
        session: q.session.clone(),
        kind: q.kind.name(),
        total_ns,
    });
}

/// Converts a registry scrape into the canonical wire report,
/// extracting the p50/p95/p99 summary from each histogram's buckets.
pub fn metrics_report(snap: &MetricsSnapshot) -> MetricsReport {
    let series = |s: &dna_obs::SeriesValue| SeriesRow {
        name: s.name.clone(),
        session: s.session.clone(),
        value: s.value,
    };
    MetricsReport {
        counters: snap.counters.iter().map(series).collect(),
        gauges: snap.gauges.iter().map(series).collect(),
        histograms: snap
            .histograms
            .iter()
            .map(|h| {
                let s = &h.snapshot;
                let mut buckets: Vec<(Option<u64>, u64)> = BUCKET_BOUNDS_US
                    .iter()
                    .zip(s.buckets.iter())
                    .map(|(&bound, &n)| (Some(bound), n))
                    .collect();
                buckets.push((None, s.buckets[s.buckets.len() - 1]));
                HistogramRow {
                    name: h.name.clone(),
                    session: h.session.clone(),
                    count: s.count,
                    sum_ns: s.sum_ns,
                    p50_us: s.quantile_us(0.50),
                    p95_us: s.quantile_us(0.95),
                    p99_us: s.quantile_us(0.99),
                    buckets,
                }
            })
            .collect(),
    }
}

/// Converts a history-ring snapshot into the canonical wire report.
/// Histograms are deliberately not sampled by the ring (a full bucket
/// array per series per tick would dwarf the scalar series), so the
/// report carries counters and gauges only.
pub fn history_report(samples: &[Sample]) -> HistoryReport {
    let series = |s: &dna_obs::SeriesValue| SeriesRow {
        name: s.name.clone(),
        session: s.session.clone(),
        value: s.value,
    };
    HistoryReport {
        samples: samples
            .iter()
            .map(|s| HistorySample {
                t_ms: s.t_ms,
                counters: s.counters.iter().map(series).collect(),
                gauges: s.gauges.iter().map(series).collect(),
            })
            .collect(),
    }
}

/// The health-classification knobs, one env var each so operators can
/// tune alarms without redeploying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// A session whose engine heartbeat is older than this while work
    /// is queued for it is degraded (`DNA_OBS_STALE_MS`, default 5000).
    pub stale_ms: u64,
    /// Ingest-queue depth above which a session is degraded
    /// (`DNA_OBS_QUEUE_DEPTH_WARN`, default 64).
    pub queue_depth_warn: u64,
    /// Enqueued-but-unapplied epoch count above which a session is
    /// degraded (`DNA_OBS_EPOCHS_BEHIND_WARN`, default 256).
    pub epochs_behind_warn: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            stale_ms: 5_000,
            queue_depth_warn: 64,
            epochs_behind_warn: 256,
        }
    }
}

impl Thresholds {
    /// The defaults overridden by any parseable `DNA_OBS_*` env vars
    /// (unset or malformed values keep the default).
    pub fn from_env() -> Self {
        let var = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        let d = Thresholds::default();
        Thresholds {
            stale_ms: var("DNA_OBS_STALE_MS", d.stale_ms),
            queue_depth_warn: var("DNA_OBS_QUEUE_DEPTH_WARN", d.queue_depth_warn),
            epochs_behind_warn: var("DNA_OBS_EPOCHS_BEHIND_WARN", d.epochs_behind_warn),
        }
    }
}

/// Classifies the server and every session from one registry scrape —
/// a pure function of `(snapshot, now, thresholds)`, so the answer is
/// the same on every transport and trivially testable.
///
/// A session exists for health purposes iff its `engine_heartbeat_ms`
/// gauge is registered (accounting series are torn down with the
/// engine thread, so retired sessions drop off the report). Rules, in
/// precedence order:
///
/// * `session_failed` set → **failed**, reason `panic`;
/// * heartbeat older than [`Thresholds::stale_ms`] *while the ingest
///   queue is non-empty* → **degraded**, reason `stale-heartbeat` (an
///   idle engine has no reason to beat, so an old heartbeat alone is
///   not a symptom);
/// * queue depth over [`Thresholds::queue_depth_warn`] → **degraded**,
///   reason `queue-depth`;
/// * `epochs_behind` over [`Thresholds::epochs_behind_warn`] →
///   **degraded**, reason `epochs-behind`.
///
/// The server is degraded iff some session is degraded. A **failed**
/// session does *not* degrade the server: the panic fence's whole job
/// is containment, and health reports that containment worked.
pub fn health_report(snap: &MetricsSnapshot, now_ms: u64, t: &Thresholds) -> HealthReport {
    let gauge = |name: &str, session: &str| {
        snap.gauges
            .iter()
            .find(|g| g.name == name && g.session.as_deref() == Some(session))
            .map_or(0, |g| g.value)
    };
    // Gauges arrive (name, session)-sorted, so iterating one gauge name
    // yields the session rows already name-sorted — canonical for free.
    let mut sessions = Vec::new();
    for g in &snap.gauges {
        if g.name != "engine_heartbeat_ms" {
            continue;
        }
        let Some(name) = g.session.clone() else {
            continue;
        };
        let depth = gauge("ingest_queue_depth", &name);
        let (status, reason) = if gauge("session_failed", &name) != 0 {
            (HealthStatus::Failed, Some("panic"))
        } else if depth > 0 && now_ms.saturating_sub(g.value) > t.stale_ms {
            (HealthStatus::Degraded, Some("stale-heartbeat"))
        } else if depth > t.queue_depth_warn {
            (HealthStatus::Degraded, Some("queue-depth"))
        } else if gauge("epochs_behind", &name) > t.epochs_behind_warn {
            (HealthStatus::Degraded, Some("epochs-behind"))
        } else {
            (HealthStatus::Ok, None)
        };
        sessions.push(SessionHealth {
            name,
            status,
            reason: reason.map(str::to_string),
        });
    }
    let server = if sessions.iter().any(|s| s.status == HealthStatus::Degraded) {
        HealthStatus::Degraded
    } else {
        HealthStatus::Ok
    };
    HealthReport { server, sessions }
}

/// Converts a span-ring snapshot into the canonical wire report.
pub fn spans_report(spans: &[EpochSpan]) -> SpanReport {
    SpanReport {
        spans: spans
            .iter()
            .map(|s| SpanRow {
                session: s.session.clone(),
                epoch: s.epoch,
                parse_ns: s.parse_ns,
                cp_ns: s.cp_ns,
                dp_ns: s.dp_ns,
                publish_ns: s.publish_ns,
                total_ns: s.total_ns,
                changes: s.changes,
                flows: s.flows,
                label: s.label.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_obs::Registry;
    use std::time::Duration;

    #[test]
    fn registry_scrape_serializes_canonically() {
        let r = Registry::new();
        r.counter_for("epochs_applied", "a").add(4);
        r.counter("tcp_connections").inc();
        r.gauge_for("view_served", "a").set(2);
        r.histogram_for("epoch_apply_us", "a")
            .observe(Duration::from_micros(700));
        let report = metrics_report(&r.snapshot(None));
        let text = write_metrics(&report);
        let back = dna_io::parse_metrics(&text).expect("round-trips");
        assert_eq!(back, report);
        assert_eq!(write_metrics(&back), text, "canonical");
        let h = &report.histograms[0];
        assert_eq!(h.count, 1);
        assert_eq!((h.p50_us, h.p95_us, h.p99_us), (1_000, 1_000, 1_000));
        assert_eq!(h.buckets.len(), dna_obs::BUCKETS);
        assert_eq!(h.buckets.last().unwrap().0, None, "overflow bucket last");
    }

    #[test]
    fn spans_convert_field_for_field() {
        let spans = vec![EpochSpan {
            session: "a".into(),
            epoch: 3,
            label: Some("link-failure".into()),
            parse_ns: 10,
            cp_ns: 20,
            dp_ns: 30,
            publish_ns: 40,
            total_ns: 100,
            changes: 2,
            flows: 5,
        }];
        let report = spans_report(&spans);
        let text = write_spans(&report);
        assert_eq!(dna_io::parse_spans(&text).unwrap(), report);
        assert_eq!(report.spans[0].epoch, 3);
        assert_eq!(report.spans[0].label.as_deref(), Some("link-failure"));
    }

    #[test]
    fn history_ring_serializes_canonically() {
        let r = Registry::new();
        let ring = dna_obs::TimeSeries::new(8);
        r.counter_for("epochs_applied", "a").add(3);
        r.gauge_for("ingest_queue_depth", "a").set(1);
        ring.record(100, &r.snapshot(None));
        r.counter_for("epochs_applied", "a").add(2);
        ring.record(200, &r.snapshot(None));
        let report = history_report(&ring.snapshot(None, None));
        let text = write_history(&report);
        let back = dna_io::parse_history(&text).expect("round-trips");
        assert_eq!(back, report);
        assert_eq!(write_history(&back), text, "canonical");
        assert_eq!(report.samples.len(), 2);
        assert_eq!((report.samples[0].t_ms, report.samples[1].t_ms), (100, 200));
        assert_eq!(report.samples[1].counters[0].value, 5);
    }

    /// One registry walked through every classification: ok, each
    /// degraded reason in precedence order, failed, and the
    /// idle-heartbeat exemption.
    #[test]
    fn health_classification_rules() {
        let t = Thresholds::default();
        let r = Registry::new();
        let at = |r: &Registry, now: u64| health_report(&r.snapshot(None), now, &t);

        // No heartbeat gauge yet: no sessions, server ok.
        let empty = at(&r, 0);
        assert_eq!(empty.server, HealthStatus::Ok);
        assert!(empty.sessions.is_empty());

        let acct = dna_obs::SessionAccounting::register(&r, "a");
        acct.heartbeat_ms.set(1_000);
        let ok = at(&r, 2_000);
        assert_eq!(ok.server, HealthStatus::Ok);
        assert_eq!(ok.sessions.len(), 1);
        assert_eq!(ok.sessions[0].name, "a");
        assert_eq!(ok.sessions[0].status, HealthStatus::Ok);
        assert_eq!(ok.sessions[0].reason, None);

        // A stale heartbeat with an empty queue is idleness, not a
        // symptom.
        let idle = at(&r, 100_000);
        assert_eq!(idle.sessions[0].status, HealthStatus::Ok);

        // The same staleness with work queued means a wedged engine.
        acct.queue_depth.set(1);
        let stale = at(&r, 100_000);
        assert_eq!(stale.server, HealthStatus::Degraded);
        assert_eq!(stale.sessions[0].status, HealthStatus::Degraded);
        assert_eq!(stale.sessions[0].reason.as_deref(), Some("stale-heartbeat"));

        // Fresh heartbeat, deep queue.
        acct.heartbeat_ms.set(99_900);
        acct.queue_depth.set(t.queue_depth_warn + 1);
        let deep = at(&r, 100_000);
        assert_eq!(deep.sessions[0].reason.as_deref(), Some("queue-depth"));

        // Shallow queue, but epochs piling up.
        acct.queue_depth.set(1);
        acct.epochs_behind.set(t.epochs_behind_warn + 1);
        let behind = at(&r, 100_000);
        assert_eq!(behind.sessions[0].reason.as_deref(), Some("epochs-behind"));

        // A panic fence outranks everything — and does NOT degrade the
        // server: containment working is the healthy outcome.
        acct.failed.set(1);
        let failed = at(&r, 100_000);
        assert_eq!(failed.sessions[0].status, HealthStatus::Failed);
        assert_eq!(failed.sessions[0].reason.as_deref(), Some("panic"));
        assert_eq!(failed.server, HealthStatus::Ok);

        // Retiring the accounting drops the session from the report.
        acct.retire(&r);
        assert!(at(&r, 100_000).sessions.is_empty());
    }

    #[test]
    fn health_report_is_canonical_and_name_sorted() {
        let r = Registry::new();
        let b = dna_obs::SessionAccounting::register(&r, "b");
        let a = dna_obs::SessionAccounting::register(&r, "a");
        b.failed.set(1);
        a.beat();
        let report = health_report(
            &r.snapshot(None),
            dna_obs::uptime_ms(),
            &Thresholds::default(),
        );
        assert_eq!(
            report
                .sessions
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"]
        );
        let text = write_health(&report);
        let back = dna_io::parse_health(&text).expect("round-trips");
        assert_eq!(back, report);
        assert_eq!(write_health(&back), text, "canonical");
    }

    fn query(kind: QueryKind) -> Query {
        Query {
            session: None,
            kind,
        }
    }

    #[test]
    fn health_and_history_answered_at_the_transport() {
        let reply = obs_reply_for(&query(QueryKind::Health)).expect("telemetry query answered");
        assert!(dna_io::parse_health(&reply).is_ok(), "{reply}");
        let reply = obs_reply_for(&query(QueryKind::History { last: Some(4) }))
            .expect("telemetry query answered");
        assert!(dna_io::parse_history(&reply).is_ok(), "{reply}");
    }

    #[test]
    fn non_telemetry_artifacts_pass_through() {
        assert!(obs_reply_for(&query(QueryKind::Stats)).is_none());
        assert!(obs_reply_for(&query(QueryKind::Sessions)).is_none());
        let reply = obs_reply_for(&query(QueryKind::Metrics)).expect("telemetry query answered");
        assert!(dna_io::parse_metrics(&reply).is_ok(), "{reply}");
    }
}
