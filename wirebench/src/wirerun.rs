//! One wire run: start the server (several times, for `setup_s`), drive
//! the workload's load window over TCP, run the probes for the metrics
//! the load window does not produce, and collect the final-state
//! replies the reference check compares.

use crate::inputs::{Ingest, Inputs, Workload, PROBE_QUERY_RATE, PROBE_SUBS};
use crate::wire::{closed_loop, open_loop, read_pushes, reply_line, Conn, Exchange, Server};
use dna_io::{write_query, Query, QueryKind};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `stats` round trips timed on an idle server before the load window.
const IDLE_RTT_QUERIES: usize = 200;
/// How long the push reader keeps reading after the last ack.
const PUSH_QUIET: Duration = Duration::from_millis(300);
const PUSH_CAP: Duration = Duration::from_secs(10);

/// A load-window query: its pool index, timing, and whether the reply
/// was an `ok` of the requested kind (bytes kept only when it was not).
pub struct QuerySample {
    pub pool: usize,
    pub x: Exchange,
    pub kind_ok: bool,
}

/// Everything one wire run observed.
pub struct WireRun {
    pub setup_s: Vec<f64>,
    pub idle_rtt: Vec<Exchange>,
    /// Subscribe replies, in send order (before the load window when
    /// the workload watches, else for the notify probe).
    pub sub_acks: Vec<String>,
    /// Load-window ingest, one per epoch, in epoch order.
    pub acks: Vec<Exchange>,
    /// Load-window open-loop queries (read-mix).
    pub queries: Vec<QuerySample>,
    /// Load-window pushes (watch): arrival time and artifact.
    pub pushes: Vec<(f64, String)>,
    /// Open-loop sender lateness (sent − due), seconds.
    pub late: Vec<f64>,
    pub rss_mb: f64,
    /// Open-loop read probe on the idle post-load state (pool index,
    /// exchange).
    pub probe_queries: Vec<(usize, Exchange)>,
    /// Closed-loop notify probe: epochs and the pushes they caused.
    pub probe_acks: Vec<Exchange>,
    pub probe_pushes: Vec<(f64, String)>,
    /// Final-state replies: each pool query once, then the full report
    /// and stats.
    pub final_replies: Vec<String>,
    pub final_report: String,
    pub final_stats: String,
    /// The server's `metrics` scrape at the end (its counters).
    pub metrics: String,
    /// The server's own epoch spans (`trace` query) at the end.
    pub spans: String,
}

fn query_text(kind: QueryKind) -> String {
    write_query(&Query {
        session: None,
        kind,
    })
}

/// Drives one wire run of `w` over `inputs`.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seconds: u64,
    dna: &Path,
    work: &Path,
) -> Result<WireRun, String> {
    let snap_path = work.join("fabric.snap.dna");
    std::fs::write(&snap_path, &inputs.snapshot_text)
        .map_err(|e| format!("write {}: {e}", snap_path.display()))?;
    let stats_q = query_text(QueryKind::Stats);

    let mut setup_s = Vec::with_capacity(w.setups);
    let mut last = None;
    for i in 0..w.setups {
        // Each earlier server is killed before the next starts.
        drop(last.take());
        let (server, conn, secs) = Server::start(dna, w, &snap_path, work, i, &stats_q)?;
        setup_s.push(secs);
        last = Some((server, conn));
    }
    let (server, mut conn1) = last.ok_or("a workload sets up at least once")?;

    let idle_rtt = closed_loop(
        &mut conn1,
        std::iter::repeat_n(stats_q.as_str(), IDLE_RTT_QUERIES),
        Instant::now(),
        None,
    )?;
    let mut conn2 = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut sub_acks = Vec::new();
    if w.watch_subs > 0 {
        let texts = inputs.subs.iter().map(|s| s.text.as_str());
        sub_acks = closed_loop(&mut conn2, texts, Instant::now(), None)?
            .into_iter()
            .map(|x| x.reply)
            .collect();
    }

    let epoch_items: Vec<&str> = inputs.epoch_texts[..inputs.load_epochs]
        .iter()
        .map(String::as_str)
        .collect();
    let mut queries = Vec::new();
    let mut pushes = Vec::new();
    let mut late = Vec::new();
    let acks = match w.ingest {
        Ingest::Closed => {
            let t0 = Instant::now();
            let stop = t0 + Duration::from_secs(seconds);
            closed_loop(&mut conn1, epoch_items, t0, Some(stop))?
        }
        Ingest::Open { eps } => {
            // A short lead so the second thread is running when the
            // first item falls due.
            let t0 = Instant::now() + Duration::from_millis(20);
            let stop = AtomicBool::new(false);
            let (acks, second) = std::thread::scope(|s| {
                let conn2 = &mut conn2;
                let stop = &stop;
                let second = s.spawn(move || -> Result<_, String> {
                    if let Some(rate) = w.query_rate {
                        let items: Vec<&str> = inputs
                            .schedule
                            .iter()
                            .map(|&i| inputs.queries[i].text.as_str())
                            .collect();
                        let mut kind_ok = Vec::with_capacity(items.len());
                        let xs = open_loop(conn2, &items, rate, t0, |i, reply| {
                            let want = inputs.queries[inputs.schedule[i]].expect;
                            let ok = reply_line(reply)
                                .strip_prefix("ok ")
                                .is_some_and(|k| k == want);
                            kind_ok.push(ok);
                            !ok
                        })?;
                        Ok((xs, kind_ok, Vec::new()))
                    } else {
                        let pushes = read_pushes(conn2, t0, stop, PUSH_QUIET, PUSH_CAP)?;
                        Ok((Vec::new(), Vec::new(), pushes))
                    }
                });
                let acks = open_loop(&mut conn1, &epoch_items, eps, t0, |_, _| true);
                stop.store(true, Ordering::SeqCst);
                let second = second
                    .join()
                    .map_err(|_| "load thread panicked".to_string());
                (acks, second)
            });
            let acks = acks?;
            let (xs, kind_ok, got) = second??;
            late.extend(acks.iter().map(|x| x.sent - x.due));
            late.extend(xs.iter().map(|x| x.sent - x.due));
            queries = xs
                .into_iter()
                .zip(kind_ok)
                .enumerate()
                .map(|(i, (x, kind_ok))| QuerySample {
                    pool: inputs.schedule[i],
                    x,
                    kind_ok,
                })
                .collect();
            pushes = got;
            acks
        }
    };
    let rss_mb = server.peak_rss_mb()?;

    let mut probe_queries = Vec::new();
    if w.query_rate.is_none() {
        let items: Vec<&str> = inputs
            .schedule
            .iter()
            .map(|&i| inputs.queries[i].text.as_str())
            .collect();
        // One untimed query first: this connection's view cache still
        // holds the view from before the load window, and releasing it
        // is a one-off stall of the first read, not the idle read path
        // (the read-mix load measures that cost where it recurs).
        conn1.request(items[0])?;
        let t0 = Instant::now();
        let xs = open_loop(&mut conn1, &items, PROBE_QUERY_RATE, t0, |_, _| true)?;
        late.extend(xs.iter().map(|x| x.sent - x.due));
        probe_queries = inputs.schedule.iter().copied().zip(xs).collect();
    }

    let mut probe_acks = Vec::new();
    let mut probe_pushes = Vec::new();
    if w.watch_subs == 0 {
        let subs = &inputs.subs[..PROBE_SUBS.min(inputs.subs.len())];
        sub_acks = closed_loop(
            &mut conn2,
            subs.iter().map(|s| s.text.as_str()),
            Instant::now(),
            None,
        )?
        .into_iter()
        .map(|x| x.reply)
        .collect();
        let first = acks.len();
        let items = inputs.epoch_texts[first..first + w.probe_epochs]
            .iter()
            .map(String::as_str);
        let t0 = Instant::now();
        let stop = AtomicBool::new(false);
        let (xs, got) = std::thread::scope(|s| {
            let conn2 = &mut conn2;
            let stop = &stop;
            let reader = s.spawn(move || read_pushes(conn2, t0, stop, PUSH_QUIET, PUSH_CAP));
            let xs = closed_loop(&mut conn1, items, t0, None);
            stop.store(true, Ordering::SeqCst);
            let got = reader
                .join()
                .map_err(|_| "push reader panicked".to_string());
            (xs, got)
        });
        probe_acks = xs?;
        probe_pushes = got??;
    }

    let mut final_replies = Vec::with_capacity(inputs.queries.len());
    for q in &inputs.queries {
        final_replies.push(conn1.request(&q.text)?);
    }
    let final_report = conn1.request(&query_text(QueryKind::Report {
        from: 0,
        to: usize::MAX,
    }))?;
    let final_stats = conn1.request(&stats_q)?;
    let metrics = conn1.request(&query_text(QueryKind::Metrics))?;
    let spans = conn1.request(&query_text(QueryKind::TraceSpans { last: None }))?;
    drop(server);

    Ok(WireRun {
        setup_s,
        idle_rtt,
        sub_acks,
        acks,
        queries,
        pushes,
        late,
        rss_mb,
        probe_queries,
        probe_acks,
        probe_pushes,
        final_replies,
        final_report,
        final_stats,
        metrics,
        spans,
    })
}
