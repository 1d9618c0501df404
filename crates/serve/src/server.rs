//! The transport layer: a stream of `dna-io` artifacts in, a stream of
//! replies out.
//!
//! The protocol is plain artifact concatenation — the same bytes `dna
//! dump` writes to files can be piped straight into a server. Framing
//! splits on the top-level `end` sentinel (see FORMAT.md "Framing on a
//! stream"). Every inbound artifact produces exactly one reply, so a
//! client can correlate by position. Malformed input is answered with
//! `error` responses — the server never dies on bad bytes.
//!
//! Every transport is a framer in front of the one engine side, the
//! [`crate::Router`]. The dataflow engine is deliberately thread-local
//! (`Rc` internals), so pumps exchange raw artifact text — plain `Send`
//! strings — with it over a channel: a [`Request`] carries the text and
//! the channel its reply goes back on. Stdin ([`pump_stream`]), a
//! followed trace file ([`follow_trace`]), unix-socket connections
//! ([`accept_loop`]) and TCP connections ([`crate::net`]) all feed that
//! one channel, so dispatch, the panic fence and the fault hook are the
//! same on every transport.

use dna_io::Response;
use std::io::{self, BufRead, Write};
use std::sync::mpsc;

/// Counters of one serve loop, reported when its input ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Artifacts processed (including malformed ones).
    pub artifacts: u64,
    /// Queries answered.
    pub queries: u64,
    /// Change epochs ingested.
    pub epochs: u64,
    /// Error responses produced.
    pub errors: u64,
    /// Session engine threads that panicked and were fenced off (the
    /// session answers errors from then on; the server lives).
    pub failures: u64,
}

impl ServeSummary {
    /// Adds another loop's counters (used to sum per-session-thread
    /// summaries at router shutdown).
    pub fn merge(&mut self, other: &ServeSummary) {
        self.artifacts += other.artifacts;
        self.queries += other.queries;
        self.epochs += other.epochs;
        self.errors += other.errors;
        self.failures += other.failures;
    }

    /// Counts a telemetry (`metrics`/`trace`) query answered directly
    /// from the process-global registry: the reply is a metrics/spans
    /// artifact, not a `response`, so [`ServeSummary::count`] never
    /// sees it.
    pub(crate) fn count_obs(&mut self) {
        self.artifacts += 1;
        self.queries += 1;
    }

    pub(crate) fn count(&mut self, response: &Response, epochs_applied: u64) {
        self.artifacts += 1;
        // Epoch accounting comes from the session layer, not the
        // response kind: a trace failing mid-stream answers `error` yet
        // has applied its earlier epochs, and the summary must say so.
        self.epochs += epochs_applied;
        match response {
            Response::Error(_) => self.errors += 1,
            Response::Ingested { .. } | Response::Loaded { .. } => {}
            _ => self.queries += 1,
        }
    }
}

/// Reads one artifact's text off a stream: lines up to and including the
/// first whose trimmed content is exactly `end`. Returns `None` at end
/// of input (trailing blank/comment lines are not an artifact). Input
/// ending mid-artifact returns the partial text — parsing then reports
/// the truncation as a typed error.
pub fn read_artifact(input: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = String::new();
    let mut line = String::new();
    let mut meaningful = false;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(if meaningful { Some(buf) } else { None });
        }
        let trimmed = line.trim();
        meaningful |= !(trimmed.is_empty() || trimmed.starts_with(';'));
        buf.push_str(&line);
        if trimmed == "end" {
            return Ok(Some(buf));
        }
    }
}

/// One routed request: an inbound artifact's text and the channel its
/// serialized reply goes back on. Both sides are plain strings, so
/// requests cross threads even though the engine cannot.
pub struct Request {
    /// Raw artifact text as framed off the wire.
    pub text: String,
    /// Stream-target session for snapshot/trace artifacts (queries name
    /// their own). `None` targets the server's default session. Set by
    /// in-process pumps that are bound to a session (e.g. `--follow`);
    /// wire clients always pump with `None`.
    pub session: Option<String>,
    /// Where the serialized response artifact is sent.
    pub reply: mpsc::Sender<String>,
}

/// A stream's pump into the router: frames artifacts off `input`,
/// ships them to the engine side, writes the replies to `output` in
/// order. Returns the number of artifacts pumped (end of input, router
/// gone, or client gone all end the pump). Stdin and every unix-socket
/// connection are served by this loop.
pub fn pump_stream(
    requests: &mpsc::Sender<Request>,
    input: &mut impl BufRead,
    output: &mut impl Write,
) -> io::Result<u64> {
    pump_stream_as(requests, None, input, output)
}

/// [`pump_stream`] with the stream's snapshot/trace ingest bound to a
/// session (queries still name their own). For in-process pumps —
/// wire clients have no session side-channel and always pump unbound.
pub fn pump_stream_as(
    requests: &mpsc::Sender<Request>,
    session: Option<&str>,
    input: &mut impl BufRead,
    output: &mut impl Write,
) -> io::Result<u64> {
    let mut pumped = 0;
    while let Some(text) = read_artifact(input)? {
        let (reply_tx, reply_rx) = mpsc::channel();
        if requests
            .send(Request {
                text,
                session: session.map(str::to_string),
                reply: reply_tx,
            })
            .is_err()
        {
            break; // router shut down
        }
        let Ok(response) = reply_rx.recv() else {
            break; // router shut down mid-request
        };
        pumped += 1;
        output.write_all(response.as_bytes())?;
        output.flush()?;
    }
    Ok(pumped)
}

/// How many shipped epochs a follower lets run ahead of their
/// acknowledgements: deep enough that a burst presents the engine a
/// real backlog (the `--coalesce` drain caps merges well below this),
/// bounded so a runaway writer cannot queue unbounded epochs in the
/// router.
const FOLLOW_WINDOW: usize = 32;

/// File-tail ingest (`dna serve --follow`): follows a growing trace
/// file, shipping each change epoch to the engine as a single-epoch
/// trace artifact the moment the epoch completes (see
/// [`dna_io::TraceTail`] — an epoch closes when the next `epoch` line
/// or the final `end` sentinel is written). Snapshot/trace ingest is
/// bound to `session` (`None` = the server's default session). Polls
/// the file every `poll`; returns the number of epochs shipped once
/// the trace's `end` sentinel arrives, or an error if the file turns
/// malformed (a follower cannot resynchronize past bad bytes) or the
/// engine goes away. Error *responses* (e.g. an epoch failing to
/// apply) are reported to stderr and do not stop the follow — later
/// epochs of a live stream may still apply.
///
/// Shipping is **pipelined**: up to `FOLLOW_WINDOW` epochs may be in
/// flight before the follower stops to collect acknowledgements, so a
/// burst appended to the tailed file reaches the engine back-to-back
/// instead of one round-trip at a time. That is what lets a fast
/// writer build a real ingest backlog — which `--coalesce` then drains
/// as merged commits — while the window bound keeps a runaway writer
/// from queueing unbounded epochs in the router. Acknowledgements are
/// always fully drained before the follower sleeps at a quiet EOF and
/// before it returns, so error reporting lags a stalled stream by at
/// most one poll, never indefinitely.
///
/// The follow survives **truncation and rotation** of the tailed file:
/// when, at EOF, the path's on-disk size has shrunk below what was
/// read or (on unix) the path's inode changed, the follower reopens
/// the path and frames the replacement as a fresh trace artifact from
/// its first byte (see `tail_rotated` / [`dna_io::TraceTail::rotate`]).
/// Epochs already shipped from the old file stand; epochs buffered but
/// never completed before the rotation are discarded with it.
pub fn follow_trace(
    requests: &mpsc::Sender<Request>,
    session: Option<&str>,
    path: &std::path::Path,
    poll: std::time::Duration,
) -> io::Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut tail = dna_io::TraceTail::new();
    let mut carry: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut shipped = 0u64;
    // In-flight acknowledgements, oldest first (see the pipelining
    // note in the doc comment).
    let mut pending: std::collections::VecDeque<mpsc::Receiver<String>> =
        std::collections::VecDeque::new();
    let engine_gone = || io::Error::new(io::ErrorKind::BrokenPipe, "engine shut down mid-follow");
    let drain_one =
        |pending: &mut std::collections::VecDeque<mpsc::Receiver<String>>| -> io::Result<()> {
            let Some(rx) = pending.pop_front() else {
                return Ok(());
            };
            let response = rx.recv().map_err(|_| engine_gone())?;
            if let Ok(Response::Error(msg)) = dna_io::parse_response(&response) {
                // An epoch failing to apply outranks --quiet.
                dna_obs::log::announce(&format!("dna serve: follow {}: {msg}", path.display()));
            }
            Ok(())
        };
    // Bytes read from the currently-open file: a path whose on-disk
    // size drops below this was truncated (or replaced by a shorter
    // file) — the shrink half of rotation detection.
    let mut consumed = 0u64;
    loop {
        let n = file.read(&mut chunk)?;
        consumed += n as u64;
        let bad_trace = |e: dna_io::IoError| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        };
        let epochs = if n == 0 {
            // A final `end` sentinel without a trailing newline is a
            // complete trace (the batch parser accepts it); anything
            // else pending just waits for the writer.
            let flushed = tail.finish_eof().map_err(bad_trace)?;
            if flushed.is_empty() {
                // Quiet moment: collect every outstanding ack before
                // returning or sleeping, so errors surface promptly
                // and a finished follow leaves nothing in flight.
                while !pending.is_empty() {
                    drain_one(&mut pending)?;
                }
                if tail.finished() {
                    return Ok(shipped);
                }
                // At EOF with nothing new: the quiet moment to check
                // whether the tailed *path* still names the file we
                // hold open. A shrink or an inode change means the
                // writer rotated it — reopen and frame the replacement
                // as a fresh trace artifact from its first byte
                // (epochs already shipped from the old file stand).
                if tail_rotated(path, &file, consumed)? {
                    match std::fs::File::open(path) {
                        Ok(f) => {
                            dna_obs::log::info(&format!(
                                "dna serve: follow {}: file rotated; following the new file",
                                path.display()
                            ));
                            file = f;
                            tail.rotate();
                            carry.clear();
                            consumed = 0;
                        }
                        // The replacement vanished between the check
                        // and the open (rotation race); the next poll
                        // re-checks.
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {
                            std::thread::sleep(poll);
                        }
                        Err(e) => return Err(e),
                    }
                    continue;
                }
                std::thread::sleep(poll);
                continue;
            }
            flushed
        } else {
            carry.extend_from_slice(&chunk[..n]);
            // Feed only the valid UTF-8 prefix; a multi-byte character
            // split across reads waits in `carry` for its tail.
            let valid = match std::str::from_utf8(&carry) {
                Ok(s) => s.len(),
                Err(e) if e.error_len().is_none() => e.valid_up_to(),
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: invalid UTF-8: {e}", path.display()),
                    ))
                }
            };
            let text = std::str::from_utf8(&carry[..valid])
                .expect("validated prefix")
                .to_owned();
            carry.drain(..valid);
            tail.feed(&text).map_err(bad_trace)?
        };
        for epoch in epochs {
            let artifact = dna_io::write_trace(&dna_io::Trace {
                epochs: vec![epoch],
            });
            let (reply_tx, reply_rx) = mpsc::channel();
            let sent = requests.send(Request {
                text: artifact,
                session: session.map(str::to_string),
                reply: reply_tx,
            });
            if sent.is_err() {
                return Err(engine_gone());
            }
            pending.push_back(reply_rx);
            shipped += 1;
            while pending.len() >= FOLLOW_WINDOW {
                drain_one(&mut pending)?;
            }
        }
    }
}

/// Whether the tailed `path` no longer names the file the follower
/// holds open: either the on-disk size dropped below what was already
/// read (truncate-in-place, or a shorter replacement at the same
/// path), or — on unix — the path resolves to a different inode
/// (rename-style rotation, `logrotate`'s default). A path that is
/// momentarily *gone* is not yet a rotation: the writer may be mid
/// rename, so the follower keeps polling until the replacement lands.
fn tail_rotated(path: &std::path::Path, file: &std::fs::File, consumed: u64) -> io::Result<bool> {
    let on_disk = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if on_disk.len() < consumed {
        return Ok(true);
    }
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        let open = file.metadata()?;
        if (open.dev(), open.ino()) != (on_disk.dev(), on_disk.ino()) {
            return Ok(true);
        }
    }
    #[cfg(not(unix))]
    let _ = file;
    Ok(false)
}

/// Accepts unix-socket connections forever, pumping each on its own
/// thread into the router with [`pump_stream`] — the same pump stdin
/// uses, so a socket client has no dispatcher of its own. Holds a
/// [`Request`] sender for as long as it runs, keeping the router alive
/// after stdin ends. Accept errors
/// (EINTR, fd exhaustion under load, ...) are transient for a daemon:
/// they are reported to stderr and the loop keeps accepting — one bad
/// accept must not leave a healthy-looking server deaf to new clients.
#[cfg(unix)]
pub fn accept_loop(
    requests: mpsc::Sender<Request>,
    listener: std::os::unix::net::UnixListener,
) -> io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                dna_obs::log::announce(&format!("dna serve: accept failed (retrying): {e}"));
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        let requests = requests.clone();
        std::thread::spawn(move || {
            let mut reader = io::BufReader::new(&stream);
            let mut writer = io::BufWriter::new(&stream);
            // A vanished client is its own problem; the server lives on.
            let _ = pump_stream(&requests, &mut reader, &mut writer);
        });
    }
}

/// Sends one query artifact over a unix socket and reads back the one
/// response artifact (client side of [`accept_loop`]).
#[cfg(unix)]
pub fn query_socket(path: &std::path::Path, query_text: &str) -> io::Result<String> {
    use std::os::unix::net::UnixStream;
    let stream = UnixStream::connect(path)?;
    (&stream).write_all(query_text.as_bytes())?;
    (&stream).flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = io::BufReader::new(&stream);
    Ok(read_artifact(&mut reader)?.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{route_stream, Router};
    use dna_io::{parse_response, write_query, write_snapshot, write_trace, Query, QueryKind};

    fn one_router_snapshot() -> net_model::Snapshot {
        net_model::NetBuilder::new()
            .router("r1")
            .iface("r1", "lan", "192.168.1.1/24")
            .ospf_passive("r1", "lan", 1)
            .build()
    }

    #[test]
    fn framing_splits_concatenated_artifacts() {
        let a = "dna-io v1 trace\nepoch\nend\n";
        let b = "; comment\n\ndna-io v5 query\n  stats\nend\n";
        let mut input = io::Cursor::new(format!("{a}{b}\n; trailing\n").into_bytes());
        let first = read_artifact(&mut input).unwrap().unwrap();
        assert_eq!(first, a);
        let second = read_artifact(&mut input).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(read_artifact(&mut input).unwrap(), None);
    }

    #[test]
    fn truncated_stream_artifact_is_a_typed_error_response() {
        let mut input = io::Cursor::new(b"dna-io v5 query\n  stats\n".to_vec());
        let text = read_artifact(&mut input).unwrap().unwrap();
        let mut out = Vec::new();
        let summary = route_stream(
            Router::new(Default::default()),
            &mut io::Cursor::new(text.into_bytes()),
            &mut out,
        )
        .unwrap();
        let reply = String::from_utf8(out).unwrap();
        assert!(
            matches!(parse_response(&reply), Ok(Response::Error(_))),
            "{reply}"
        );
        assert_eq!((summary.errors, summary.epochs), (1, 0));
    }

    #[test]
    fn route_stream_answers_one_response_per_artifact() {
        let stream = format!(
            "{}{}{}",
            write_snapshot(&one_router_snapshot()),
            write_trace(&dna_io::Trace::default()),
            write_query(&Query {
                session: None,
                kind: QueryKind::Sessions,
            })
        );
        let mut out = Vec::new();
        let summary = route_stream(
            Router::new(Default::default()),
            &mut io::Cursor::new(stream.into_bytes()),
            &mut out,
        )
        .unwrap();
        assert_eq!(summary.artifacts, 3);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.queries, 1);
        let out = String::from_utf8(out).unwrap();
        let mut cursor = io::Cursor::new(out.into_bytes());
        let loaded = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(loaded, Response::Loaded { devices: 1, .. }));
        let ingested = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(ingested, Response::Ingested { epochs: 0, .. }));
        let sessions = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        match sessions {
            Response::Sessions(list) => {
                assert_eq!(list.len(), 1);
                assert_eq!(list[0].name, "main");
            }
            other => panic!("expected sessions, got {other:?}"),
        }
    }

    #[test]
    fn broker_serves_requests_from_other_threads() {
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let stream = format!(
                "{}{}",
                write_snapshot(&one_router_snapshot()),
                write_query(&Query {
                    session: Some("main".into()),
                    kind: QueryKind::Stats,
                })
            );
            let mut out = Vec::new();
            let pumped =
                pump_stream(&tx, &mut io::Cursor::new(stream.into_bytes()), &mut out).unwrap();
            (pumped, String::from_utf8(out).unwrap())
        });
        // Only strings cross into the router; the engine lives on the
        // session thread the router spawns.
        let summary = Router::new(Default::default()).run(rx);
        let (pumped, out) = client.join().unwrap();
        assert_eq!(pumped, 2);
        assert_eq!(summary.artifacts, 2);
        assert_eq!(summary.errors, 0);
        let mut cursor = io::Cursor::new(out.into_bytes());
        let _loaded = read_artifact(&mut cursor).unwrap().unwrap();
        let stats = parse_response(&read_artifact(&mut cursor).unwrap().unwrap()).unwrap();
        match stats {
            Response::Stats(s) => {
                assert_eq!(s.session, "main");
                assert_eq!(s.epochs, 0);
                assert_eq!(s.devices, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
