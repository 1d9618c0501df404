//! The wire side: starting `dna serve --listen`, framing artifacts on a
//! TCP stream, and the closed- and open-loop senders.

use crate::inputs::Workload;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before the run counts it as a
/// timeout and gives up.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One TCP connection to the server, with artifact framing: an artifact
/// ends at a line whose trimmed content is exactly `end` (see
/// `crates/io/FORMAT.md`, "Framing on a stream").
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Offset of the first byte not yet scanned for a line end.
    scan: usize,
    chunk: Box<[u8]>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            scan: 0,
            chunk: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    /// Writes a whole artifact (waiting for socket buffer space as needed:
    /// the stream is non-blocking so reads can wait with a precise timeout).
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        let mut rest = text.as_bytes();
        while !rest.is_empty() {
            match (&self.stream).write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Takes one complete artifact off the receive buffer, if there is one.
    fn take_artifact(&mut self) -> Option<String> {
        while let Some(nl) = self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[self.scan..self.scan + nl];
            self.scan += nl + 1;
            if line.trim_ascii() == b"end" {
                let bytes: Vec<u8> = self.buf.drain(..self.scan).collect();
                self.scan = 0;
                return Some(String::from_utf8_lossy(&bytes).into_owned());
            }
        }
        None
    }

    /// The next artifact, or `None` once `deadline` passes without one.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(artifact) = self.take_artifact() {
                return Ok(Some(artifact));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if !wait_readable(&self.stream, deadline - now)? {
                continue;
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one artifact and waits for the next artifact back.
    pub fn request(&mut self, text: &str) -> Result<String, String> {
        self.send(text).map_err(|e| format!("send: {e}"))?;
        self.recv_until(Instant::now() + REPLY_TIMEOUT)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| format!("no reply within {REPLY_TIMEOUT:?}"))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` is readable or `timeout` passes; `Ok(false)` on
/// timeout. `ppoll` sleeps on a high-resolution timer: socket read
/// timeouts round up to the kernel tick (4 ms at 250 Hz), which would
/// bunch an open-loop stream's sends into bursts.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec` on 64-bit
    // Linux; `nfds` is 1, the length of the one-element array `fd`
    // points to; a null `sigmask` leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// The reply line of a `response` artifact (`ok reach`, `error ...`):
/// the first line after the header.
pub fn reply_line(artifact: &str) -> &str {
    artifact.lines().nth(1).unwrap_or("").trim()
}

/// A running `dna serve --listen 127.0.0.1:0`, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Starts a server for `w` over the snapshot file and times its
    /// set-up: from spawning the process to the first successful reply
    /// (a `stats` query, answered once the snapshot is parsed, the
    /// engine is up and the first view is published). Returns the server,
    /// the connection that got the reply, and the set-up time in seconds.
    pub fn start(
        dna: &Path,
        w: &Workload,
        snapshot: &Path,
        work: &Path,
        index: usize,
        stats_query: &str,
    ) -> Result<(Server, Conn, f64), String> {
        let stderr_path = work.join(format!("server-{index}.stderr"));
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let mut cmd = Command::new(dna);
        cmd.arg("serve")
            .arg(format!("{}={}", crate::inputs::SESSION, snapshot.display()))
            .args(["--listen", "127.0.0.1:0", "--quiet"]);
        if let Some(every) = w.checkpoint_every {
            let dir = work.join(format!("checkpoints-{index}"));
            cmd.arg("--checkpoint-dir")
                .arg(&dir)
                .arg("--checkpoint-every")
                .arg(every.to_string());
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(stderr));
        let spawned = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dna.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        server.addr = server.wait_for_listen(&stderr_path, spawned)?;
        let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let reply = conn.request(stats_query)?;
        let setup = spawned.elapsed().as_secs_f64();
        if reply_line(&reply) != "ok stats" {
            return Err(format!("first reply is not ok stats: {reply}"));
        }
        Ok((server, conn, setup))
    }

    /// Polls the server's stderr for the announced TCP address.
    fn wait_for_listen(&mut self, stderr: &PathBuf, spawned: Instant) -> Result<String, String> {
        const MARK: &str = "dna serve: listening on tcp ";
        loop {
            let text = std::fs::read_to_string(stderr).unwrap_or_default();
            if let Some(line) = text.lines().find(|l| l.starts_with(MARK)) {
                return Ok(line[MARK.len()..].trim().to_string());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited during set-up ({status}): {text}"));
            }
            if spawned.elapsed() > REPLY_TIMEOUT {
                return Err(format!("server did not listen within {REPLY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set size of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One sent item: when it was due, sent, and answered (seconds since
/// the stream's start), plus the reply.
pub struct Exchange {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub reply: String,
}

/// Sends `items` closed-loop (each after the previous reply), stopping
/// early once `stop_at` passes. Times are seconds since `t0`.
pub fn closed_loop<'a>(
    conn: &mut Conn,
    items: impl IntoIterator<Item = &'a str>,
    t0: Instant,
    stop_at: Option<Instant>,
) -> Result<Vec<Exchange>, String> {
    let mut out = Vec::new();
    for text in items {
        if stop_at.is_some_and(|s| Instant::now() >= s) {
            break;
        }
        let sent = t0.elapsed().as_secs_f64();
        let reply = conn.request(text)?;
        let done = t0.elapsed().as_secs_f64();
        out.push(Exchange {
            due: sent,
            sent,
            done,
            reply,
        });
    }
    Ok(out)
}

/// Sends `items` open-loop: item `i` is due at `t0 + i / rate` and goes
/// out then, or at once if the sender is already late; replies are read
/// in between. `keep` decides per reply whether its bytes are kept
/// (`false` stores an empty string). Times are seconds since `t0`.
pub fn open_loop(
    conn: &mut Conn,
    items: &[&str],
    rate: f64,
    t0: Instant,
    mut keep: impl FnMut(usize, &str) -> bool,
) -> Result<Vec<Exchange>, String> {
    let n = items.len();
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut sent_at: Vec<f64> = Vec::with_capacity(n);
    let mut out: Vec<Exchange> = Vec::with_capacity(n);
    while out.len() < n {
        let now = Instant::now();
        let next = sent_at.len();
        if next < n && now >= due(next) {
            conn.send(items[next])
                .map_err(|e| format!("send item {next}: {e}"))?;
            sent_at.push(t0.elapsed().as_secs_f64());
            continue;
        }
        let deadline = if next < n {
            due(next)
        } else {
            now + REPLY_TIMEOUT
        };
        match conn
            .recv_until(deadline)
            .map_err(|e| format!("receive reply {}: {e}", out.len()))?
        {
            Some(reply) => {
                let i = out.len();
                let done = t0.elapsed().as_secs_f64();
                let reply = if keep(i, &reply) {
                    reply
                } else {
                    String::new()
                };
                out.push(Exchange {
                    due: i as f64 / rate,
                    sent: sent_at[i],
                    done,
                    reply,
                });
            }
            None if next >= n => {
                return Err(format!(
                    "reply {} of {n} missing after {REPLY_TIMEOUT:?}",
                    out.len()
                ))
            }
            None => {}
        }
    }
    Ok(out)
}

/// Reads pushed artifacts until `stop` has been set for `quiet` and no
/// push came in that time (or `cap` passed since `stop`). Returns each
/// artifact with its arrival time in seconds since `t0`.
pub fn read_pushes(
    conn: &mut Conn,
    t0: Instant,
    stop: &std::sync::atomic::AtomicBool,
    quiet: Duration,
    cap: Duration,
) -> Result<Vec<(f64, String)>, String> {
    let mut out = Vec::new();
    let mut last = Instant::now();
    let mut stopped_at: Option<Instant> = None;
    loop {
        let tick = Instant::now() + Duration::from_millis(20);
        match conn
            .recv_until(tick)
            .map_err(|e| format!("receive push: {e}"))?
        {
            Some(artifact) => {
                last = Instant::now();
                out.push((t0.elapsed().as_secs_f64(), artifact));
            }
            None => {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let since = *stopped_at.get_or_insert_with(Instant::now);
                    let quiet_since_stop = since.elapsed() >= quiet && last.elapsed() >= quiet;
                    if quiet_since_stop || since.elapsed() >= cap {
                        return Ok(out);
                    }
                }
            }
        }
    }
}
