//! Binary-level service test: the real `dna` executable serving a
//! snapshot over a unix socket — trace ingest on stdin, concurrent
//! `dna query --socket` clients — exercising the full
//! process/transport/protocol stack the CI smoke also drives.

#![cfg(unix)]

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DNA: &str = env!("CARGO_BIN_EXE_dna");

fn dna(args: &[&str]) -> std::process::Output {
    Command::new(DNA)
        .args(args)
        .output()
        .expect("dna binary runs")
}

fn dna_ok(args: &[&str]) -> String {
    let out = dna(args);
    assert!(
        out.status.success(),
        "dna {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Polls a serving socket until its (default-session) stats report `n`
/// ingested epochs; panics after 30s. Tolerates the socket not having
/// appeared yet — the common startup race for every smoke below.
fn wait_epochs(sock: &std::path::Path, n: u32) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if sock.exists() {
            let out = dna(&["query", "--socket", sock.to_str().unwrap(), "stats"]);
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            if text.contains(&format!("epochs {n} ")) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "never reached epochs {n}: {text}"
            );
        } else {
            assert!(Instant::now() < deadline, "socket never appeared");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_over_unix_socket_end_to_end() {
    let dir = std::env::temp_dir().join(format!("dna-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("ft4.snap.dna");
    let trace = dir.join("ft4.trace.dna");
    let sock = dir.join("dna.sock");
    let sock_s = sock.to_str().unwrap();
    dna_ok(&[
        "dump",
        "--topo",
        "fat-tree",
        "--k",
        "4",
        "--routing",
        "ebgp",
        "--seed",
        "77",
        "--out",
        snap.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--epochs",
        "6",
        "--scenarios",
        "link-failure,link-recovery",
    ]);
    // Server: session from the snapshot, trace ingest on stdin, socket
    // for queries. Stdin stays open so ingest ordering is ours to pick.
    let mut server = Command::new(DNA)
        .args([
            "serve",
            snap.to_str().unwrap(),
            "--socket",
            sock_s,
            "--quiet",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let result = std::panic::catch_unwind(|| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "socket never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Before ingest: zero epochs.
        let out = dna_ok(&["query", "--socket", sock_s, "stats"]);
        assert!(out.contains("epochs 0"), "pre-ingest stats: {out}");
        // A query for a missing session is an error response, exit 2.
        let missing = dna(&["query", "--socket", sock_s, "--session", "nope", "stats"]);
        assert_eq!(missing.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&missing.stdout).contains("error"));
        out
    });
    if let Err(e) = result {
        let _ = server.kill();
        std::panic::resume_unwind(e);
    }
    // Ingest the trace through stdin, then close it; the server must
    // keep serving socket clients afterwards.
    {
        let mut stdin = server.stdin.take().expect("piped stdin");
        stdin
            .write_all(&std::fs::read(&trace).unwrap())
            .expect("trace written");
    }
    let result = std::panic::catch_unwind(|| {
        // Ingest is asynchronous to this client; poll until visible.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let out = dna_ok(&["query", "--socket", sock_s, "stats"]);
            if out.contains("epochs 6") {
                break;
            }
            assert!(Instant::now() < deadline, "ingest never surfaced: {out}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let reach = dna_ok(&[
            "query",
            "--socket",
            sock_s,
            "reach-pair",
            "edge0_0",
            "edge1_1",
        ]);
        assert!(reach.contains("ok reach"), "reach: {reach}");
        let blast = dna_ok(&["query", "--socket", sock_s, "blast", "6"]);
        assert!(blast.contains("ok blast"), "blast: {blast}");
        assert!(blast.contains("window 6"), "blast: {blast}");
        let report = dna_ok(&["query", "--socket", sock_s, "report", "0", "2"]);
        assert!(report.contains("ok report"), "report: {report}");
        assert!(report.contains("epoch 0 label"), "report: {report}");
    });
    let _ = server.kill();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// `--follow` survives rotation of the tailed file: after ingesting
/// the first half of a trace from a file that never received its `end`
/// sentinel, the file is atomically replaced (rename — new inode) by a
/// fresh trace artifact carrying the remaining epochs. The follower
/// must detect the rotation, re-frame from the new file's first byte,
/// and ingest the rest — the binary-level twin of the
/// `TraceTail::rotate` tests in dna-io.
#[test]
fn follow_survives_rotation_of_the_tailed_file() {
    let dir = std::env::temp_dir().join(format!("dna-rotate-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("ft4.snap.dna");
    let trace = dir.join("ft4.trace.dna");
    dna_ok(&[
        "dump",
        "--topo",
        "fat-tree",
        "--k",
        "4",
        "--routing",
        "ebgp",
        "--seed",
        "55",
        "--out",
        snap.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--epochs",
        "6",
        "--scenarios",
        "link-failure,link-recovery",
    ]);
    // Generation 1 of the followed file holds the header and three
    // epoch blocks with no end sentinel — so only the first two ship
    // (the third never reaches its closing boundary and is discarded
    // with the rotation, exactly like a half-written log line).
    // Generation 2 is a complete fresh artifact re-carrying that
    // never-shipped epoch plus the remaining ones.
    let full = std::fs::read_to_string(&trace).unwrap();
    let header = full.lines().next().unwrap();
    let epoch_starts: Vec<usize> = full.match_indices("\nepoch").map(|(i, _)| i + 1).collect();
    assert_eq!(epoch_starts.len(), 6, "trace must have 6 epochs");
    let gen1 = full[..epoch_starts[3]].to_string();
    let gen2 = format!("{header}\n{}", &full[epoch_starts[2]..]);
    let follow = dir.join("live.trace.dna");
    std::fs::write(&follow, gen1).unwrap();
    let sock = dir.join("dna.sock");
    let sock_s = sock.to_str().unwrap().to_string();
    let mut server = Command::new(DNA)
        .args([
            "serve",
            snap.to_str().unwrap(),
            "--socket",
            &sock_s,
            "--follow",
            follow.to_str().unwrap(),
            "--quiet",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let result = std::panic::catch_unwind(|| {
        wait_epochs(&sock, 2);
        // Rotate: a complete replacement artifact lands via rename
        // (new inode), the way logrotate and atomic writers do it.
        let tmp = dir.join(".live.trace.dna.new");
        std::fs::write(&tmp, gen2).unwrap();
        std::fs::rename(&tmp, &follow).unwrap();
        wait_epochs(&sock, 6);
        let reach = dna_ok(&[
            "query",
            "--socket",
            &sock_s,
            "reach-pair",
            "edge0_0",
            "edge1_1",
        ]);
        assert!(reach.contains("ok reach"), "reach after rotation: {reach}");
    });
    let _ = server.kill();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// Binary-level crash-resume: a server with `--checkpoint-dir` takes
/// an on-demand checkpoint mid-trace, dies by SIGKILL, and a fresh
/// `dna serve --resume` process answers queries byte-identically to a
/// server that never crashed (the in-process form is
/// `tests/checkpoint.rs`; CI drives this same flow as a smoke job).
/// The offline tools agree along the way: `dna check` validates the
/// checkpoint and `dna checkpoint inspect` reads it.
#[test]
fn crash_resume_over_socket_answers_byte_identically() {
    let dir = std::env::temp_dir().join(format!("dna-crash-test-{}", std::process::id()));
    let ckdir = dir.join("ckpts");
    std::fs::create_dir_all(&ckdir).unwrap();
    let snap = dir.join("ft4.snap.dna");
    let trace = dir.join("ft4.trace.dna");
    dna_ok(&[
        "dump",
        "--topo",
        "fat-tree",
        "--k",
        "4",
        "--routing",
        "ebgp",
        "--seed",
        "66",
        "--out",
        snap.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--epochs",
        "6",
        "--scenarios",
        "link-failure,link-recovery",
    ]);
    let queries: &[&[&str]] = &[
        &["reach-pair", "edge0_0", "edge1_1"],
        &["blast", "6"],
        &["report", "0", "6"],
    ];
    let run_queries = |sock: &str| -> Vec<String> {
        queries
            .iter()
            .map(|q| {
                let mut args = vec!["query", "--socket", sock];
                args.extend_from_slice(q);
                dna_ok(&args)
            })
            .collect()
    };
    // Split the trace into two complete artifacts at epoch 3.
    let full = std::fs::read_to_string(&trace).unwrap();
    let header = full.lines().next().unwrap();
    let epoch_starts: Vec<usize> = full.match_indices("\nepoch").map(|(i, _)| i + 1).collect();
    let cut = epoch_starts[3];
    let half1 = format!("{}end\n", &full[..cut]);
    let half2 = format!("{header}\n{}", &full[cut..]);
    // Reference: a server that never crashes, fed the whole trace.
    let sock_ref = dir.join("ref.sock");
    let mut reference = Command::new(DNA)
        .args([
            "serve",
            snap.to_str().unwrap(),
            "--socket",
            sock_ref.to_str().unwrap(),
            "--quiet",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("reference server starts");
    {
        let mut stdin = reference.stdin.take().expect("piped stdin");
        stdin.write_all(full.as_bytes()).expect("trace written");
    }
    let result = std::panic::catch_unwind(|| {
        wait_epochs(&sock_ref, 6);
        let expected = run_queries(sock_ref.to_str().unwrap());

        // Life 1: ingest half, checkpoint on demand, die by SIGKILL.
        let sock1 = dir.join("one.sock");
        let mut life1 = Command::new(DNA)
            .args([
                "serve",
                snap.to_str().unwrap(),
                "--socket",
                sock1.to_str().unwrap(),
                "--checkpoint-dir",
                ckdir.to_str().unwrap(),
                "--quiet",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("first life starts");
        {
            let mut stdin = life1.stdin.take().expect("piped stdin");
            stdin.write_all(half1.as_bytes()).expect("half written");
        }
        wait_epochs(&sock1, 3);
        let ck = dna_ok(&["query", "--socket", sock1.to_str().unwrap(), "checkpoint"]);
        assert!(ck.contains("ok checkpointed"), "checkpoint query: {ck}");
        life1.kill().expect("SIGKILL delivered"); // kill -9
        let _ = life1.wait();

        // The surviving artifact is inspectable and valid.
        let ckpt_file = ckdir.join("ft4.ckpt.dna");
        assert!(ckpt_file.exists(), "checkpoint file written");
        let inspect = dna_ok(&["checkpoint", "inspect", ckpt_file.to_str().unwrap()]);
        assert!(inspect.contains("epochs applied: 3"), "{inspect}");
        let check = dna_ok(&["check", ckpt_file.to_str().unwrap()]);
        assert!(check.contains("ok (checkpoint of session"), "{check}");

        // Life 2: resume, ingest the rest, answer like nothing happened.
        let sock2 = dir.join("two.sock");
        let mut life2 = Command::new(DNA)
            .args([
                "serve",
                "--resume",
                "--checkpoint-dir",
                ckdir.to_str().unwrap(),
                "--socket",
                sock2.to_str().unwrap(),
                "--quiet",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("second life starts");
        {
            let mut stdin = life2.stdin.take().expect("piped stdin");
            stdin.write_all(half2.as_bytes()).expect("rest written");
        }
        let inner = std::panic::catch_unwind(|| {
            wait_epochs(&sock2, 6);
            let resumed = run_queries(sock2.to_str().unwrap());
            assert_eq!(
                resumed, expected,
                "resumed responses diverged from the never-crashed server"
            );
        });
        let _ = life2.kill();
        let _ = life2.wait();
        if let Err(e) = inner {
            std::panic::resume_unwind(e);
        }
    });
    let _ = reference.kill();
    let _ = reference.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// The announce-line contract, pinned at the binary level: even under
/// `--quiet`, a server bound to an ephemeral TCP port prints exactly
/// one `dna serve: listening on tcp <addr>` line to stderr — with port
/// 0 that line is the only way a client learns the port, so it must
/// outrank the quiet flag. The discovered port is then put to work:
/// `dna query --connect` scrapes live `metrics` (and its spans twin)
/// and re-renders the scrape as Prometheus exposition text.
#[test]
fn quiet_server_still_announces_its_tcp_port() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("dna-announce-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("ft4.snap.dna");
    let trace = dir.join("ft4.trace.dna");
    dna_ok(&[
        "dump",
        "--topo",
        "fat-tree",
        "--k",
        "4",
        "--routing",
        "ebgp",
        "--seed",
        "88",
        "--out",
        snap.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--epochs",
        "4",
        "--scenarios",
        "link-failure,link-recovery",
    ]);
    let mut server = Command::new(DNA)
        .args([
            "serve",
            snap.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--quiet",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = std::io::BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut announce = String::new();
    stderr
        .read_line(&mut announce)
        .expect("announce line arrives");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let addr = announce
            .strip_prefix("dna serve: listening on tcp ")
            .unwrap_or_else(|| panic!("announce contract broken: {announce:?}"))
            .trim()
            .to_string();

        // Ingest the trace, then scrape telemetry over the announced port.
        {
            let mut stdin = server.stdin.take().expect("piped stdin");
            stdin
                .write_all(&std::fs::read(&trace).unwrap())
                .expect("trace written");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let out = dna_ok(&["query", "--connect", &addr, "metrics"]);
            assert!(out.starts_with("dna-io v1 metrics"), "not a scrape: {out}");
            if out.contains("counter \"epochs_applied\" session \"ft4\" 4") {
                break;
            }
            assert!(Instant::now() < deadline, "ingest never surfaced: {out}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let spans = dna_ok(&["query", "--connect", &addr, "trace", "2"]);
        assert!(spans.starts_with("dna-io v1 spans"), "not a dump: {spans}");
        assert_eq!(
            spans.matches("\n  span ").count(),
            2,
            "trace 2 must return exactly two rows: {spans}"
        );
        let prom = dna_ok(&["query", "--connect", &addr, "metrics", "--prometheus"]);
        assert!(
            prom.contains("# TYPE dna_epochs_applied counter"),
            "prometheus rendering: {prom}"
        );
        assert!(
            prom.contains("dna_epochs_applied{session=\"ft4\"} 4"),
            "prometheus rendering: {prom}"
        );
        assert!(
            prom.contains("dna_epoch_apply_seconds_bucket{session=\"ft4\",le=\"+Inf\"} 4"),
            "prometheus histogram rendering: {prom}"
        );
        // The health plane over the same port: the server and the
        // (quiesced) session both classify ok.
        let health = dna_ok(&["query", "--connect", &addr, "health"]);
        assert!(
            health.starts_with("dna-io v1 health"),
            "not health: {health}"
        );
        assert!(health.contains("server ok"), "health: {health}");
        assert!(health.contains("session \"ft4\" ok"), "health: {health}");
        // One-shot `dna top` parses whatever the history ring holds —
        // possibly nothing this early — and always exits 0 with the
        // table header.
        let top = dna_ok(&["top", "--connect", &addr]);
        assert!(top.contains("SESSION"), "top header missing: {top}");
    }));
    let _ = server.kill();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// The kill switch honors the contract from the other side: a server
/// started with `DNA_OBS_DISABLED=1` answers every telemetry query
/// over TCP with a grammatically valid **empty** artifact — never an
/// error — and the query plane proper (reach etc.) is untouched.
/// Health still reports `server ok`: no data is not a fault.
#[test]
fn disabled_telemetry_answers_empty_artifacts_over_tcp() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("dna-disabled-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("ft4.snap.dna");
    let trace = dir.join("ft4.trace.dna");
    dna_ok(&[
        "dump",
        "--topo",
        "fat-tree",
        "--k",
        "4",
        "--routing",
        "ebgp",
        "--seed",
        "99",
        "--out",
        snap.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--epochs",
        "4",
        "--scenarios",
        "link-failure,link-recovery",
    ]);
    let mut server = Command::new(DNA)
        .args([
            "serve",
            snap.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--quiet",
        ])
        .env("DNA_OBS_DISABLED", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stderr = std::io::BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut announce = String::new();
    stderr
        .read_line(&mut announce)
        .expect("announce line arrives");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let addr = announce
            .strip_prefix("dna serve: listening on tcp ")
            .unwrap_or_else(|| panic!("announce contract broken: {announce:?}"))
            .trim()
            .to_string();
        {
            let mut stdin = server.stdin.take().expect("piped stdin");
            stdin
                .write_all(&std::fs::read(&trace).unwrap())
                .expect("trace written");
        }
        // The query plane proper works; poll it to know ingest landed.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let out = dna_ok(&["query", "--connect", &addr, "stats"]);
            if out.contains("epochs 4") {
                break;
            }
            assert!(Instant::now() < deadline, "ingest never surfaced: {out}");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Every telemetry kind: a valid artifact with nothing recorded
        // in it, exit 0. The registry keeps its series (scrapes stay
        // shape-stable) but every value is pinned at zero; the span and
        // history rings drop everything.
        let metrics = dna_ok(&["query", "--connect", &addr, "metrics"]);
        assert!(metrics.starts_with("dna-io v1 metrics"), "{metrics}");
        assert!(
            metrics.contains("counter \"epochs_applied\" session \"ft4\" 0"),
            "disabled counters must scrape as zero: {metrics}"
        );
        for line in metrics.lines() {
            let t = line.trim_start();
            if t.starts_with("counter ") || t.starts_with("gauge ") {
                assert!(t.ends_with(" 0"), "recorded under kill switch: {line}");
            }
        }
        let spans = dna_ok(&["query", "--connect", &addr, "trace"]);
        assert_eq!(spans, "dna-io v1 spans\nend\n", "not empty: {spans}");
        let history = dna_ok(&["query", "--connect", &addr, "history"]);
        assert_eq!(history, "dna-io v1 history\nend\n", "not empty: {history}");
        // Zeroed gauges classify as idle, never as a fault: server ok,
        // session ok.
        let health = dna_ok(&["query", "--connect", &addr, "health"]);
        assert!(health.starts_with("dna-io v1 health"), "{health}");
        assert!(health.contains("server ok"), "{health}");
        assert!(health.contains("session \"ft4\" ok"), "{health}");
        // The pinned query plane is byte-stable with telemetry off.
        let reach = dna_ok(&[
            "query",
            "--connect",
            &addr,
            "reach-pair",
            "edge0_0",
            "edge1_1",
        ]);
        assert!(reach.contains("ok reach"), "reach: {reach}");
    }));
    let _ = server.kill();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// Two sessions, two growing trace files, one server: `--follow`
/// tails both files into their named sessions (each on its own engine
/// thread) while socket clients query both — the binary-level form of
/// the concurrent multi-session ingest test.
#[test]
fn follow_ingests_two_growing_traces_concurrently() {
    let dir = std::env::temp_dir().join(format!("dna-follow-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mk = |name: &str, routing: &str, seed: &str| {
        let snap = dir.join(format!("{name}.snap.dna"));
        let trace = dir.join(format!("{name}.trace.dna"));
        dna_ok(&[
            "dump",
            "--topo",
            "fat-tree",
            "--k",
            "4",
            "--routing",
            routing,
            "--seed",
            seed,
            "--out",
            snap.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--epochs",
            "6",
            "--scenarios",
            "link-failure,link-recovery",
        ]);
        (snap, trace)
    };
    let (snap_a, trace_a) = mk("a", "ebgp", "91");
    let (snap_b, trace_b) = mk("b", "ospf", "92");
    // The follow files start with just the artifact header; epochs and
    // the end sentinel arrive while the server is live.
    let follow_a = dir.join("a.follow.dna");
    let follow_b = dir.join("b.follow.dna");
    let full_a = std::fs::read_to_string(&trace_a).unwrap();
    let full_b = std::fs::read_to_string(&trace_b).unwrap();
    let split = |full: &str| {
        let head_len = full.find('\n').unwrap() + 1;
        (full[..head_len].to_string(), full[head_len..].to_string())
    };
    let (head_a, rest_a) = split(&full_a);
    let (head_b, rest_b) = split(&full_b);
    std::fs::write(&follow_a, head_a).unwrap();
    std::fs::write(&follow_b, head_b).unwrap();
    let sock = dir.join("dna.sock");
    let sock_s = sock.to_str().unwrap().to_string();
    let mut server = Command::new(DNA)
        .args([
            "serve",
            &format!("a={}", snap_a.to_str().unwrap()),
            &format!("b={}", snap_b.to_str().unwrap()),
            "--socket",
            &sock_s,
            "--follow",
            &format!("a={}", follow_a.to_str().unwrap()),
            "--follow",
            &format!("b={}", follow_b.to_str().unwrap()),
            "--shards",
            "2",
            "--quiet",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let result = std::panic::catch_unwind(|| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sock.exists() {
            assert!(Instant::now() < deadline, "socket never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Grow both trace files to completion while the server is live.
        use std::fs::OpenOptions;
        for (path, rest) in [(&follow_a, &rest_a), (&follow_b, &rest_b)] {
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(rest.as_bytes()).unwrap();
        }
        // Both sessions must absorb their own trace — and only theirs.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let a = dna_ok(&["query", "--socket", &sock_s, "--session", "a", "stats"]);
            let b = dna_ok(&["query", "--socket", &sock_s, "--session", "b", "stats"]);
            if a.contains("epochs 6") && b.contains("epochs 6") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "follow ingest never surfaced:\n{a}\n{b}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let sessions = dna_ok(&["query", "--socket", &sock_s, "sessions"]);
        assert!(sessions.contains("session \"a\" epochs 6"), "{sessions}");
        assert!(sessions.contains("session \"b\" epochs 6"), "{sessions}");
    });
    let _ = server.kill();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// Pipe mode runs through the same router as every other transport, so
/// the panic fence and `DNA_SERVE_FAULT_LABEL` cover it too: a
/// fault-injected epoch fences the session, `sessions` and `health`
/// report it `failed` while the server stays `ok`, and the process
/// still exits cleanly at end of input.
#[test]
fn pipe_mode_fences_a_panicked_session() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let input = format!(
        "{}{}{}",
        std::fs::read_to_string(format!("{corpus}/ft4_failures.trace.dna")).expect("corpus trace"),
        dna_ok(&["query", "sessions"]),
        dna_ok(&["query", "health"]),
    );
    let mut server = Command::new(DNA)
        .args([
            "serve",
            &format!("s={corpus}/ft4_failures.snap.dna"),
            "--quiet",
        ])
        .env("DNA_SERVE_FAULT_LABEL", "link-failure")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    server
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("input written");
    let out = server.wait_with_output().expect("server exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "fenced session must not fail the server"
    );
    let mut replies = std::io::Cursor::new(out.stdout);
    let mut next = || {
        dna_serve::read_artifact(&mut replies)
            .expect("framed")
            .expect("one reply per artifact")
    };
    match dna_io::parse_response(&next()).expect("ingest reply parses") {
        dna_io::Response::Error(msg) => {
            assert!(msg.contains("session \"s\" failed"), "{msg}")
        }
        other => panic!("the fault must fence the ingest, got {other:?}"),
    }
    match dna_io::parse_response(&next()).expect("sessions reply parses") {
        dna_io::Response::Sessions(list) => {
            let flags: Vec<_> = list.iter().map(|s| (s.name.as_str(), s.failed)).collect();
            assert_eq!(flags, [("s", true)]);
        }
        other => panic!("expected sessions, got {other:?}"),
    }
    let health = dna_io::parse_health(&next()).expect("health reply parses");
    assert_eq!(health.server, dna_io::HealthStatus::Ok);
    let row = health
        .sessions
        .iter()
        .find(|s| s.name == "s")
        .expect("fenced session listed");
    assert_eq!(
        (row.status, row.reason.as_deref()),
        (dna_io::HealthStatus::Failed, Some("panic"))
    );
}
