//! Integration tests for the production-scale serving tier (ISSUE 7):
//! the connection-registry leak regression, per-client admission
//! control over real sockets, the `--max-clients` accept gate, the
//! LRU hot tier under live traffic, and a small end-to-end
//! `pacq loadgen` run through the CLI front end (global `--cache`,
//! `--hot` and `--metrics` included).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pacq::{GemmRunner, ReportCache, ServeOptions, Server};
use pacq_trace::Json;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pacq-serve-load-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Polls `cond` for up to two seconds; connection teardown runs on its
/// own thread after the socket drops, so the registry empties *soon*,
/// not synchronously.
fn eventually(cond: impl Fn() -> bool) -> bool {
    for _ in 0..200 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// A minimal NDJSON client (same shape as the conformance suite's).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect to serve");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send frame");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply must be a full line: {line:?}");
        Json::parse(line.trim_end()).expect("reply parses")
    }

    fn roundtrip(&mut self, frame: &str) -> Json {
        self.send(frame);
        self.recv()
    }
}

/// PR 7 leak regression: the drain registry must return to empty after
/// every disconnect, sequential or overlapping — before the fix it
/// grew one stale socket clone per connection for the life of the
/// server.
#[test]
fn connection_registry_returns_to_zero_after_disconnects() {
    let server =
        Server::bind("127.0.0.1:0", ServeOptions::default(), GemmRunner::new()).expect("bind");

    for round in 0..8 {
        let mut client = Client::connect(&server);
        let pong = client.roundtrip(&format!("{{\"op\":\"ping\",\"id\":{round}}}"));
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        assert_eq!(server.live_connections(), 1, "round {round}");
        drop(client);
        assert!(
            eventually(|| server.live_connections() == 0),
            "round {round}: registry kept {} stale connections",
            server.live_connections()
        );
    }

    // Overlapping connections unregister independently.
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(&server)).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.roundtrip(&format!("{{\"op\":\"ping\",\"id\":{i}}}"));
    }
    assert_eq!(server.live_connections(), 3);
    clients.clear();
    assert!(eventually(|| server.live_connections() == 0));

    server.shutdown();
    let summary = server.wait().expect("drain");
    assert_eq!(summary.errors, 0, "{summary:?}");
}

/// Admission control over a real socket: a client bursting past its
/// token bucket gets typed `rate_limited` frames (class 8) and still
/// gets exactly one reply per request — throttled, never dropped.
#[test]
fn rate_limited_clients_get_typed_frames_over_tcp() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            rate: 1,
            burst: 2,
            ..ServeOptions::default()
        },
        GemmRunner::new(),
    )
    .expect("bind");

    const BURST: usize = 10;
    let mut client = Client::connect(&server);
    for id in 0..BURST {
        client.send(&format!(
            "{{\"op\":\"analyze\",\"id\":{id},\"shape\":\"m16n256k256\"}}"
        ));
    }
    let mut ok = 0usize;
    let mut limited = 0usize;
    for _ in 0..BURST {
        let reply = client.recv();
        if reply.get("ok") == Some(&Json::Bool(true)) {
            ok += 1;
        } else {
            let error = reply.get("error").expect("typed error frame");
            assert_eq!(
                error.get("class").and_then(Json::as_str),
                Some("rate_limited"),
                "{reply:?}"
            );
            assert_eq!(error.get("exit_code").and_then(Json::as_num), Some(8.0));
            limited += 1;
        }
    }
    assert_eq!(ok + limited, BURST, "zero-lost: every request answered");
    assert!(ok >= 2, "the opening burst allowance must be admitted");
    assert!(
        limited >= 5,
        "a 10-deep instant burst at rate 1/s must throttle"
    );

    // A fresh connection gets its own full bucket.
    let mut fresh = Client::connect(&server);
    let reply = fresh.roundtrip("{\"op\":\"analyze\",\"id\":99,\"shape\":\"m16n256k256\"}");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");

    drop(client);
    drop(fresh);
    server.shutdown();
    let summary = server.wait().expect("drain");
    assert_eq!(summary.rate_limited, limited as u64, "{summary:?}");
}

/// The `--max-clients` accept gate: connection N+1 is answered with one
/// explanatory protocol frame and closed; the slot frees when a client
/// leaves.
#[test]
fn max_clients_gate_rejects_and_recovers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            max_clients: 1,
            ..ServeOptions::default()
        },
        GemmRunner::new(),
    )
    .expect("bind");

    let mut first = Client::connect(&server);
    // The roundtrip guarantees the acceptor has counted this client in.
    first.roundtrip("{\"op\":\"ping\",\"id\":1}");

    let mut second = Client::connect(&server);
    let rejection = second.recv();
    assert_eq!(
        rejection.get("ok"),
        Some(&Json::Bool(false)),
        "{rejection:?}"
    );
    let message = rejection
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("rejection message");
    assert!(message.contains("--max-clients"), "{message}");
    // ... and then the socket closes (EOF, not a hang).
    let mut rest = String::new();
    assert_eq!(second.reader.read_line(&mut rest).expect("eof"), 0);

    // Freeing the only slot lets the next client in. The acceptor may
    // still be rejecting for a beat after `first` drops, so retries
    // tolerate (and count as "not yet") a rejected attempt.
    drop(first);
    assert!(eventually(|| {
        let Ok(stream) = TcpStream::connect(server.addr()) else {
            return false;
        };
        let Ok(read_half) = stream.try_clone() else {
            return false;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        if writer.write_all(b"{\"op\":\"ping\",\"id\":2}\n").is_err() {
            return false;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => Json::parse(line.trim_end())
                .ok()
                .is_some_and(|j| j.get("pong") == Some(&Json::Bool(true))),
            _ => false,
        }
    }));

    server.shutdown();
    let summary = server.wait().expect("drain");
    assert!(summary.rejected_conns >= 1, "{summary:?}");
}

/// The LRU hot tier under live traffic: a repeated working set smaller
/// than the tier is answered from memory on the second pass (disk hit
/// counters stay flat), byte-identically to the first pass.
#[test]
fn hot_tier_serves_repeats_from_memory_bit_identically() {
    let dir = scratch_dir("hot");
    let cache = Arc::new(
        ReportCache::open(&dir)
            .expect("open cache")
            .with_hot_tier(32),
    );
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
        GemmRunner::new().with_cache(Arc::clone(&cache)),
    )
    .expect("bind");

    const POINTS: usize = 8;
    let frame = |id: usize| {
        format!(
            "{{\"op\":\"analyze\",\"id\":{id},\"shape\":\"m{}n256k256\"}}",
            16 * ((id % POINTS) + 1)
        )
    };
    let mut client = Client::connect(&server);
    let cold: Vec<String> = (0..POINTS)
        .map(|id| client.roundtrip(&frame(id)).render_line())
        .collect();
    let disk_hits_after_cold = cache.hits();
    let warm: Vec<String> = (0..POINTS)
        .map(|id| client.roundtrip(&frame(id)).render_line())
        .collect();

    for (id, (c, w)) in cold.iter().zip(&warm).enumerate() {
        // Replies echo the same id both passes, so whole frames match.
        assert_eq!(c, w, "point {id}: warm reply drifted");
    }
    assert!(
        cache.hot_hits() >= POINTS as u64,
        "warm pass must be answered from the hot tier ({:?})",
        cache
    );
    assert_eq!(
        cache.hits(),
        disk_hits_after_cold,
        "the hot tier must intercept repeats before the disk store"
    );
    assert_eq!(cache.hot_evictions(), 0, "working set fits the tier");

    drop(client);
    server.shutdown();
    server.wait().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end `pacq loadgen` through the CLI front end: global
/// `--cache`/`--hot`/`--metrics` compose with `--spawn`, nothing is
/// lost, sampled replies are byte-identical, and the manifest carries
/// the latency record.
#[test]
fn loadgen_cli_run_records_latency_provenance() {
    let dir = scratch_dir("loadgen");
    let manifest = dir.join("loadgen-manifest.json");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache_dir = dir.join("store");
    let args: Vec<String> = [
        "loadgen",
        "--spawn",
        "--requests",
        "300",
        "--clients",
        "3",
        "--window",
        "8",
        "--unique",
        "12",
        "--sample",
        "6",
        "--cache",
        cache_dir.to_str().expect("utf8 path"),
        "--hot",
        "32",
        "--metrics",
        manifest.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let out = pacq::cli::run(&args).expect("loadgen run");
    assert!(out.contains("300 ok, 0 errors, 0 lost"), "{out}");
    assert!(out.contains("6 sampled reports byte-identical"), "{out}");

    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    for needle in [
        "loadgen.requests",
        "loadgen.lost",
        "loadgen.p95_us",
        "latency_histogram_log2",
        "throughput_rps",
        "sampled_identical",
    ] {
        assert!(text.contains(needle), "manifest lacks {needle}:\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pacq loadgen --spawn --arch-template T`: the spawned server and the
/// in-process byte check share the template's base runner (behind a
/// cache, which the check bypasses), so every sampled report matches.
#[test]
fn loadgen_spawns_a_templated_server_and_samples_identical_reports() {
    let dir = scratch_dir("loadgen-template");
    let template = format!(
        "{}/../../examples/arch/input_stationary.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let args: Vec<String> = [
        "loadgen",
        "--spawn",
        "--arch-template",
        &template,
        "--requests",
        "200",
        "--clients",
        "2",
        "--unique",
        "8",
        "--sample",
        "8",
        "--cache",
        dir.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let out = pacq::cli::run(&args).expect("templated loadgen run");
    assert!(out.contains("200 ok, 0 errors, 0 lost"), "{out}");
    assert!(out.contains("8 sampled reports byte-identical"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
