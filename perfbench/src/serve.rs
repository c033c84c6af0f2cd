//! The serve phase: a closed-loop client over loopback against a
//! spawned `pacq serve`, with the served reports checked against the
//! in-process runner afterwards.

use crate::stats::{self, FirstSeen, Goodput, Occurrence, Reply};
use crate::trace::Tracer;
use crate::util::{self, Rng, ARCHS, PRECISIONS};
use pacq::llama::Model;
use pacq::{Architecture, GemmRunner, GemmShape, GroupShape, SmConfig, WeightPrecision, Workload};
use pacq_trace::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hot-tier entries of the served configuration (the README's example).
const HOT_ENTRIES: &str = "1024";
/// Pings a traced run sends for the transport floor.
const PINGS: usize = 20;
/// Shortest goodput phase.
const GOODPUT_MIN: Duration = Duration::from_secs(3);
/// Requests in the window-1 latency phase.
const LATENCY_REQUESTS: usize = 120;
/// Pipeline window per connection in the goodput phase.
pub const WINDOW: usize = 8;
/// Fixes which point holds which popularity rank, so every seed sees
/// the same popularity and differs only in the draws.
const POPULARITY_SEED: u64 = 0x5EED;
/// Zipf exponent of the request stream.
const ZIPF_S: f64 = 1.1;
/// How long a client waits for any one reply before counting the
/// outstanding requests as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A `pacq serve` child process: the benchmark binary re-executed in
/// its `serve-child` mode, which runs the `pacq` command line.
pub struct ServerProc {
    child: Option<Child>,
    /// Held open so the server's exit summary has somewhere to go.
    _stdout: Option<BufReader<ChildStdout>>,
    addr: SocketAddr,
    cache_dir: PathBuf,
}

impl ServerProc {
    /// Spawns `pacq serve --port 0 --jobs <jobs> --cache <dir> --hot N`
    /// on a fresh empty cache directory and waits for its ready frame.
    pub fn spawn(cache_dir: &Path, jobs: usize) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        std::fs::create_dir_all(cache_dir).map_err(|e| format!("cache dir: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .args([
                "--port",
                "0",
                "--jobs",
                &jobs.to_string(),
                "--hot",
                HOT_ENTRIES,
            ])
            .arg("--cache")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdout = child.stdout.take();
        // From here on a failure drops `proc`, which reaps the child.
        let mut proc = ServerProc {
            child: Some(child),
            _stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            cache_dir: cache_dir.to_path_buf(),
        };
        let mut stdout = BufReader::new(stdout.ok_or("server stdout")?);
        let mut ready = String::new();
        stdout
            .read_line(&mut ready)
            .map_err(|e| format!("reading the ready frame: {e}"))?;
        let doc = Json::parse(ready.trim()).map_err(|e| format!("ready frame `{ready}`: {e}"))?;
        proc.addr = doc
            .get("addr")
            .and_then(Json::as_str)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("ready frame without an address: `{ready}`"))?;
        proc._stdout = Some(stdout);
        Ok(proc)
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's peak resident set so far.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        util::peak_rss_mib(&pid.to_string())
    }

    /// Drains the server with a `shutdown` frame and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.shutdown();
        self.reap();
        result
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        conn.send(r#"{"op":"shutdown","id":"bye"}"#)?;
        conn.recv().ok_or("no reply to shutdown")?;
        let child = self.child.as_mut().ok_or("server already reaped")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not drain within 20 s".to_string())
    }

    /// Kills (if still running) and waits for the child, then removes
    /// its cache directory.
    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One request-able evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// GEMM shape.
    pub shape: GemmShape,
    /// Dataflow.
    pub arch: Architecture,
    /// Weight precision.
    pub precision: WeightPrecision,
}

impl Point {
    /// The point's fields as a JSON object.
    fn fields(&self) -> String {
        format!(
            r#"{{"shape":"{}","arch":"{}","precision":"{}"}}"#,
            self.shape,
            util::arch_token(self.arch),
            util::precision_token(self.precision)
        )
    }

    fn request(&self, id: u64) -> String {
        format!(r#"{{"op":"analyze","id":{id},{}"#, &self.fields()[1..])
    }

    /// The report the server must send for this point, rendered the way
    /// the server renders it: a fresh in-process analysis on the runner
    /// the server builds for a request with default knobs.
    fn expected_report(&self) -> Result<String, String> {
        let mut cfg = SmConfig::volta_like();
        cfg.adder_tree_duplication = 2;
        cfg.dp_width = 4;
        let runner = GemmRunner::new()
            .with_config(cfg)
            .with_group(GroupShape::G128);
        let workload = Workload::new(self.shape, self.precision);
        let report = runner
            .analyze(self.arch, workload)
            .map_err(|e| e.to_string())?;
        let key = runner.cache_key(self.arch, workload);
        Ok(report.to_cached().to_json(&key).render_line())
    }
}

/// The request universe: every distinct Llama2-7B/13B GEMM at decode
/// (m16) and prefill (m512) × the four dataflows × INT4/INT2.
pub fn universe() -> Vec<Point> {
    let mut points = Vec::new();
    for model in [Model::Llama2_7b, Model::Llama2_13b] {
        for m in [16, 512] {
            let mut shapes: Vec<GemmShape> = Vec::new();
            for layer in model.layers(m) {
                if !shapes.contains(&layer.shape) {
                    shapes.push(layer.shape);
                }
            }
            for shape in shapes {
                for arch in ARCHS {
                    for precision in PRECISIONS {
                        points.push(Point {
                            shape,
                            arch,
                            precision,
                        });
                    }
                }
            }
        }
    }
    points
}

/// A Zipf-like popularity over the universe: rank r has weight
/// `1/r^s`, ranks assigned by a fixed shuffle.
pub struct Zipf {
    cdf: Vec<f64>,
    by_rank: Vec<usize>,
}

impl Zipf {
    /// Popularity over `n` points.
    pub fn new(n: usize) -> Zipf {
        let mut by_rank: Vec<usize> = (0..n).collect();
        Rng::new(POPULARITY_SEED, 0x5A1F).shuffle(&mut by_rank);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, by_rank }
    }

    /// A request mix of exactly `n` points whose counts follow the
    /// popularity (largest-remainder rounding), in a seeded order: the
    /// seed moves the requests, never the mix, so the set of cold
    /// misses is the same for every seed.
    pub fn mix(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let shares: Vec<f64> = self
            .cdf
            .iter()
            .scan(0.0, |prev, &c| {
                let share = (c - *prev) * n as f64;
                *prev = c;
                Some(share)
            })
            .collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let frac = |i: usize| shares[i] - shares[i].floor();
            frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
        });
        let short = n - counts.iter().sum::<usize>();
        for &rank in by_remainder.iter().take(short) {
            counts[rank] += 1;
        }
        let mut mix: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &c)| std::iter::repeat_n(self.by_rank[rank], c))
            .collect();
        rng.shuffle(&mut mix);
        mix
    }

    /// Draws one point index.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.by_rank[rank]
    }
}

/// A client connection with `TCP_NODELAY` set, so any latency it
/// reads belongs to the server.
struct Conn {
    out: TcpStream,
    inp: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        out.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        out.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let inp = BufReader::new(out.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            out,
            inp,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.out.write_all(&frame).map_err(|e| format!("send: {e}"))
    }

    /// The next reply line, or `None` on timeout or a closed socket.
    fn recv(&mut self) -> Option<&str> {
        self.line.clear();
        match self.inp.read_line(&mut self.line) {
            Ok(n) if n > 0 => Some(self.line.trim_end()),
            _ => None,
        }
    }
}

/// A decoded reply frame.
struct Frame {
    id: Option<u64>,
    reply: Reply,
}

fn decode(line: &str) -> Frame {
    match Json::parse(line) {
        Ok(doc) => {
            let ok = doc.get("ok").and_then(|v| match v {
                Json::Bool(b) => Some(*b),
                _ => None,
            });
            let class = doc
                .get("error")
                .and_then(|e| e.get("class"))
                .and_then(Json::as_str);
            Frame {
                id: doc.get("id").and_then(Json::as_num).map(|n| n as u64),
                reply: Reply::classify(ok == Some(true), class),
            }
        }
        Err(_) => Frame {
            id: None,
            reply: Reply::ErrorFrame,
        },
    }
}

/// The `report` member of an analyze reply line, byte for byte.
fn report_bytes(line: &str) -> Option<&str> {
    let start = line.find(r#""report":"#)? + r#""report":"#.len();
    line.get(start..)?.strip_suffix('}')
}

/// What the serve phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Window-1 round trips, µs.
    pub latency_us: Vec<f64>,
    /// The same, split by first occurrence.
    pub hit_us: Vec<f64>,
    /// First-occurrence round trips, µs.
    pub miss_us: Vec<f64>,
    /// Ping round trips, µs.
    pub ping_us: Vec<f64>,
    /// Accounting over both phases.
    pub tally: Goodput,
    /// Goodput-phase accounting.
    pub goodput: Goodput,
    /// Goodput-phase wall time.
    pub goodput_s: f64,
    /// Cache hits / analyze lookups, from the server's stats frame.
    pub cache_hit_ratio: f64,
    /// Served reports that differ from the in-process analysis.
    pub mismatches: Vec<String>,
    /// Server peak RSS.
    pub peak_rss_mib: f64,
}

/// State shared by every client connection of one serve phase.
struct Shared {
    universe: Vec<Point>,
    zipf: Zipf,
    seen: Mutex<FirstSeen<usize>>,
    served: Mutex<HashMap<usize, String>>,
}

impl Shared {
    fn classify(&self, point: usize) -> Occurrence {
        self.seen.lock().expect("history poisoned").classify(&point)
    }

    fn keep_report(&self, point: usize, line: &str) {
        let mut served = self.served.lock().expect("report store poisoned");
        served.entry(point).or_insert_with(|| line.to_string());
    }
}

/// Runs the serve phase against `server`: pings (traced runs only),
/// the latency phase, then the goodput phase on `conns` connections
/// until `budget` after the start (at least [`GOODPUT_MIN`]). Then
/// checks every distinct served report, outside the timed region.
pub fn run(
    server: &ServerProc,
    conns: usize,
    budget: Duration,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let universe = universe();
    let shared = Shared {
        zipf: Zipf::new(universe.len()),
        universe,
        seen: Mutex::new(FirstSeen::new()),
        served: Mutex::new(HashMap::new()),
    };
    let mut out = Outcome::default();
    let addr = server.addr();

    let mut conn = Conn::open(addr)?;
    let span = tracer.span("serve.ping", parent);
    let pings = if tracer.is_on() { PINGS } else { 0 };
    for i in 0..pings {
        let t0 = Instant::now();
        conn.send(&format!(r#"{{"op":"ping","id":{i}}}"#))?;
        let frame = decode(conn.recv().ok_or("ping lost")?);
        let t1 = Instant::now();
        tracer.record("serve.ping_rtt", span.id(), t0, t1);
        if frame.reply == Reply::Ok {
            out.ping_us.push(util::us(t1 - t0));
        }
    }
    drop(span);

    // Phase 1: one connection, window 1, for latency.
    let span = tracer.span("serve.latency_phase", parent);
    let mix = shared
        .zipf
        .mix(LATENCY_REQUESTS, &mut Rng::new(seed, 0x1A7E));
    let mut phase1 = Goodput::default();
    for (id, point) in (0u64..).zip(mix) {
        let class = shared.classify(point);
        let t0 = Instant::now();
        conn.send(&shared.universe[point].request(id))?;
        let Some(line) = conn.recv() else {
            phase1.record(Reply::Lost);
            break;
        };
        let t1 = Instant::now();
        let frame = decode(line);
        phase1.record(frame.reply);
        if frame.reply == Reply::Ok && frame.id == Some(id) {
            shared.keep_report(point, line);
        }
        let rtt = util::us(t1 - t0);
        out.latency_us.push(rtt);
        let (split, name) = match class {
            Occurrence::Hit => (&mut out.hit_us, "serve.request.hit"),
            Occurrence::Miss => (&mut out.miss_us, "serve.request.miss"),
        };
        split.push(rtt);
        tracer.record(name, span.id(), t0, t1);
    }
    drop(span);
    drop(conn);

    // Every point the latency phase did not request is priced now, in
    // one untimed batch, so the goodput phase measures the hit path.
    let span = tracer.span("serve.prime", parent);
    prime(addr, &shared)?;
    drop(span);

    // Phase 2: `conns` connections at window 8, for goodput.
    let span = tracer.span("serve.goodput_phase", parent);
    let budget = budget.saturating_sub(started.elapsed()).max(GOODPUT_MIN);
    let t0 = Instant::now();
    let deadline = t0 + budget;
    let results: Vec<Result<(Goodput, Instant), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let shared = &shared;
                let span_id = span.id();
                scope.spawn(move || {
                    let rng = Rng::new(seed, 0x600D + c as u64);
                    goodput_conn(addr, shared, rng, deadline, tracer, span_id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    drop(span);
    let mut last = t0;
    for r in results {
        let (g, end) = r?;
        out.goodput.merge(g);
        last = last.max(end);
    }
    out.goodput_s = (last - t0).as_secs_f64();
    out.tally = phase1;
    out.tally.merge(out.goodput);

    out.cache_hit_ratio = stats_hit_ratio(addr)?;
    out.peak_rss_mib = server.peak_rss_mib().unwrap_or(0.0);

    let span = tracer.span("serve.report_check", parent);
    let served = shared.served.into_inner().expect("report store poisoned");
    out.mismatches = check_reports(&shared.universe, served)?;
    drop(span);
    Ok(out)
}

/// One goodput-phase connection: sends bursts of [`WINDOW`] requests,
/// each after the previous burst is fully answered, until `deadline`. Returns its tally and the time
/// of its last reply.
fn goodput_conn(
    addr: SocketAddr,
    shared: &Shared,
    mut rng: Rng,
    deadline: Instant,
    tracer: &Tracer,
    parent: u64,
) -> Result<(Goodput, Instant), String> {
    let mut conn = Conn::open(addr)?;
    let mut tally = Goodput::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut next_id = 0u64;
    let mut last = Instant::now();
    loop {
        // The window refills once all of it has been answered: a burst of
        // WINDOW requests, then its replies.
        while in_flight.is_empty() && Instant::now() < deadline {
            for _ in 0..WINDOW {
                let point = shared.zipf.draw(&mut rng);
                shared.classify(point);
                conn.send(&shared.universe[point].request(next_id))?;
                in_flight.insert(next_id, (point, Instant::now()));
                next_id += 1;
            }
        }
        if in_flight.is_empty() {
            return Ok((tally, last));
        }
        let Some(line) = conn.recv() else {
            for _ in in_flight.drain() {
                tally.record(Reply::Lost);
            }
            return Ok((tally, last));
        };
        last = Instant::now();
        let frame = decode(line);
        let Some((point, sent)) = frame.id.and_then(|id| in_flight.remove(&id)) else {
            // A frame that answers nothing we sent is an error frame.
            tally.record(Reply::ErrorFrame);
            continue;
        };
        tally.record(frame.reply);
        if frame.reply == Reply::Ok {
            shared.keep_report(point, line);
        }
        tracer.record("serve.request", parent, sent, last);
    }
}

/// Prices every not-yet-requested point in one `batch` frame.
fn prime(addr: SocketAddr, shared: &Shared) -> Result<(), String> {
    let seen = shared.seen.lock().expect("history poisoned");
    let entries: Vec<String> = shared
        .universe
        .iter()
        .enumerate()
        .filter(|(i, _)| !seen.contains(i))
        .map(|(_, p)| p.fields())
        .collect();
    drop(seen);
    if entries.is_empty() {
        return Ok(());
    }
    let mut conn = Conn::open(addr)?;
    conn.send(&format!(
        r#"{{"op":"batch","id":"prime","requests":[{}]}}"#,
        entries.join(",")
    ))?;
    let line = conn.recv().ok_or("no reply to the priming batch")?;
    match decode(line).reply {
        Reply::Ok => Ok(()),
        _ => Err(format!("priming batch failed: {line}")),
    }
}

/// `(hot hits + disk hits) / (hot hits + disk hits + misses)` from the
/// server's `stats` frame.
fn stats_hit_ratio(addr: SocketAddr) -> Result<f64, String> {
    let mut conn = Conn::open(addr)?;
    conn.send(r#"{"op":"stats","id":"stats"}"#)?;
    let line = conn.recv().ok_or("stats reply lost")?;
    let doc = Json::parse(line).map_err(|e| format!("stats frame: {e}"))?;
    let count = |field: &str| -> f64 {
        doc.get("stats")
            .and_then(|s| s.get(field))
            .and_then(Json::as_str)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let hits = count("hot_hits") + count("cache_hits");
    let lookups = hits + count("cache_misses");
    Ok(hits / lookups.max(1.0))
}

/// Compares each distinct served report with a fresh in-process
/// analysis, on every core.
fn check_reports(
    universe: &[Point],
    served: HashMap<usize, String>,
) -> Result<Vec<String>, String> {
    let served: Vec<(usize, String)> = served.into_iter().collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = served.len().div_ceil(workers).max(1);
    let results: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (point, line) in part {
                        let p = universe[*point];
                        let expected = p.expected_report()?;
                        if report_bytes(line) != Some(expected.as_str()) {
                            bad.push(format!(
                                "served report for {} {} {} differs from the in-process analysis",
                                p.shape,
                                util::arch_token(p.arch),
                                util::precision_token(p.precision)
                            ));
                        }
                    }
                    Ok(bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("check thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Nearest-rank p50 of a latency sample, 0 when empty.
pub fn p50(values: &[f64]) -> f64 {
    stats::nearest_rank(&stats::sorted(values), 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_universe_has_every_distinct_point_once() {
        let u = universe();
        // 7B: 3 distinct (n,k), 13B: 3, at two batches, 4 dataflows, 2 precisions.
        assert_eq!(u.len(), 2 * 3 * 2 * 4 * 2);
        for (i, a) in u.iter().enumerate() {
            assert!(u[i + 1..].iter().all(|b| b != a));
        }
    }

    #[test]
    fn zipf_draws_stay_in_range_and_favour_rank_one() {
        let z = Zipf::new(96);
        let mut rng = Rng::new(3, 1);
        let mut counts = vec![0u32; 96];
        for _ in 0..10_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        let top = z.by_rank[0];
        assert!(counts.iter().all(|&c| c <= counts[top]));
    }

    #[test]
    fn the_mix_is_fixed_and_only_its_order_follows_the_seed() {
        let z = Zipf::new(96);
        let sorted = |seed| {
            let mut m = z.mix(200, &mut Rng::new(seed, 0));
            assert_eq!(m.len(), 200);
            m.sort_unstable();
            m
        };
        assert_eq!(sorted(1), sorted(2));
        assert_ne!(
            z.mix(200, &mut Rng::new(1, 0)),
            z.mix(200, &mut Rng::new(2, 0))
        );
        let top = z.by_rank[0];
        let mix = sorted(1);
        let count = |p| mix.iter().filter(|&&q| q == p).count();
        assert!(z.by_rank.iter().all(|&p| count(p) <= count(top)));
    }

    #[test]
    fn report_bytes_strip_the_frame() {
        let line = r#"{"schema":"pacq-serve/v1","id":3,"ok":true,"report":{"a":[1,2]}}"#;
        assert_eq!(report_bytes(line), Some(r#"{"a":[1,2]}"#));
        assert_eq!(report_bytes(r#"{"ok":false}"#), None);
    }
}
