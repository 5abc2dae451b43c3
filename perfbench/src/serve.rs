//! `serve-bfs` and `serve-mix`: the shipped `serve` daemon as its own
//! process, driven by a two-connection closed loop.
//!
//! Sequence of one run:
//! 1. untimed: generate the corpus and write its snapshots;
//! 2. set-up: cold-start the daemon [`COLD_STARTS`] times (spawn to
//!    first answered ping); every start but the last is shut down and
//!    must exit 0;
//! 3. warm-up: one GAP BFS per graph, so the load phase does not pay
//!    first-touch page faults or the pool's lazy team spawn;
//! 4. load: two connections drawing from one seeded request sequence,
//!    each waiting for every answer, until `--seconds` have passed and
//!    the current deck of requests is used up;
//! 5. daemon checks: a `{"cmd":"stats"}` scrape that must lint clean,
//!    then `{"cmd":"shutdown"}` and exit 0;
//! 6. answer checks against in-process `run_query_local` fingerprints
//!    (deterministic cells) or response shape (GAP pr/bc);
//! 7. traced runs only: layer probes and an in-process replay of the
//!    request sequence, phase by phase.

use crate::corpus::{self, graph_key, SCALE, THREADS};
use crate::probes;
use crate::report::{kernel_key, Outcome};
use crate::stats::{geomean, median, quantile, tail, Histogram, QUIET_QUANTILE};
use crate::trace::Tracer;
use crate::Args;
use gapbs_core::{BenchGraph, Kernel, Mode};
use gapbs_graph::gen::GraphSpec;
use gapbs_graph::types::NodeId;
use gapbs_parallel::ThreadPool;
use gapbs_serve::protocol::canonical;
use gapbs_serve::{parse_request, run_query_local, Command, GraphRegistry, RegistryOptions};
use gapbs_telemetry::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon starts per run; `setup_s` is the median.
const COLD_STARTS: usize = 7;
/// Load-generator connections.
const CONNECTIONS: u64 = 2;
/// Request ids at and above this mark are warm-up requests.
const WARMUP_IDS: u64 = 1 << 40;
/// How long a daemon may take to become ready or to exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(60);

/// The (framework, kernel) pairs a workload draws from; the graph is
/// drawn uniformly from the five.
fn cells(workload: &str) -> Vec<(&'static str, Kernel)> {
    if workload == "serve-bfs" {
        return vec![("GAP", Kernel::Bfs)];
    }
    ["SuiteSparse", "GAP"]
        .into_iter()
        .flat_map(|fw| Kernel::ALL.into_iter().map(move |k| (fw, k)))
        .collect()
}

/// Whether the daemon's answer is a pure function of the request, so
/// its fingerprint can be checked exactly. GAP's PR and BC floats depend
/// on thread timing; the SuiteSparse engine is bit-identical at every
/// thread count.
fn deterministic(framework: &str, kernel: Kernel) -> bool {
    framework == "SuiteSparse" || !matches!(kernel, Kernel::Pr | Kernel::Bc)
}

/// One request of the seeded sequence.
#[derive(Debug, Clone)]
struct Request {
    id: u64,
    framework: &'static str,
    kernel: Kernel,
    graph: GraphSpec,
    source: Option<NodeId>,
    line: String,
}

/// SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        corpus::mix(self.0, 0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The request sequence: a pure function of the seed. It is dealt in
/// decks; each deck holds every (framework, kernel, graph) cell of the
/// workload once, in seeded random order, with a seeded source from the
/// graph's giant component. Both connections draw from the one sequence,
/// and a run ends only on a deck boundary, so every run measures whole
/// decks: the same mix of cells, whatever the seed.
struct Generator<'a> {
    deck: Vec<(&'static str, Kernel, GraphSpec)>,
    dealt: usize,
    registry: &'a GraphRegistry,
    rng: Rng,
    next_id: u64,
}

impl<'a> Generator<'a> {
    fn new(workload: &str, registry: &'a GraphRegistry, seed: u64) -> Self {
        let deck: Vec<_> = cells(workload)
            .into_iter()
            .flat_map(|(fw, k)| GraphSpec::TABLE_ORDER.into_iter().map(move |g| (fw, k, g)))
            .collect();
        Generator {
            dealt: deck.len(),
            deck,
            registry,
            rng: Rng(corpus::mix(seed, 0x5e_0000)),
            next_id: 0,
        }
    }

    /// Whether the next request starts a new deck.
    fn at_deck_start(&self) -> bool {
        self.dealt == self.deck.len()
    }

    fn next(&mut self) -> Request {
        if self.at_deck_start() {
            // Fisher–Yates shuffle of the new deck.
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
            self.dealt = 0;
        }
        let (framework, kernel, graph) = self.deck[self.dealt];
        self.dealt += 1;
        let bench = self.registry.get(graph).expect("corpus is resident");
        let source = kernel
            .takes_source()
            .then(|| bench.source_candidates[self.rng.below(bench.source_candidates.len())]);
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            framework,
            kernel,
            graph,
            source,
            line: request_line(id, framework, kernel, graph, source),
        }
    }
}

fn request_line(
    id: u64,
    framework: &str,
    kernel: Kernel,
    graph: GraphSpec,
    source: Option<NodeId>,
) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("kernel".to_string(), Json::Str(kernel_key(kernel))),
        ("graph".to_string(), Json::Str(graph_key(graph))),
        ("framework".to_string(), Json::Str(framework.to_string())),
    ];
    if let Some(s) = source {
        fields.push(("source".to_string(), Json::Num(f64::from(s))));
    }
    Json::obj(fields).encode()
}

/// One line-oriented connection to the daemon.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer: stream,
            reader,
            buf: String::new(),
        })
    }

    /// Sends one line and reads the one-line answer.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn call_json(&mut self, line: &str) -> Result<Json, String> {
        let text = self.call(line)?;
        Json::parse(text).map_err(|e| format!("unparseable answer {text:?}: {e}"))
    }
}

/// A running daemon process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon and waits for its first answer; returns it and
    /// the seconds from spawn to that answer.
    fn start(bin: &Path, snap_dir: &Path, port_file: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let child = std::process::Command::new(bin)
            .args(["--scale", "medium", "--threads", &THREADS.to_string()])
            .arg("--snapshot-dir")
            .arg(snap_dir)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > DAEMON_TIMEOUT {
                daemon.kill();
                return Err("daemon did not become ready".into());
            }
            let port = std::fs::read_to_string(port_file).unwrap_or_default();
            if let Ok(port) = port.trim().parse::<u16>() {
                daemon.addr = format!("127.0.0.1:{port}");
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let pong = Conn::open(&daemon.addr).and_then(|mut c| c.call_json(r#"{"cmd":"ping"}"#));
        match pong {
            Ok(p) if p.get("ok").and_then(Json::as_bool) == Some(true) => {
                Ok((daemon, start.elapsed().as_secs_f64()))
            }
            other => {
                daemon.kill();
                Err(format!("first ping failed: {other:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `{"cmd":"shutdown"}`, then the process must exit 0.
    fn shutdown(mut self) -> Result<(), String> {
        if let Err(e) = gapbs_serve::bench::shutdown_daemon(&self.addr) {
            self.kill();
            return Err(format!("shutdown request: {e}"));
        }
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() > DAEMON_TIMEOUT => {
                    self.kill();
                    return Err("daemon did not exit after shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A daemon never outlives the run, whatever path ended it (a no-op
    /// after a clean shutdown has reaped the process).
    fn drop(&mut self) {
        self.kill();
    }
}

/// What one answered request measured.
struct Sample {
    request: Request,
    /// When the request was written.
    sent: Instant,
    /// Client-clock latency, request write to full answer line.
    client_s: f64,
    answer: String,
    /// Whether this request was traced (traced runs alternate).
    traced: bool,
    /// Answered after the load phase's start (not warm-up).
    measured: bool,
    /// Whether the answer passed its check.
    ok: bool,
    /// The answer's daemon-side `latency_ms` (once checked).
    server_ms: f64,
}

/// Drives one connection of the closed loop: takes the next request of
/// the shared sequence, sends it and waits for the answer, until
/// `until` has passed and the current deck is used up. Returns the
/// connection's samples and spans.
fn drive(
    addr: &str,
    generator: &Mutex<Generator<'_>>,
    until: Instant,
    mut tracer: Tracer,
) -> Result<(Vec<Sample>, Tracer), String> {
    let mut conn = Conn::open(addr)?;
    let mut samples = Vec::new();
    let tracing = tracer.enabled();
    let mut quiet = Tracer::new(false, tracer.epoch());
    loop {
        let request = {
            let mut generator = generator.lock().expect("no generator holder panics");
            if Instant::now() >= until && generator.at_deck_start() {
                break;
            }
            generator.next()
        };
        let traced = tracing && request.id % 2 == 0;
        let rec = if traced { &mut tracer } else { &mut quiet };
        let start = Instant::now();
        let answer = rec.span(
            "serve.request",
            &kernel_key(request.kernel),
            request.id,
            |_| conn.call(&request.line).map(str::to_string),
        )?;
        let client_s = start.elapsed().as_secs_f64();
        samples.push(Sample {
            request,
            sent: start,
            client_s,
            answer,
            traced,
            measured: true,
            ok: false,
            server_ms: 0.0,
        });
    }
    Ok((samples, tracer))
}

/// Checks one answer; returns the daemon-side latency in ms.
fn check_answer(
    sample: &Sample,
    expected: &mut HashMap<String, Result<u64, String>>,
    registry: &GraphRegistry,
    pool: &ThreadPool,
) -> Result<f64, String> {
    let req = &sample.request;
    let what = || format!("{} {}", req.line, sample.answer);
    let answer = Json::parse(&sample.answer).map_err(|e| format!("{}: {e}", what()))?;
    if answer.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error answer: {}", what()));
    }
    let echo = |key: &str, want: &str| answer.get(key).and_then(Json::as_str) == Some(want);
    if !echo("kernel", &kernel_key(req.kernel))
        || !echo("graph", req.graph.name())
        || !echo("framework", req.framework)
    {
        return Err(format!("answer does not echo the request: {}", what()));
    }
    let latency_ms = answer
        .get("latency_ms")
        .and_then(Json::as_f64)
        .filter(|l| l.is_finite() && *l >= 0.0)
        .ok_or_else(|| format!("no latency_ms: {}", what()))?;
    let fingerprint = answer
        .get("fingerprint")
        .and_then(Json::as_str)
        .filter(|f| f.len() == 16)
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .ok_or_else(|| format!("no fingerprint: {}", what()))?;
    let result = answer
        .get("result")
        .ok_or_else(|| format!("no result: {}", what()))?;
    if deterministic(req.framework, req.kernel) {
        // The key drops the request id, so repeated queries share one
        // in-process run.
        let key = format!(
            "{}/{:?}/{}/{:?}",
            req.framework, req.kernel, req.graph, req.source
        );
        let want = expected.entry(key).or_insert_with(|| {
            let Ok(Command::Query(query)) = parse_request(&req.line) else {
                return Err(format!("request does not parse: {}", req.line));
            };
            run_query_local(registry, &query, pool)
                .map(|o| o.fingerprint)
                .map_err(|e| format!("{}: {e:?}", req.line))
        });
        match want {
            Ok(want) if *want == fingerprint => Ok(latency_ms),
            Ok(want) => Err(format!(
                "fingerprint {fingerprint:016x}, in-process run gives {want:016x}: {}",
                req.line
            )),
            Err(e) => Err(e.clone()),
        }
    } else {
        let n = registry.get(req.graph).map_or(0, |b| b.num_vertices());
        let top_ok = match result.get("top") {
            Some(Json::Arr(top)) => top.len() == n.min(10),
            _ => false,
        };
        let shape_ok = top_ok
            && match req.kernel {
                Kernel::Pr => result
                    .get("iterations")
                    .and_then(Json::as_u64)
                    .is_some_and(|i| i >= 1),
                _ => result.get("source").and_then(Json::as_u64) == req.source.map(u64::from),
            };
        if shape_ok {
            Ok(latency_ms)
        } else {
            Err(format!(
                "malformed {} answer: {}",
                kernel_key(req.kernel),
                what()
            ))
        }
    }
}

/// The numbers read from one `{"cmd":"stats"}` scrape.
struct Scrape {
    json: Json,
    queue_wait: Histogram,
    batch_width: Histogram,
}

impl Scrape {
    fn take(conn: &mut Conn) -> Result<Scrape, String> {
        let json = conn.call_json(r#"{"cmd":"stats"}"#)?;
        let metrics = json.get("metrics");
        Ok(Scrape {
            queue_wait: Histogram::from_json(metrics.and_then(|m| m.get("queue_wait_us")))?,
            batch_width: Histogram::from_json(metrics.and_then(|m| m.get("batch_width")))?,
            json,
        })
    }

    fn field(&self, name: &str) -> f64 {
        self.json.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// Runs a serve workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("serve workloads need --serve-bin")?;
    let pool = ThreadPool::new(THREADS);
    let snap_dir = args.work_dir.join("snapshots");
    corpus::fresh_dir(&snap_dir)?;

    // Untimed: the snapshot directory the daemon starts from.
    let corpus = corpus::build(&pool, tracer, 0);
    let snapshot_bytes = corpus::write(&corpus, &snap_dir, tracer, 0)?;
    drop(corpus);
    let registry = GraphRegistry::load_with(
        SCALE,
        &GraphSpec::TABLE_ORDER,
        &pool,
        &RegistryOptions {
            snapshot_dir: Some(snap_dir.clone()),
            paranoid: false,
        },
    );

    // Set-up: cold starts.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..COLD_STARTS {
        let port_file = args.work_dir.join(format!("port-{i}"));
        let (d, seconds) = tracer.span("serve.cold_start", "", i as u64, |_| {
            Daemon::start(bin, &snap_dir, &port_file)
        })?;
        setups.push(seconds);
        if i + 1 < COLD_STARTS {
            out.check(d.shutdown().map_err(|e| format!("cold start {i}: {e}")));
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one cold start");
    out.set("setup_s", median(&setups).expect("cold starts ran"), "s");

    let result = load(args, &daemon, &registry, tracer, out);
    // The daemon is always shut down, and must exit 0.
    out.check(daemon.shutdown());
    let (mut samples, before, after) = result?;

    // Answer checks, after the daemon is gone so they do not compete
    // with it for the cores.
    let mut expected = HashMap::new();
    let mut server_ms = Vec::new();
    let mut wire_ms = Vec::new();
    let mut latencies = Vec::new();
    let mut by_cell: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for s in &mut samples {
        let verdict = check_answer(s, &mut expected, &registry, &pool);
        s.ok = verdict.is_ok();
        s.server_ms = *verdict.as_ref().unwrap_or(&0.0);
        if let (Ok(server), true) = (&verdict, s.measured) {
            let client_ms = s.client_s * 1e3;
            latencies.push(client_ms);
            server_ms.push(*server);
            wire_ms.push(client_ms - server);
            let r = &s.request;
            by_cell
                .entry(format!("{}/{:?}/{}", r.framework, r.kernel, r.graph))
                .or_default()
                .push(client_ms);
            if s.traced {
                traced_ms.push(client_ms);
            } else {
                untraced_ms.push(client_ms);
            }
        }
        out.check(verdict.map(|_| ()));
    }
    // Latency and throughput are taken per window of whole decks, and the
    // run reports the quiet quartile of its windows (lower for latency,
    // upper for throughput), so spells of CPU steal on the host spoil a
    // few windows rather than the run's figures.
    let mut window_p50 = Vec::new();
    let mut window_p90 = Vec::new();
    let mut window_qps = Vec::new();
    for w in windows(&args.workload, &samples) {
        let ms: Vec<f64> = w.iter().map(|s| s.client_s * 1e3).collect();
        window_p50.push(median(&ms).expect("windows are not empty"));
        window_p90.push(tail(&ms, 90.0).ok_or("window too small for a p90")?.1);
        window_qps.push(w.len() as f64 / samples_wall(&w));
    }
    out.set(
        "latency_p50_ms",
        quantile(&window_p50, QUIET_QUANTILE).ok_or("no full window")?,
        "ms",
    );
    out.set(
        "latency_p90_ms",
        quantile(&window_p90, QUIET_QUANTILE).ok_or("no full window")?,
        "ms",
    );
    out.set(
        "qps",
        quantile(&window_qps, 1.0 - QUIET_QUANTILE).ok_or("no full window")?,
        "1/s",
    );
    out.set("windows", window_qps.len() as f64, "count");
    let (pct, p99) = tail(&latencies, 99.0).ok_or("too few requests for a tail")?;
    out.set("latency_p99_ms", p99, "ms");
    out.set("latency_tail_percentile", pct, "%");
    out.set("latency_samples", latencies.len() as f64, "count");
    let cell_ms: Vec<f64> = by_cell
        .values()
        .filter_map(|v| quantile(v, QUIET_QUANTILE))
        .collect();
    out.set(
        "cell_geomean_ms",
        geomean(&cell_ms).ok_or("no served cell")?,
        "ms",
    );

    if !args.trace {
        return Ok(());
    }
    out.set("snapshot.bytes", snapshot_bytes as f64, "bytes");
    out.set(
        "graph.generate_s",
        tracer.median_group_total("graph.generate"),
        "s",
    );
    out.set(
        "core.prepare_input_s",
        tracer.median_group_total("core.prepare_input"),
        "s",
    );
    out.set(
        "snapshot.write_s",
        tracer.median_group_total("snapshot.write"),
        "s",
    );
    out.set(
        "serve.time_to_ready_s",
        after
            .json
            .get("metrics")
            .and_then(|m| m.get("time_to_ready_seconds"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        "s",
    );
    out.set(
        "serve.server_ms_p50",
        median(&server_ms).unwrap_or(0.0),
        "ms",
    );
    out.set("serve.wire_ms_p50", median(&wire_ms).unwrap_or(0.0), "ms");
    let queue_wait = after.queue_wait.delta(&before.queue_wait)?;
    out.set(
        "admission.queue_wait_us_p50",
        queue_wait.quantile_le(0.50).unwrap_or(0.0),
        "us",
    );
    out.set(
        "admission.queue_wait_us_p99",
        queue_wait.quantile_le(0.99).unwrap_or(0.0),
        "us",
    );
    // Coalescing: queries that rode a batch of two or more, over the
    // eligible (GAP BFS) queries sent.
    let widths = after.batch_width.delta(&before.batch_width)?;
    let batched = after.field("batch_queries") - before.field("batch_queries");
    let solo_batches = widths.bucket_count(2.0) as f64;
    let eligible = samples
        .iter()
        .filter(|s| s.measured && s.request.framework == "GAP" && s.request.kernel == Kernel::Bfs)
        .count();
    out.set(
        "coalesce.batched_share",
        (batched - solo_batches) / eligible.max(1) as f64,
        "ratio",
    );
    out.set(
        "coalesce.batch_width_mean",
        widths.mean().unwrap_or(0.0),
        "count",
    );
    let completed = (after.field("queries_completed") - before.field("queries_completed")).max(1.0);
    out.set(
        "serve.pool_regions_per_query",
        (after.field("pool_regions") - before.field("pool_regions")) / completed,
        "count",
    );
    out.set(
        "serve.pool_parks_per_query",
        (after.field("pool_parks") - before.field("pool_parks")) / completed,
        "count",
    );
    out.set(
        "trace.overhead_frac",
        match (median(&traced_ms), median(&untraced_ms)) {
            (Some(t), Some(u)) => t / u - 1.0,
            _ => 0.0,
        },
        "ratio",
    );
    replay(args, &samples, &registry, &pool, tracer, out)?;
    probes::snapshot(&snap_dir, &pool, tracer, out)?;
    let road = registry.get(GraphSpec::Road).expect("Road is resident");
    probes::pool(road, args.seed, tracer, out);
    Ok(())
}

/// Requests per measurement window (rounded up to whole decks).
const WINDOW_REQUESTS: usize = 60;

/// The load phase's successful requests cut into windows of whole
/// decks, by request id; a window that is not complete (the run's last,
/// or one with a failed request) is left out.
fn windows<'s>(workload: &str, samples: &'s [Sample]) -> Vec<Vec<&'s Sample>> {
    let deck = cells(workload).len() * GraphSpec::TABLE_ORDER.len();
    let len = WINDOW_REQUESTS.div_ceil(deck) * deck;
    let mut by_window: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.measured && s.ok) {
        by_window
            .entry(s.request.id / len as u64)
            .or_default()
            .push(s);
    }
    by_window.into_values().filter(|w| w.len() == len).collect()
}

/// Wall time of a set of requests: first sent to last answered.
fn samples_wall(samples: &[&Sample]) -> f64 {
    let first = samples.iter().map(|s| s.sent).min();
    let last = samples
        .iter()
        .map(|s| s.sent + Duration::from_secs_f64(s.client_s))
        .max();
    match (first, last) {
        (Some(first), Some(last)) => last.duration_since(first).as_secs_f64(),
        _ => f64::NAN,
    }
}

type LoadResult = (Vec<Sample>, Scrape, Scrape);

/// Warm-up, the timed load phase, and the end-of-run daemon checks.
fn load(
    args: &Args,
    daemon: &Daemon,
    registry: &GraphRegistry,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<LoadResult, String> {
    let mut control = Conn::open(&daemon.addr)?;
    let mut samples = Vec::new();
    for (i, graph) in GraphSpec::TABLE_ORDER.into_iter().enumerate() {
        let bench = registry.get(graph).expect("corpus is resident");
        let source = bench.source_candidates[0];
        // Warm-up ids sit above any load-phase id.
        let id = WARMUP_IDS | i as u64;
        let request = Request {
            id,
            framework: "GAP",
            kernel: Kernel::Bfs,
            graph,
            source: Some(source),
            line: request_line(id, "GAP", Kernel::Bfs, graph, Some(source)),
        };
        let start = Instant::now();
        let answer = control.call(&request.line)?.to_string();
        samples.push(Sample {
            request,
            sent: start,
            client_s: start.elapsed().as_secs_f64(),
            answer,
            traced: false,
            measured: false,
            ok: false,
            server_ms: 0.0,
        });
    }
    let before = Scrape::take(&mut control)?;
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let epoch = tracer.epoch();
    let generator = Mutex::new(Generator::new(&args.workload, registry, args.seed));
    let results: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let rec = Tracer::new(args.trace, epoch);
                let generator = &generator;
                scope.spawn(move || drive(&daemon.addr, generator, until, rec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        let (conn_samples, rec) = r?;
        samples.extend(conn_samples);
        tracer.absorb(rec);
    }
    let after = Scrape::take(&mut control)?;
    out.set(
        "peak_rss_mb",
        corpus::peak_rss_mb(Some(daemon.pid())).ok_or("no VmHWM for the daemon")?,
        "MiB",
    );
    let problems = gapbs_bench::perf::lint_stats(&after.json);
    out.check(if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("stats lint: {}", problems.join("; ")))
    });
    Ok((samples, before, after))
}

/// Traced runs: replays the measured requests in process, timing the
/// phases the daemon runs for each — `Framework::prepare`, the kernel
/// call, and canonicalization + fingerprint — with pool-stat deltas
/// around each kernel call. Coalescible GAP BFS queries replay the
/// daemon's coalesced path (a one-source `ms_bfs`, which yields
/// canonical depths and needs no prepare). The replay stops after
/// `--seconds` of work.
fn replay(
    args: &Args,
    samples: &[Sample],
    registry: &GraphRegistry,
    pool: &ThreadPool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let roster = gapbs_core::all_frameworks();
    let started = Instant::now();
    let mut per_request: Vec<[f64; 4]> = Vec::new();
    let mut regions: BTreeMap<Kernel, (u64, u64)> = BTreeMap::new();
    let (mut all_regions, mut all_parks) = (0u64, 0u64);
    for (id, s) in samples.iter().filter(|s| s.measured && s.ok).enumerate() {
        if started.elapsed().as_secs() >= args.seconds {
            break;
        }
        let r = &s.request;
        let id = id as u64;
        let bench: &BenchGraph = registry.get(r.graph).expect("corpus is resident");
        let framework = roster
            .iter()
            .find(|f| f.name() == r.framework)
            .expect("framework in roster");
        let label = format!(
            "{}/{}/{}",
            corpus::framework_key(r.framework),
            kernel_key(r.kernel),
            graph_key(r.graph)
        );
        let mark = tracer.spans().len();
        let before = pool.stats();
        let coalesced = r.framework == "GAP" && r.kernel == Kernel::Bfs;
        tracer.span("engine.query", &label, id, |tracer| {
            if coalesced {
                let source = r.source.expect("bfs has a source");
                let result = tracer.span("kernel", &label, id, |_| {
                    gapbs_ref::ms_bfs(&bench.graph, &[source], pool)
                });
                tracer.span("engine.canon", &label, id, |_| {
                    std::hint::black_box(canonical::fingerprint_depths(&result.depths[0]))
                });
                return;
            }
            let prepared = tracer.span("engine.prepare", &label, id, |_| {
                framework.prepare(bench, Mode::Baseline, pool)
            });
            let source = r.source.unwrap_or(0);
            macro_rules! phase {
                ($kernel:expr, |$out:ident| $canon:expr) => {{
                    let $out = tracer.span("kernel", &label, id, |_| $kernel);
                    tracer.span("engine.canon", &label, id, |_| std::hint::black_box($canon));
                }};
            }
            match r.kernel {
                Kernel::Bfs => phase!(prepared.bfs(source), |p| {
                    canonical::fingerprint_depths(&canonical::bfs_depths(&p))
                }),
                Kernel::Sssp => phase!(prepared.sssp(source), |d| {
                    canonical::fingerprint_distances(&d)
                }),
                Kernel::Pr => phase!(prepared.pr(), |p| canonical::fingerprint_scores(&p.0)),
                Kernel::Cc => phase!(prepared.cc(), |l| {
                    canonical::fingerprint_labels(&canonical::cc_labels(&l))
                }),
                Kernel::Bc => phase!(prepared.bc(&[source]), |b| {
                    canonical::fingerprint_scores(&b)
                }),
                Kernel::Tc => phase!(prepared.tc(), |c| canonical::fingerprint_count(c)),
            }
        });
        let delta = pool.stats().delta(&before);
        let e = regions.entry(r.kernel).or_default();
        e.0 += delta.regions;
        e.1 += 1;
        all_regions += delta.regions;
        all_parks += delta.parks;
        // This request's phases (0 for a phase its path skips).
        let phase_ms = |name: &str| {
            tracer.spans()[mark..]
                .iter()
                .find(|sp| sp.name == name)
                .map_or(0.0, |sp| sp.duration_ns() as f64 * 1e-6)
        };
        per_request.push([
            phase_ms("engine.prepare"),
            phase_ms("kernel"),
            phase_ms("engine.canon"),
            s.server_ms,
        ]);
    }
    let col = |i: usize| -> Vec<f64> { per_request.iter().map(|t| t[i]).collect() };
    let (prepare, kernel, canon) = (col(0), col(1), col(2));
    out.set(
        "engine.prepare_ms_p50",
        median(&prepare).unwrap_or(0.0),
        "ms",
    );
    out.set("engine.kernel_ms_p50", median(&kernel).unwrap_or(0.0), "ms");
    out.set("engine.canon_ms_p50", median(&canon).unwrap_or(0.0), "ms");
    // Per request: the daemon's own latency minus the phases replayed.
    let overhead: Vec<f64> = per_request
        .iter()
        .map(|t| t[3] - t[0] - t[1] - t[2])
        .collect();
    out.set(
        "engine.overhead_ms_p50",
        median(&overhead).unwrap_or(0.0),
        "ms",
    );
    for (kernel, (r, n)) in &regions {
        out.set(
            &format!("pool.regions.{}", kernel_key(*kernel)),
            *r as f64 / *n as f64,
            "count",
        );
    }
    out.set(
        "pool.parks_per_region",
        all_parks as f64 / all_regions.max(1) as f64,
        "ratio",
    );

    // Prepare and kernel times by framework, kernel and graph, from the
    // replay's spans.
    let cell_median = |name: &str, label: &str| median(&tracer.durations(name, Some(label)));
    let mut prep: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut by_fw_kernel: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut by_kernel_graph: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (fw, kernel) in cells(&args.workload) {
        let fw_key = corpus::framework_key(fw);
        for graph in GraphSpec::TABLE_ORDER {
            let label = format!("{fw_key}/{}/{}", kernel_key(kernel), graph_key(graph));
            if let Some(p) = cell_median("engine.prepare", &label) {
                prep.entry(format!("{fw_key}/{}", graph_key(graph)))
                    .or_default()
                    .push(p * 1e3);
            }
            if let Some(k) = cell_median("kernel", &label) {
                by_fw_kernel
                    .entry(format!("kernel_ms.{fw_key}.{}", kernel_key(kernel)))
                    .or_default()
                    .push(k * 1e3);
                by_kernel_graph
                    .entry(format!(
                        "kernel_ms.{}.{}",
                        kernel_key(kernel),
                        graph_key(graph)
                    ))
                    .or_default()
                    .push(k * 1e3);
            }
        }
    }
    let mut prep_by_fw: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (key, v) in prep {
        let fw = key.split('/').next().unwrap_or_default().to_string();
        prep_by_fw.entry(fw).or_default().extend(median(&v));
    }
    for (fw, v) in prep_by_fw {
        out.set(
            &format!("framework.prepare_ms.{fw}"),
            geomean(&v).unwrap_or(0.0),
            "ms",
        );
    }
    for (name, v) in by_fw_kernel.into_iter().chain(by_kernel_graph) {
        out.set(&name, geomean(&v).unwrap_or(0.0), "ms");
    }
    Ok(())
}
