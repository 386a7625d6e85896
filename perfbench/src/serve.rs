//! `serve-mix`: open-loop schedule traffic against the `sunstone-serve`
//! daemon binary.
//!
//! The daemon starts with an empty store in the benchmark's scratch
//! directory. Set-up launches it and schedules the 26-layer popular set
//! (ResNet-18 + MobileNetV2 at batch 16) once, so reads are memo hits.
//! The timed phase then runs two seeded Poisson streams, each on its own
//! connection and thread:
//!
//! * reads — zipf(1.0) draws over the popular set, answered from the
//!   memo;
//! * writes — a fixed sequence of novel conv shapes (ResNet-18 shapes at
//!   other batch sizes), each forcing a search plus a store append and
//!   fsync. The offered search load stays well under one core.
//!
//! Latency runs from each request's due time, so a stall also counts
//! against the requests queued behind it. The end-to-end `latency_ms` is
//! the geometric mean over the writes; hit latency is per-layer, because
//! on a shared virtual machine it follows the host's wake-up latency
//! more than the daemon. A stream still holding more than a few
//! due-but-unsent requests when the window closes has a growing backlog:
//! the run fails instead of reporting latencies.

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone_ir::Workload;
use sunstone_serve::json::{self, Json};
use sunstone_serve::wire::{self, workload_to_json};
use sunstone_workloads::mobilenet::mobilenet_v2_blocks;
use sunstone_workloads::{resnet18_layers, ConvSpec, Precision};

use crate::oracle::{check_served, Expected};
use crate::report::Outcome;
use crate::stats::{geomean, median, quantile, tail_q, Rng, Zipf};
use crate::trace::Tracer;
use crate::{host_steal_s, peak_rss_mb, steal_pct, RunOptions};

const ARCH: &str = "simba_like";
/// Offered read rate (memo hits), requests per second.
const READ_RATE: f64 = 500.0;
/// Offered write rate (novel shapes, each a search), requests per second,
/// before rounding the count up to whole cycles (see [`write_count`]).
const WRITE_RATE: f64 = 1.0;
/// The ResNet-18 shapes the novel shapes cycle through.
const NOVEL_BASES: usize = 11;
/// Batch sizes of the novel shapes, one per cycle through the 11
/// ResNet-18 shapes; none is the popular set's 16. This bounds a run to
/// 132 novel shapes.
const NOVEL_BATCHES: [u64; 12] = [8, 32, 12, 24, 20, 28, 10, 30, 14, 26, 18, 22];
/// The daemon's `--threads`. One search thread leaves the other core of
/// a two-core machine to lookups and the client, so hit latency measures
/// the serve path more than the host's scheduler.
const DAEMON_THREADS: usize = 1;
/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Latency limits per answer source, for `goodput_per_s`.
const HIT_LIMIT_MS: f64 = 20.0;
const SEARCH_LIMIT_MS: f64 = 5_000.0;
/// After the window closes, a stream may finish sending its due requests
/// for this long; anything still unsent then fails.
const DRAIN: Duration = Duration::from_secs(5);

/// The popular set: 11 ResNet-18 layers and 15 MobileNetV2 stages.
fn popular() -> Vec<Workload> {
    let bits = Precision::simba();
    let mut layers: Vec<Workload> = resnet18_layers(16).iter().map(|l| l.inference(bits)).collect();
    for block in mobilenet_v2_blocks(16) {
        layers.extend(block.workloads(bits));
    }
    layers
}

/// Writes in a window of `seconds`: the offered count rounded up to whole
/// cycles through the bases, so every window offers the same search mix.
fn write_count(seconds: f64) -> usize {
    NOVEL_BASES * (WRITE_RATE * seconds / NOVEL_BASES as f64).ceil() as usize
}

/// `count` distinct novel shapes: ResNet-18 shapes at batch sizes other
/// than the popular set's 16. Cycle `c` runs through the 11 bases, in
/// network order, at batch size `NOVEL_BATCHES[c]`. The sequence is the
/// same for every seed: a search can be sped up by warm starts from the
/// shapes searched before it, so a seeded order would make the search
/// latency depend on the seed.
fn novel(count: usize) -> Vec<Workload> {
    let bases = resnet18_layers(16);
    debug_assert_eq!(bases.len(), NOVEL_BASES);
    NOVEL_BATCHES
        .iter()
        .flat_map(|&n| (0..bases.len()).map(move |b| (b, n)))
        .take(count)
        .map(|(b, n)| {
            let l = &bases[b];
            ConvSpec::new(format!("{}@n{n}", l.name), n, l.k, l.c, l.p, l.q, l.r, l.s, l.stride)
                .inference(Precision::simba())
        })
        .collect()
}

fn schedule_request(w: &Workload) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str(ARCH.into())),
        ("workload".into(), workload_to_json(w)),
    ])
    .to_string()
}

fn op_request(op: &str) -> String {
    Json::Obj(vec![("op".into(), Json::Str(op.into()))]).to_string()
}

/// One client connection speaking the frame protocol.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        // Bounds a hung daemon; no healthy request comes near it.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: BufWriter::new(stream) })
    }

    fn send(&mut self, payload: &str) -> Result<(), String> {
        wire::write_frame(&mut self.writer, payload).map_err(|e| format!("write: {e}"))
    }

    fn receive(&mut self) -> Result<String, String> {
        match wire::read_frame(&mut self.reader) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn call(&mut self, payload: &str) -> Result<Json, String> {
        self.send(payload)?;
        json::parse(&self.receive()?).map_err(|e| format!("parse: {e}"))
    }
}

/// The daemon child process; stopped and reaped on every exit path.
struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Launches `sunstone-serve` (built next to this binary) with an empty
    /// store under `dir` and waits until it accepts connections.
    fn start(dir: PathBuf, threads: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let bin =
            std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("sunstone-serve");
        let socket = dir.join("d.sock");
        let child = Command::new(&bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store"))
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let daemon = Daemon { child, socket, dir };
        let t = Instant::now();
        while UnixStream::connect(&daemon.socket).is_err() {
            if t.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = self.connect().and_then(|mut c| c.call(&op_request("shutdown")));
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(15) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How one request ended.
#[derive(Debug, Clone)]
enum Verdict {
    Served {
        source: String,
        degraded: bool,
        got: Expected,
    },
    Shed,
    Error(String),
    /// Due inside the window but never sent (backlog not drained).
    Unsent,
}

/// One request; times in seconds from the window start.
#[derive(Debug, Clone)]
struct Sample {
    /// Index into the request table (popular set, then novel shapes).
    idx: usize,
    due: f64,
    start: f64,
    done: f64,
    encode_us: f64,
    wait_us: f64,
    decode_us: f64,
    verdict: Verdict,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    fn source(&self) -> Option<&str> {
        match &self.verdict {
            Verdict::Served { source, .. } => Some(source),
            _ => None,
        }
    }

    fn is_hit(&self) -> bool {
        matches!(self.source(), Some("memo" | "store"))
    }
}

fn parse_answer(v: &Json) -> Verdict {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        if v.get("kind").and_then(Json::as_str) == Some("overloaded") {
            return Verdict::Shed;
        }
        return Verdict::Error(v.get("error").and_then(Json::as_str).unwrap_or("?").to_string());
    }
    Verdict::Served {
        source: v.get("source").and_then(Json::as_str).unwrap_or("?").to_string(),
        degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(true),
        got: Expected {
            ctx_fp: v.get("ctx_fp").and_then(Json::as_u64_str).unwrap_or(0),
            mapping_fp: v.get("mapping_fp").and_then(Json::as_u64_str).unwrap_or(0),
            edp: v.get("edp").and_then(Json::as_f64).unwrap_or(f64::NAN),
        },
    }
}

/// One Poisson stream on its own connection.
struct Stream<'a> {
    socket: &'a Path,
    table: &'a [Workload],
    rate: f64,
    rng: Rng,
    tracer: Option<&'a Tracer>,
}

impl Stream<'_> {
    /// Sends every request due before `window` (seconds after `t0`),
    /// choosing each request's table index with `pick`.
    fn run(
        mut self,
        t0: Instant,
        window: f64,
        mut pick: impl FnMut(&mut Rng) -> usize,
    ) -> Result<Vec<Sample>, String> {
        let mut conn = Conn::open(self.socket)?;
        let mut samples = Vec::new();
        for due in self.rng.arrivals(self.rate, window) {
            let idx = pick(&mut self.rng);
            let mut now = t0.elapsed().as_secs_f64();
            if now > window + DRAIN.as_secs_f64() {
                let verdict = Verdict::Unsent;
                let (encode_us, wait_us, decode_us) = (0.0, 0.0, 0.0);
                samples.push(Sample {
                    idx,
                    due,
                    start: now,
                    done: now,
                    encode_us,
                    wait_us,
                    decode_us,
                    verdict,
                });
                continue;
            }
            if now < due {
                std::thread::sleep(Duration::from_secs_f64(due - now));
                now = t0.elapsed().as_secs_f64();
            }
            let request = schedule_request(&self.table[idx]);
            let encoded = t0.elapsed().as_secs_f64();
            let answer = conn.send(&request).and_then(|()| conn.receive());
            let received = t0.elapsed().as_secs_f64();
            let verdict = match answer {
                Ok(payload) => match json::parse(&payload) {
                    Ok(v) => parse_answer(&v),
                    Err(e) => Verdict::Error(format!("parse: {e}")),
                },
                Err(e) => Verdict::Error(e),
            };
            let done = t0.elapsed().as_secs_f64();
            let s = Sample {
                idx,
                due,
                start: now,
                done,
                encode_us: (encoded - now) * 1e6,
                wait_us: (received - encoded) * 1e6,
                decode_us: (done - received) * 1e6,
                verdict,
            };
            if let Some(tracer) = self.tracer {
                let at = |t: f64| tracer.at_us(t0) + t * 1e6;
                let root = tracer.record("request", 0, at(s.due), at(s.done));
                tracer.record("lag", root, at(s.due), at(s.start));
                tracer.record("encode", root, at(s.start), at(encoded));
                tracer.record("wait", root, at(encoded), at(received));
                tracer.record("decode", root, at(received), at(s.done));
            }
            samples.push(s);
        }
        Ok(samples)
    }
}

/// Requests due inside the window that had not started when it closed.
fn backlog(samples: &[Sample], window: f64) -> usize {
    samples.iter().filter(|s| s.due < window && s.start > window).count()
}

/// A stream has a growing backlog when more than a few of its requests
/// were still waiting to be sent as the window closed.
fn backlog_grew(samples: &[Sample], window: f64) -> bool {
    backlog(samples, window) > 2.max(samples.len() / 200)
}

/// Both streams over one window.
struct Window {
    reads: Vec<Sample>,
    writes: Vec<Sample>,
    /// Nominal length: requests are due before it.
    seconds: f64,
    /// From the start to the last answer.
    elapsed: f64,
}

fn run_window(
    socket: &Path,
    table: &[Workload],
    popular: usize,
    novel_next: &mut usize,
    seconds: f64,
    rng: &mut Rng,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let zipf = Zipf::new(popular);
    let reads = Stream { socket, table, rate: READ_RATE, rng: Rng::new(rng.next_u64(), 1), tracer };
    let rate = write_count(seconds) as f64 / seconds;
    let writes = Stream { socket, table, rate, rng: Rng::new(rng.next_u64(), 2), tracer };
    let t0 = Instant::now();
    let first_novel = *novel_next;
    let (reads, writes) = std::thread::scope(|scope| {
        let r = scope.spawn(|| reads.run(t0, seconds, |rng| zipf.sample(rng)));
        let mut next = first_novel;
        let w = writes.run(t0, seconds, |_| {
            next += 1;
            next - 1
        });
        let r = r.join().map_err(|_| "read stream panicked".to_string())?;
        Ok::<_, String>((r, w))
    })?;
    let (reads, writes) = (reads?, writes?);
    *novel_next += writes.len();
    Ok(Window { reads, writes, seconds, elapsed: t0.elapsed().as_secs_f64() })
}

/// One numeric counter of a `cache_stats` response.
fn counter(stats: &Json, path: &[&str]) -> f64 {
    path.iter().try_fold(stats, |v, k| v.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs `serve-mix`.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let popular_set = popular();
    let n_popular = popular_set.len();
    let seconds = opts.seconds.as_secs_f64();
    let mut table = popular_set;
    // Enough for a whole window or both halves of a traced run.
    let writes = write_count(seconds).max(2 * write_count(seconds / 2.0));
    table.extend(novel(writes));
    if table.len() < n_popular + writes {
        return Err(format!("--seconds {seconds} needs more novel shapes than the table holds"));
    }

    // Set-up: launch the daemon on an empty store and warm the popular
    // set; repeated, keeping the last daemon for the timed phase.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut warm = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        let dir = opts.scratch.join(format!("serve-{}-{rep}", std::process::id()));
        let d = Daemon::start(dir, DAEMON_THREADS.min(opts.threads))?;
        let mut conn = d.connect()?;
        warm.clear();
        for w in &table[..n_popular] {
            match parse_answer(&conn.call(&schedule_request(w))?) {
                Verdict::Served { got, degraded: false, .. } => warm.push(got),
                other => return Err(format!("set-up: {}: {other:?}", w.name())),
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran");

    let stats = || daemon.connect().and_then(|mut c| c.call(&op_request("cache_stats")));
    let mut rng = Rng::new(opts.seed, 4);
    let mut novel_next = n_popular;
    let tracer = Arc::new(Tracer::default());
    // A traced run first runs an untraced half window, then traces the
    // other half.
    let window_s = if opts.trace { seconds / 2.0 } else { seconds };
    let plain = if opts.trace {
        Some(run_window(
            &daemon.socket,
            &table,
            n_popular,
            &mut novel_next,
            window_s,
            &mut rng,
            None,
        )?)
    } else {
        None
    };
    let before = stats()?;
    let steal0 = host_steal_s().unwrap_or(0.0);
    let window = run_window(
        &daemon.socket,
        &table,
        n_popular,
        &mut novel_next,
        window_s,
        &mut rng,
        opts.trace.then_some(&*tracer),
    )?;
    let stolen = host_steal_s().unwrap_or(0.0) - steal0;
    let after = stats()?;
    let rss = peak_rss_mb(daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    daemon.stop()?;

    // Oracle: every served answer against an in-process library session
    // with the daemon's configuration.
    let config = SunstoneConfig::builder()
        .threads(opts.threads)
        .and_then(|b| b.build())
        .map_err(|e| format!("config: {e}"))?;
    let reference = Scheduler::new(config);
    let arch = wire::arch_by_name(ARCH).expect("known preset");
    let used = &table[..novel_next];
    let batch = reference.schedule_batch(used, &arch).map_err(|e| format!("reference: {e}"))?;
    let expected: Vec<Expected> = used
        .iter()
        .enumerate()
        .map(|(i, w)| Expected {
            ctx_fp: reference.context_fingerprint(w, &arch),
            mapping_fp: mapping_fingerprint(&batch.best(i).mapping),
            edp: batch.best(i).report.edp,
        })
        .collect();
    let mut failures: Vec<String> = Vec::new();
    for (w, (got, want)) in used.iter().zip(warm.iter().zip(&expected)) {
        if let Err(e) = check_served(w.name(), want, got) {
            failures.push(format!("set-up answer: {e}"));
        }
    }
    let all: Vec<&Sample> = plain
        .iter()
        .flat_map(|p| p.reads.iter().chain(&p.writes))
        .chain(window.reads.iter())
        .chain(&window.writes)
        .collect();
    let mut failed = 0u64;
    let mut ok = vec![false; all.len()];
    for (k, s) in all.iter().enumerate() {
        let name = table[s.idx].name();
        let verdict = match &s.verdict {
            Verdict::Served { degraded: true, .. } => Err(format!("{name}: degraded answer")),
            Verdict::Served { got, .. } => check_served(name, &expected[s.idx], got),
            Verdict::Shed => Err(format!("{name}: shed")),
            Verdict::Error(e) => Err(format!("{name}: error: {e}")),
            Verdict::Unsent => Err(format!("{name}: never sent")),
        };
        match verdict {
            Ok(()) => ok[k] = true,
            Err(e) => {
                failed += 1;
                if failures.len() < 5 {
                    failures.push(e);
                }
            }
        }
    }

    let mut out = Outcome { attempted: all.len() as u64, failed, ..Outcome::default() };
    let grew = [&window.reads, &window.writes]
        .into_iter()
        .chain(plain.iter().flat_map(|p| [&p.reads, &p.writes]))
        .any(|s| backlog_grew(s, window.seconds));
    if grew {
        out.run_error = Some("growing backlog: the offered load outran the daemon".into());
    }
    if !failures.is_empty() {
        println!("oracle: {failed} failed request(s); first: {}", failures.join("; "));
        out.run_error.get_or_insert_with(|| failures[0].clone());
    }

    let timed: Vec<(&Sample, bool)> = all
        .iter()
        .copied()
        .zip(ok)
        .skip(plain.as_ref().map_or(0, |p| p.reads.len() + p.writes.len()))
        .collect();
    let hits: Vec<f64> =
        timed.iter().filter(|(s, _)| s.is_hit()).map(|(s, _)| s.latency_ms()).collect();
    let misses: Vec<f64> = timed
        .iter()
        .filter(|(s, _)| s.source() == Some("search"))
        .map(|(s, _)| s.latency_ms())
        .collect();
    let good = timed
        .iter()
        .filter(|(s, ok)| {
            *ok && s.latency_ms() <= if s.is_hit() { HIT_LIMIT_MS } else { SEARCH_LIMIT_MS }
        })
        .count();
    let lag: Vec<f64> = window.reads.iter().map(|s| (s.start - s.due) * 1e3).collect();
    let tail = tail_q(hits.len()).map_or("too few hits for a tail percentile".into(), |q| {
        format!("p{} {:.3} ms", q * 100.0, quantile(&hits, q))
    });
    println!(
        "{} reads + {} writes in {:.1} s; hits (n={}) p50 {:.3} ms, {tail}; searches (n={}) p50 {:.1} ms, geomean {:.1} ms; read lag p99 {:.3} ms; host steal {:.1} %",
        window.reads.len(),
        window.writes.len(),
        window.seconds,
        hits.len(),
        median(&hits),
        misses.len(),
        median(&misses),
        geomean(&misses),
        quantile(&lag, 0.99),
        steal_pct(stolen, window.elapsed, opts.threads),
    );

    if opts.trace {
        let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
        let hit_samples = || timed.iter().filter(|(s, _)| s.is_hit()).map(|(s, _)| *s);
        let (hits_d, misses_d) = (delta(&["session", "hits"]), delta(&["session", "misses"]));
        out.set(
            "session.cache_hit_rate",
            if hits_d + misses_d > 0.0 { hits_d / (hits_d + misses_d) } else { 0.0 },
        );
        out.set("session.cache_entries", counter(&after, &["session", "entries"]));
        out.set("session.pool_rounds", delta(&["session", "pool_rounds"]));
        out.set("wire.encode_us", median(&hit_samples().map(|s| s.encode_us).collect::<Vec<_>>()));
        out.set("wire.decode_us", median(&hit_samples().map(|s| s.decode_us).collect::<Vec<_>>()));
        out.set("serve.wait_us", median(&hit_samples().map(|s| s.wait_us).collect::<Vec<_>>()));
        out.set("serve.memo_hits", delta(&["memo_hits"]) + delta(&["store_hits"]));
        out.set("serve.searches", delta(&["searches"]));
        out.set("serve.shed_requests", delta(&["shed_requests"]));
        out.set("serve.degraded", delta(&["degraded"]));
        out.set("serve.errors", delta(&["errors"]));
        out.set("serve.hit_p50_ms", median(&hits));
        out.set("store.appended", delta(&["store", "appended"]));
        out.set("store.fsyncs", delta(&["store", "fsyncs"]));
        out.set("loadgen.lag_p99_ms", quantile(&lag, 0.99));
        out.set("serve.hit_p99_ms", quantile(&hits, 0.99));
        let plain_hits: Vec<f64> = plain
            .iter()
            .flat_map(|p| &p.reads)
            .filter(|s| s.is_hit())
            .map(Sample::latency_ms)
            .collect();
        out.set("trace.overhead_ms", median(&hits) - median(&plain_hits));
        let path = opts.scratch.join(format!("trace-serve-mix-{}.jsonl", opts.seed));
        tracer.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        return Ok(out);
    }

    out.set("setup_s", median(&setup_s));
    if !grew {
        // The shapes differ in cost, so a median of the mix jumps between
        // them from run to run; the geometric mean weighs each alike.
        out.set("latency_ms", geomean(&misses));
    }
    out.set("goodput_per_s", good as f64 / window.elapsed);
    out.set("edp_geomean", geomean(&warm.iter().map(|g| g.edp).collect::<Vec<_>>()));
    out.set("peak_rss_mb", rss);
    Ok(out)
}
