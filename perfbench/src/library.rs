//! `resnet18-cold`: whole-network scheduling through the library, one
//! `Scheduler::schedule_batch` call per operation.
//!
//! Every call builds a fresh session, as a compiler scheduling a network
//! does, so every layer of the search stack does real work. The traced
//! run also re-schedules the network on the session a call just primed:
//! the estimate cache then serves the model and only the search machinery
//! runs (`search.warm_network_ms`).
//!
//! The network is ResNet-18 (20 convolutions, 11 unique shapes) at batch
//! 16 on `simba_like`. It is fixed, so the seed changes nothing here.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone_arch::{presets, ArchSpec, Binding};
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, MappingLevel};
use sunstone_model::CostModel;
use sunstone_workloads::{resnet18_network, Precision};

use crate::oracle::{check_mapping, Baseline};
use crate::report::Outcome;
use crate::stats::{geomean, median, quantile, tail_q};
use crate::trace::{Span, SpanSink, Tracer};
use crate::{host_steal_s, peak_rss_mb, steal_pct, RunOptions};

/// Latency limit of one network call for `goodput_per_s`.
const LIMIT_MS: f64 = 5_000.0;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Re-runs of the network on a primed session in the traced run;
/// `search.warm_network_ms` is their median.
const WARM_RERUNS: usize = 5;

/// In the per-shape pass, the share of each shape's wall time (its
/// `call:<shape>` span) its stage spans must cover at least; the rest is
/// `search.unattributed_ms`.
const MIN_STAGE_COVER: f64 = 0.5;

/// The network at batch 16: 20 layers over 11 unique shapes.
fn network() -> Vec<Workload> {
    resnet18_network(16).iter().map(|l| l.inference(Precision::simba())).collect()
}

/// A network layer's unique-shape name (`conv2_x/3` → `conv2_x`).
fn base_name(w: &Workload) -> &str {
    w.name().split('/').next().unwrap_or(w.name())
}

/// First occurrence of each unique shape, in network order.
fn unique_indices(net: &[Workload]) -> Vec<usize> {
    let mut seen = HashMap::new();
    (0..net.len()).filter(|&i| seen.insert(base_name(&net[i]), ()).is_none()).collect()
}

struct Inputs {
    arch: ArchSpec,
    net: Vec<Workload>,
    config: SunstoneConfig,
}

/// One timed call.
struct Call {
    ms: f64,
    result: Result<BatchResult, ScheduleError>,
}

/// Schedules the network on a fresh session; returns the call and the
/// session it primed. The time runs until `schedule_batch` returns.
fn call(inputs: &Inputs, options: &BatchOptions) -> (Call, Scheduler) {
    let t = Instant::now();
    let session = Scheduler::new(inputs.config.clone());
    let result = session.schedule_batch_with(&inputs.net, &inputs.arch, options);
    (Call { ms: t.elapsed().as_secs_f64() * 1e3, result }, session)
}

/// Calls until `window` has passed; the window closes at the last
/// completion. Each call's session is dropped once its call is timed.
fn timed(inputs: &Inputs, window: Duration) -> (Vec<Call>, f64) {
    let t0 = Instant::now();
    let mut calls = Vec::new();
    while t0.elapsed() < window {
        calls.push(call(inputs, &BatchOptions::default()).0);
    }
    (calls, t0.elapsed().as_secs_f64())
}

/// What the oracle found over a set of calls.
struct Verdict {
    /// Calls that errored or failed a check.
    failed: u64,
    /// The first failure.
    first: Option<String>,
    /// Unique shapes whose `mapping_fp` matched the baseline on every
    /// successful call (0 when no call succeeded).
    matched: usize,
}

/// Runs the oracle over every call.
fn check_calls<'a>(
    inputs: &Inputs,
    baseline: &Baseline,
    calls: impl IntoIterator<Item = &'a Call>,
) -> Verdict {
    let unique = unique_indices(&inputs.net);
    let mut mismatched = vec![false; unique.len()];
    let mut succeeded = false;
    let mut failed = 0;
    let mut first = None;
    for c in calls {
        let verdict: Result<(), String> = match &c.result {
            Err(e) => Err(format!("schedule_batch failed: {e}")),
            Ok(batch) => {
                succeeded = true;
                let fp_checks: Vec<Result<(), String>> = unique
                    .iter()
                    .map(|&i| {
                        baseline.check(
                            base_name(&inputs.net[i]),
                            mapping_fingerprint(&batch.best(i).mapping),
                        )
                    })
                    .collect();
                for (m, r) in mismatched.iter_mut().zip(&fp_checks) {
                    *m |= r.is_err();
                }
                (0..inputs.net.len())
                    .try_for_each(|i| {
                        let best = batch.best(i);
                        check_mapping(&inputs.net[i], &inputs.arch, &best.mapping, best.report.edp)
                    })
                    .and_then(|()| fp_checks.into_iter().collect())
            }
        };
        if let Err(e) = verdict {
            failed += 1;
            first.get_or_insert(e);
        }
    }
    let matched = if succeeded { mismatched.iter().filter(|&&m| !m).count() } else { 0 };
    Verdict { failed, first, matched }
}

/// Runs `resnet18-cold`.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let config = SunstoneConfig::builder()
        .threads(opts.threads)
        .and_then(|b| b.build())
        .map_err(|e| format!("config: {e}"))?;
    let baseline = Baseline::load()?;

    // Set-up: build the inputs and schedule the network once on a
    // throwaway session: the process warm-up (allocator, page faults)
    // every compiler process pays once. Each rep's session is dropped
    // before the next starts.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = Inputs { arch: presets::simba_like(), net: network(), config: config.clone() };
        Scheduler::new(config.clone())
            .schedule_batch(&built.net, &built.arch)
            .map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("set-up ran");

    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, &inputs, &baseline, &mut out)?;
        return Ok(out);
    }

    let steal0 = host_steal_s().unwrap_or(0.0);
    let (calls, window_s) = timed(&inputs, opts.seconds);
    let stolen = host_steal_s().unwrap_or(0.0) - steal0;
    let rss = peak_rss_mb(std::process::id()).ok_or("cannot read VmHWM")?;
    let Verdict { failed, first, matched } = check_calls(&inputs, &baseline, &calls);
    let unique = unique_indices(&inputs.net);
    let ms: Vec<f64> = calls.iter().map(|c| c.ms).collect();
    let good = calls.iter().filter(|c| c.result.is_ok() && c.ms <= LIMIT_MS).count();
    let edps: Vec<f64> = calls
        .iter()
        .find_map(|c| c.result.as_ref().ok())
        .map(|b| b.bests().map(|r| r.report.edp).collect())
        .unwrap_or_default();

    let tail = tail_q(ms.len()).map_or("too few calls for a tail percentile".into(), |q| {
        format!("p{} {:.1} ms", q * 100.0, quantile(&ms, q))
    });
    println!(
        "{} calls in {window_s:.2} s; p50 {:.1} ms, {tail}; baseline mapping_fp {matched}/{}; host steal {:.1} %",
        calls.len(),
        median(&ms),
        baseline.len(),
        steal_pct(stolen, window_s, opts.threads),
    );
    if let Some(e) = &first {
        println!("oracle: {failed} failed call(s); first: {e}");
    }
    out.attempted = calls.len() as u64;
    out.failed = failed;
    if matched != unique.len() {
        out.run_error = Some(format!("baseline mapping_fp matched {matched}/{}", unique.len()));
    }
    out.set("setup_s", median(&setup_s));
    out.set("latency_ms", median(&ms));
    out.set("goodput_per_s", good as f64 / window_s);
    out.set("edp_geomean", geomean(&edps));
    out.set("peak_rss_mb", rss);
    Ok(out)
}

/// The traced run: untraced calls alternate with calls that carry a span
/// sink (the difference of medians is the tracing overhead, both sampled
/// under the same host load), then a warm re-run, a per-shape pass that
/// yields stage spans, and model throughput.
fn traced(
    opts: &RunOptions,
    inputs: &Inputs,
    baseline: &Baseline,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Arc::new(Tracer::default());
    let mut plain = Vec::new();
    let mut traced_calls = Vec::new();
    let mut last = None;
    let t0 = Instant::now();
    while t0.elapsed() < opts.seconds {
        // The previous traced call's session goes before the next call.
        drop(last.take());
        plain.push(call(inputs, &BatchOptions::default()).0);
        let root = tracer.begin("network", 0);
        let sink = Arc::new(SpanSink::new(Arc::clone(&tracer), root));
        let options = BatchOptions::default().progress(sink.clone());
        let (c, session) = call(inputs, &options);
        tracer.end();
        traced_calls.push(c);
        last = Some((sink, session));
    }
    let (sink, primed) = last.ok_or("no traced call")?;
    // Per-layer figures come from the last traced call; its session was
    // fresh, so the session counters are that call's.
    let c = traced_calls.last().expect("a call per sink");
    let cache = primed.cache_stats();
    let (hits, misses, entries, rounds) =
        (cache.hits, cache.misses, cache.entries, cache.pool_rounds);
    let batch = c.result.as_ref().map_err(|e| format!("traced call failed: {e}"))?;

    // The same network on the session that call primed: the estimate
    // cache serves the model, so this times the search machinery alone.
    let warm_calls: Vec<Call> = (0..WARM_RERUNS)
        .map(|_| {
            let t = Instant::now();
            let result = primed.schedule_batch(&inputs.net, &inputs.arch);
            Call { ms: t.elapsed().as_secs_f64() * 1e3, result }
        })
        .collect();
    drop(primed);

    let unique = unique_indices(&inputs.net);
    let searches: Vec<&SearchStats> = unique.iter().map(|&i| &batch.best(i).stats).collect();
    let sum = |f: &dyn Fn(&SearchStats) -> u64| searches.iter().map(|s| f(s)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let modeled = sum(&|s| s.modeled);
    let layer_ms = sink.layer_ms();

    out.set("session.unique_shapes", batch.stats.unique_shapes as f64);
    out.set("session.dedup_hits", batch.stats.dedup_hits as f64);
    out.set("session.cache_hit_rate", ratio(hits as f64, (hits + misses) as f64));
    out.set("session.pool_rounds", rounds as f64);
    out.set("search.layer_p50_ms", median(&layer_ms));
    out.set("search.layer_max_ms", layer_ms.iter().copied().fold(0.0, f64::max));
    out.set(
        "search.candidates",
        sum(&|s| s.levels.iter().map(|l| l.beam.considered + l.dedup_removed).sum()),
    );
    out.set("search.beam_kept", sum(&|s| s.levels.iter().map(|l| l.beam.kept).sum()));
    out.set("search.dedup_removed", sum(&|s| s.levels.iter().map(|l| l.dedup_removed).sum()));
    out.set("search.orderings", sum(&|s| s.orderings));
    out.set("search.tiles", sum(&|s| s.tiles));
    out.set("search.unrollings", sum(&|s| s.unrollings));
    out.set("search.nodes_explored", sum(&|s| s.nodes_explored));
    out.set("estimate.probed", sum(&|s| s.probed));
    out.set("estimate.modeled", modeled);
    out.set("estimate.prefix_hit_rate", ratio(sum(&|s| s.prefix_hits), modeled));
    out.set("estimate.batched_fraction", ratio(sum(&|s| s.batched), modeled));
    out.set("estimate.avg_batch_width", ratio(sum(&|s| s.batched), sum(&|s| s.batches)));
    out.set("pool.rounds", sum(&|s| s.rounds));

    // Stage spans: batch workers do not forward level events, so each
    // unique shape is scheduled once more through `schedule_with` on a
    // fresh session.
    let stage_session = Scheduler::new(inputs.config.clone());
    let mut stage_ms = [0.0f64; 4];
    let mut unattributed = 0.0;
    let mut accounted = 0;
    for &i in &unique {
        let w = &inputs.net[i];
        let layer = tracer.begin(format!("call:{}", base_name(w)), 0);
        let sink = Arc::new(SpanSink::new(Arc::clone(&tracer), layer));
        stage_session
            .schedule_with(w, &inputs.arch, &ScheduleOptions::default().progress(sink))
            .map_err(|e| format!("{}: {e}", w.name()))?;
        tracer.end();
        // The shape's wall time in this pass is its `call:<shape>` span.
        let spans = tracer.spans();
        let wall = spans.iter().find(|s| s.id == layer).map_or(0.0, Span::ms);
        let mut covered = 0.0;
        for s in spans.iter().filter(|s| s.parent == layer) {
            if let Some(k) = s.name.strip_prefix("stage").and_then(|k| k.parse::<usize>().ok()) {
                stage_ms[k.min(3)] += s.ms();
                covered += s.ms();
            }
        }
        unattributed += wall - covered;
        if covered <= wall && covered >= MIN_STAGE_COVER * wall {
            accounted += 1;
        }
    }
    for (k, v) in stage_ms.iter().enumerate() {
        out.set(
            ["search.stage0_ms", "search.stage1_ms", "search.stage2_ms", "search.stage3_ms"][k],
            *v,
        );
    }
    out.set("search.unattributed_ms", unattributed);
    if accounted != unique.len() {
        out.run_error = Some(format!(
            "stage spans cover less than {:.0} % or more than 100 % of the layer's wall time on {} layer(s)",
            MIN_STAGE_COVER * 100.0,
            unique.len() - accounted
        ));
    }

    let bests: Vec<(&Workload, &Mapping)> =
        unique.iter().map(|&i| (&inputs.net[i], &batch.best(i).mapping)).collect();
    let (evals_per_s, batch_evals_per_s) = model_throughput(&inputs.arch, &bests);
    out.set("session.cache_entries", entries as f64);
    out.set("model.evals_per_s", evals_per_s);
    out.set("model.batch_evals_per_s", batch_evals_per_s);
    // Computed, not measured: modeled evaluations at the batch rate, as a
    // share of the traced call's wall time.
    out.set("model.est_share", ratio(modeled / batch_evals_per_s.max(1.0), c.ms / 1e3));
    let ms = |calls: &[Call]| calls.iter().map(|c| c.ms).collect::<Vec<_>>();
    out.set("trace.overhead_ms", median(&ms(&traced_calls)) - median(&ms(&plain)));

    out.set("search.warm_network_ms", median(&ms(&warm_calls)));

    let Verdict { failed, first, matched } =
        check_calls(inputs, baseline, plain.iter().chain(&traced_calls).chain(&warm_calls));
    if matched != unique.len() {
        out.run_error
            .get_or_insert(format!("baseline mapping_fp matched {matched}/{}", unique.len()));
    }
    if let Some(e) = &first {
        println!("oracle: {failed} failed call(s); first: {e}");
    }
    out.attempted = (plain.len() + traced_calls.len() + warm_calls.len()) as u64;
    out.failed = failed;
    println!(
        "traced: {} untraced + {} traced calls; stage spans cover 50-100 % of the shape's wall time on {accounted}/{} shapes",
        plain.len(),
        traced_calls.len(),
        unique.len()
    );
    let path = opts.scratch.join(format!("trace-resnet18-cold-{}.jsonl", opts.seed));
    tracer.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(())
}

/// Cost-model throughput on the run's own best mappings: the scalar
/// reference path and the 16-wide batch path over a decided prefix.
fn model_throughput(arch: &ArchSpec, bests: &[(&Workload, &Mapping)]) -> (f64, f64) {
    const EVALS: usize = 1_000;
    const DISPATCHES: usize = 100;
    const WIDTH: usize = 16;
    let (mut scalar_s, mut batch_s, mut checksum) = (0.0, 0.0, 0.0);
    for &(w, m) in bests {
        let Ok(binding) = Binding::resolve(arch, w) else { continue };
        let model = CostModel::new(w, arch, &binding);
        let mut scratch = model.scratch();
        let t = Instant::now();
        for _ in 0..EVALS {
            checksum += model.evaluate_unchecked_with(m, &mut scratch).edp;
        }
        scalar_s += t.elapsed().as_secs_f64();

        // Prefix boundary of the final bottom-up stage: everything below
        // the outermost memory is decided.
        let mems: Vec<usize> = m
            .levels()
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, MappingLevel::Temporal(_)))
            .map(|(i, _)| i)
            .collect();
        let prefix = model.prefix_of(m, mems[mems.len().saturating_sub(2)]);
        let batch = vec![m.clone(); WIDTH];
        let mut batch_scratch = model.batch_scratch();
        let t = Instant::now();
        for _ in 0..DISPATCHES {
            model.evaluate_prefixed_batch(&prefix, &batch, &mut batch_scratch, |_, r| {
                checksum += r.edp
            });
        }
        batch_s += t.elapsed().as_secs_f64();
    }
    std::hint::black_box(checksum);
    let n = bests.len() as f64;
    (n * EVALS as f64 / scalar_s, n * (DISPATCHES * WIDTH) as f64 / batch_s)
}
