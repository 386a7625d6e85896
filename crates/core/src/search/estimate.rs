//! Candidate estimation: completion of partial mappings, the
//! session-lifetime memoized estimate cache, prefix-incremental cost
//! evaluation, and parallel execution on the session worker pool.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use sunstone_ir::{DimSet, DimVec, FxHashMap};
use sunstone_mapping::{Mapping, MappingLevel};
use sunstone_model::{BatchEvalScratch, CostReport, CostTotals, EvalScratch, MappingPrefix};

use super::beam::MappingKey;
use super::candidates::Candidate;
use super::stats::SearchStats;
use super::{BeamState, SearchContext};
use crate::pool::SliceWriter;

/// Cumulative statistics of a session's estimate cache and worker pool
/// ([`Scheduler::cache_stats`](crate::Scheduler::cache_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Estimates served from the cache since the session was created.
    pub hits: u64,
    /// Estimates that had to run the analytic model.
    pub misses: u64,
    /// Estimates currently retained (bounded by
    /// [`SunstoneConfig::max_cache_entries`](crate::SunstoneConfig::max_cache_entries)).
    pub entries: usize,
    /// Approximate bytes the retained estimates occupy: each entry's key
    /// and totals (plus one hash-table control byte), and any key bytes
    /// spilled to the heap. The enumeration memos are not counted.
    pub bytes: usize,
    /// Model evaluations that reused a memoized decided-prefix cost
    /// instead of re-deriving every level from scratch.
    pub prefix_hits: u64,
    /// SoA batch dispatches: contiguous same-prefix candidate runs priced
    /// through the structure-of-arrays evaluator in one call.
    pub batches: u64,
    /// Model evaluations priced inside an SoA batch (the rest went
    /// through the monolithic path: stages with no shared prefix).
    pub batched: u64,
    /// Fan-out rounds the session worker pool has executed.
    pub pool_rounds: u64,
    /// OS thread spawns avoided versus a per-round `std::thread::scope`.
    pub spawns_avoided: u64,
}

impl CacheStats {
    /// Fraction of probes served from the cache (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Fraction of model evaluations that reused a memoized prefix
    /// (0 when the model never ran).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.misses as f64
        }
    }

    /// Mean number of candidates priced per SoA batch dispatch (0 when no
    /// batch ever ran).
    pub fn avg_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched as f64 / self.batches as f64
        }
    }

    /// Fraction of model evaluations priced through the SoA batch path
    /// (0 when the model never ran).
    pub fn batched_fraction(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.batched as f64 / self.misses as f64
        }
    }
}

/// Memoized tile enumeration: the kept tiles plus the enumeration stats
/// to replay, so cached and uncached searches report identical counters.
#[derive(Debug, Clone)]
pub(crate) struct TileMemo {
    pub(crate) tiles: Vec<DimVec>,
    pub(crate) explored: usize,
}

/// Key of one tile enumeration; together with the context fingerprint
/// this covers every input of `tiles_with_allowed` (the ladders, pruning
/// flags, caps, and the capacity plan of `mem_pos` are all functions of
/// the context).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    pub(crate) mem_pos: usize,
    pub(crate) base: DimVec,
    pub(crate) quotas: DimVec,
    pub(crate) reserve: u64,
    pub(crate) allowed: DimSet,
    pub(crate) unrollable: DimSet,
}

/// Memoized unrolling enumeration (one fabric, one accumulated prefix).
#[derive(Debug, Clone)]
pub(crate) struct UnrollMemo {
    pub(crate) unrollings: Vec<DimVec>,
    pub(crate) explored: usize,
}

/// Key of one per-fabric unrolling enumeration. `combined` is the
/// resident tile already multiplied by the unrolls accumulated from
/// inner fabrics — the exact base the capacity probe inflates — so the
/// key covers the whole fits closure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct UnrollKey {
    pub(crate) pos: usize,
    pub(crate) quotas: DimVec,
    pub(crate) principled: DimSet,
    pub(crate) combined: DimVec,
}

/// Everything the session retains for one context fingerprint: memoized
/// cost totals plus the tile/unrolling enumeration memos, and the LRU
/// stamp the cache bound evicts by.
#[derive(Debug, Default)]
pub(crate) struct CtxEntry {
    costs: FxHashMap<MappingKey, CostTotals>,
    tiles: FxHashMap<TileKey, TileMemo>,
    unrolls: FxHashMap<UnrollKey, UnrollMemo>,
    /// Logical timestamp of the last estimation round that used this
    /// context (whole-context LRU eviction granularity).
    last_used: u64,
}

/// The session-lifetime estimate cache: memoized cost totals
/// (`{energy, delay, EDP}`, not whole reports) keyed by *(context
/// fingerprint, exact completed-mapping key)*, plus the per-context
/// enumeration memos.
///
/// The context fingerprint condenses *(workload, architecture, search
/// configuration)* ([`crate::fingerprint`]), so one map safely serves
/// every call a [`Scheduler`](crate::Scheduler) session makes: repeated
/// calls on the same layer, repeated layer shapes inside a batch, and the
/// candidate re-evaluations of the network pass all hit entries written by
/// earlier work. Within one search, distinct beam states frequently
/// complete to the same mapping — the remainder placement collapses
/// states that differ only in undecided levels — so the cache saves real
/// model work even on the first call.
///
/// The map is shared across worker threads; entries are inserted after
/// each parallel evaluation round, so the lock is never contended inside
/// the model. Retained estimates are bounded by
/// [`SunstoneConfig::max_cache_entries`](crate::SunstoneConfig::max_cache_entries):
/// when an insert pushes past the bound, the least-recently-used context
/// fingerprints are evicted whole (never the context that just inserted).
#[derive(Debug, Default)]
pub(crate) struct SessionCache {
    map: Mutex<FxHashMap<u64, CtxEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Retained estimates and their approximate bytes, maintained on
    /// insert/evict/clear so [`stats`](Self::stats) never walks the map
    /// under the lock.
    entries: AtomicUsize,
    bytes: AtomicUsize,
    /// Logical clock behind every `CtxEntry::last_used` stamp.
    tick: AtomicU64,
    prefix_hits: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
}

impl SessionCache {
    pub(crate) fn new() -> Self {
        SessionCache::default()
    }

    /// Locks the cache map, recovering from mutex poisoning. A panic can
    /// only unwind while the lock is held *between* map operations (each
    /// individual insert/remove leaves the map structurally valid), so
    /// the data under a poisoned lock is a valid map whose *contents* may
    /// be half-published — and the fault boundary follows every caught
    /// panic with [`evict_context`](Self::evict_context), which drops
    /// exactly that context. Propagating the poison instead would turn
    /// one recovered fault into a permanently broken session.
    fn lock_map(&self) -> MutexGuard<'_, FxHashMap<u64, CtxEntry>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Poison-and-recover: drops everything retained for `fp` — cost
    /// reports, tile/unroll enumeration memos, the LRU stamp — and
    /// recomputes the retained-report counter from the surviving
    /// contexts. Called by the panic-isolation boundary after a caught
    /// fault: the faulting call may have died mid-publish (reports
    /// inserted but the counter not yet bumped, or vice versa), so the
    /// counter is rebuilt rather than adjusted. Runs under the map lock,
    /// and every publisher updates the counter while holding the same
    /// lock, so the recount is exact even with concurrent batch workers.
    pub(crate) fn evict_context(&self, fp: u64) {
        let mut map = self.lock_map();
        map.remove(&fp);
        let total = map.values().map(|e| e.costs.len()).sum();
        let bytes = map.values().map(CtxEntry::bytes).sum();
        self.entries.store(total, Ordering::Relaxed);
        self.bytes.store(bytes, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            // Pool counters are filled in by the scheduler, which owns
            // the pool.
            pool_rounds: 0,
            spawns_avoided: 0,
        }
    }

    pub(crate) fn clear(&self) {
        self.lock_map().clear();
        self.entries.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.prefix_hits.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batched.store(0, Ordering::Relaxed);
    }

    /// Evicts whole least-recently-used contexts (never `keep`) until the
    /// retained estimates fit `max` again or only `keep` is left.
    fn evict_lru(&self, map: &mut FxHashMap<u64, CtxEntry>, max: usize, keep: u64) {
        while self.entries.load(Ordering::Relaxed) > max {
            let victim = map
                .iter()
                .filter(|(fp, e)| **fp != keep && !e.costs.is_empty())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp);
            let Some(fp) = victim else { break };
            if let Some(e) = map.remove(&fp) {
                self.entries.fetch_sub(e.costs.len(), Ordering::Relaxed);
                self.bytes.fetch_sub(e.bytes(), Ordering::Relaxed);
            }
        }
    }

    /// Inserts one estimate into `e`, keeping the entry and byte counters
    /// in step; returns whether the key was new.
    fn insert_into(&self, e: &mut CtxEntry, key: MappingKey, totals: CostTotals) -> bool {
        let bytes = entry_bytes(&key);
        let new = e.costs.insert(key, totals).is_none();
        if new {
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        new
    }
}

/// Approximate retained bytes of one estimate-cache entry.
fn entry_bytes(key: &MappingKey) -> usize {
    std::mem::size_of::<(MappingKey, CostTotals)>() + 1 + key.spilled_bytes()
}

impl CtxEntry {
    fn bytes(&self) -> usize {
        self.costs.keys().map(entry_bytes).sum()
    }
}

/// One search's view of the [`SessionCache`]: the context fingerprint is
/// fixed, so lookups cannot cross workloads, architectures, or
/// configurations.
pub(crate) struct EstimateCache<'s> {
    enabled: bool,
    ctx_fp: u64,
    max_entries: usize,
    session: &'s SessionCache,
}

impl<'s> EstimateCache<'s> {
    pub(crate) fn new(
        enabled: bool,
        ctx_fp: u64,
        max_entries: usize,
        session: &'s SessionCache,
    ) -> Self {
        EstimateCache { enabled, ctx_fp, max_entries, session }
    }

    fn lookup(&self, key: &MappingKey) -> Option<CostTotals> {
        if !self.enabled {
            return None;
        }
        let found =
            self.session.lock_map().get(&self.ctx_fp).and_then(|e| e.costs.get(key)).copied();
        match &found {
            Some(_) => self.session.hits.fetch_add(1, Ordering::Relaxed),
            None => self.session.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: MappingKey, totals: CostTotals) {
        if !self.enabled {
            return;
        }
        let mut guard = self.session.lock_map();
        let tick = self.session.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let e = guard.entry(self.ctx_fp).or_default();
        e.last_used = tick;
        if self.session.insert_into(e, key, totals) {
            let total = self.session.entries.fetch_add(1, Ordering::Relaxed) + 1;
            if total > self.max_entries {
                self.session.evict_lru(&mut guard, self.max_entries, self.ctx_fp);
            }
        }
    }

    /// Memoized tile enumeration for this context, if already recorded.
    pub(crate) fn tiles_lookup(&self, key: &TileKey) -> Option<TileMemo> {
        if !self.enabled {
            return None;
        }
        self.session.lock_map().get(&self.ctx_fp).and_then(|e| e.tiles.get(key)).cloned()
    }

    pub(crate) fn tiles_insert(&self, key: TileKey, memo: TileMemo) {
        if self.enabled {
            self.session.lock_map().entry(self.ctx_fp).or_default().tiles.insert(key, memo);
        }
    }

    /// Memoized unrolling enumeration for this context, if already
    /// recorded.
    pub(crate) fn unrolls_lookup(&self, key: &UnrollKey) -> Option<UnrollMemo> {
        if !self.enabled {
            return None;
        }
        self.session.lock_map().get(&self.ctx_fp).and_then(|e| e.unrolls.get(key)).cloned()
    }

    pub(crate) fn unrolls_insert(&self, key: UnrollKey, memo: UnrollMemo) {
        if self.enabled {
            self.session.lock_map().entry(self.ctx_fp).or_default().unrolls.insert(key, memo);
        }
    }
}

/// Completes a truncated beam state into a structurally valid mapping
/// (the best-so-far contract) by multiplying its remaining quotas into
/// memory `pos` ([`LevelPass::completion_pos`]: bottom-up the outermost
/// memory, top-down the innermost).
///
/// [`LevelPass::completion_pos`]: super::compose::LevelPass::completion_pos
pub(crate) fn complete(state: &BeamState, pos: usize) -> Mapping {
    let mut m = state.mapping.clone();
    if let MappingLevel::Temporal(t) = &mut m.levels_mut()[pos] {
        for (f, q) in t.factors.iter_mut().zip(&state.quotas) {
            *f *= q;
        }
    }
    m
}

thread_local! {
    /// Per-worker evaluation scratch, reused across rounds and calls (the
    /// pool threads are session-lived, so the buffers stay warm).
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
    /// Per-worker SoA batch scratch, likewise session-lived.
    static BATCH_SCRATCH: RefCell<BatchEvalScratch> = RefCell::new(BatchEvalScratch::default());
    /// Per-worker mappings a claim's misses are decoded into, one per
    /// claim slot; overwritten in place, so pricing allocates nothing per
    /// candidate.
    static MAPPINGS: RefCell<Vec<Mapping>> = const { RefCell::new(Vec::new()) };
}

/// Does `m` have `base`'s layout (level kinds and dimension counts), so a
/// key of `base`'s problem decodes into it?
fn same_layout(m: &Mapping, base: &Mapping) -> bool {
    m.levels().len() == base.levels().len()
        && m.levels().iter().zip(base.levels()).all(|(a, b)| match (a, b) {
            (MappingLevel::Temporal(a), MappingLevel::Temporal(b)) => {
                a.factors.len() == b.factors.len()
            }
            (MappingLevel::Spatial(a), MappingLevel::Spatial(b)) => {
                a.factors.len() == b.factors.len()
            }
            _ => false,
        })
}

/// Indices per pool claim in the estimate round. One atomic claim covers
/// a contiguous candidate range, and every maximal same-prefix run inside
/// the range is priced through the SoA batch evaluator in one call — the
/// chunk bounds the batch width, so the per-candidate SoA tables stay in
/// cache while still amortizing claim and dispatch overhead. Kept small
/// enough that modest rounds (a few hundred misses) still split into more
/// claims than the pool has claimants.
const ESTIMATE_CHUNK: usize = 16;

/// When an estimation round may observe the wall-clock deadline.
///
/// Historically the first stage skipped the deadline entirely so a zero
/// budget still produced a usable mapping. But a first round can be large
/// (hundreds of misses on a big layer), so a budget of a few milliseconds
/// could overshoot by the whole first stage.
/// [`AfterFirstClaim`](DeadlinePolicy::AfterFirstClaim) is the repaired
/// contract: the first claim chunk always runs — so even a zero budget
/// evaluates *some* candidates and the best-so-far completion stays
/// usable — and every claim after it observes the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadlinePolicy {
    /// First stage: the deadline engages once at least one claim chunk
    /// has completed (the zero-budget contract keeps one chunk of work).
    AfterFirstClaim,
    /// Later stages: every claim observes the deadline.
    Always,
}

/// Why an estimation round ended; anything but `Done` aborts the stage
/// (the composition loop returns the *previous* beam, which is what the
/// best-so-far deadline contract completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundStatus {
    /// Every miss was evaluated; the candidates carry real estimates.
    Done,
    /// The cancellation token fired mid-round; remaining evaluations were
    /// skipped (bounded-latency cancellation).
    Cancelled,
    /// The wall-clock deadline passed mid-round; remaining evaluations
    /// were skipped.
    DeadlineReached,
}

/// Estimates every candidate.
///
/// The cache is probed on the calling thread, under one lock, with each
/// candidate's exact completed-mapping key — built at expansion, so the
/// probe neither clones nor completes anything. Only the misses go
/// through the model, distributed over the session's persistent worker
/// pool (no per-round thread spawns): each worker decodes its claim's
/// keys into reused scratch mappings and prices them, so nothing is
/// allocated per candidate.
///
/// Bottom-up stages past the first price each miss *prefix-incrementally*:
/// all candidates expanded from one beam state share the decided levels
/// `0..=mems[stage − 1]`, so that prefix's per-level cost contribution is
/// built once per parent ([`CostModel::prefix_of`]) and each candidate
/// only derives the delta of its frontier and completion levels. The
/// composition is bit-identical to the monolithic evaluation (see the
/// `prefix` property tests), so cached estimates are unaffected.
///
/// The pool claims contiguous *chunks* of misses ([`ESTIMATE_CHUNK`] per
/// atomic claim), and every maximal same-prefix run inside a claim — a
/// run of one included — is priced through the structure-of-arrays batch
/// evaluator ([`CostModel::evaluate_prefixed_batch_totals`]) in one call:
/// branch-free inner loops over per-candidate columns instead of a full
/// per-candidate model walk. Stages with no shared prefix (the first
/// bottom-up stage, and every top-down stage) use the monolithic
/// evaluator. Both are bit-identical (see the `batch` property tests), so
/// the dispatch choice never changes a result. Either way only the
/// `{energy, delay, EDP}` totals are built — no per-level breakdown.
///
/// Results are written back by candidate index, so the outcome is
/// identical for any thread count.
///
/// Cancellation and the deadline are checked *per pool claim*, so a
/// mid-round stop is observed within a bounded number of evaluations: at
/// most one in-flight evaluation per claimant finishes after the token
/// fires. The [`DeadlinePolicy`] decides when the deadline engages: the
/// first stage uses [`DeadlinePolicy::AfterFirstClaim`] (the first claim
/// chunk always runs, so a zero budget still yields a usable best-so-far
/// mapping, but a large first stage can no longer overshoot a
/// few-millisecond budget by a whole stage), later stages
/// [`DeadlinePolicy::Always`]. A stopped round leaves the skipped
/// candidates at `f64::INFINITY` and returns the stop reason; completed
/// evaluations are still published to the cache (they are correct and
/// deterministic, so later calls may reuse them).
///
/// [`CostModel::prefix_of`]: sunstone_model::CostModel::prefix_of
/// [`CostModel::evaluate_prefixed_batch_totals`]: sunstone_model::CostModel::evaluate_prefixed_batch_totals
pub(crate) fn estimate_all(
    ctx: &SearchContext<'_>,
    prefix_boundary: Option<usize>,
    beam: &[BeamState],
    candidates: &mut [Candidate],
    stage: usize,
    deadline: DeadlinePolicy,
    stats: &mut SearchStats,
) -> RoundStatus {
    faultpoint!("estimate.round");
    let t_probe = Instant::now();
    stats.probed += candidates.len() as u64;
    let objective = ctx.config.objective;
    let cache = &ctx.cache;
    let mut hits = 0u64;
    // Candidate index per cache miss.
    let mut misses: Vec<usize> = Vec::new();
    {
        // One lock acquisition covers every probe of the round.
        let guard = cache.enabled.then(|| cache.session.lock_map());
        let per_ctx = guard.as_ref().and_then(|g| g.get(&cache.ctx_fp));
        for (i, c) in candidates.iter_mut().enumerate() {
            match per_ctx.and_then(|e| e.costs.get(&c.key)) {
                Some(totals) => {
                    c.estimate = objective.of_totals(totals);
                    hits += 1;
                }
                None => misses.push(i),
            }
        }
    }
    if cache.enabled {
        cache.session.hits.fetch_add(hits, Ordering::Relaxed);
        cache.session.misses.fetch_add(misses.len() as u64, Ordering::Relaxed);
    }
    let t_model = Instant::now();

    // Prefix memoization: with a boundary (bottom-up), every candidate of
    // one parent shares the levels up to the boundary with the parent (the
    // stage decides only positions above it), so the parent's
    // mapping carries the prefix. Misses preserve candidate order and
    // candidates are expanded parent by parent, so each parent's run of
    // misses is contiguous.
    let mut prefixes: Vec<MappingPrefix> = Vec::new();
    let mut group_of: Vec<u32> = Vec::new();
    if let Some(b) = prefix_boundary {
        let mut last_parent = usize::MAX;
        for &i in &misses {
            faultpoint!("estimate.prefix");
            let parent = candidates[i].parent;
            if prefixes.is_empty() || parent != last_parent {
                prefixes.push(ctx.model.prefix_of(&beam[parent].mapping, b));
                last_parent = parent;
            }
            group_of.push((prefixes.len() - 1) as u32);
        }
        let reused = (misses.len() - prefixes.len()) as u64;
        stats.prefix_hits += reused;
        cache.session.prefix_hits.fetch_add(reused, Ordering::Relaxed);
    }

    let mut costs: Vec<Option<CostTotals>> = vec![None; misses.len()];
    let round_cancelled = AtomicBool::new(false);
    let round_deadlined = AtomicBool::new(false);
    let round_batches = AtomicU64::new(0);
    let round_batched = AtomicU64::new(0);
    // Claim chunks fully evaluated so far; under `AfterFirstClaim` the
    // deadline only engages once this is nonzero, so every round keeps at
    // least one chunk of real estimates (the zero-budget contract).
    let claims_done = AtomicUsize::new(0);
    if !misses.is_empty() {
        stats.rounds += 1;
        let n_claims = misses.len().div_ceil(ESTIMATE_CHUNK);
        stats.spawns_avoided += ((ctx.pool.workers() + 1).min(n_claims)) as u64;
        let model = &ctx.model;
        let writer = SliceWriter::new(&mut costs);
        let (prefixes, group_of, misses) = (&prefixes, &group_of, &misses);
        let candidates: &[Candidate] = candidates;
        let (round_cancelled, round_deadlined) = (&round_cancelled, &round_deadlined);
        let (round_batches, round_batched) = (&round_batches, &round_batched);
        let claims_done = &claims_done;
        ctx.pool.run_chunked(misses.len(), ESTIMATE_CHUNK, &|range| {
            // Bounded-latency stop checks, per claim: the cancel check is
            // one atomic load and the deadline one clock read, and a claim
            // covers at most `ESTIMATE_CHUNK` evaluations. Once a stop is
            // observed every remaining claim returns immediately, so at
            // most one in-flight claim per claimant outlives the stop.
            if round_cancelled.load(Ordering::Relaxed) || ctx.cancelled() {
                round_cancelled.store(true, Ordering::Relaxed);
                return;
            }
            let enforce = match deadline {
                DeadlinePolicy::Always => true,
                DeadlinePolicy::AfterFirstClaim => claims_done.load(Ordering::Relaxed) > 0,
            };
            if enforce && (round_deadlined.load(Ordering::Relaxed) || ctx.past_deadline()) {
                round_deadlined.store(true, Ordering::Relaxed);
                return;
            }
            SCRATCH.with_borrow_mut(|scratch| {
                BATCH_SCRATCH.with_borrow_mut(|bscratch| {
                    MAPPINGS.with_borrow_mut(|maps| {
                        // Decode this claim's misses into the worker's
                        // scratch mappings (slot `k - range.start`).
                        for (slot, &i) in misses[range.clone()].iter().enumerate() {
                            if slot == maps.len() {
                                maps.push(ctx.base.clone());
                            } else if !same_layout(&maps[slot], &ctx.base) {
                                maps[slot].clone_from(&ctx.base);
                            }
                            candidates[i].key.decode_into(&mut maps[slot]);
                        }
                        let maps = &maps[..range.len()];
                        let mut k = range.start;
                        while k < range.end {
                            let slot = k - range.start;
                            let Some(&g) = group_of.get(k) else {
                                // No shared prefix this stage: monolithic
                                // path.
                                let totals = model.evaluate_totals_with(&maps[slot], scratch);
                                // SAFETY: claims are disjoint ranges and
                                // every index is written by its claimant
                                // only.
                                unsafe { writer.write(k, Some(totals)) };
                                k += 1;
                                continue;
                            };
                            // Maximal same-prefix run inside this claim.
                            let mut end = k + 1;
                            while end < range.end && group_of[end] == g {
                                end += 1;
                            }
                            round_batches.fetch_add(1, Ordering::Relaxed);
                            round_batched.fetch_add((end - k) as u64, Ordering::Relaxed);
                            model.evaluate_prefixed_batch_totals(
                                &prefixes[g as usize],
                                &maps[slot..slot + (end - k)],
                                bscratch,
                                |j, totals| {
                                    // SAFETY: disjoint claims; `k + j`
                                    // stays inside this run.
                                    unsafe { writer.write(k + j, Some(totals)) };
                                },
                            );
                            k = end;
                        }
                    });
                });
            });
            claims_done.fetch_add(1, Ordering::Relaxed);
        });
    }
    let t_publish = Instant::now();

    let miss_count = misses.len() as u64;
    stats.modeled += costs.iter().filter(|r| r.is_some()).count() as u64;
    let (round_batches, round_batched) = (round_batches.into_inner(), round_batched.into_inner());
    stats.batches += round_batches;
    stats.batched += round_batched;
    cache.session.batches.fetch_add(round_batches, Ordering::Relaxed);
    cache.session.batched.fetch_add(round_batched, Ordering::Relaxed);
    {
        // Publish every new estimate under a single lock acquisition,
        // stamp the context's LRU clock, and enforce the cache bound.
        let mut guard = cache.enabled.then(|| cache.session.lock_map());
        let mut per_ctx = guard.as_deref_mut().map(|g| {
            let tick = cache.session.tick.fetch_add(1, Ordering::Relaxed) + 1;
            let e = g.entry(cache.ctx_fp).or_default();
            e.last_used = tick;
            e
        });
        let mut inserted = 0usize;
        for (&i, totals) in misses.iter().zip(costs) {
            let c = &mut candidates[i];
            match totals {
                Some(totals) => {
                    c.estimate = objective.of_totals(&totals);
                    if let Some(e) = per_ctx.as_deref_mut() {
                        faultpoint!("cache.insert");
                        if cache.session.insert_into(e, c.key.clone(), totals) {
                            inserted += 1;
                        }
                    }
                }
                // Skipped by a mid-round stop: never evaluated, never
                // published. The caller discards the stage, so the
                // placeholder estimate is never ranked against real ones.
                None => c.estimate = f64::INFINITY,
            }
        }
        if inserted > 0 {
            let total = cache.session.entries.fetch_add(inserted, Ordering::Relaxed) + inserted;
            if total > cache.max_entries {
                if let Some(g) = guard.as_deref_mut() {
                    cache.session.evict_lru(g, cache.max_entries, cache.ctx_fp);
                }
            }
        }
    }

    let level = stats.level_mut(stage);
    level.cache_hits += hits;
    level.cache_misses += miss_count;
    level.phases.probe += t_model - t_probe;
    level.phases.model += t_publish - t_model;
    level.phases.publish += t_publish.elapsed();
    stats.cache_hits += hits;
    stats.cache_misses += miss_count;

    if round_cancelled.into_inner() || ctx.cancelled() {
        RoundStatus::Cancelled
    } else if round_deadlined.into_inner() {
        RoundStatus::DeadlineReached
    } else {
        RoundStatus::Done
    }
}

/// Prices a mapping handed in from outside the search (a stored result
/// being primed): one reference evaluation for the caller's report,
/// whose totals fill the cache on a miss.
pub(crate) fn prime_report(ctx: &SearchContext<'_>, mapping: &Mapping) -> CostReport {
    let report = ctx.model.evaluate_unchecked(mapping);
    let key = MappingKey::of(mapping);
    if ctx.cache.lookup(&key).is_none() {
        ctx.cache.insert(key, report.totals());
    }
    report
}

/// Prices a complete mapping through the estimate cache (the final
/// ranking: the last stage already estimated these mappings, so with the
/// cache enabled this is a pure lookup).
pub(crate) fn evaluate_cached(
    ctx: &SearchContext<'_>,
    mapping: &Mapping,
    stats: &mut SearchStats,
) -> CostTotals {
    let key = MappingKey::of(mapping);
    if let Some(totals) = ctx.cache.lookup(&key) {
        stats.cache_hits += 1;
        return totals;
    }
    stats.cache_misses += 1;
    let totals = ctx.model.evaluate_totals_with(mapping, &mut EvalScratch::default());
    ctx.cache.insert(key, totals);
    totals
}
