//! Per-level candidate enumeration: the orderings × tiles × unrollings
//! each stage admits, under the paper's pruning principles.
//!
//! Every enumerator reports into the stage's [`LevelStats`] record:
//! the ordering trie (Ordering Principles 1–3 + sibling dominance), the
//! tiling tree (Tiling Principle), and the spatial unrolling enumeration
//! (Spatial Unrolling Principle) each get a considered/kept counter.
//!
//! [`LevelStats`]: super::stats::LevelStats

use sunstone_arch::LevelId;
use sunstone_ir::{DimId, DimSet, DimVec};
use sunstone_mapping::{Mapping, MappingLevel};

use crate::factors::{divide, multiply, quot, sorted_divisors};
use crate::ordering::OrderingCandidate;
use crate::tiling::enumerate_tiles_cached;
use crate::unrolling::{enumerate_unrollings_cached, principle_excluded_dims};
use crate::IntraOrder;

use super::beam::MappingKey;
use super::estimate;
use super::stats::SearchStats;
use super::{BeamState, SearchContext};

/// One child of a beam state, held as a delta on its parent: the stage's
/// decision, the remaining quotas, the estimate, and the exact key of the
/// completed mapping. Nothing here lives on the heap (for workloads of up
/// to eight dimensions and keys within the inline buffer); only the
/// survivors of `select` become [`Mapping`]s
/// ([`StageOut::materialize`]).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// Index of the beam state this candidate was expanded from.
    /// Candidates of one parent are contiguous and share every level
    /// decided before the current stage, which is what lets estimation
    /// memoize the decided-prefix cost per parent.
    pub(crate) parent: usize,
    /// Temporal factors the stage writes at [`StageLayout::temporal_pos`].
    pub(crate) temporal: DimVec,
    /// Combined unroll the stage spreads over [`StageLayout::gap`].
    pub(crate) unroll: DimVec,
    /// Index into [`StageOut::orderings`] of the order the stage writes at
    /// [`StageLayout::order_pos`] (`None`: no level above to order).
    pub(crate) ordering: Option<u32>,
    /// Remaining per-dimension quotient.
    pub(crate) quotas: DimVec,
    /// Objective estimate of the completed mapping.
    pub(crate) estimate: f64,
    /// Key of the completed mapping: dedup identity and cache key.
    pub(crate) key: MappingKey,
}

/// Where one stage's decision lands in a mapping; fixed per stage and
/// provided by the walk direction
/// ([`LevelPass::layout`](super::compose::LevelPass::layout)).
pub(crate) struct StageLayout<'c> {
    /// The memory whose temporal factors the stage decides.
    pub(crate) temporal_pos: usize,
    /// The fabrics whose unrolls the stage decides.
    pub(crate) gap: &'c [usize],
    /// How the stage's unroll lands on the gap's fabrics.
    pub(crate) unroll: UnrollPlacement,
    /// The memory whose loop order the stage decides, if any.
    pub(crate) order_pos: Option<usize>,
    /// Where estimation places the undecided remainder.
    pub(crate) completion_pos: usize,
    /// The outermost position every child shares with its parent, when
    /// the parent's mapping carries a priceable prefix.
    pub(crate) prefix_boundary: Option<usize>,
}

/// How a stage's unroll is written onto the fabrics of its gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnrollPlacement {
    /// Split over the fabrics, innermost first, capped by each one's units.
    Distribute,
    /// The same factors on every fabric.
    Repeat,
}

impl StageLayout<'_> {
    /// Writes one decision into `m`: the unroll over the gap's fabrics,
    /// the temporal factors, and the loop order. Every call overwrites the
    /// same positions, so one scratch mapping serves all children of a
    /// parent.
    fn apply(
        &self,
        ctx: &SearchContext<'_>,
        temporal: &[u64],
        unroll: &[u64],
        order: Option<&OrderingCandidate>,
        m: &mut Mapping,
    ) {
        let levels = m.levels_mut();
        match self.unroll {
            UnrollPlacement::Distribute => {
                distribute_unroll(ctx, self.gap, unroll, |pos, assigned| {
                    levels[pos].factors_mut().copy_from_slice(assigned);
                })
            }
            UnrollPlacement::Repeat => {
                for &pos in self.gap {
                    levels[pos].factors_mut().copy_from_slice(unroll);
                }
            }
        }
        levels[self.temporal_pos].factors_mut().copy_from_slice(temporal);
        if let (Some(pos), Some(o)) = (self.order_pos, order) {
            if let MappingLevel::Temporal(t) = &mut levels[pos] {
                t.order.copy_from_slice(&o.order);
            }
        }
    }
}

/// One stage's expansion: the candidates, the per-stage ordering table
/// they index, and where their decisions land.
pub(crate) struct StageOut<'c> {
    pub(crate) layout: StageLayout<'c>,
    /// Every ordering any parent enumerated this stage.
    pub(crate) orderings: Vec<OrderingCandidate>,
    pub(crate) cands: Vec<Candidate>,
    /// The parent being expanded (stamped into each pushed candidate).
    parent: usize,
}

impl<'c> StageOut<'c> {
    /// An empty expansion of a stage laid out as `layout`.
    pub(crate) fn new(layout: StageLayout<'c>) -> Self {
        StageOut { layout, orderings: Vec::new(), cands: Vec::new(), parent: 0 }
    }

    /// Starts expanding beam state `parent`.
    pub(crate) fn begin(&mut self, parent: usize) {
        self.parent = parent;
    }

    fn ordering(&self, id: Option<u32>) -> Option<&OrderingCandidate> {
        id.map(|i| &self.orderings[i as usize])
    }

    /// Adds this parent's orderings to the stage table; returns their ids.
    fn add_orderings(&mut self, orderings: Vec<OrderingCandidate>) -> Vec<Option<u32>> {
        let first = self.orderings.len() as u32;
        self.orderings.extend(orderings);
        (first..self.orderings.len() as u32).map(Some).collect()
    }

    fn push(&mut self, temporal: DimVec, unroll: &[u64], quotas: DimVec, ordering: Option<u32>) {
        self.cands.push(Candidate {
            parent: self.parent,
            temporal,
            unroll: DimVec::from_slice(unroll),
            ordering,
            quotas,
            estimate: f64::INFINITY,
            key: MappingKey::empty(),
        });
    }

    /// Encodes every candidate's completed-mapping key. Candidates are
    /// parent-contiguous, so one scratch copy of each parent's mapping
    /// takes every child's decision in turn.
    pub(crate) fn build_keys(&mut self, ctx: &SearchContext<'_>, beam: &[BeamState]) {
        let mut scratch = ctx.base.clone();
        let mut buf = Vec::new();
        let mut current = usize::MAX;
        for c in &mut self.cands {
            if c.parent != current {
                current = c.parent;
                scratch.clone_from(&beam[current].mapping);
            }
            let order = c.ordering.map(|i| &self.orderings[i as usize]);
            self.layout.apply(ctx, &c.temporal, &c.unroll, order, &mut scratch);
            c.key =
                MappingKey::of_completed(&scratch, self.layout.completion_pos, &c.quotas, &mut buf);
        }
    }

    /// The beam state of candidate `i`: its parent's mapping with the
    /// stage's decision applied.
    pub(crate) fn materialize(
        &self,
        ctx: &SearchContext<'_>,
        beam: &[BeamState],
        i: usize,
    ) -> BeamState {
        let c = &self.cands[i];
        let ordering = self.ordering(c.ordering);
        let mut mapping = beam[c.parent].mapping.clone();
        self.layout.apply(ctx, &c.temporal, &c.unroll, ordering, &mut mapping);
        BeamState { mapping, quotas: c.quotas.clone(), ordering_here: ordering.cloned() }
    }
}

/// One bottom-up stage: unrollings below memory `stage`, tile at memory
/// `stage`, ordering at memory `stage + 1`.
pub(crate) fn bottom_up_expand(
    ctx: &SearchContext<'_>,
    state: &BeamState,
    stage: usize,
    out: &mut StageOut<'_>,
    stats: &mut SearchStats,
) {
    let mem_pos = ctx.mems[stage];
    let last_stage = stage == ctx.mems.len() - 1;
    let ndims = ctx.workload.num_dims();
    let base = state.mapping.resident_tile(mem_pos, ndims);

    let orderings: Vec<Option<u32>> = if last_stage {
        // The outermost memory has no level above to order.
        vec![None]
    } else {
        let found = orderings_for(ctx, in_play_dims(ctx, state), stage, stats);
        out.add_orderings(found)
    };
    // Temporal factors at this memory and the quotas left above it, for a
    // `growth` over the base and an `unroll` placed below this memory.
    let decide = |growth: &[u64], unroll: &[u64]| {
        let mut quotas = state.quotas.clone();
        let mut temporal = DimVec::ones(ndims);
        for d in 0..ndims {
            let f = if last_stage { state.quotas[d] / unroll[d] } else { growth[d] };
            temporal[d] = f;
            quotas[d] /= f * unroll[d];
        }
        (temporal, quotas)
    };

    match ctx.config.intra_order {
        IntraOrder::OrderTileUnroll => {
            let reserve = spatial_reserve(ctx, stage, true, &state.quotas);
            for &oid in &orderings {
                let ordering = out.ordering(oid);
                let tiles =
                    tiles_for(ctx, state, stage, &base, &state.quotas, reserve, ordering, stats);
                for tile in &tiles {
                    let growth = quot(tile, &base);
                    let tile_quotas = divide(&state.quotas, &growth);
                    let unrolls = unrolls_for(ctx, state, stage, tile, &tile_quotas, stats);
                    for u in &unrolls {
                        let (temporal, quotas) = decide(&growth, u);
                        out.push(temporal, u, quotas, oid);
                    }
                }
            }
        }
        IntraOrder::UnrollTileOrder => {
            let reserve = spatial_reserve(ctx, stage, false, &state.quotas);
            let unrolls = unrolls_for(ctx, state, stage, &base, &state.quotas, stats);
            for u in &unrolls {
                let u_quotas = divide(&state.quotas, u);
                let base_u = multiply(&base, u);
                for &oid in &orderings {
                    let ordering = out.ordering(oid);
                    let tiles =
                        tiles_for(ctx, state, stage, &base_u, &u_quotas, reserve, ordering, stats);
                    for tile in &tiles {
                        let growth = quot(tile, &base_u);
                        let (temporal, quotas) = decide(&growth, u);
                        out.push(temporal, u, quotas, oid);
                    }
                }
            }
        }
        IntraOrder::TileUnrollOrder => {
            // Tiling before ordering: allow the union of every candidate
            // ordering's growth dimensions.
            let reserve = spatial_reserve(ctx, stage, true, &state.quotas);
            let union_allowed = orderings
                .iter()
                .filter_map(|&oid| out.ordering(oid))
                .map(|o| tile_allowed_dims(ctx, o))
                .fold(DimSet::EMPTY, DimSet::union);
            let tiles = tiles_with_allowed(
                ctx,
                stage,
                &base,
                &state.quotas,
                reserve,
                union_allowed,
                DimSet::first_n(ndims),
                stats,
            );
            for tile in &tiles {
                let growth = quot(tile, &base);
                let tile_quotas = divide(&state.quotas, &growth);
                let unrolls = unrolls_for(ctx, state, stage, tile, &tile_quotas, stats);
                for u in &unrolls {
                    for &oid in &orderings {
                        let (temporal, quotas) = decide(&growth, u);
                        out.push(temporal, u, quotas, oid);
                    }
                }
            }
        }
    }
}

/// One top-down stage: ordering at memory `stage + 1`, unrolls in the gap
/// below it, resident tile at memory `stage`.
pub(crate) fn top_down_expand(
    ctx: &SearchContext<'_>,
    state: &BeamState,
    stage: usize,
    out: &mut StageOut<'_>,
    stats: &mut SearchStats,
) {
    let ndims = ctx.workload.num_dims();
    let found = orderings_for(ctx, in_play_dims(ctx, state), stage, stats);
    let gap = &ctx.lower_spatial[stage + 1];
    for oid in out.add_orderings(found) {
        let ordering = out.ordering(oid).expect("a top-down stage always orders");
        let unrolls = top_down_unrolls(ctx, gap, ordering, state, stage, stats);
        let ordering_allowed = tile_allowed_dims(ctx, ordering);
        for u in &unrolls {
            let mut q = divide(&state.quotas, u);
            let mut allowed = ordering_allowed;
            // User tile pins on this memory seed the enumeration base,
            // exactly as in `tiles_with_allowed` on the bottom-up path.
            let lc = ctx.constraints.at(ctx.mems[stage]);
            if lc.tile_pins.iter().any(|&(d, v)| !q[d].is_multiple_of(v)) {
                stats.level_mut(stage).constraint.record(1, 0);
                continue;
            }
            let mut tile_base = DimVec::ones(ndims);
            for &(d, v) in &lc.tile_pins {
                q[d] /= v;
                tile_base[d] = v;
                allowed = allowed.without(DimId::from_index(d));
            }
            let outcome = enumerate_tiles_cached(
                &tile_base,
                &q,
                allowed,
                // Bounded-latency cancellation (see `tiles_with_allowed`);
                // the top-down path never memoizes this enumeration.
                |tile| {
                    !ctx.cancelled()
                        && lc.tile_caps.iter().all(|&(d, cap)| tile[d] <= cap)
                        && ctx.fits_mem(ctx.mems[stage], tile)
                },
                ctx.config.pruning.tiling_maximal,
                &ctx.ladders,
            );
            stats.nodes_explored += outcome.explored as u64;
            stats.tiles += outcome.tiles.len() as u64;
            stats
                .level_mut(stage)
                .tiling
                .record(outcome.explored as u64, outcome.tiles.len() as u64);
            // Fabrics below this memory still need parallelism out of the
            // tile; drop tiles too small to feed them (keep everything if
            // none qualifies).
            let mut below: u128 = 1;
            for (pos, s) in ctx.arch.spatial_levels() {
                if pos.index() < ctx.mems[stage] {
                    below *= u128::from(s.units);
                }
            }
            let reserve = ((below as f64) * ctx.config.min_spatial_utilization).ceil() as u128;
            let mut tiles: Vec<&DimVec> =
                outcome.tiles.iter().filter(|t| t.volume() >= reserve).collect();
            if tiles.is_empty() {
                tiles = outcome.tiles.iter().collect();
            }
            for tile in tiles {
                // Factors at the upper memory = remaining / (tile × unroll);
                // the tile becomes the quota left below.
                let temporal: DimVec =
                    (0..ndims).map(|d| state.quotas[d] / (tile[d] * u[d])).collect();
                out.push(temporal, u, tile.clone(), oid);
            }
        }
    }
}

/// Dimensions with remaining quota — the only ones worth ordering.
fn in_play_dims(ctx: &SearchContext<'_>, state: &BeamState) -> DimSet {
    ctx.workload.dim_ids().filter(|d| state.quotas[d.index()] > 1).collect()
}

/// Ordering candidates for one stage, with the trie's pruning attributed
/// per principle in the stage's stats. A user order constraint on the
/// level being ordered (memory `stage + 1`, in both directions) filters
/// the enumeration here — before dedup and beam selection — and always
/// re-adds the constraint's canonical completion so a satisfiable
/// constraint can never strand the stage without candidates.
fn orderings_for(
    ctx: &SearchContext<'_>,
    in_play: DimSet,
    stage: usize,
    stats: &mut SearchStats,
) -> Vec<OrderingCandidate> {
    let mut cands = if ctx.config.pruning.ordering_trie {
        let outcome = ctx.trie.candidates_detailed(in_play);
        stats.nodes_explored += outcome.explored as u64;
        stats.orderings += outcome.candidates.len() as u64;
        let level = stats.level_mut(stage);
        level.ordering.record(outcome.explored as u64, outcome.candidates.len() as u64);
        level.ordering_no_reuse += outcome.rejected_no_reuse as u64;
        level.ordering_dominated += outcome.dominated as u64;
        outcome.candidates
    } else {
        let cands = ctx.trie.all_permutations(in_play);
        stats.orderings += cands.len() as u64;
        stats.level_mut(stage).ordering.record(cands.len() as u64, cands.len() as u64);
        cands
    };
    if let Some((groups, exact)) = &ctx.constraints.at(ctx.mems[stage + 1]).order {
        let considered = cands.len() as u64 + 1;
        if *exact {
            // An exact constraint admits one order per in-play set: the
            // forced completion below.
            cands.clear();
        } else {
            cands.retain(|c| order_satisfies(&c.order, groups, in_play));
        }
        let forced = ctx.trie.forced_prefix(groups, in_play);
        if !cands.iter().any(|c| c.order == forced.order) {
            cands.push(forced);
        }
        stats.level_mut(stage).constraint.record(considered, cands.len() as u64);
    }
    cands
}

/// Does `order` (innermost-first) keep the constraint groups as its
/// innermost run, group sequence respected? Judged over `scope` — the
/// dimensions this stage still has in play; out-of-scope dims carry
/// factor 1 here, so their placement is meaningless.
fn order_satisfies(order: &[DimId], groups: &[DimSet], scope: DimSet) -> bool {
    let seq: Vec<DimId> = order.iter().copied().filter(|&d| scope.contains(d)).collect();
    let mut idx = 0usize;
    for g in groups {
        let g = g.intersection(scope);
        let need = g.len();
        if need == 0 {
            continue;
        }
        if idx + need > seq.len() {
            return false;
        }
        let window: DimSet = seq[idx..idx + need].iter().copied().collect();
        if window != g {
            return false;
        }
        idx += need;
    }
    true
}

/// The parallelism budget a tile must leave unconsumed: the product of
/// all spatial fabric sizes the tile has not yet passed (scaled by the
/// utilization floor, capped by what the problem can offer). This is the
/// "high throughput" constraint of Table I: a tile that swallows the
/// quota the fabrics need would force an under-utilized — and therefore
/// dominated — mapping.
fn spatial_reserve(
    ctx: &SearchContext<'_>,
    stage: usize,
    include_gap: bool,
    quotas: &[u64],
) -> u64 {
    let m = ctx.mems[stage];
    let mut units: u128 = 1;
    for (pos, s) in ctx.arch.spatial_levels() {
        if pos.index() > m {
            units *= u128::from(s.units);
        }
    }
    if include_gap {
        for &p in &ctx.lower_spatial[stage] {
            if let Some(s) = ctx.arch.level(LevelId(p)).as_spatial() {
                units *= u128::from(s.units);
            }
        }
    }
    let want = ((units as f64) * ctx.config.min_spatial_utilization).ceil() as u128;
    let avail: u128 = quotas.iter().map(|&q| u128::from(q)).product();
    want.min(avail).max(1) as u64
}

/// Tile candidates for one ordering at the stage's memory level.
#[allow(clippy::too_many_arguments)]
fn tiles_for(
    ctx: &SearchContext<'_>,
    state: &BeamState,
    stage: usize,
    base: &[u64],
    quotas: &[u64],
    reserve: u64,
    ordering: Option<&OrderingCandidate>,
    stats: &mut SearchStats,
) -> Vec<DimVec> {
    if stage == ctx.mems.len() - 1 {
        // DRAM: the remainder is placed by the stage decision; the "tile"
        // is the base itself.
        return vec![DimVec::from_slice(base)];
    }
    let all = DimSet::first_n(ctx.workload.num_dims());
    let allowed = match ordering {
        Some(o) => tile_allowed_dims(ctx, o),
        None => all,
    };
    // The parallelism reserve is measured over the dimensions the fabrics
    // may actually unroll. When this stage has a fabric in its own gap,
    // that fabric pairs with the ordering chosen at the *previous* stage
    // (`state.ordering_here`); otherwise the nearest future fabric pairs
    // with the ordering being chosen now.
    let governing =
        if ctx.lower_spatial[stage].is_empty() { ordering } else { state.ordering_here.as_ref() };
    let mut unrollable = match governing {
        Some(o) => all.difference(unroll_excluded(ctx, o)),
        None => all,
    };
    // Mirror the high-throughput fallback of `unrolls_for`: when the
    // principled dimensions cannot reach the utilization floor, the
    // fabrics will unroll any dimension, so the reserve must guard them
    // all.
    let avail: u128 = unrollable.iter().map(|d| u128::from(quotas[d.index()])).product();
    if avail < u128::from(reserve) {
        unrollable = all;
    }
    tiles_with_allowed(ctx, stage, base, quotas, reserve, allowed, unrollable, stats)
}

/// Tile enumeration with an explicit growth set. The parallelism reserve
/// is measured over `unrollable` — the dimensions the Spatial Unrolling
/// Principle will actually let the fabrics consume — so a tile cannot
/// swallow the quota the unrollings need.
#[allow(clippy::too_many_arguments)]
fn tiles_with_allowed(
    ctx: &SearchContext<'_>,
    stage: usize,
    base: &[u64],
    quotas: &[u64],
    reserve: u64,
    allowed: DimSet,
    unrollable: DimSet,
    stats: &mut SearchStats,
) -> Vec<DimVec> {
    let mem_pos = ctx.mems[stage];
    let lc = ctx.constraints.at(mem_pos);
    // User tile pins seed the enumeration base: the pinned extent becomes
    // the starting tile and the dimension leaves the growth set, so every
    // enumerated tile carries exactly the pinned factor. A pin the parent
    // state cannot reach (base already past it, or quota not divisible)
    // kills this expansion — other beam parents may still satisfy it.
    let mut base = DimVec::from_slice(base);
    let mut quotas = DimVec::from_slice(quotas);
    let mut allowed = allowed;
    for &(d, v) in &lc.tile_pins {
        if !v.is_multiple_of(base[d]) || !quotas[d].is_multiple_of(v / base[d]) {
            stats.level_mut(stage).constraint.record(1, 0);
            return Vec::new();
        }
        quotas[d] /= v / base[d];
        base[d] = v;
        allowed = allowed.without(DimId::from_index(d));
    }
    // Session memo: beam states frequently reach the same (base, quota)
    // frontier, and repeated calls on the same shape replay the entire
    // enumeration. The memo stores the *kept* tiles plus the explored
    // count so the stats below replay identically on a hit. The key is
    // taken after pin seeding; caps need no slot because the constraint
    // set is fixed per cache context.
    let memo_key = estimate::TileKey {
        mem_pos,
        base: base.clone(),
        quotas: quotas.clone(),
        reserve,
        allowed,
        unrollable,
    };
    if let Some(hit) = ctx.cache.tiles_lookup(&memo_key) {
        stats.nodes_explored += hit.explored as u64;
        stats.tiles += hit.tiles.len() as u64;
        stats.level_mut(stage).tiling.record(hit.explored as u64, hit.tiles.len() as u64);
        return hit.tiles;
    }
    // The parallelism headroom a tile leaves is Π quotas[d] / growth[d]
    // over the unrollable dimensions, with growth = tile / base. Every
    // growth divides its quota, so `headroom >= need` is exactly
    // `Π quotas·base >= need · Π tile` — no division per probe. The
    // products saturate on degenerate extents, which only admits more
    // tiles (capacity is still checked exactly by `fits_mem`).
    let mut room: u128 = 1;
    let mut quota_product: u128 = 1;
    for d in unrollable.iter() {
        let i = d.index();
        room = room.saturating_mul(u128::from(quotas[i]) * u128::from(base[i]));
        quota_product = quota_product.saturating_mul(u128::from(quotas[i]));
    }
    let need = u128::from(reserve).min(quota_product);
    let outcome = enumerate_tiles_cached(
        &base,
        &quotas,
        allowed,
        |tile| {
            // Bounded-latency cancellation inside the enumeration tree:
            // rejecting every probe prunes the tree to nothing in O(depth)
            // steps once the token fires (the truncated result is then
            // reported as Cancelled by the composition loop, and the memo
            // insert below is suppressed so the session cache never holds
            // a truncated enumeration).
            if ctx.cancelled() {
                return false;
            }
            let spent = unrollable
                .iter()
                .fold(need, |acc, d| acc.saturating_mul(u128::from(tile[d.index()])));
            spent <= room
                && lc.tile_caps.iter().all(|&(d, cap)| tile[d] <= cap)
                && ctx.fits_mem(mem_pos, tile)
        },
        ctx.config.pruning.tiling_maximal,
        &ctx.ladders,
    );
    stats.nodes_explored += outcome.explored as u64;
    let mut tiles = outcome.tiles;
    if tiles.len() > ctx.config.max_tiles_per_enum {
        // Keep the largest tiles: maximal-frontier members with the
        // biggest iteration volume capture the most reuse.
        tiles.sort_by_key(|t| std::cmp::Reverse(t.volume()));
        tiles.truncate(ctx.config.max_tiles_per_enum);
    }
    stats.tiles += tiles.len() as u64;
    stats.level_mut(stage).tiling.record(outcome.explored as u64, tiles.len() as u64);
    // Never memoize an enumeration a cancel may have truncated: the memo
    // outlives this call, and a later (uncancelled) call must re-derive
    // the full result to stay bit-identical to a fresh session.
    if !ctx.cancelled() {
        ctx.cache.tiles_insert(
            memo_key,
            estimate::TileMemo { tiles: tiles.clone(), explored: outcome.explored },
        );
    }
    tiles
}

/// Dimensions the Unrolling Principle forbids for fabrics paired with
/// this ordering.
fn unroll_excluded(ctx: &SearchContext<'_>, ordering: &OrderingCandidate) -> DimSet {
    if !ctx.config.pruning.unrolling_principle {
        return DimSet::EMPTY;
    }
    principle_excluded_dims(
        ordering.fully_reused().map(|t| ctx.workload.reuse_info().of(t).full_reuse),
    )
}

/// Growth dimensions permitted by the Tiling Principle for an ordering:
/// the indexing dimensions of every fully reused tensor (all dimensions
/// when the principle is disabled or nothing is reused).
fn tile_allowed_dims(ctx: &SearchContext<'_>, ordering: &OrderingCandidate) -> DimSet {
    let all = DimSet::first_n(ctx.workload.num_dims());
    if !ctx.config.pruning.tiling_reuse_dims {
        return all;
    }
    let mut allowed = DimSet::EMPTY;
    let mut any = false;
    for t in ordering.fully_reused() {
        allowed = allowed.union(ctx.workload.tensor(t).indexing_dims());
        any = true;
    }
    if any {
        allowed
    } else {
        all
    }
}

/// Unrolling candidates for the spatial levels directly below the stage's
/// memory, as a combined per-level factor assignment. Returns vectors of
/// per-dimension factors per spatial position, flattened to a single
/// product vector (our architectures have at most one fabric per gap).
fn unrolls_for(
    ctx: &SearchContext<'_>,
    state: &BeamState,
    stage: usize,
    resident_with_tile: &[u64],
    quotas: &[u64],
    stats: &mut SearchStats,
) -> Vec<DimVec> {
    let spatial_positions = &ctx.lower_spatial[stage];
    if spatial_positions.is_empty() {
        return vec![DimVec::ones(ctx.workload.num_dims())];
    }
    // The presets have at most one fabric per gap; for generality, nest
    // the enumeration over each fabric sequentially.
    let mut results: Vec<DimVec> = vec![DimVec::ones(ctx.workload.num_dims())];
    for &pos in spatial_positions {
        let fabric = ctx.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
        let mut excluded = DimSet::EMPTY;
        if ctx.config.pruning.unrolling_principle {
            if let Some(o) = &state.ordering_here {
                excluded = principle_excluded_dims(
                    o.fully_reused().map(|t| ctx.workload.reuse_info().of(t).full_reuse),
                );
            }
        }
        let hard_excluded =
            if fabric.allow_reduction { DimSet::EMPTY } else { ctx.workload.reduction_dims() };
        let all = DimSet::first_n(ctx.workload.num_dims());
        let mut principled = all.difference(excluded.union(hard_excluded));
        let mut relaxed = all.difference(hard_excluded);
        // User constraints on this fabric: an allow-list intersects both
        // the principled and the relaxed (high-throughput fallback) sets;
        // pinned dimensions are seeded — their factors leave the
        // enumeration entirely and the fabric's unit budget shrinks by the
        // pinned product.
        let lc = ctx.constraints.at(pos);
        let before = relaxed.len() as u64;
        if let Some(allow) = lc.unroll_allow {
            principled = principled.intersection(allow);
            relaxed = relaxed.intersection(allow);
        }
        principled = principled.difference(lc.unroll_pinned);
        relaxed = relaxed.difference(lc.unroll_pinned);
        if lc.unroll_allow.is_some() || !lc.unroll_pins.is_empty() {
            // Attribute the allow-list/pin restriction: dimension slots the
            // fabric would have unrolled freely vs. what the constraint
            // leaves open (pinned dims count as removed — they are fixed,
            // not searched).
            stats.level_mut(stage).constraint.record(before, relaxed.len() as u64);
        }
        let units = fabric.units / lc.unroll_pin_product;
        let mut pin_vec = DimVec::ones(ctx.workload.num_dims());
        for &(d, v) in &lc.unroll_pins {
            pin_vec[d] = v;
        }
        let mem_pos = ctx.mems[stage];
        let mut next = Vec::new();
        for prev in &results {
            let q = divide(quotas, prev);
            // A pin the remaining quota cannot honor (an inner level
            // already consumed part of the pinned factor) kills this
            // branch; other beam parents may still satisfy it.
            if lc.unroll_pins.iter().any(|&(d, v)| !q[d].is_multiple_of(v)) {
                stats.level_mut(stage).constraint.record(1, 0);
                continue;
            }
            let prev_eff =
                if lc.unroll_pins.is_empty() { prev.clone() } else { multiply(prev, &pin_vec) };
            let q = if lc.unroll_pins.is_empty() { q } else { divide(&q, &pin_vec) };
            // Session memo: the whole per-fabric block (principled pass,
            // relaxed fallback, truncation) is keyed by its exact inputs;
            // `combined` folds the resident tile and the inner fabrics'
            // unrolls into the base the capacity probe inflates. Stats are
            // replayed from the memo so counters match an uncached run.
            let memo_key = estimate::UnrollKey {
                pos,
                quotas: q.clone(),
                principled,
                combined: resident_with_tile
                    .iter()
                    .zip(prev_eff.iter())
                    .map(|(t, a)| t * a)
                    .collect(),
            };
            if let Some(hit) = ctx.cache.unrolls_lookup(&memo_key) {
                stats.nodes_explored += hit.explored as u64;
                stats.unrollings += hit.unrollings.len() as u64;
                stats
                    .level_mut(stage)
                    .unrolling
                    .record(hit.explored as u64, hit.unrollings.len() as u64);
                for u in &hit.unrollings {
                    next.push(multiply(&prev_eff, u));
                }
                continue;
            }
            let fits = |u: &[u64]| {
                // Bounded-latency cancellation (see `tiles_with_allowed`).
                if ctx.cancelled() {
                    return false;
                }
                // The unroll inflates the resident tile of the memory
                // above the fabric (the stage's memory); `prev_eff` folds
                // the pinned factors in so the probe sees the full tile.
                let combined: DimVec = resident_with_tile
                    .iter()
                    .zip(prev_eff.iter().zip(u))
                    .map(|(t, (a, b))| t * a * b)
                    .collect();
                ctx.fits_mem(mem_pos, &combined)
            };
            let mut outcome = enumerate_unrollings_cached(
                &q,
                principled,
                units,
                fits,
                ctx.config.min_spatial_utilization,
                ctx.config.pruning.unrolling_principle,
                &ctx.ladders,
            );
            // The high-throughput constraint dominates the Unrolling
            // Principle: when the principled dimensions cannot keep the
            // fabric busy, widen to every dimension the hardware permits.
            // Utilization is judged over the full fabric, pins included.
            let floor = ctx.config.min_spatial_utilization * fabric.units as f64;
            let best = outcome
                .unrollings
                .iter()
                .map(|u| (u.iter().product::<u64>().saturating_mul(lc.unroll_pin_product)) as f64)
                .fold(0.0f64, f64::max);
            if best < floor && principled != relaxed {
                let wide = enumerate_unrollings_cached(
                    &q,
                    relaxed,
                    units,
                    fits,
                    ctx.config.min_spatial_utilization,
                    ctx.config.pruning.unrolling_principle,
                    &ctx.ladders,
                );
                outcome.explored += wide.explored;
                outcome.unrollings.extend(wide.unrollings);
            }
            stats.nodes_explored += outcome.explored as u64;
            let mut unrollings = outcome.unrollings;
            if unrollings.len() > ctx.config.max_unrolls_per_enum {
                unrollings.sort_by_key(|u| std::cmp::Reverse(u.volume()));
                unrollings.truncate(ctx.config.max_unrolls_per_enum);
            }
            stats.unrollings += unrollings.len() as u64;
            stats
                .level_mut(stage)
                .unrolling
                .record(outcome.explored as u64, unrollings.len() as u64);
            // As with tiles: a cancel-truncated enumeration must not be
            // memoized past this call.
            if !ctx.cancelled() {
                ctx.cache.unrolls_insert(
                    memo_key,
                    estimate::UnrollMemo {
                        unrollings: unrollings.clone(),
                        explored: outcome.explored,
                    },
                );
            }
            for u in unrollings {
                next.push(multiply(&prev_eff, &u));
            }
        }
        results = next;
    }
    results
}

fn top_down_unrolls(
    ctx: &SearchContext<'_>,
    gap: &[usize],
    ordering: &OrderingCandidate,
    state: &BeamState,
    stage: usize,
    stats: &mut SearchStats,
) -> Vec<DimVec> {
    let ndims = ctx.workload.num_dims();
    if gap.is_empty() {
        return vec![DimVec::ones(ndims)];
    }
    let mut results: Vec<DimVec> = vec![DimVec::ones(ndims)];
    for &pos in gap {
        let fabric = ctx.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
        let mut excluded = DimSet::EMPTY;
        if ctx.config.pruning.unrolling_principle {
            excluded = principle_excluded_dims(
                ordering.fully_reused().map(|t| ctx.workload.reuse_info().of(t).full_reuse),
            );
        }
        if !fabric.allow_reduction {
            excluded = excluded.union(ctx.workload.reduction_dims());
        }
        let mut allowed = DimSet::first_n(ndims).difference(excluded);
        // User constraints on this fabric (see `unrolls_for`): allow-list
        // intersection plus pin seeding against the shrunken unit budget.
        let lc = ctx.constraints.at(pos);
        let before = allowed.len() as u64;
        if let Some(allow) = lc.unroll_allow {
            allowed = allowed.intersection(allow);
        }
        allowed = allowed.difference(lc.unroll_pinned);
        if lc.unroll_allow.is_some() || !lc.unroll_pins.is_empty() {
            stats.level_mut(stage).constraint.record(before, allowed.len() as u64);
        }
        let units = fabric.units / lc.unroll_pin_product;
        let mut pin_vec = DimVec::ones(ndims);
        for &(d, v) in &lc.unroll_pins {
            pin_vec[d] = v;
        }
        let mut next = Vec::new();
        for prev in &results {
            let q = divide(&state.quotas, prev);
            if lc.unroll_pins.iter().any(|&(d, v)| !q[d].is_multiple_of(v)) {
                stats.level_mut(stage).constraint.record(1, 0);
                continue;
            }
            let prev_eff =
                if lc.unroll_pins.is_empty() { prev.clone() } else { multiply(prev, &pin_vec) };
            let q = if lc.unroll_pins.is_empty() { q } else { divide(&q, &pin_vec) };
            let outcome = enumerate_unrollings_cached(
                &q,
                allowed,
                units,
                |_| true,
                ctx.config.min_spatial_utilization,
                ctx.config.pruning.unrolling_principle,
                &ctx.ladders,
            );
            stats.nodes_explored += outcome.explored as u64;
            let mut unrollings = outcome.unrollings;
            if unrollings.len() > ctx.config.max_unrolls_per_enum {
                unrollings.sort_by_key(|u| std::cmp::Reverse(u.volume()));
                unrollings.truncate(ctx.config.max_unrolls_per_enum);
            }
            stats.unrollings += unrollings.len() as u64;
            stats
                .level_mut(stage)
                .unrolling
                .record(outcome.explored as u64, unrollings.len() as u64);
            for u in unrollings {
                next.push(multiply(&prev_eff, &u));
            }
        }
        results = next;
    }
    results
}

/// Spreads a combined unroll over a gap's fabrics, calling `set` with
/// each fabric's assignment. With a single fabric this is a direct
/// assignment; with several, factors go to the innermost fabric first,
/// capped by its unit count.
fn distribute_unroll(
    ctx: &SearchContext<'_>,
    gap: &[usize],
    unroll: &[u64],
    mut set: impl FnMut(usize, &[u64]),
) {
    let ndims = unroll.len();
    let mut remaining_unroll = DimVec::from_slice(unroll);
    for &pos in gap {
        let fabric = ctx.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
        let mut assigned = DimVec::ones(ndims);
        let mut used = 1u64;
        for d in 0..ndims {
            let mut f = remaining_unroll[d];
            while f > 1 && used * f > fabric.units {
                // Peel the largest divisor that still fits. Unroll factors
                // divide the dimension extent, so the precomputed ladder
                // applies; fall back to trial division off the table.
                let peel = |divs: &[u64]| {
                    divs.iter().copied().filter(|&c| used * c <= fabric.units).max().unwrap_or(1)
                };
                f = match ctx.ladders.of(d, f) {
                    Some(divs) => peel(divs),
                    None => peel(&sorted_divisors(f)),
                };
                if f == 1 {
                    break;
                }
            }
            assigned[d] = f;
            used *= f;
            remaining_unroll[d] /= f;
        }
        set(pos, &assigned);
    }
}
