//! Prefix-incremental evaluation (the "LevelCost" decomposition).
//!
//! The level-by-level search (paper Section III-C / V-A) expands many
//! candidates from one parent state: every candidate shares all mapping
//! levels at positions `0..=boundary` (the decided prefix) and differs
//! only in the frontier and completion levels above. The full count pass
//! walks the whole nest per candidate, recomputing the prefix's resident
//! tiles, spatial products, and per-(tensor, storing-pair) refill
//! analysis each time.
//!
//! [`MappingPrefix`] caches that shared portion once, as composable
//! per-storing-pair [`LevelCost`] entries, so each candidate is priced as
//! *cached prefix ⊕ suffix delta*:
//!
//! - resident tiles and spatial products of the suffix extend the cached
//!   prefix values,
//! - storing pairs fully inside the prefix reuse their cached tiles and
//!   footprints; pairs straddling the boundary extend the cached partial
//!   union tile with the candidate's spatial loops; pairs fully above the
//!   boundary run the ordinary [`count_pair`](crate::counts::count_pair)
//!   over the suffix loops only,
//! - the refill/reuse-run analysis composes algebraically: the innermost
//!   reuse run either closes inside the prefix (`closed`, the candidate
//!   contributes all its temporal factors as refills and the driving loop
//!   is the prefix's breaking loop) or stays open (the run continues into
//!   the candidate, whose own trailing-run scan takes over).
//!
//! Every composed quantity is a *product* regrouping of the quantities
//! the full pass computes — integer-valued `f64` products are exact below
//! 2⁵³ under any association, and all sums are accumulated in the same
//! order into the same tables — so the result is bit-identical to
//! [`AccessCounts::compute_reusing`](crate::AccessCounts::compute_reusing)
//! within the model's own documented exactness envelope. The batch
//! evaluator ([`crate::batch`]) is the one consumer: it prices every
//! candidate of a prefix, a run of one included, through these pieces.

use sunstone_arch::{ArchSpec, Level, LevelId};
use sunstone_ir::{DimSet, DimVec, TensorDesc, TensorId, Workload};
use sunstone_mapping::{FlatLoop, LoopKind, Mapping, MappingLevel};

use crate::counts::{add_crossings, halo_volume, reuse_suffix_start, TensorLevelCounts};
use crate::ModelOptions;

/// The cached, composable cost contribution of one (tensor, storing-level
/// pair) whose child boundary lies inside the decided prefix.
#[derive(Debug, Clone)]
pub(crate) struct LevelCost {
    pub(crate) tensor: TensorId,
    /// Child storing position (−1 = the MAC boundary).
    pub(crate) child: i64,
    /// Parent storing position.
    pub(crate) p: usize,
    /// Resident tile at the child boundary.
    pub(crate) child_tile: DimVec,
    /// Footprint of `child_tile`, in words.
    pub(crate) f_child: f64,
    /// Union tile: `child_tile` extended by the *prefix's* spatial loops
    /// strictly between `child` and `p`. Complete iff `p ≤ boundary`;
    /// otherwise the candidate's spatial loops below `p` still extend it.
    pub(crate) union_tile: DimVec,
    /// Prefix part of the non-multicast penalty factor.
    pub(crate) non_mc: f64,
    /// `p ≤ boundary`: `union_tile`/`f_union`/`non_mc` need no extension.
    pub(crate) union_complete: bool,
    /// Footprint of the union tile — valid only when `union_complete`.
    pub(crate) f_union: f64,
    /// The innermost reuse run closed inside the prefix (an indexing
    /// temporal loop of the tensor lies in the prefix above `child`).
    /// Always true at the MAC boundary.
    pub(crate) closed: bool,
    /// Product of the prefix's refill-contributing temporal factors
    /// (everything above the run; 1 when the run is open).
    pub(crate) pre_refills: f64,
    /// Product of the prefix's indexing temporal factors above `child`.
    pub(crate) pre_distinct: f64,
    /// The run-breaking loop when `closed` (None at the MAC boundary,
    /// where the model forces a no-reuse refill per operand).
    pub(crate) pre_driving: Option<FlatLoop>,
}

/// The memoized shared portion of all candidates expanded from one parent
/// state: everything the count pass derives from mapping levels
/// `0..=boundary`. Build once per (stage, parent) with
/// [`crate::CostModel::prefix_of`], evaluate many candidates with
/// [`crate::CostModel::evaluate_prefixed_batch`].
#[derive(Debug, Clone)]
pub struct MappingPrefix {
    pub(crate) boundary: usize,
    pub(crate) ndims: usize,
    /// Resident tiles at positions `0..=boundary`.
    pub(crate) resident: Vec<DimVec>,
    /// `s_mid[q]` = Π spatial factors at positions `q..=boundary`
    /// (length `boundary + 2`, `s_mid[boundary + 1] = 1`).
    pub(crate) s_mid: Vec<f64>,
    /// Cached pair contributions in chain-walk order (per tensor, pairs
    /// with `child ≤ boundary` — a per-tensor prefix of its chain).
    pub(crate) pairs: Vec<LevelCost>,
}

impl MappingPrefix {
    /// The decided-prefix boundary this cache was built for (the highest
    /// architecture position whose mapping level it covers).
    pub fn boundary(&self) -> usize {
        self.boundary
    }
}

/// Candidate-suffix refill aggregates of one tensor, shared by all of its
/// prefix pairs.
pub(crate) struct CandAgg {
    /// Π of all temporal factors in the suffix.
    pub(crate) all_temporal: f64,
    /// Π of refill-contributing temporal factors when the run is open
    /// (the suffix's own trailing-run scan).
    pub(crate) refills: f64,
    /// Π of indexing temporal factors in the suffix.
    pub(crate) distinct: f64,
    /// The suffix's own run-breaking loop (None if its run never closes).
    pub(crate) driving: Option<FlatLoop>,
}

impl CandAgg {
    pub(crate) fn of(cand: &[FlatLoop], indexing: DimSet) -> Self {
        let local = reuse_suffix_start(cand, indexing);
        let all_temporal =
            cand.iter().filter(|l| !l.is_spatial()).map(|l| l.factor as f64).product();
        let refills =
            cand[..local].iter().filter(|l| !l.is_spatial()).map(|l| l.factor as f64).product();
        let driving = cand[..local].iter().rev().find(|l| !l.is_spatial()).copied();
        let distinct = cand
            .iter()
            .filter(|l| !l.is_spatial() && indexing.contains(l.dim))
            .map(|l| l.factor as f64)
            .product();
        CandAgg { all_temporal, refills, distinct, driving }
    }
}

/// Flattens the mapping levels at `positions` (an inclusive range walked
/// outermost-first) exactly like `FlatNest::refill` does.
pub(crate) fn flatten_range(
    mapping: &Mapping,
    lo: usize,
    hi_inclusive: usize,
    out: &mut Vec<FlatLoop>,
) {
    for pos in (lo..=hi_inclusive).rev() {
        match &mapping.levels()[pos] {
            MappingLevel::Temporal(t) => {
                for &d in t.order.iter().rev() {
                    let f = t.factors[d.index()];
                    if f > 1 {
                        out.push(FlatLoop {
                            dim: d,
                            factor: f,
                            kind: LoopKind::Temporal,
                            arch_pos: pos,
                        });
                    }
                }
            }
            MappingLevel::Spatial(s) => {
                for (i, &f) in s.factors.iter().enumerate() {
                    if f > 1 {
                        out.push(FlatLoop {
                            dim: sunstone_ir::DimId::from_index(i),
                            factor: f,
                            kind: LoopKind::Spatial,
                            arch_pos: pos,
                        });
                    }
                }
            }
        }
    }
}

/// Builds the prefix cache for mapping levels `0..=boundary`.
pub(crate) fn build_prefix(
    workload: &Workload,
    arch: &ArchSpec,
    chains: &[Vec<usize>],
    mapping: &Mapping,
    boundary: usize,
) -> MappingPrefix {
    let n_levels = arch.num_levels();
    // True invariant, not input validation: boundaries are stage indices
    // produced by the search itself, never user data. A violation is a
    // scheduler bug, and the panic-isolation boundary at the public API
    // converts it into a typed internal error.
    assert!(boundary < n_levels, "prefix boundary {boundary} out of range");
    let ndims = workload.num_dims();

    let mut pre: Vec<FlatLoop> = Vec::new();
    flatten_range(mapping, 0, boundary, &mut pre);

    let mut resident = Vec::with_capacity(boundary + 1);
    let mut acc = DimVec::ones(ndims);
    for q in 0..=boundary {
        for (t, &f) in acc.iter_mut().zip(mapping.level(q).factors()) {
            *t *= f;
        }
        resident.push(acc.clone());
    }

    let mut s_mid = vec![1.0f64; boundary + 2];
    for q in (0..=boundary).rev() {
        let own: f64 = match arch.level(LevelId(q)) {
            Level::Spatial(_) => mapping.level(q).factors().iter().map(|&f| f as f64).product(),
            Level::Memory(_) => 1.0,
        };
        s_mid[q] = s_mid[q + 1] * own;
    }

    let mut pairs = Vec::new();
    for t in workload.tensor_ids() {
        let tensor = workload.tensor(t);
        let indexing = tensor.indexing_dims();
        let mut child: i64 = -1;
        for &p in &chains[t.index()] {
            if child > boundary as i64 {
                break;
            }
            pairs.push(level_cost(
                arch, tensor, t, child, p, boundary, &pre, &resident, indexing, ndims,
            ));
            child = p as i64;
        }
    }

    MappingPrefix { boundary, ndims, resident, s_mid, pairs }
}

#[allow(clippy::too_many_arguments)]
fn level_cost(
    arch: &ArchSpec,
    tensor: &TensorDesc,
    t: TensorId,
    child: i64,
    p: usize,
    boundary: usize,
    pre: &[FlatLoop],
    resident: &[DimVec],
    indexing: DimSet,
    ndims: usize,
) -> LevelCost {
    let child_tile: DimVec =
        if child < 0 { DimVec::ones(ndims) } else { resident[child as usize].clone() };
    let mut union_tile = child_tile.clone();
    let mut non_mc = 1.0f64;
    for l in pre {
        if l.is_spatial() && (l.arch_pos as i64) > child && l.arch_pos < p {
            union_tile[l.dim.index()] *= l.factor;
            let multicast = arch
                .level(LevelId(l.arch_pos))
                .as_spatial()
                .map(|s| s.noc.multicast)
                .unwrap_or(true);
            if !multicast && !indexing.contains(l.dim) {
                non_mc *= l.factor as f64;
            }
        }
    }
    let union_complete = p <= boundary;
    let f_child = tensor.footprint(&child_tile) as f64;
    let f_union = if union_complete { tensor.footprint(&union_tile) as f64 } else { 0.0 };

    let cut = pre.iter().position(|l| (l.arch_pos as i64) <= child).unwrap_or(pre.len());
    let above = &pre[..cut];
    let (closed, pre_refills, pre_driving);
    if child < 0 {
        closed = true;
        pre_refills = above.iter().filter(|l| !l.is_spatial()).map(|l| l.factor as f64).product();
        pre_driving = None;
    } else {
        closed = above.iter().any(|l| !l.is_spatial() && indexing.contains(l.dim));
        let local = reuse_suffix_start(above, indexing);
        pre_refills =
            above[..local].iter().filter(|l| !l.is_spatial()).map(|l| l.factor as f64).product();
        pre_driving = above[..local].iter().rev().find(|l| !l.is_spatial()).copied();
    }
    let pre_distinct = above
        .iter()
        .filter(|l| !l.is_spatial() && indexing.contains(l.dim))
        .map(|l| l.factor as f64)
        .product();

    LevelCost {
        tensor: t,
        child,
        p,
        child_tile,
        f_child,
        union_tile,
        non_mc,
        union_complete,
        f_union,
        closed,
        pre_refills,
        pre_distinct,
        pre_driving,
    }
}

/// Prices one cached prefix pair for a concrete candidate suffix; mirrors
/// `count_pair`'s arithmetic with the prefix portions read from the cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_prefix_pair(
    workload: &Workload,
    arch: &ArchSpec,
    options: ModelOptions,
    lc: &LevelCost,
    tensor: &TensorDesc,
    indexing: DimSet,
    cand: &[FlatLoop],
    agg: &CandAgg,
    s_p: f64,
    s_c: f64,
    union_scratch: &mut DimVec,
    per: &mut [TensorLevelCounts],
    crossings: &mut [f64],
) {
    let nt = workload.num_tensors();
    let t = lc.tensor;
    let p = lc.p;
    let is_output = tensor.is_output();

    // Union tile: cached when complete; otherwise extend the cached prefix
    // part with the candidate's spatial loops below `p`.
    let (f_union, non_mc, union_tile): (f64, f64, &DimVec) = if lc.union_complete {
        (lc.f_union, lc.non_mc, &lc.union_tile)
    } else {
        union_scratch.clone_from(&lc.union_tile);
        let mut non_mc = lc.non_mc;
        for l in cand {
            if l.is_spatial() && l.arch_pos < p {
                union_scratch[l.dim.index()] *= l.factor;
                let multicast = arch
                    .level(LevelId(l.arch_pos))
                    .as_spatial()
                    .map(|s| s.noc.multicast)
                    .unwrap_or(true);
                if !multicast && !indexing.contains(l.dim) {
                    non_mc *= l.factor as f64;
                }
            }
        }
        (tensor.footprint(union_scratch) as f64, non_mc, &*union_scratch)
    };

    // Compose the refill-run analysis: a run closed inside the prefix
    // makes every candidate temporal loop a refill and keeps the prefix's
    // breaking loop as driver; an open run hands over to the candidate's
    // own trailing-run scan (pre_refills is 1 then).
    let (refills, driving) = if lc.closed {
        (agg.all_temporal * lc.pre_refills, lc.pre_driving)
    } else {
        (agg.refills * lc.pre_refills, agg.driving)
    };
    let distinct = agg.distinct * lc.pre_distinct;

    if is_output {
        let reloads = (refills - distinct).max(0.0);
        per[p * nt + t.index()].updates += refills * f_union * non_mc * s_p;
        per[p * nt + t.index()].reads += reloads * f_union * non_mc * s_p;
        if lc.child >= 0 {
            let c = lc.child as usize;
            per[c * nt + t.index()].reads += refills * lc.f_child * s_c;
            per[c * nt + t.index()].fills += reloads * lc.f_child * s_c;
        }
        let crossing_words = (refills + reloads) * lc.f_child * s_c;
        add_crossings(workload, arch, t, lc.child, p, crossing_words, crossings);
    } else {
        let parent_vol = halo_volume(options, tensor, driving, refills, union_tile, f_union);
        let child_vol = halo_volume(options, tensor, driving, refills, &lc.child_tile, lc.f_child);
        per[p * nt + t.index()].reads += parent_vol * non_mc * s_p;
        if lc.child >= 0 {
            let c = lc.child as usize;
            per[c * nt + t.index()].fills += child_vol * s_c;
        }
        add_crossings(workload, arch, t, lc.child, p, child_vol * s_c, crossings);
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, ModelOptions};
    use sunstone_arch::{presets, Binding};
    use sunstone_ir::Workload;
    use sunstone_mapping::{Mapping, MappingLevel};

    fn conv2d() -> Workload {
        let mut b = Workload::builder("conv");
        let k = b.dim("K", 8);
        let c = b.dim("C", 8);
        let p = b.dim("P", 14);
        let q = b.dim("Q", 14);
        let r = b.dim("R", 3);
        let s = b.dim("S", 3);
        b.input("ifmap", [c.expr(), p + r, q + s]);
        b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
        b.output_bits("ofmap", [k.expr(), p.expr(), q.expr()], 24);
        b.build().unwrap()
    }

    fn set(m: &mut Mapping, pos: usize, factors: &[u64]) {
        match &mut m.levels_mut()[pos] {
            MappingLevel::Temporal(t) => t.factors.copy_from_slice(factors),
            MappingLevel::Spatial(s) => s.factors.copy_from_slice(factors),
        }
    }

    /// Prefixed evaluation of a single candidate (a width-1 batch) is
    /// bit-identical to the full pass at every possible boundary, with and
    /// without halo credit.
    #[test]
    fn prefixed_matches_full_at_every_boundary() {
        let w = conv2d();
        let arch = presets::simba_like();
        let binding = Binding::resolve(&arch, &w).unwrap();
        // A mapping exercising temporal orders, spatial unrolls, and
        // bypassed levels across the Simba hierarchy.
        let mut m = Mapping::streaming(&w, &arch);
        set(&mut m, 0, &[1, 2, 1, 1, 3, 1]); // regs: C, R
        set(&mut m, 1, &[2, 1, 1, 1, 1, 1]); // PE fan-out: K
        set(&mut m, 2, &[1, 2, 2, 1, 1, 3]); // L1: C, P, S
        set(&mut m, 3, &[2, 2, 1, 1, 1, 1]); // cluster fan-out: K, C
        set(&mut m, 5, &[1, 1, 1, 2, 1, 1]); // L2: Q
        set(&mut m, 6, &[2, 1, 7, 7, 1, 1]); // DRAM: K, P, Q
        for options in [ModelOptions::default(), ModelOptions { halo_reuse: false }] {
            let model = CostModel::with_options(&w, &arch, &binding, options);
            let full = model.evaluate_unchecked(&m);
            let mut scratch = model.batch_scratch();
            for boundary in 0..arch.num_levels() {
                let prefix = model.prefix_of(&m, boundary);
                let mut emitted = 0;
                model.evaluate_prefixed_batch(
                    &prefix,
                    std::slice::from_ref(&m),
                    &mut scratch,
                    |_, prefixed| {
                        emitted += 1;
                        assert_eq!(
                            full, prefixed,
                            "prefixed evaluation diverges at boundary {boundary} ({options:?})"
                        );
                    },
                );
                assert_eq!(emitted, 1);
            }
        }
    }
}
