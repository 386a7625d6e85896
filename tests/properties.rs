//! Property-based tests over the IR, cost model, and mapping validator.

use proptest::prelude::*;
use sunstone_arch::{presets, Binding};
use sunstone_ir::{DimId, DimSet, Workload};
use sunstone_mapping::{Mapping, ValidationContext};
use sunstone_model::{CostModel, ModelOptions};

prop_compose! {
    /// A random factor vector that crosses the `DimVec` inline/heap
    /// boundary (inline capacity is 8).
    fn factor_vec()(len in 0usize..12, seed in 1u64..(1 << 48)) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1 + state % 64
            })
            .collect()
    }
}

prop_compose! {
    /// A random 1-D-conv-shaped workload with bounded, composite dims.
    fn conv_workload()(
        k in 1u8..5,
        c in 1u8..5,
        p in 1u8..5,
        r in 1u8..3,
    ) -> Workload {
        // Sizes are powers of two (times 3 for R) to guarantee rich
        // divisor ladders.
        let mut b = Workload::builder("prop_conv");
        let kk = b.dim("K", 1 << k);
        let cc = b.dim("C", 1 << c);
        let pp = b.dim("P", 1 << (p + 2));
        let rr = b.dim("R", 3u64.pow(u32::from(r) - 1).max(1));
        b.input("ifmap", [cc.expr(), pp + rr]);
        b.input("weight", [kk.expr(), cc.expr(), rr.expr()]);
        b.output("ofmap", [kk.expr(), pp.expr()]);
        b.build().expect("generated workloads are valid")
    }
}

/// A random structurally valid mapping for the conventional architecture:
/// random divisor splits across levels with fabric limits respected.
fn random_valid_structure(w: &Workload, seed: u64) -> Mapping {
    use sunstone::tiling::sorted_divisors;
    let arch = presets::conventional();
    let mut mapping = Mapping::streaming(w, &arch);
    for level in mapping.levels_mut() {
        level.factors_mut().iter_mut().for_each(|f| *f = 1);
    }
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let last = 3usize;
    for d in 0..w.num_dims() {
        let mut remaining = w.dim_size(DimId::from_index(d));
        for pos in 0..last {
            let budget = if pos == 1 {
                let used: u64 = mapping.level(1).factors().iter().product();
                1024 / used.max(1)
            } else {
                u64::MAX
            };
            let divisors: Vec<u64> =
                sorted_divisors(remaining).into_iter().filter(|&f| f <= budget).collect();
            let f = divisors[(next() % divisors.len() as u64) as usize];
            mapping.levels_mut()[pos].factors_mut()[d] = f;
            remaining /= f;
        }
        mapping.levels_mut()[last].factors_mut()[d] = remaining;
    }
    mapping
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reuse analysis: full-reuse and indexing sets partition the dims,
    /// and partial reuse only appears on indexing dims.
    #[test]
    fn reuse_analysis_partitions_dims(w in conv_workload()) {
        let info = w.reuse_info();
        let all = DimSet::first_n(w.num_dims());
        for (_, r) in info.iter() {
            prop_assert_eq!(r.indexing.union(r.full_reuse), all);
            prop_assert!(r.indexing.is_disjoint(r.full_reuse));
            prop_assert!(r.partial_reuse.is_subset(r.indexing));
        }
    }

    /// Footprints are monotone in every tile dimension.
    #[test]
    fn footprints_are_monotone(w in conv_workload(), grow_dim in 0usize..4) {
        let tile = w.dim_sizes();
        let mut smaller = tile.clone();
        smaller[grow_dim] = (smaller[grow_dim] / 2).max(1);
        for t in w.tensors() {
            prop_assert!(t.footprint(&smaller) <= t.footprint(&tile));
        }
    }

    /// Every structurally consistent random mapping passes structural
    /// validation, and the cost model gives finite positive energy.
    #[test]
    fn random_structures_validate_and_cost(w in conv_workload(), seed in 0u64..1000) {
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mapping = random_valid_structure(&w, seed);
        ctx.validate_structure(&mapping).expect("structure holds by construction");
        let model = CostModel::new(&w, &arch, &binding);
        let report = model.evaluate_unchecked(&mapping);
        prop_assert!(report.energy_pj.is_finite() && report.energy_pj > 0.0);
        prop_assert!(report.delay_cycles >= report.compute_cycles);
        prop_assert!(report.edp > 0.0);
    }

    /// The MAC-level invariant: the innermost storing level of each input
    /// is read at least ops/broadcast times, and total DRAM reads cover
    /// each input at least once.
    #[test]
    fn access_counts_lower_bounds(w in conv_workload(), seed in 0u64..1000) {
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let mapping = random_valid_structure(&w, seed);
        let counts = sunstone_model::AccessCounts::compute(
            &w, &arch, &binding, &mapping, ModelOptions::default(),
        );
        let sizes = w.dim_sizes();
        for t in w.tensor_ids() {
            let tensor = w.tensor(t);
            // DRAM (pos 3) serves at least the tensor's full footprint.
            if tensor.is_output() {
                prop_assert!(counts.at(3, t).updates >= tensor.footprint(&sizes) as f64);
            } else {
                prop_assert!(counts.at(3, t).reads >= tensor.footprint(&sizes) as f64 * 0.99);
            }
        }
    }

    /// Halo reuse can only reduce traffic, never increase it.
    #[test]
    fn halo_reuse_is_a_discount(w in conv_workload(), seed in 0u64..1000) {
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let mapping = random_valid_structure(&w, seed);
        let halo = sunstone_model::AccessCounts::compute(
            &w, &arch, &binding, &mapping, ModelOptions { halo_reuse: true },
        );
        let plain = sunstone_model::AccessCounts::compute(
            &w, &arch, &binding, &mapping, ModelOptions { halo_reuse: false },
        );
        for pos in 0..4usize {
            for t in w.tensor_ids() {
                prop_assert!(halo.at(pos, t).reads <= plain.at(pos, t).reads + 1e-6);
                prop_assert!(halo.at(pos, t).fills <= plain.at(pos, t).fills + 1e-6);
            }
        }
    }

    /// Corrupting a factor breaks validation (no silent acceptance).
    #[test]
    fn validator_rejects_corrupted_factors(
        w in conv_workload(),
        seed in 0u64..1000,
        pos in 0usize..4,
        dim in 0usize..4,
    ) {
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut mapping = random_valid_structure(&w, seed);
        // Multiply one factor by a prime that divides no dimension size.
        mapping.levels_mut()[pos].factors_mut()[dim] *= 7919;
        prop_assert!(ctx.validate(&mapping).is_err());
    }

    /// The scheduler never panics on random workloads, always returns a
    /// valid mapping, and never loses to naive streaming.
    #[test]
    fn scheduler_handles_random_workloads(w in conv_workload()) {
        use sunstone::{Scheduler, SunstoneConfig};
        let arch = presets::conventional();
        let result = Scheduler::new(SunstoneConfig::default())
            .schedule(&w, &arch)
            .expect("random conv workloads schedule");
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let ctx = ValidationContext::new(&w, &arch, &binding);
        ctx.validate(&result.mapping).expect("returned mapping valid");
        let model = CostModel::new(&w, &arch, &binding);
        let streaming = model.evaluate(&Mapping::streaming(&w, &arch)).expect("valid");
        prop_assert!(result.report.edp <= streaming.edp * 1.0001);
    }

    /// `DimVec` is a drop-in for `Vec<u64>`: construction, slicing,
    /// volume, hashing through borrowed slices, and the elementwise
    /// factor algebra all agree with the plain-`Vec` reference.
    #[test]
    fn dimvec_matches_vec_semantics(v in factor_vec()) {
        use sunstone::factors;
        use sunstone_ir::{DimVec, FxHashSet};
        let dv = DimVec::from_slice(&v);
        prop_assert_eq!(&dv[..], v.as_slice());
        prop_assert_eq!(dv.len(), v.len());
        prop_assert_eq!(dv.to_vec(), v.clone());
        prop_assert_eq!(dv.volume(), v.iter().map(|&x| u128::from(x)).product::<u128>());
        // Hash/Eq parity: a set of DimVecs answers probes by `&[u64]`.
        let mut set: FxHashSet<DimVec> = FxHashSet::default();
        set.insert(dv.clone());
        prop_assert!(set.contains(v.as_slice()));
        // multiply/quot roundtrip against the Vec reference.
        let squared = factors::multiply(&v, &v);
        let reference: Vec<u64> = v.iter().map(|&x| x * x).collect();
        prop_assert_eq!(&squared, &reference);
        prop_assert_eq!(factors::quot(&squared, &v), dv);
    }

    /// `sorted_divisors` matches the brute-force definition.
    #[test]
    fn sorted_divisors_matches_brute_force(q in 1u64..3000) {
        let fast = sunstone::factors::sorted_divisors(q);
        let brute: Vec<u64> = (1..=q).filter(|d| q.is_multiple_of(*d)).collect();
        prop_assert_eq!(fast, brute);
    }

    /// The precomputed ladder table agrees with direct trial division on
    /// every quota a search can produce, and `ladder_set` falls back to
    /// trial division for off-table quotas.
    #[test]
    fn ladders_match_direct_divisors(a in 1u64..200, b in 1u64..64, probe in 1u64..200) {
        use sunstone::factors::{sorted_divisors, DivisorLadders};
        let extents = [a, b];
        let ladders = DivisorLadders::new(&extents);
        for (dim, &e) in extents.iter().enumerate() {
            for q in sorted_divisors(e) {
                prop_assert_eq!(ladders.of(dim, q), Some(sorted_divisors(q).as_slice()));
            }
        }
        let set = ladders.ladder_set(&[probe, b]);
        prop_assert_eq!(set[0].as_ref(), sorted_divisors(probe).as_slice());
        prop_assert_eq!(set[1].as_ref(), sorted_divisors(b).as_slice());
    }

    /// Prefix-incremental evaluation is bit-identical to the full nest
    /// walk: caching levels `0..=boundary` with `prefix_of` and pricing
    /// the suffix with a width-1 `evaluate_prefixed_batch` reproduces
    /// `evaluate_unchecked` exactly, at every boundary, on random valid
    /// mappings.
    #[test]
    fn prefix_incremental_matches_full_evaluation(w in conv_workload(), seed in 0u64..1000) {
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).expect("binds");
        let mapping = random_valid_structure(&w, seed);
        let model = CostModel::new(&w, &arch, &binding);
        let full = model.evaluate_unchecked(&mapping);
        let mut scratch = model.batch_scratch();
        for boundary in 0..arch.num_levels() {
            let prefix = model.prefix_of(&mapping, boundary);
            let mut prefixed = Vec::new();
            model.evaluate_prefixed_batch(
                &prefix,
                std::slice::from_ref(&mapping),
                &mut scratch,
                |_, r| prefixed.push(r),
            );
            prop_assert_eq!(
                std::slice::from_ref(&full), prefixed.as_slice(),
                "prefixed evaluation diverges at boundary {}", boundary
            );
        }
    }

    /// The ordering trie never returns duplicated or non-permutation
    /// orders, and always returns at least one candidate.
    #[test]
    fn trie_candidates_are_well_formed(w in conv_workload()) {
        let trie = sunstone::OrderingTrie::new(&w);
        let (cands, _) = trie.candidates(DimSet::first_n(w.num_dims()));
        prop_assert!(!cands.is_empty());
        for c in &cands {
            let set: DimSet = c.order.iter().copied().collect();
            prop_assert_eq!(set.len(), w.num_dims());
            prop_assert!(c.suffix_len <= c.order.len());
        }
    }
}
