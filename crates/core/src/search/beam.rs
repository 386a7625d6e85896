//! Beam maintenance: the exact mapping key, duplicate elimination, and
//! the alpha-beta-style cut.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use sunstone_ir::{DimId, FxHashSet};
use sunstone_mapping::{Mapping, MappingLevel};

use super::candidates::Candidate;
use super::stats::SearchStats;

/// A mapping's search identity: every level's factors plus each temporal
/// level's loop order, as a LEB128 varint stream. Two mappings with equal
/// keys are the same point in the space — the key drives both candidate
/// dedup and the estimate cache.
///
/// The varint code is prefix-free, so the byte stream decodes back to
/// exactly one factor/order sequence: the key is collision-free, never a
/// hash ([`decode_into`](Self::decode_into) is its inverse). Factors
/// below 128 and every loop-order entry take one byte, so a ResNet layer
/// on Simba fits the inline buffer (about 80 bytes instead of 77 `u64`
/// words); longer streams (huge extents, very deep hierarchies) spill to
/// the heap.
#[derive(Clone)]
pub(crate) struct MappingKey(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline { len: u8, buf: [u8; MappingKey::INLINE] },
    Heap(Box<[u8]>),
}

impl MappingKey {
    /// Inline capacity in bytes (the whole key is 96 bytes): ResNet
    /// layers on Simba encode to 77–79 bytes, an 8-dimension workload on
    /// the same hierarchy to about 90.
    const INLINE: usize = 94;

    /// The key of `m` *as completed*: the level at `complete_at` with its
    /// factors multiplied by `quotas` (pass `usize::MAX` for the mapping
    /// itself). `buf` is reusable encoding scratch.
    pub(crate) fn of_completed(
        m: &Mapping,
        complete_at: usize,
        quotas: &[u64],
        buf: &mut Vec<u8>,
    ) -> Self {
        buf.clear();
        for (p, level) in m.levels().iter().enumerate() {
            if p == complete_at {
                for (f, q) in level.factors().iter().zip(quotas) {
                    push_varint(buf, f * q);
                }
            } else {
                for &f in level.factors() {
                    push_varint(buf, f);
                }
            }
            if let MappingLevel::Temporal(t) = level {
                for d in &t.order {
                    push_varint(buf, d.index() as u64);
                }
            }
        }
        Self::from_bytes(buf)
    }

    /// The key of a complete mapping.
    pub(crate) fn of(m: &Mapping) -> Self {
        Self::of_completed(m, usize::MAX, &[], &mut Vec::new())
    }

    /// A placeholder for a candidate whose key is not encoded yet.
    pub(crate) fn empty() -> Self {
        MappingKey(KeyRepr::Inline { len: 0, buf: [0; Self::INLINE] })
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        if bytes.len() <= Self::INLINE {
            let mut buf = [0; Self::INLINE];
            buf[..bytes.len()].copy_from_slice(bytes);
            MappingKey(KeyRepr::Inline { len: bytes.len() as u8, buf })
        } else {
            MappingKey(KeyRepr::Heap(bytes.into()))
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, buf } => &buf[..*len as usize],
            KeyRepr::Heap(b) => b,
        }
    }

    /// Heap bytes held beyond the inline buffer (0 for inline keys).
    pub(crate) fn spilled_bytes(&self) -> usize {
        match &self.0 {
            KeyRepr::Inline { .. } => 0,
            KeyRepr::Heap(b) => b.len(),
        }
    }

    /// Writes the keyed mapping into `out`, which must have the keyed
    /// mapping's layout (same levels, kinds and dimension count) — the
    /// inverse of [`of_completed`](Self::of_completed). Overwrites factors
    /// and orders in place, so a reused `out` never allocates.
    pub(crate) fn decode_into(&self, out: &mut Mapping) {
        let mut bytes = self.as_bytes();
        for level in out.levels_mut() {
            for f in level.factors_mut() {
                *f = read_varint(&mut bytes);
            }
            if let MappingLevel::Temporal(t) = level {
                for d in &mut t.order {
                    *d = DimId::from_index(read_varint(&mut bytes) as usize);
                }
            }
        }
        debug_assert!(bytes.is_empty(), "key longer than the mapping layout");
    }
}

impl fmt::Debug for MappingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MappingKey({:02x?})", self.as_bytes())
    }
}

impl PartialEq for MappingKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for MappingKey {}

impl Hash for MappingKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn read_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = bytes.split_first().expect("truncated mapping key");
        *bytes = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Removes duplicate candidates, returning how many were dropped:
/// different enumeration paths (e.g. the principled and relaxed unroll
/// passes) can emit identical candidates, and estimating each copy is
/// pure waste. The first occurrence survives, so parent runs stay
/// contiguous and in order.
pub(crate) fn dedup(candidates: &mut Vec<Candidate>) -> usize {
    let before = candidates.len();
    let keep: Vec<bool> = {
        let mut seen: FxHashSet<&MappingKey> =
            FxHashSet::with_capacity_and_hasher(before, Default::default());
        candidates.iter().map(|c| seen.insert(&c.key)).collect()
    };
    let mut flags = keep.into_iter();
    candidates.retain(|_| flags.next().unwrap_or(true));
    before - candidates.len()
}

/// The indices of the `beam_width` best-estimated candidates, best first,
/// recording the cut in the stage's beam counter. Ranking is by
/// (estimate, index) — a total order — so the survivors and their order
/// are exactly those of a stable sort by estimate: they do not depend on
/// thread count or on anything beyond the (deterministic) candidate order.
pub(crate) fn select(
    candidates: &[Candidate],
    beam_width: usize,
    stage: usize,
    stats: &mut SearchStats,
) -> Vec<usize> {
    let keep = beam_width.max(1);
    let mut ranked: Vec<(f64, usize)> =
        candidates.iter().enumerate().map(|(i, c)| (c.estimate, i)).collect();
    let by_rank = |a: &(f64, usize), b: &(f64, usize)| -> Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    };
    if ranked.len() > keep {
        ranked.select_nth_unstable_by(keep - 1, by_rank);
        ranked.truncate(keep);
    }
    ranked.sort_unstable_by(by_rank);
    stats.level_mut(stage).beam.record(candidates.len() as u64, ranked.len() as u64);
    ranked.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;
    use sunstone_ir::Workload;

    /// The key the search used before the inline encoding: every factor
    /// and order entry as one `u64` word.
    fn word_key(m: &Mapping) -> Vec<u64> {
        let mut key = Vec::new();
        for level in m.levels() {
            key.extend_from_slice(level.factors());
            if let MappingLevel::Temporal(t) = level {
                key.extend(t.order.iter().map(|d| d.index() as u64));
            }
        }
        key
    }

    /// An 8-dimension workload with 2^40 extents, so factors span the
    /// whole range the key must separate.
    fn wide_workload() -> Workload {
        let mut b = Workload::builder("wide8");
        let d: Vec<_> = (0..8).map(|i| b.dim(format!("D{i}"), 1 << 40)).collect();
        b.input("a", [d[0].expr(), d[1].expr(), d[2].expr(), d[3].expr()]);
        b.input("b", [d[4].expr(), d[5].expr(), d[6].expr(), d[7].expr()]);
        b.output("c", [d[0].expr(), d[4].expr()]);
        b.build().unwrap()
    }

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }
    }

    /// Random mappings over one layout: factors from a pool straddling
    /// every varint byte boundary (127/128, > 255, 2^40, u64::MAX) and
    /// random loop orders. Small pools make equal pairs common, so both
    /// directions of the equivalence are exercised.
    fn random_mappings(base: &Mapping, rng: &mut Rng, n: usize) -> Vec<Mapping> {
        const POOL: [u64; 12] =
            [1, 2, 127, 128, 255, 256, 300, 16_384, 1 << 40, (1 << 40) + 1, u64::MAX, 1];
        (0..n)
            .map(|_| {
                let mut m = base.clone();
                for level in m.levels_mut() {
                    // Most levels stay at 1 so many pairs collide.
                    let touch = rng.next().is_multiple_of(4);
                    for f in level.factors_mut() {
                        *f = if touch { rng.pick(&POOL) } else { 1 };
                    }
                    if let MappingLevel::Temporal(t) = level {
                        if rng.next().is_multiple_of(3) {
                            let i = (rng.next() % t.order.len() as u64) as usize;
                            t.order.swap(0, i);
                        }
                    }
                }
                m
            })
            .collect()
    }

    #[test]
    fn inline_key_separates_exactly_what_the_word_key_separates() {
        let w = wide_workload();
        let arch = presets::simba_like();
        let base = Mapping::streaming(&w, &arch);
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let maps = random_mappings(&base, &mut rng, 160);
        let words: Vec<Vec<u64>> = maps.iter().map(word_key).collect();
        let keys: Vec<MappingKey> = maps.iter().map(MappingKey::of).collect();
        let mut equal_pairs = 0;
        for i in 0..maps.len() {
            for j in 0..maps.len() {
                assert_eq!(
                    words[i] == words[j],
                    keys[i] == keys[j],
                    "mappings {i} and {j}: word keys and inline keys disagree"
                );
                equal_pairs += usize::from(i != j && keys[i] == keys[j]);
            }
        }
        assert!(equal_pairs > 0, "the pool must produce some equal pairs");
    }

    #[test]
    fn key_decodes_to_the_completed_mapping() {
        let w = wide_workload();
        let arch = presets::simba_like();
        let base = Mapping::streaming(&w, &arch);
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let last = arch.num_levels() - 1;
        let mut buf = Vec::new();
        let mut out = base.clone();
        for mut m in random_mappings(&base, &mut rng, 64) {
            let key = MappingKey::of(&m);
            key.decode_into(&mut out);
            assert_eq!(out, m, "round trip");
            // Completion multiplies one level by the quotas (kept small
            // enough not to overflow).
            for f in m.levels_mut()[last].factors_mut() {
                *f = *f % 1000 + 1;
            }
            let quotas = [3u64, 1, 1 << 20, 1, 5, 1, 1, 2];
            let quotas = &quotas[..w.num_dims()];
            let mut completed = m.clone();
            for (f, q) in completed.levels_mut()[last].factors_mut().iter_mut().zip(quotas) {
                *f *= q;
            }
            let ckey = MappingKey::of_completed(&m, last, quotas, &mut buf);
            assert!(ckey == MappingKey::of(&completed), "completed key is the completion's key");
            ckey.decode_into(&mut out);
            assert_eq!(out, completed);
        }
    }

    #[test]
    fn simba_resnet_keys_stay_inline() {
        let w = conv3_x();
        let arch = presets::simba_like();
        let m = Mapping::streaming(&w, &arch);
        let key = MappingKey::of(&m);
        assert_eq!(key.spilled_bytes(), 0, "{} bytes", key.as_bytes().len());
        assert_eq!(std::mem::size_of::<MappingKey>(), 96);
    }

    /// A ResNet-18 `conv3_x`-shaped layer (7 dims) at batch 16.
    fn conv3_x() -> Workload {
        let mut b = Workload::builder("conv3_x");
        let n = b.dim("N", 16);
        let k = b.dim("K", 128);
        let c = b.dim("C", 128);
        let p = b.dim("P", 28);
        let q = b.dim("Q", 28);
        let r = b.dim("R", 3);
        let s = b.dim("S", 3);
        b.input("ifmap", [n.expr(), c.expr(), p + r, q + s]);
        b.input("weight", [k.expr(), c.expr(), r.expr(), s.expr()]);
        b.output("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()]);
        b.build().unwrap()
    }
}
