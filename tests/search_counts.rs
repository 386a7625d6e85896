//! Count identity of the search on ResNet-18 / Simba.
//!
//! The beam search is deterministic, so its pruning and estimation
//! counters are fixed numbers for a fixed problem. They are pinned here
//! to the values the search produced before its candidates became compact
//! deltas: a change to how candidates are represented, keyed, deduplicated
//! or probed must leave every counter exactly where it was — a drift means
//! the dedup or probe sets changed, even when the best mapping did not.

use sunstone::{Scheduler, SearchStats, SunstoneConfig};
use sunstone_arch::presets;
use sunstone_workloads::{resnet18_network, Precision};

/// One unique shape's counters: `(name, probed, modeled, nodes_explored,
/// tiles, unrollings, per-stage dedup_removed, per-stage (beam considered,
/// beam kept))`.
type Counts<'a> = (&'a str, u64, u64, u64, u64, u64, [u64; 4], [(u64, u64); 4]);

fn counts_of<'a>(name: &'a str, s: &SearchStats) -> Counts<'a> {
    assert_eq!(s.levels.len(), 4, "{name}: Simba has four memory stages");
    let dedup: Vec<u64> = s.levels.iter().map(|l| l.dedup_removed).collect();
    let beam: Vec<(u64, u64)> = s.levels.iter().map(|l| (l.beam.considered, l.beam.kept)).collect();
    (
        name,
        s.probed,
        s.modeled,
        s.nodes_explored,
        s.tiles,
        s.unrollings,
        dedup.try_into().unwrap(),
        beam.try_into().unwrap(),
    )
}

/// The values recorded before the compact-candidate search.
#[rustfmt::skip]
const PINNED: [Counts<'static>; 11] = [
    ("conv1", 5078, 5030, 50985, 5030, 339, [0, 0, 0, 0], [(54, 48), (4189, 48), (787, 48), (48, 48)]),
    ("conv2_x", 11544, 11496, 127736, 11496, 328, [0, 0, 0, 0], [(84, 48), (10011, 48), (1401, 48), (48, 48)]),
    ("conv3_1", 8893, 8845, 58916, 8845, 256, [0, 0, 0, 0], [(84, 48), (7626, 48), (1135, 48), (48, 48)]),
    ("conv3_ds", 4082, 4034, 20537, 4034, 275, [0, 0, 0, 0], [(44, 44), (3320, 48), (670, 48), (48, 48)]),
    ("conv3_x", 10886, 10838, 85024, 10838, 240, [0, 0, 0, 0], [(84, 48), (9932, 48), (822, 48), (48, 48)]),
    ("conv4_1", 9147, 9099, 59757, 9099, 326, [0, 0, 0, 0], [(60, 48), (8220, 48), (819, 48), (48, 48)]),
    ("conv4_ds", 2634, 2586, 14534, 2586, 166, [0, 0, 0, 0], [(38, 38), (2320, 48), (228, 48), (48, 48)]),
    ("conv4_x", 9862, 9814, 70302, 9814, 351, [0, 0, 0, 0], [(60, 48), (8786, 48), (968, 48), (48, 48)]),
    ("conv5_1", 5714, 5666, 39510, 5670, 254, [0, 4, 0, 0], [(33, 33), (5105, 48), (528, 48), (48, 48)]),
    ("conv5_ds", 1657, 1609, 10309, 1609, 220, [0, 0, 0, 0], [(29, 29), (1192, 48), (388, 48), (48, 48)]),
    ("conv5_x", 6400, 6352, 43445, 6364, 269, [0, 12, 0, 0], [(33, 33), (5722, 48), (597, 48), (48, 48)]),
];

#[test]
fn resnet18_simba_search_counters_are_pinned() {
    let net: Vec<_> =
        resnet18_network(16).iter().map(|l| l.inference(Precision::simba())).collect();
    let arch = presets::simba_like();
    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch(&net, &arch)
        .expect("ResNet-18 schedules on Simba");
    let mut seen = Vec::new();
    let mut got = Vec::new();
    for (i, w) in net.iter().enumerate() {
        let name = w.name().split('/').next().unwrap();
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        got.push(counts_of(name, &batch.best(i).stats));
    }
    assert_eq!(got.as_slice(), PINNED.as_slice());
}
