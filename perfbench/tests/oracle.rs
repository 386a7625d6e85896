//! The oracle must reject wrong answers, not just accept right ones.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_ir::Workload;
use sunstone_perfbench::oracle::{check_mapping, check_served, Baseline, Expected};
use sunstone_workloads::{ConvSpec, Precision};

fn small_conv() -> Workload {
    ConvSpec::new("small", 2, 16, 16, 7, 7, 3, 3, 1).inference(Precision::simba())
}

#[test]
fn oracle_accepts_a_scheduled_mapping_and_rejects_a_perturbed_edp() {
    let arch = presets::simba_like();
    let w = small_conv();
    let result = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    let edp = result.report.edp;
    check_mapping(&w, &arch, &result.mapping, edp).expect("the scheduler's own answer passes");

    let nudged = f64::from_bits(edp.to_bits() + 1);
    let err = check_mapping(&w, &arch, &result.mapping, nudged).unwrap_err();
    assert!(err.contains("EDP"), "{err}");
}

#[test]
fn oracle_rejects_a_mapping_for_another_workload() {
    let arch = presets::simba_like();
    let w = small_conv();
    let other = ConvSpec::new("other", 4, 32, 16, 14, 14, 3, 3, 1).inference(Precision::simba());
    let result =
        Scheduler::new(SunstoneConfig::default()).schedule(&other, &arch).expect("schedules");
    assert!(check_mapping(&w, &arch, &result.mapping, result.report.edp).is_err());
}

#[test]
fn served_answers_must_match_every_field() {
    let want = Expected { ctx_fp: 11, mapping_fp: 22, edp: 3.5e15 };
    check_served("l", &want, &want).expect("identical answers pass");
    let flipped = Expected { mapping_fp: 22 ^ 1, ..want };
    assert!(check_served("l", &want, &flipped).unwrap_err().contains("mapping_fp"));
    let other_ctx = Expected { ctx_fp: 12, ..want };
    assert!(check_served("l", &want, &other_ctx).unwrap_err().contains("ctx_fp"));
    let nudged = Expected { edp: f64::from_bits(want.edp.to_bits() + 1), ..want };
    assert!(check_served("l", &want, &nudged).unwrap_err().contains("EDP"));
}

#[test]
fn baseline_check_rejects_a_flipped_fingerprint() {
    let arch = presets::simba_like();
    let w = small_conv();
    let result = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    let fp = mapping_fingerprint(&result.mapping);
    let text = format!("{{\n  \"layers\": [\n    {{\n      \"name\": \"small\",\n      \"mapping_fp\": {fp},\n    }}\n  ]\n}}\n");
    let baseline = Baseline::parse(&text);
    assert_eq!(baseline.len(), 1);
    baseline.check("small", fp).expect("the recorded fingerprint passes");
    assert!(baseline.check("small", fp ^ 1).is_err());
    assert!(baseline.check("missing", fp).is_err());
}
