//! Correctness oracle, run outside every timed window.
//!
//! * Every mapping the library returns is re-validated
//!   ([`ValidationContext::validate`]) and re-priced with the reference
//!   [`CostModel::evaluate`]; the EDP must match bit for bit.
//! * Every unique ResNet-18 shape's `mapping_fp` is compared with the
//!   committed baseline (`results/bench_baseline.json`).
//! * Every answer the daemon serves must carry the context fingerprint,
//!   mapping fingerprint and EDP an in-process library session produces
//!   for the same workload.

use std::collections::HashMap;

use sunstone_arch::{ArchSpec, Binding};
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, ValidationContext};
use sunstone_model::CostModel;

/// Path of the committed fingerprint baseline, relative to the checkout.
pub const BASELINE_PATH: &str = "results/bench_baseline.json";

/// Re-validates `mapping` for `(w, arch)` and re-prices it with the
/// reference model; `edp` is what the scheduler reported for it.
pub fn check_mapping(
    w: &Workload,
    arch: &ArchSpec,
    mapping: &Mapping,
    edp: f64,
) -> Result<(), String> {
    let binding = Binding::resolve(arch, w).map_err(|e| format!("{}: binding: {e}", w.name()))?;
    ValidationContext::new(w, arch, &binding)
        .validate(mapping)
        .map_err(|e| format!("{}: invalid mapping: {e}", w.name()))?;
    let report = CostModel::new(w, arch, &binding)
        .evaluate(mapping)
        .map_err(|e| format!("{}: reference model rejects mapping: {e}", w.name()))?;
    if report.edp.to_bits() != edp.to_bits() {
        return Err(format!("{}: reported EDP {edp:e} != reference {:e}", w.name(), report.edp));
    }
    Ok(())
}

/// What the library produces for one workload: the expected identity of
/// any served answer for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub ctx_fp: u64,
    pub mapping_fp: u64,
    pub edp: f64,
}

/// Compares one served answer with the library's.
pub fn check_served(name: &str, expected: &Expected, got: &Expected) -> Result<(), String> {
    if got.ctx_fp != expected.ctx_fp {
        return Err(format!("{name}: served ctx_fp {} != library {}", got.ctx_fp, expected.ctx_fp));
    }
    if got.mapping_fp != expected.mapping_fp {
        return Err(format!(
            "{name}: served mapping_fp {} != library {}",
            got.mapping_fp, expected.mapping_fp
        ));
    }
    if got.edp.to_bits() != expected.edp.to_bits() {
        return Err(format!("{name}: served EDP {:e} != library {:e}", got.edp, expected.edp));
    }
    Ok(())
}

/// Baseline `mapping_fp` per unique ResNet-18 layer name.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    fps: HashMap<String, u64>,
}

impl Baseline {
    /// Reads the `"name"` / `"mapping_fp"` pairs of a baseline file.
    pub fn parse(text: &str) -> Baseline {
        let mut fps = HashMap::new();
        let mut name: Option<String> = None;
        for line in text.lines().map(str::trim) {
            if let Some(rest) = line.strip_prefix("\"name\": \"") {
                name = rest.split('"').next().map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("\"mapping_fp\": ") {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if let (Some(n), Ok(fp)) = (name.take(), digits.parse()) {
                    fps.insert(n, fp);
                }
            }
        }
        Baseline { fps }
    }

    /// Loads [`BASELINE_PATH`].
    pub fn load() -> Result<Baseline, String> {
        let text = std::fs::read_to_string(BASELINE_PATH)
            .map_err(|e| format!("cannot read {BASELINE_PATH}: {e}"))?;
        let baseline = Baseline::parse(&text);
        if baseline.fps.is_empty() {
            return Err(format!("{BASELINE_PATH} holds no mapping fingerprints"));
        }
        Ok(baseline)
    }

    /// Number of layers with a recorded fingerprint.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Checks one unique layer's fingerprint against the baseline.
    pub fn check(&self, name: &str, mapping_fp: u64) -> Result<(), String> {
        match self.fps.get(name) {
            Some(&fp) if fp == mapping_fp => Ok(()),
            Some(&fp) => Err(format!("{name}: mapping_fp {mapping_fp} != baseline {fp}")),
            None => Err(format!("{name}: no baseline fingerprint")),
        }
    }
}
