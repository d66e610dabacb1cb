//! Differential oracle for the NVDIMM buffer cache's node-side plumbing.
//!
//! The control-plane churn driver has no request datapath, so its leg
//! pins the [`nvhsm_core::PolicyEngine::observe_heat`] seam the hot/cold
//! classifier feeds: heat naming only a VMDK the fleet never allocates
//! must be inert through the sharded engine's delegation chain.
//!
//! A cache config, by contrast, must actually *change* the run — a
//! sensitivity check that a dropped config knob would fail. That the
//! cache taps only observe is pinned next to the engine, by
//! `node::tests::prop_null_stages_compose_to_identity`.

use nvhsm_core::{NodeCacheConfig, PolicyKind};
use nvhsm_experiments::churn::{run_churn, ChurnParams};
use nvhsm_experiments::mix::{run_mix_observed, MixParams};
use nvhsm_experiments::obs::ObsOptions;
use nvhsm_experiments::Scale;

#[test]
fn phantom_heat_churn_is_byte_identical() {
    let plain = ChurnParams::standard();
    let heated = ChurnParams {
        phantom_heat: true,
        ..plain
    };
    assert_eq!(
        serde_json::to_string(&run_churn(plain, Scale::Quick)).unwrap(),
        serde_json::to_string(&run_churn(heated, Scale::Quick)).unwrap(),
        "heat for a never-allocated VMDK changed the churn run"
    );
}

#[test]
fn enabled_cache_actually_changes_the_mix() {
    let none = MixParams::standard(PolicyKind::Bca);
    let caching = MixParams {
        // Paper scale, not `small_test`: the latter matches the default
        // device cache and, with no migration in this mix, changes nothing.
        cache: Some(NodeCacheConfig::paper_scale()),
        ..none
    };
    let (report_a, _) = run_mix_observed(none, Scale::Quick, ObsOptions::OFF);
    let (report_b, _) = run_mix_observed(caching, Scale::Quick, ObsOptions::OFF);
    assert_ne!(
        serde_json::to_string(&report_a).unwrap(),
        serde_json::to_string(&report_b).unwrap(),
        "a paper-scale cache left the mix untouched — the knob is dead"
    );
}
