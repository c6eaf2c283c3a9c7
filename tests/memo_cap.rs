//! A tuning service whose evaluation scope is full. `EvalMemo` retains at
//! most `EVAL_MEMO_BYTE_CAP` prepared bytes and evicts nothing; at the cap a
//! service still answers every request, bit for bit as a fresh service
//! does, and measures its baseline again on every search.
//!
//! The evaluation scope is process-wide, and `tests/service.rs` keeps a
//! static service that holds it, so this file is its own test binary.

mod common;

use common::{fresh_cache, plan_bits, quick_service, Probe};
use gpu_sim::DeviceSpec;
use hpac_offload::apps::blackscholes::Blackscholes;
use hpac_offload::apps::common::{
    current_eval_memo, eval_key, install_eval_memo, Prepared, EVAL_MEMO_BYTE_CAP,
};
use hpac_offload::harness::space::baseline_ipts;
use hpac_offload::service::TuneRequest;
use hpac_offload::tuner::QualityBound;

/// A prepared entry that claims the whole cap.
struct Ballast;

impl Prepared for Ballast {
    fn approx_bytes(&self) -> usize {
        EVAL_MEMO_BYTE_CAP
    }
}

#[test]
fn a_service_at_the_byte_cap_answers_as_a_fresh_one_does() {
    let device = DeviceSpec::v100();
    let bounds = [5.0, 8.0].map(QualityBound::percent);
    let tag = (std::process::id() as u64) << 32 | 0xCA9;
    let candidates = baseline_ipts(&Blackscholes::default()).len();

    // A clean service, which takes the scope and frees it when dropped.
    let clean_cache = fresh_cache("cap_clean");
    let clean_probe = Probe::new(Blackscholes::default(), tag);
    let clean = {
        let svc = quick_service(&clean_cache, 0.1);
        bounds.map(|bound| svc.submit(TuneRequest::new(&clean_probe, &device, bound)))
    };
    assert!(current_eval_memo().is_none(), "the clean service let go");
    assert_eq!(
        clean_probe.accurate_runs(),
        candidates,
        "a service below the cap measures one baseline"
    );

    // The same requests with the scope full before the service starts.
    let scope = install_eval_memo();
    let memo = current_eval_memo().expect("scope active");
    memo.prepared(&eval_key("ballast", &[tag]), || Ballast);
    assert_eq!(memo.resident_bytes(), EVAL_MEMO_BYTE_CAP);

    let capped_cache = fresh_cache("cap_full");
    let capped_probe = Probe::new(Blackscholes::default(), tag + 1);
    let svc = quick_service(&capped_cache, 0.1);
    for (bound, clean) in bounds.into_iter().zip(&clean) {
        let resp = svc.submit(TuneRequest::new(&capped_probe, &device, bound));
        assert!(resp.source.is_searched(), "at {bound:?}");
        assert_eq!(resp.source, clean.source, "at {bound:?}");
        assert_eq!(
            plan_bits(&resp.plan),
            plan_bits(&clean.plan),
            "at {bound:?}"
        );
        assert!(resp.plan.respects_bound());
        assert!(resp.plan.predicted_speedup > 1.0, "an approximated winner");
    }
    assert_eq!(
        capped_probe.accurate_runs(),
        candidates * bounds.len(),
        "at the cap every search measures its own baseline"
    );
    assert_eq!(memo.resident_bytes(), EVAL_MEMO_BYTE_CAP, "nothing evicted");

    drop(svc);
    drop(scope);
    let _ = clean_cache.clear();
    let _ = capped_cache.clear();
}
