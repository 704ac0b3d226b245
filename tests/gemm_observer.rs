//! GEMM observer attribution: a system's `nn.gemm.*` telemetry counts
//! the GEMMs of its own forwards and nothing else, and int8 forwards
//! report their GEMMs like f32 ones.

use safecross::{SafeCross, SafeCrossConfig};
use safecross_nn::Mode;
use safecross_tensor::kernel::{self, GemmObserverFn, GemmSample};
use safecross_tensor::{KernelScratch, Precision, Tensor, TensorRng};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use std::sync::{Arc, Mutex};

fn telemetry_system(rng: &mut TensorRng) -> SafeCross {
    let config = SafeCrossConfig::builder().telemetry(true).build().unwrap();
    let mut sc = SafeCross::try_new(config).expect("validated configuration");
    sc.register_model(Weather::Daytime, SlowFastLite::new(2, rng));
    sc
}

fn gemm_calls(sc: &SafeCross) -> u64 {
    sc.telemetry()
        .snapshot()
        .counter("nn.gemm.calls")
        .unwrap_or(0)
}

#[test]
fn each_system_counts_only_its_own_gemms() {
    let mut rng = TensorRng::seed_from(3);
    let mut a = telemetry_system(&mut rng);
    let b = telemetry_system(&mut rng);
    let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
    for forwards in 1..=2u64 {
        a.classify_clip(&clip, Weather::Daytime)
            .expect("daytime model registered");
        // A batch-1 SlowFast forward issues five GEMMs: four convs and
        // the head. B never ran a forward.
        assert_eq!(gemm_calls(&a), 5 * forwards);
        assert_eq!(gemm_calls(&b), 0, "B saw A's GEMMs");
    }
}

/// The `(m, k, n, precision)` of every GEMM one batch-1 forward issues.
fn forward_gemms(model: &mut SlowFastLite, clip: &Tensor) -> Vec<(usize, usize, usize, Precision)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let observer: Arc<GemmObserverFn> = Arc::new(move |s: &GemmSample| {
        sink.lock().unwrap().push((s.m, s.k, s.n, s.precision));
    });
    let scope = kernel::scope_gemm_observer(&observer);
    let logits = model.forward_scratch(clip, Mode::Eval, &mut KernelScratch::new());
    drop(scope);
    assert_eq!(logits.dims(), &[1, 2]);
    let samples = seen.lock().unwrap().clone();
    samples
}

#[test]
fn int8_forward_reports_every_gemm_as_int8() {
    let mut rng = TensorRng::seed_from(8);
    let mut model = SlowFastLite::new(2, &mut rng);
    let clip = rng.uniform(&[1, 1, 32, 20, 20], 0.0, 1.0);
    let f32_gemms = forward_gemms(&mut model, &clip);
    model.set_precision(Precision::Int8);
    let int8_gemms = forward_gemms(&mut model, &clip);
    assert_eq!(f32_gemms.len(), 5);
    assert!(f32_gemms.iter().all(|g| g.3 == Precision::F32));
    assert_eq!(
        int8_gemms.len(),
        f32_gemms.len(),
        "int8 GEMMs went unreported"
    );
    for (q, f) in int8_gemms.iter().zip(&f32_gemms) {
        assert_eq!(q.3, Precision::Int8);
        assert_eq!(
            (q.0, q.1, q.2),
            (f.0, f.1, f.2),
            "int8 GEMM shape differs from f32"
        );
    }
}
