//! One camera served by the fleet must behave exactly like the
//! sequential frame path. For the same frame stream and the same
//! models, a one-stream `FleetServer` — under the deterministic
//! `run_reference` and under the sharded `run` with shedding off — must
//! leave a session bit-identical to a `process_frame` loop: verdicts
//! (with their confidences), switch log, frame counter, and final scene.
//!
//! Three rendered streams cover the regimes: steady daytime (no
//! switches), a daytime-to-rain transition, and a daytime-to-snow-and-
//! back round trip (two switches, model reuse). Scheduling knobs, live
//! telemetry, a stalled classifier, and back-to-back runs change
//! timing only, never outputs.

use safecross::{SafeCross, SafeCrossConfig};
use safecross_serve::{
    FaultHook, FleetServer, ServeConfig, ServeConfigBuilder, StreamHandle, StreamSpec, WorkerAction,
};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// How long a stressed run may take before the test calls it a hang.
const HANG_TIMEOUT: Duration = Duration::from_secs(120);

/// One model per weather, daytime first, built deterministically. The
/// fleet and the sequential comparator register clones of these in the
/// same order; the stress tests register the daytime model alone.
fn all_models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(0);
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

/// Renders one stream from consecutive weather phases of footage.
fn stream(phases: &[(Weather, usize)]) -> Vec<GrayFrame> {
    let mut frames = Vec::new();
    for (i, &(weather, n)) in phases.iter().enumerate() {
        let seed = i as u64 + 1;
        let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), seed);
        let mut renderer = Renderer::new(RenderConfig::default(), weather, seed);
        for _ in 0..n {
            sim.step(DT);
            frames.push(renderer.render(&sim));
        }
    }
    frames
}

/// Flat frames whose brightness varies, so VP sees motion and verdicts
/// flow without rendering cost.
fn synthetic(n: usize) -> Vec<GrayFrame> {
    (0..n)
        .map(|i| GrayFrame::filled(320, 240, 70 + (i % 40) as u8))
        .collect()
}

/// The sequential comparator: a standalone session fed every frame.
fn sequential(
    models: &[(Weather, SlowFastLite)],
    frames: &[GrayFrame],
    telemetry: bool,
) -> SafeCross {
    let config = SafeCrossConfig::builder()
        .telemetry(telemetry)
        .build()
        .expect("valid configuration");
    let mut sc = SafeCross::try_new(config).expect("validated configuration");
    for (w, m) in models {
        sc.register_model(*w, m.clone());
    }
    for f in frames {
        sc.process_frame(f);
    }
    sc
}

fn lossless(shards: usize) -> ServeConfigBuilder {
    ServeConfig::builder().shards(shards).shedding(false)
}

fn one_stream_fleet(
    config: ServeConfigBuilder,
    models: &[(Weather, SlowFastLite)],
) -> (FleetServer, StreamHandle) {
    let config = config.build().expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    for (w, m) in models {
        fleet.register_model(*w, m.clone()).expect("models first");
    }
    let cam = fleet
        .open_stream(StreamSpec::new())
        .expect("models are registered");
    (fleet, cam)
}

fn assert_session_matches(got: &SafeCross, want: &SafeCross, mode: &str) {
    assert_eq!(got.verdicts(), want.verdicts(), "{mode}");
    assert_eq!(got.frames_seen(), want.frames_seen(), "{mode}");
    assert_eq!(got.current_scene(), want.current_scene(), "{mode}");
    got.with_switch_log(|a| want.with_switch_log(|b| assert_eq!(a, b, "{mode}")));
}

/// Serves `frames` on one stream under `run_reference` and under
/// lossless `run` at shard counts 1 and 2, and asserts every mode
/// leaves the session identical to the sequential loop.
fn assert_equivalent(frames: &[GrayFrame]) {
    let models = all_models();
    let want = sequential(&models, frames, false);

    let (mut fleet, cam) = one_stream_fleet(lossless(1), &models);
    let report = fleet
        .run_reference(vec![frames.to_vec()])
        .expect("reference run succeeds");
    assert_eq!(report.completed, frames.len() as u64);
    assert_session_matches(cam.session(&fleet), &want, "run_reference");

    for shards in [1, 2] {
        let (mut fleet, cam) = one_stream_fleet(lossless(shards), &models);
        let report = fleet.run(vec![frames.to_vec()]).expect("run succeeds");
        assert_eq!(report.completed, frames.len() as u64);
        assert_session_matches(cam.session(&fleet), &want, &format!("run, {shards} shards"));
    }
}

#[test]
fn daytime_stream_is_equivalent() {
    assert_equivalent(&stream(&[(Weather::Daytime, 70)]));
}

#[test]
fn rain_transition_is_equivalent() {
    // Daytime footage, then rain: the mid-stream model switch must land
    // on exactly the same frame in every execution mode.
    assert_equivalent(&stream(&[(Weather::Daytime, 40), (Weather::Rain, 40)]));
}

#[test]
fn snow_round_trip_is_equivalent() {
    assert_equivalent(&stream(&[
        (Weather::Daytime, 36),
        (Weather::Snow, 36),
        (Weather::Daytime, 36),
    ]));
}

#[test]
fn equivalence_is_capacity_independent() {
    // Admission-queue capacity and micro-batch size change scheduling,
    // never results.
    let frames = stream(&[(Weather::Daytime, 20), (Weather::Snow, 25)]);
    let models = all_models();
    let want = sequential(&models, &frames, false);
    for (capacity, batch_max) in [(1, 1), (2, 2), (32, 8)] {
        let config = lossless(1).queue_capacity(capacity).batch_max(batch_max);
        let (mut fleet, cam) = one_stream_fleet(config, &models);
        let report = fleet.run(vec![frames.clone()]).expect("run succeeds");
        assert_eq!(report.completed, frames.len() as u64);
        assert_session_matches(
            cam.session(&fleet),
            &want,
            &format!("queue capacity {capacity}, batch_max {batch_max}"),
        );
    }
}

#[test]
fn instrumentation_does_not_perturb_outcomes() {
    // Live telemetry on the fleet and on its session must leave every
    // output bit equal to an uninstrumented sequential loop.
    let frames = stream(&[(Weather::Daytime, 36), (Weather::Snow, 36)]);
    let models = all_models();
    let plain = sequential(&models, &frames, false);
    let timed = sequential(&models, &frames, true);
    assert_session_matches(&timed, &plain, "sequential under telemetry");

    let instrumented = SafeCrossConfig::builder()
        .telemetry(true)
        .build()
        .expect("valid configuration");
    let config = lossless(2).telemetry(true).stream(instrumented);
    let (mut fleet, cam) = one_stream_fleet(config, &models);
    fleet.run(vec![frames.clone()]).expect("run succeeds");
    let session = cam.session(&fleet);
    assert_session_matches(session, &plain, "instrumented fleet");

    // The instrumentation recorded the run: the fleet admitted and
    // completed every frame, and the session counted every frame
    // through every stage plus every switch it logged.
    let fed = frames.len() as u64;
    let fleet_snap = fleet.telemetry().snapshot();
    assert_eq!(fleet_snap.counter("serve.admitted"), Some(fed));
    assert_eq!(fleet_snap.counter("serve.completed"), Some(fed));
    let snap = session.telemetry().snapshot();
    assert_eq!(snap.counter("stage.scene.frames"), Some(fed));
    assert_eq!(snap.counter("vp.frames"), Some(fed));
    // One initial daytime switch plus the mid-stream snow switch.
    let switches = session.switch_count() as u64;
    assert_eq!(switches, 2);
    assert_eq!(snap.counter("ms.switches"), Some(switches));
}

#[test]
fn switch_log_frames_match_across_modes() {
    // The frame a switch is attributed to comes from the scene stage's
    // own counter, so it is deterministic and mode-independent.
    let frames = stream(&[(Weather::Daytime, 30), (Weather::Rain, 30)]);
    let models = all_models();
    let want = sequential(&models, &frames, false);
    let (mut fleet, cam) = one_stream_fleet(lossless(1), &models);
    fleet.run(vec![frames]).expect("run succeeds");
    let session = cam.session(&fleet);
    session.with_switch_log(|a| {
        want.with_switch_log(|b| assert_eq!(a, b));
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].frame, 0, "initial registration switch is frame 0");
        assert!(
            a[1].frame >= 30,
            "rain switch must land after the transition"
        );
    });
}

#[test]
fn snow_switch_surfaces_in_the_stream_switch_log() {
    let frames = stream(&[(Weather::Daytime, 30), (Weather::Snow, 30)]);
    let (mut fleet, cam) = one_stream_fleet(lossless(1), &all_models());
    fleet.run(vec![frames]).expect("run succeeds");
    cam.session(&fleet).with_switch_log(|log| {
        let snow: Vec<_> = log.iter().filter(|r| r.model == "snow").collect();
        assert_eq!(snow.len(), 1, "exactly one snow switch");
        assert!(
            snow[0].frame >= 30,
            "snow switch lands after the transition"
        );
        assert_eq!(log.len(), 2, "initial daytime switch plus the snow switch");
    });
}

/// Stalls the shard before every batch it executes — the fleet's
/// slow-classifier stand-in.
struct SlowClassifier(Duration);

impl FaultHook for SlowClassifier {
    fn before_batch(&self, _worker: usize, _batches_done: u64) -> WorkerAction {
        WorkerAction::Stall(self.0)
    }
}

/// The tightest fleet: one shard, one-frame queues, one-clip batches,
/// and a classifier stalled on every batch.
fn stressed_fleet(shedding: bool, stall: Duration) -> (FleetServer, StreamHandle) {
    let config = lossless(1)
        .queue_capacity(1)
        .batch_max(1)
        .shedding(shedding);
    let (mut fleet, cam) = one_stream_fleet(config, &all_models()[..1]);
    fleet.set_fault_hook(Arc::new(SlowClassifier(stall)));
    (fleet, cam)
}

/// Runs `feed` on `fleet` from a spawned thread, failing the test if
/// the run does not return within [`HANG_TIMEOUT`].
fn run_within_timeout(mut fleet: FleetServer, feed: Vec<GrayFrame>) -> FleetServer {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        fleet.run(vec![feed]).expect("run succeeds");
        let _ = tx.send(fleet);
    });
    let fleet = rx
        .recv_timeout(HANG_TIMEOUT)
        .expect("stressed fleet run hung or panicked");
    runner.join().expect("runner thread finished cleanly");
    fleet
}

#[test]
fn capacity_one_with_slow_classifier_neither_deadlocks_nor_drops() {
    let n = 48;
    let want = sequential(&all_models()[..1], &synthetic(n), false);

    let (fleet, cam) = stressed_fleet(false, Duration::from_millis(2));
    let fleet = run_within_timeout(fleet, synthetic(n));
    let stats = cam.stats(&fleet);
    assert_eq!(stats.fed, n as u64);
    assert_eq!(stats.completed, n as u64, "lossless run drops nothing");
    assert_eq!(stats.shed(), 0);
    assert_session_matches(cam.session(&fleet), &want, "stressed fleet");

    // With shedding on, the same tight fleet keeps its admission queue
    // within the configured bound.
    let (fleet, cam) = stressed_fleet(true, Duration::from_millis(2));
    let fleet = run_within_timeout(fleet, synthetic(n));
    let stats = cam.stats(&fleet);
    assert_eq!(stats.fed, n as u64);
    assert!(
        stats.queue_peak <= 1,
        "queue reached depth {}",
        stats.queue_peak
    );
    assert_eq!(
        stats.completed + stats.shed(),
        n as u64,
        "accounting balances"
    );
}

#[test]
fn repeated_stressed_runs_on_one_system_accumulate_state() {
    // Two runs back-to-back behave like one longer sequential feed: the
    // session's segment buffer carries over between runs.
    let (fleet, cam) = stressed_fleet(false, Duration::from_millis(1));
    let fleet = run_within_timeout(fleet, synthetic(20));
    assert!(
        cam.verdicts(&fleet).is_empty(),
        "buffer not yet full at 20 frames"
    );
    let fleet = run_within_timeout(fleet, synthetic(20));
    assert_eq!(cam.session(&fleet).frames_seen(), 40);
    assert!(
        !cam.verdicts(&fleet).is_empty(),
        "segment buffer should have filled across runs"
    );

    let mut both = synthetic(20);
    both.extend(synthetic(20));
    let want = sequential(&all_models()[..1], &both, false);
    assert_session_matches(cam.session(&fleet), &want, "two back-to-back runs");
}
