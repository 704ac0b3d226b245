//! Untrusted input at admission: a camera that hands the fleet one
//! frame of the wrong size must cost that frame only. The frame is
//! rejected before it reaches the VP stage, the run returns, the
//! offending stream's valid frames still complete, and every stream
//! stays bit-identical to the deterministic reference executor.
//!
//! The fleet runs on a spawned thread and the test waits with a
//! timeout, so a regression that wedges the shards fails this test
//! instead of hanging the suite.

use safecross::SafeCrossConfig;
use safecross_serve::{FleetReport, FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::Weather;
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const STREAMS: usize = 4;
const FRAMES: usize = 40;
const OFFENDER: usize = 2;
/// Feed position of the malformed frame in the offender's feed.
const BAD_AT: usize = 10;

fn fleet() -> FleetServer {
    let config = ServeConfig::builder()
        .shards(2)
        .shedding(false)
        .telemetry(true)
        .stream(SafeCrossConfig::default())
        .build()
        .expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    let mut rng = TensorRng::seed_from(5);
    for w in Weather::ALL {
        fleet
            .register_model(w, SlowFastLite::new(2, &mut rng))
            .expect("models first");
    }
    for _ in 0..STREAMS {
        fleet
            .open_stream(StreamSpec::new())
            .expect("models are registered");
    }
    fleet
}

/// Four 320×240 feeds; the offender's carries one 32×24 frame.
fn feeds() -> Vec<Vec<GrayFrame>> {
    (0..STREAMS)
        .map(|s| {
            let mut frames: Vec<GrayFrame> = (0..FRAMES)
                .map(|i| GrayFrame::filled(320, 240, 70 + ((i + 7 * s) % 40) as u8))
                .collect();
            if s == OFFENDER {
                frames.insert(BAD_AT, GrayFrame::filled(32, 24, 90));
            }
            frames
        })
        .collect()
}

#[test]
fn malformed_frame_is_rejected_without_hanging_the_fleet() {
    let (tx, rx) = mpsc::channel::<(FleetServer, FleetReport)>();
    let runner = thread::spawn(move || {
        let mut served = fleet();
        let report = served.run(feeds()).expect("run succeeds");
        let _ = tx.send((served, report));
    });
    let (served, report) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("fleet run did not return after a malformed frame");
    runner.join().expect("runner thread finished cleanly");

    let mut reference = fleet();
    reference
        .run_reference(feeds())
        .expect("reference run succeeds");

    let served_handles = served.handles();
    let reference_handles = reference.handles();
    for s in 0..STREAMS {
        // (fed, rejected, completed): the offender's bad frame is fed
        // and rejected; every valid frame of every stream completes.
        let rejects = u64::from(s == OFFENDER);
        let accounting = (FRAMES as u64 + rejects, rejects, FRAMES as u64);
        for (mode, stats) in [
            ("run", served_handles[s].stats(&served)),
            ("run_reference", reference_handles[s].stats(&reference)),
        ] {
            let got = (stats.fed, stats.rejected, stats.completed);
            assert_eq!(got, accounting, "stream {s} accounting under {mode}");
        }

        // The rejected frame never reached VP, and every stream matches
        // the reference executor bit for bit.
        let got = served_handles[s].session(&served);
        let want = reference_handles[s].session(&reference);
        assert_eq!(got.frames_seen(), FRAMES, "stream {s}");
        assert!(!got.verdicts().is_empty(), "stream {s}");
        assert_eq!(got.verdicts(), want.verdicts(), "stream {s}");
        assert_eq!(got.current_scene(), want.current_scene(), "stream {s}");
        got.with_switch_log(|a| want.with_switch_log(|b| assert_eq!(a, b, "stream {s}")));
    }
    assert_eq!(report.completed, (STREAMS * FRAMES) as u64);
    let snapshot = served.telemetry().snapshot();
    assert_eq!(snapshot.counter("serve.rejected"), Some(1));
}
