//! Opening a stream binds the fleet's stored scene checkpoints by name
//! and never writes the store:
//!
//! 1. **Store invariants**: after the scene models are registered, the
//!    store's blob count, byte totals, model count and every base
//!    group's refcount stay exactly the same across 100 opened streams,
//!    and each session's resident weights are bit-identical to the
//!    stored checkpoint, for f32 and int8 streams alike.
//! 2. **Typed error**: once a scene checkpoint is removed from the
//!    store, opening a stream fails with [`ServeError::Model`] instead of
//!    silently re-inserting the weights, and the streams opened earlier
//!    still serve bit-identically to the reference executor.

use safecross::SafeCrossConfig;
use safecross_modelswitch::SwitchError;
use safecross_serve::{paced_feed, FleetServer, Precision, ServeConfig, ServeError, StreamSpec};
use safecross_tensor::{Tensor, TensorRng};
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::time::Duration;

const W: usize = 64;
const H: usize = 48;

fn shared_models() -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(0);
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

fn stream_config() -> SafeCrossConfig {
    SafeCrossConfig {
        frame_width: W,
        frame_height: H,
        segment_frames: 8,
        scene_window: 4,
        min_confidence: 0.0,
        ..SafeCrossConfig::default()
    }
}

fn fleet(models: &[(Weather, SlowFastLite)]) -> FleetServer {
    let config = ServeConfig::builder()
        .shards(2)
        .shedding(false)
        .stream(stream_config())
        .build()
        .expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    for (w, m) in models {
        fleet.register_model(*w, m.clone()).expect("models first");
    }
    fleet
}

fn rendered(weather: Weather, frames: usize, seed: u64) -> Vec<GrayFrame> {
    let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), seed);
    let rc = RenderConfig {
        width: W,
        height: H,
        ..RenderConfig::default()
    };
    let mut renderer = Renderer::new(rc, weather, seed);
    (0..frames)
        .map(|_| {
            sim.step(DT);
            renderer.render(&sim)
        })
        .collect()
}

/// Everything the store reports about its contents, plus the refcount
/// of every group of every base checkpoint.
#[derive(Debug, PartialEq)]
struct StoreState {
    unique_groups: usize,
    stored_bytes: usize,
    dedup_bytes: usize,
    model_count: usize,
    group_refs: Vec<(String, usize)>,
}

fn store_state(fleet: &FleetServer) -> StoreState {
    let store = fleet.model_store();
    let group_refs = Weather::ALL
        .iter()
        .flat_map(|w| {
            let manifest = store.manifest(w.label()).expect("base checkpoint stored");
            manifest
                .groups
                .into_iter()
                .map(|g| {
                    (
                        format!("{}/{}", w.label(), g.name),
                        store.group_refs(g.hash),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    StoreState {
        unique_groups: store.unique_groups(),
        stored_bytes: store.stored_bytes(),
        dedup_bytes: store.dedup_bytes(),
        model_count: store.model_count(),
        group_refs,
    }
}

fn assert_bit_identical(got: &[(String, Tensor)], want: &[(String, Tensor)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: tensor count");
    for ((gn, gt), (wn, wt)) in got.iter().zip(want) {
        assert_eq!(gn, wn, "{what}: tensor order");
        assert_eq!(gt.dims(), wt.dims(), "{what}: {gn} shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(gt), bits(wt), "{what}: {gn} bits");
    }
}

#[test]
fn opening_streams_leaves_the_store_untouched() {
    let models = shared_models();
    let mut fleet = fleet(&models);
    let before = store_state(&fleet);
    assert_eq!(before.model_count, Weather::ALL.len());

    let handles: Vec<_> = (0..100)
        .map(|i| {
            let precision = if i % 2 == 0 {
                Precision::F32
            } else {
                Precision::Int8
            };
            fleet
                .open_stream(StreamSpec::new().with_precision(precision))
                .expect("models registered")
        })
        .collect();
    assert_eq!(
        store_state(&fleet),
        before,
        "opening streams changed the store"
    );

    // Every session activated the first registered scene straight from
    // the store's blobs.
    let active = Weather::ALL[0].label();
    let stored = fleet
        .model_store()
        .state_dict(active)
        .expect("base checkpoint stored");
    for handle in &handles {
        let session = handle.session(&fleet);
        assert_eq!(session.resident_model().as_deref(), Some(active));
        let resident = session
            .resident_state_dict()
            .expect("real weights resident");
        let what = format!("{} ({:?})", handle.id(), handle.precision());
        assert_bit_identical(&resident, &stored, &what);
    }
}

#[test]
fn open_after_checkpoint_removal_is_a_typed_error() {
    let models = shared_models();
    // Stream 0 stays in daytime; stream 1 crosses into rain, so it
    // switches onto the checkpoint removed below.
    let feeds = vec![
        rendered(Weather::Daytime, 40, 1),
        [
            rendered(Weather::Daytime, 20, 2),
            rendered(Weather::Rain, 28, 3),
        ]
        .concat(),
    ];

    let mut served = fleet(&models);
    for _ in 0..feeds.len() {
        served
            .open_stream(StreamSpec::new())
            .expect("models registered");
    }
    assert!(served.model_store().remove_model(Weather::Rain.label()));
    let err = served
        .open_stream(StreamSpec::new())
        .expect_err("rain has no stored checkpoint");
    match &err {
        ServeError::Model(SwitchError::UnknownModel { name, registered }) => {
            assert_eq!(name, Weather::Rain.label());
            assert!(!registered.iter().any(|n| n == Weather::Rain.label()));
        }
        other => panic!("expected ServeError::Model(UnknownModel), got {other:?}"),
    }
    assert_eq!(
        served.streams(),
        feeds.len(),
        "the failed open added no stream"
    );
    assert!(
        !served.model_store().contains(Weather::Rain.label()),
        "opening a stream must not re-insert a removed checkpoint"
    );

    let mut reference = fleet(&models);
    for _ in 0..feeds.len() {
        reference
            .open_stream(StreamSpec::new())
            .expect("models registered");
    }
    reference
        .run_reference(feeds.clone())
        .expect("reference run succeeds");
    let report = served
        .run(
            feeds
                .into_iter()
                .map(|frames| paced_feed(frames, Duration::ZERO))
                .collect(),
        )
        .expect("threaded run succeeds");
    assert_eq!(report.shed, 0, "lossless run");

    for (got, want) in served.handles().iter().zip(reference.handles()) {
        let (got, want) = (got.session(&served), want.session(&reference));
        assert_eq!(got.verdicts(), want.verdicts(), "verdicts diverged");
        got.with_switch_log(|g| want.with_switch_log(|w| assert_eq!(g, w, "switch log diverged")));
    }
    let rain_switches = served.handles()[1].session(&served).with_switch_log(|log| {
        log.iter()
            .filter(|r| r.model == Weather::Rain.label())
            .count()
    });
    assert!(
        rain_switches > 0,
        "stream 1 switched onto the removed checkpoint"
    );
}
