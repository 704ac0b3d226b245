//! The three workloads: what each offers the fleet and why.
//!
//! - `backlog_flood` — closed loop over an offline backlog: 8 daytime
//!   320×240 cameras, each keeping enough classifiable frames in flight
//!   that every shard always has a full batch of 8 ready. The batch-8
//!   forward dominates; scene switches and int8 never occur. Its
//!   figures track the host's CPU speed one for one, so it is run by
//!   hand (`--workload backlog_flood`) rather than listed in
//!   `BENCHMARK.json`.
//! - `rush_hour` — open loop: 16 cameras at 30 fps on a fixed,
//!   phase-staggered schedule, half of them int8, with a weather front
//!   (daytime → rain → snow → daytime) crossing 4 of them. Batches stay
//!   small, so latency rides on the batch-1 forward, VP, and batch
//!   linger; it is the only workload that switches models or runs int8.
//! - `city_10k` — open loop: 10 000 low-resolution cameras with
//!   zipf-skewed frame counts, shedding and telemetry on. Per-stream
//!   session state, stream opening, and telemetry cardinality dominate.

use crate::footage::{derive_seed, exposed, permutation, render_pool, Pool, Reel};
use crate::schedule::{staggered_phase, zipf_counts, Pacing};
use safecross::SafeCrossConfig;
use safecross_serve::{Precision, ServeConfig};
use safecross_tensor::TensorRng;
use safecross_trafficsim::{RenderConfig, Weather};
use safecross_videoclass::SlowFastLite;
use std::time::Duration;

/// Camera frame interval at 30 fps.
pub const FRAME_INTERVAL_NS: u64 = 33_333_333;

/// The benchmark's workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["backlog_flood", "rush_hour", "city_10k"];

// Seed domains, so each seeded choice draws an independent stream.
const DOMAIN_MODELS: u64 = 1;
const DOMAIN_DAY: u64 = 2;
const DOMAIN_RAIN: u64 = 3;
const DOMAIN_SNOW: u64 = 4;
const DOMAIN_RANKS: u64 = 5;

/// One camera of a workload.
pub struct Camera {
    /// The footage it films.
    pub reel: Reel,
    /// The most frames it can offer in one run.
    pub frames: usize,
    /// When its frames fall due.
    pub pacing: Pacing,
    /// The precision its clips classify at.
    pub precision: Precision,
    /// The scene models it is expected to switch to during the run, in
    /// order (empty for cameras that stay in daytime).
    pub expected_switches: Vec<&'static str>,
}

/// Everything one workload hands the fleet.
pub struct Plan {
    /// The workload's name.
    pub name: &'static str,
    /// The fleet configuration.
    pub serve: ServeConfig,
    /// Per-weather scene models, in registration order.
    pub models: Vec<(Weather, SlowFastLite)>,
    /// The cameras, in stream order.
    pub cameras: Vec<Camera>,
    /// How many times set-up is timed (the median is reported).
    pub setups: usize,
    /// Whether verdicts and switch logs are checked against
    /// `FleetServer::run_reference`.
    pub reference_check: bool,
}

impl Plan {
    /// Frames before a stream's first clip: the segment buffer fills.
    pub fn warmup(&self) -> usize {
        self.serve.stream.segment_frames - 1
    }
}

/// Builds workload `name` for `seed`, sized to measure for `seconds`
/// on `shards` shard threads. `None` for an unknown name.
pub fn plan(name: &str, seed: u64, seconds: u64, shards: usize) -> Option<Plan> {
    match name {
        "backlog_flood" => Some(backlog_flood(seed, seconds, shards)),
        "rush_hour" => Some(rush_hour(seed, seconds, shards)),
        "city_10k" => Some(city_10k(seed, seconds, shards)),
        _ => None,
    }
}

fn models(seed: u64) -> Vec<(Weather, SlowFastLite)> {
    let mut rng = TensorRng::seed_from(derive_seed(seed, DOMAIN_MODELS, 0));
    Weather::ALL
        .iter()
        .map(|&w| (w, SlowFastLite::new(2, &mut rng)))
        .collect()
}

fn pools(
    seed: u64,
    domain: u64,
    weather: Weather,
    count: usize,
    frames: usize,
    camera: RenderConfig,
) -> Vec<Pool> {
    (0..count)
        .map(|i| render_pool(weather, derive_seed(seed, domain, i as u64), frames, camera))
        .collect()
}

fn serve(shards: usize, stream: SafeCrossConfig) -> ServeConfig {
    ServeConfig {
        shards,
        batch_max: 8,
        shedding: false,
        stream,
        ..ServeConfig::default()
    }
}

fn backlog_flood(seed: u64, seconds: u64, shards: usize) -> Plan {
    const CAMERAS: usize = 8;
    let serve = serve(shards, SafeCrossConfig::default());
    // Enough classifiable frames in flight per camera that every shard
    // holds one full batch: two per camera on two shards.
    let window = (serve.batch_max * shards).div_ceil(CAMERAS).max(1);
    let stream = serve.stream;
    let day = pools(
        seed,
        DOMAIN_DAY,
        Weather::Daytime,
        4,
        120,
        RenderConfig::default(),
    );
    let end_ns = seconds * 1_000_000_000;
    let cameras = (0..CAMERAS)
        .map(|c| Camera {
            reel: Reel::looping(day[c % day.len()].clone(), (c / day.len()) * 60),
            // Far above what a host can classify in the run.
            frames: 1000 * seconds as usize,
            pacing: Pacing::Closed {
                window,
                warmup: stream.segment_frames - 1,
                end_ns,
            },
            precision: Precision::F32,
            expected_switches: Vec::new(),
        })
        .collect();
    Plan {
        name: "backlog_flood",
        serve,
        models: models(seed),
        cameras,
        setups: 25,
        reference_check: true,
    }
}

fn rush_hour(seed: u64, seconds: u64, shards: usize) -> Plan {
    const CAMERAS: usize = 16;
    // The weather front crosses these cameras, two f32 and two int8.
    const FRONT: [usize; 4] = [0, 5, 10, 15];
    let stream = SafeCrossConfig::default();
    let frames = 30 * seconds as usize;
    let day = pools(
        seed,
        DOMAIN_DAY,
        Weather::Daytime,
        4,
        90,
        RenderConfig::default(),
    );
    let rain = pools(
        seed,
        DOMAIN_RAIN,
        Weather::Rain,
        2,
        90,
        RenderConfig::default(),
    );
    let snow = pools(
        seed,
        DOMAIN_SNOW,
        Weather::Snow,
        2,
        90,
        RenderConfig::default(),
    );
    let cameras = (0..CAMERAS)
        .map(|c| {
            let offset = (c * 23) % 90;
            let mut reel = Reel::looping(day[c % day.len()].clone(), offset);
            let mut expected_switches = Vec::new();
            if let Some(j) = FRONT.iter().position(|&f| f == c) {
                // The front reaches camera j a sixteenth of the run after
                // camera j - 1; each weather lasts a quarter of the run.
                let start = frames / 8 + j * frames / 16;
                reel = reel
                    .cut_to(start, rain[j % rain.len()].clone())
                    .cut_to(start + frames / 4, snow[j % snow.len()].clone())
                    .cut_to(start + frames / 2, day[(c + 1) % day.len()].clone());
                expected_switches = vec!["rain", "snow", "daytime"];
            }
            Camera {
                reel,
                frames,
                pacing: Pacing::Open {
                    phase_ns: staggered_phase(c, CAMERAS, FRAME_INTERVAL_NS),
                    interval_ns: FRAME_INTERVAL_NS,
                },
                precision: if c % 2 == 1 {
                    Precision::Int8
                } else {
                    Precision::F32
                },
                expected_switches,
            }
        })
        .collect();
    Plan {
        name: "rush_hour",
        serve: serve(shards, stream),
        models: models(seed),
        cameras,
        setups: 25,
        reference_check: true,
    }
}

fn city_10k(seed: u64, seconds: u64, shards: usize) -> Plan {
    const CAMERAS: usize = 10_000;
    const POOLS: usize = 16;
    const POOL_FRAMES: usize = 32;
    let stream = SafeCrossConfig {
        frame_width: 64,
        frame_height: 48,
        segment_frames: 8,
        ..SafeCrossConfig::default()
    };
    // A low-resolution camera zoomed onto the conflict zone, so vehicles
    // span a few pixels and survive the VP opening (at the default 55 m
    // half-extent they are two pixels long and every clip is empty). The
    // zoomed view is mostly asphalt; 1.3× exposure brings it back into
    // the brightness band the scene detector reads as daytime, so the
    // cameras stay on the daytime model as the 320×240 ones do.
    let camera = RenderConfig {
        width: 64,
        height: 48,
        world_half: 18.0,
    };
    let day: Vec<Pool> = pools(
        seed,
        DOMAIN_DAY,
        Weather::Daytime,
        POOLS,
        POOL_FRAMES,
        camera,
    )
    .iter()
    .map(|p| exposed(p, 1.3))
    .collect();
    // Rank 0 runs at 30 fps; the tail sends two frames in the whole run,
    // too few to fill a segment. A zipf exponent of 0.7 keeps about two
    // hundred cameras busy enough to classify, which gives the latency
    // percentiles their samples.
    let ranks = permutation(CAMERAS, derive_seed(seed, DOMAIN_RANKS, 0));
    let counts = zipf_counts(&ranks, 2, 30 * seconds as usize, 0.7);
    let run_ns = seconds * 1_000_000_000;
    let cameras = counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let interval_ns = run_ns / n as u64;
            Camera {
                reel: Reel::looping(day[i % POOLS].clone(), (i * 7) % POOL_FRAMES),
                frames: n,
                pacing: Pacing::Open {
                    phase_ns: staggered_phase(i, CAMERAS, interval_ns),
                    interval_ns,
                },
                precision: Precision::F32,
                expected_switches: Vec::new(),
            }
        })
        .collect();
    Plan {
        name: "city_10k",
        serve: ServeConfig {
            shedding: true,
            frame_deadline: Some(Duration::from_millis(250)),
            telemetry: true,
            ..serve(shards, stream)
        },
        models: models(seed),
        cameras,
        setups: 3,
        reference_check: false,
    }
}
