//! The traced pass: each layer of the frame path timed from outside,
//! through that layer's public functions.
//!
//! The pass replays a workload's own frames in `process_frame` order —
//! scene vote, background subtraction, opening, grid remap, segment
//! assembly — and then the forward on the clips that replay produced.
//! The calls do not nest, so a layer's self time is the duration of its
//! calls. `SafeCross::process_frame` on the same frames gives the total
//! the layers must account for; what they leave over is reported as
//! the unattributed share. Running the identical replay with the
//! timers off gives the tracing overhead.

use safecross::{SafeCross, SafeCrossConfig, SceneDetector, SCENE_TOTAL_FLOPS};
use safecross_modelswitch::{GpuSpec, ModelRegistry, ModelSwitcher, SwitchOutcome, SwitchStrategy};
use safecross_nn::Mode;
use safecross_telemetry::Registry;
use safecross_tensor::kernel::{register_gemm_observer, GemmObserverFn, GemmSample};
use safecross_tensor::{KernelScratch, Precision, Tensor};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use safecross_vision::{opening, BackgroundSubtractor, GrayFrame, GridMapper, SegmentBuffer};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Clips each forward measurement runs over, at least.
const FORWARD_CLIPS: usize = 192;

/// Every measurement repeats at least [`MIN_REPEATS`] times and until it
/// has run for [`MIN_MEASURE`], and reports the median repetition:
/// the 64×48 replays take milliseconds, which one scheduler hiccup would
/// otherwise dominate.
const MIN_REPEATS: usize = 3;

/// See [`MIN_REPEATS`].
const MIN_MEASURE: Duration = Duration::from_millis(500);

/// Repeats `measure` per [`MIN_REPEATS`] / [`MIN_MEASURE`] and returns
/// every result.
fn repeat<T>(mut measure: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPEATS || start.elapsed() < MIN_MEASURE {
        out.push(measure());
    }
    out
}

fn median(mut values: Vec<Duration>) -> Duration {
    values.sort();
    values[values.len() / 2]
}

/// Per-layer self times of the frame path, ms per frame.
#[derive(Debug, Default, Clone, Copy)]
pub struct FramePath {
    /// `SceneDetector::observe`.
    pub scene_ms: f64,
    /// `BackgroundSubtractor::apply`.
    pub bgs_ms: f64,
    /// `opening`.
    pub morph_ms: f64,
    /// `GridMapper::map`.
    pub remap_ms: f64,
    /// `SegmentBuffer::push` + `as_clip`.
    pub segment_ms: f64,
}

impl FramePath {
    /// Sum of the VP-side layers.
    pub fn total_ms(&self) -> f64 {
        self.scene_ms + self.bgs_ms + self.morph_ms + self.remap_ms + self.segment_ms
    }
}

/// Forward cost per clip at one precision and batch size.
#[derive(Debug, Default, Clone, Copy)]
pub struct Forwards {
    /// f32, batch 1.
    pub f32_b1: f64,
    /// f32, batch 8.
    pub f32_b8: f64,
    /// int8, batch 1.
    pub int8_b1: f64,
    /// int8, batch 8.
    pub int8_b8: f64,
}

/// GEMM activity seen by the public observer around f32 forwards.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gemm {
    /// GEMM calls in one batch-1 forward (an exact count).
    pub calls_b1: u64,
    /// GEMM calls in one batch-8 forward (an exact count).
    pub calls_b8: u64,
    /// GEMM time / forward time at the observed batch composition.
    pub share: f64,
    /// GEMM arithmetic rate at the observed batch composition.
    pub gflops: f64,
    /// Forward ms per clip at the observed batch composition.
    pub observed_ms_per_clip: f64,
}

/// Model-switch activation, measured through `ModelSwitcher::switch_to`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Activation {
    /// Median measured `switch_to` call, µs (store lookup + arena pin).
    pub activate_us: f64,
    /// Checkpoint bytes one activation moves.
    pub activate_bytes: f64,
    /// Median modelled (discrete-event GPU) switch latency, ms.
    pub modelled_ms: f64,
}

/// Everything the traced pass measured.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Frames replayed.
    pub frames: usize,
    /// Clips those frames produced.
    pub clips: usize,
    /// Self time per layer.
    pub path: FramePath,
    /// `SafeCross::process_frame`, ms per frame.
    pub process_frame_ms: f64,
    /// Forward cost per clip.
    pub forwards: Forwards,
    /// GEMM observer figures.
    pub gemm: Gemm,
    /// Share of nonzero values in the replayed clips.
    pub clip_density: f64,
    /// Replay frames/s with the layer timers on and off.
    pub traced_fps: f64,
    /// See `traced_fps`.
    pub untraced_fps: f64,
    /// Activation figures.
    pub activation: Activation,
}

impl Profile {
    /// Forward cost per frame as `process_frame` pays it (batch 1, f32).
    pub fn forward_ms_per_frame(&self) -> f64 {
        self.forwards.f32_b1 * self.clips as f64 / self.frames.max(1) as f64
    }

    /// `1 - Σ layer self time / process_frame`: what the public layer
    /// calls do not account for (verdict gating, switch bookkeeping,
    /// clip copies).
    pub fn unattributed_share(&self) -> f64 {
        1.0 - (self.path.total_ms() + self.forward_ms_per_frame()) / self.process_frame_ms
    }

    /// Slow-down the layer timers cause: traced vs untraced replay.
    pub fn overhead_share(&self) -> f64 {
        self.untraced_fps / self.traced_fps - 1.0
    }
}

/// Runs the traced pass over `cameras` (each camera's frames in feed
/// order), with forwards at `batch` clips for the observed composition.
pub fn profile(
    config: &SafeCrossConfig,
    models: &[(Weather, SlowFastLite)],
    cameras: &[Vec<GrayFrame>],
    batch: usize,
) -> Profile {
    let frames: usize = cameras.iter().map(Vec::len).sum();
    // Untraced and traced replays alternate, and swap order every pair,
    // so drift and warm caches favour neither.
    let mut round = 0;
    let pairs = repeat(|| {
        round += 1;
        if round % 2 == 0 {
            let traced = Replay::run(config, cameras, true);
            (Replay::run(config, cameras, false).wall, traced)
        } else {
            let untraced = Replay::run(config, cameras, false).wall;
            (untraced, Replay::run(config, cameras, true))
        }
    });
    let untraced = median(pairs.iter().map(|p| p.0).collect());
    let traced: Vec<&Replay> = pairs.iter().map(|p| &p.1).collect();
    let layer = |f: fn(&Replay) -> Duration| median(traced.iter().map(|r| f(r)).collect());
    let per_frame = |d: Duration| d.as_secs_f64() * 1e3 / frames.max(1) as f64;
    let fps = |d: Duration| frames as f64 / d.as_secs_f64();
    let replay = &pairs[0].1;
    let model = &models[0].1;
    let clips = &replay.clips;
    Profile {
        frames,
        clips: clips.len(),
        path: FramePath {
            scene_ms: per_frame(layer(|r| r.scene)),
            bgs_ms: per_frame(layer(|r| r.bgs)),
            morph_ms: per_frame(layer(|r| r.morph)),
            remap_ms: per_frame(layer(|r| r.remap)),
            segment_ms: per_frame(layer(|r| r.segment)),
        },
        process_frame_ms: per_frame(median(repeat(|| process_frames(config, models, cameras)))),
        forwards: Forwards {
            f32_b1: forward_ms_per_clip(model, Precision::F32, clips, 1),
            f32_b8: forward_ms_per_clip(model, Precision::F32, clips, 8),
            int8_b1: forward_ms_per_clip(model, Precision::Int8, clips, 1),
            int8_b8: forward_ms_per_clip(model, Precision::Int8, clips, 8),
        },
        gemm: gemm(model, clips, batch),
        clip_density: density(clips),
        traced_fps: fps(layer(|r| r.wall)),
        untraced_fps: fps(untraced),
        activation: activation(models),
    }
}

/// One replay of the VP-side layers, with per-layer totals when timed.
#[derive(Default)]
struct Replay {
    scene: Duration,
    bgs: Duration,
    morph: Duration,
    remap: Duration,
    segment: Duration,
    wall: Duration,
    clips: Vec<Tensor>,
}

impl Replay {
    fn run(config: &SafeCrossConfig, cameras: &[Vec<GrayFrame>], timed: bool) -> Replay {
        let pp = config.preprocess;
        let mut out = Replay::default();
        let start = Instant::now();
        for frames in cameras {
            let mut scene = SceneDetector::new(config.scene_window);
            let mut bgs = BackgroundSubtractor::new(
                config.frame_width,
                config.frame_height,
                pp.bgs_alpha,
                pp.bgs_threshold,
            );
            let mapper = GridMapper::new(pp.grid_width, pp.grid_height);
            let mut segment = SegmentBuffer::new(config.segment_frames);
            for frame in frames {
                let mut laps = Laps::start(timed);
                black_box(scene.observe(frame));
                laps.lap(&mut out.scene);
                let raw = bgs.apply(frame);
                laps.lap(&mut out.bgs);
                let opened = opening(&raw, pp.morph_radius);
                laps.lap(&mut out.morph);
                let grid = mapper.map(&opened);
                laps.lap(&mut out.remap);
                segment.push(grid);
                let clip = segment.as_clip();
                laps.lap(&mut out.segment);
                out.clips.extend(clip);
            }
        }
        out.wall = start.elapsed();
        out
    }
}

/// Accumulates the time since the previous lap into a layer's total;
/// does nothing (reads no clock) when tracing is off.
struct Laps(Option<Instant>);

impl Laps {
    fn start(timed: bool) -> Laps {
        Laps(timed.then(Instant::now))
    }

    fn lap(&mut self, total: &mut Duration) {
        if let Some(last) = self.0 {
            let now = Instant::now();
            *total += now - last;
            self.0 = Some(now);
        }
    }
}

/// Total `SafeCross::process_frame` time over `cameras`, a fresh
/// standalone session per camera.
fn process_frames(
    config: &SafeCrossConfig,
    models: &[(Weather, SlowFastLite)],
    cameras: &[Vec<GrayFrame>],
) -> Duration {
    let mut total = Duration::ZERO;
    for frames in cameras {
        let mut session =
            SafeCross::try_new(*config).expect("the workload's stream config is valid");
        for (weather, model) in models {
            session.register_model(*weather, model.clone());
        }
        for frame in frames {
            let t = Instant::now();
            black_box(session.process_frame(frame));
            total += t.elapsed();
        }
    }
    total
}

/// `[batch, 1, T, H, W]` stacks cycling through `clips`, enough to
/// cover [`FORWARD_CLIPS`] clips and at least three forwards.
fn stacks(clips: &[Tensor], batch: usize) -> Vec<Tensor> {
    let count = FORWARD_CLIPS.div_ceil(batch).max(3);
    (0..count)
        .map(|i| {
            let members: Vec<Tensor> = (0..batch)
                .map(|j| clips[(i * batch + j) % clips.len()].clone())
                .collect();
            Tensor::stack(&members)
        })
        .collect()
}

fn replica(model: &SlowFastLite, precision: Precision) -> SlowFastLite {
    let mut m = model.clone();
    m.set_precision(precision);
    m
}

/// Median forward time per clip, ms: two warm-up passes, then forwards
/// cycling through the stacked clips per [`repeat`].
fn forward_ms_per_clip(
    model: &SlowFastLite,
    precision: Precision,
    clips: &[Tensor],
    batch: usize,
) -> f64 {
    let mut m = replica(model, precision);
    let mut scratch = KernelScratch::new();
    let inputs = stacks(clips, batch);
    let mut forward = |input: &Tensor| {
        let out = m.forward_scratch(input, Mode::Eval, &mut scratch);
        scratch.recycle_tensor(black_box(out));
    };
    inputs.iter().take(2).for_each(&mut forward);
    let mut next = inputs.iter().cycle();
    let times = repeat(|| {
        let input = next.next().expect("cycle over non-empty inputs");
        let t = Instant::now();
        forward(input);
        t.elapsed()
    });
    median(times).as_secs_f64() * 1e3 / batch as f64
}

#[derive(Default)]
struct GemmTally {
    calls: AtomicU64,
    ns: AtomicU64,
    flops: AtomicU64,
}

impl GemmTally {
    fn take(&self) -> (u64, u64, u64) {
        (
            self.calls.swap(0, Ordering::Relaxed),
            self.ns.swap(0, Ordering::Relaxed),
            self.flops.swap(0, Ordering::Relaxed),
        )
    }
}

/// GEMM counts at batch 1 and 8, and GEMM share and rate at the
/// observed batch composition, through the public GEMM observer.
fn gemm(model: &SlowFastLite, clips: &[Tensor], batch: usize) -> Gemm {
    let tally = Arc::new(GemmTally::default());
    let sink = Arc::clone(&tally);
    let observer: Arc<GemmObserverFn> = Arc::new(move |s: &GemmSample| {
        sink.calls.fetch_add(1, Ordering::Relaxed);
        sink.ns
            .fetch_add((s.elapsed_ms * 1e6) as u64, Ordering::Relaxed);
        sink.flops.fetch_add(s.flops(), Ordering::Relaxed);
    });
    register_gemm_observer(&observer);
    let mut m = replica(model, Precision::F32);
    let mut scratch = KernelScratch::new();
    let mut forward = |input: &Tensor| {
        let out = m.forward_scratch(input, Mode::Eval, &mut scratch);
        scratch.recycle_tensor(black_box(out));
    };
    let mut calls_per_forward = |b: usize| {
        let input = &stacks(clips, b)[0];
        forward(input);
        tally.take();
        forward(input);
        tally.take().0
    };
    let calls_b1 = calls_per_forward(1);
    let calls_b8 = calls_per_forward(8);
    let inputs = stacks(clips, batch);
    forward(&inputs[0]);
    tally.take();
    let start = Instant::now();
    for input in &inputs {
        forward(input);
    }
    let forward_ns = start.elapsed().as_nanos() as f64;
    let (_, gemm_ns, flops) = tally.take();
    drop(observer);
    Gemm {
        calls_b1,
        calls_b8,
        share: gemm_ns as f64 / forward_ns,
        gflops: flops as f64 / gemm_ns.max(1) as f64,
        observed_ms_per_clip: forward_ns / 1e6 / (inputs.len() * batch) as f64,
    }
}

fn density(clips: &[Tensor]) -> f64 {
    let (nonzero, total) = clips.iter().fold((0usize, 0usize), |(nz, n), c| {
        (
            nz + c.data().iter().filter(|&&v| v != 0.0).count(),
            n + c.len(),
        )
    });
    nonzero as f64 / total.max(1) as f64
}

/// Switches a store-backed switcher back and forth between two scene
/// checkpoints, timing each `switch_to`.
fn activation(models: &[(Weather, SlowFastLite)]) -> Activation {
    const SWITCHES: usize = 200;
    let store = ModelRegistry::new();
    let switcher = ModelSwitcher::new(
        GpuSpec::rtx_2080_ti(),
        11_000_000_000,
        SwitchStrategy::PipelinedOptimal,
    );
    let registry = Registry::new();
    switcher.instrument(&registry);
    switcher.attach_store(&store);
    let names: Vec<&str> = models.iter().take(2).map(|(w, _)| w.label()).collect();
    for (w, m) in models.iter().take(2) {
        store.register_model(w.label(), &m.state_groups());
        switcher
            .register_from_store(w.label(), SCENE_TOTAL_FLOPS)
            .expect("checkpoint was just stored");
    }
    let mut measured = Vec::with_capacity(SWITCHES);
    let mut modelled = Vec::with_capacity(SWITCHES);
    for i in 0..SWITCHES {
        let t = Instant::now();
        let outcome = switcher.switch_to(names[i % names.len()]);
        measured.push(t.elapsed().as_secs_f64() * 1e6);
        if let Ok(SwitchOutcome::Switched(report)) = outcome {
            modelled.push(report.total_ms);
        }
    }
    let switches = registry
        .snapshot()
        .counter("ms.switches")
        .unwrap_or(0)
        .max(1);
    let bytes = registry
        .snapshot()
        .counter("switch.activate.bytes")
        .unwrap_or(0);
    let median = |v: &[f64]| crate::stats::Quartiles::of(v).map_or(0.0, |q| q.median);
    Activation {
        activate_us: median(&measured),
        activate_bytes: bytes as f64 / switches as f64,
        modelled_ms: median(&modelled),
    }
}
