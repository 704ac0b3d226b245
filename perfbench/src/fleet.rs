//! Driving a workload through the public `FleetServer` API: set-up,
//! the measured run, latency accounting, and the output checks.

use crate::schedule::{Pacing, RunClock, ScheduledSource, StampHook, Stamps};
use crate::stats::{on_time, Quartiles};
use crate::workloads::{Plan, FRAME_INTERVAL_NS};
use safecross::Verdict;
use safecross_serve::{
    BoxedSource, FleetReport, FleetServer, FrameSource, Precision, ServeError, StreamHandle,
    StreamSpec,
};
use safecross_vision::GrayFrame;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A frame is on time when it is classified within one camera frame
/// interval of its due time: the RSU keeps up with the camera.
pub const ON_TIME_MS: f64 = FRAME_INTERVAL_NS as f64 / 1e6;

/// A fleet ready to run, and what building it cost.
pub struct Fleet {
    /// The fleet.
    pub server: FleetServer,
    /// One handle per camera, in camera order.
    pub handles: Vec<StreamHandle>,
}

/// Set-up timings: `FleetServer::new`, every `register_model`, and
/// every `open_stream`.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// The whole set-up, seconds.
    pub total_s: f64,
    /// Mean `open_stream` call, microseconds.
    pub open_stream_us: f64,
}

/// Builds the plan's fleet once, timing it. Cloning the models is the
/// caller's input preparation and stays outside the timed region.
pub fn build(plan: &Plan) -> Result<(Fleet, SetupTime), ServeError> {
    let models: Vec<_> = plan.models.iter().map(|(w, m)| (*w, m.clone())).collect();
    let start = Instant::now();
    let mut server = FleetServer::new(plan.serve)?;
    for (weather, model) in models {
        server.register_model(weather, model)?;
    }
    let opening = Instant::now();
    let handles = plan
        .cameras
        .iter()
        .map(|cam| server.open_stream(StreamSpec::new().with_precision(cam.precision)))
        .collect::<Result<Vec<_>, _>>()?;
    let end = Instant::now();
    let setup = SetupTime {
        total_s: (end - start).as_secs_f64(),
        open_stream_us: (end - opening).as_secs_f64() * 1e6 / plan.cameras.len().max(1) as f64,
    };
    Ok((Fleet { server, handles }, setup))
}

/// What one measured run produced.
pub struct Run {
    /// The fleet's own report.
    pub report: FleetReport,
    /// Poll and classification stamps.
    pub stamps: Arc<Stamps>,
}

/// Runs every camera's schedule through `FleetServer::run`, with
/// classification times stamped through the learn-hook seam.
pub fn run(plan: &Plan, fleet: &mut Fleet) -> Result<Run, ServeError> {
    let capacity: Vec<usize> = plan.cameras.iter().map(|c| c.frames).collect();
    let stamps = Arc::new(Stamps::new(&capacity));
    let clock = RunClock::starting_at(Instant::now());
    fleet
        .server
        .set_learn_hook(Arc::new(StampHook::new(clock, Arc::clone(&stamps))));
    let sources: Vec<BoxedSource> = plan
        .cameras
        .iter()
        .enumerate()
        .map(|(i, cam)| {
            ScheduledSource::new(
                i,
                cam.reel.clone(),
                cam.frames,
                cam.pacing,
                clock,
                Arc::clone(&stamps),
            )
            .boxed()
        })
        .collect();
    let report = fleet.server.run(sources)?;
    fleet.server.clear_learn_hook();
    Ok(Run { report, stamps })
}

/// Latency accounting of one run.
#[derive(Debug, Default)]
pub struct Latency {
    /// `(due ns, due → classification ms)`, one per classified frame.
    pub samples: Vec<(u64, f64)>,
    /// `(due ns, due → poll ms)`, one per offered frame: how late the
    /// generator ran.
    pub ingest_lag: Vec<(u64, f64)>,
    /// `(due ns, 1 when on time else 0)`, one per frame that should
    /// have produced a clip.
    pub on_time: Vec<(u64, f64)>,
    /// Frames whose latency is an upper bound: on a stream that shed,
    /// a classification is matched to the due time of the frame with
    /// its sequence number, which is never later than its own.
    pub bounded: u64,
}

/// Joins due, poll, and classification stamps per frame.
pub fn latency(plan: &Plan, run: &Run) -> Latency {
    let mut out = Latency::default();
    let warmup = plan.warmup();
    for (s, (cam, row)) in plan.cameras.iter().zip(&run.report.streams).enumerate() {
        let fed = usize::try_from(row.stats.fed).expect("frame count fits usize");
        let shed = row.stats.shed() > 0;
        let due = |k: usize| cam.pacing.due_ns(&run.stamps, s, k);
        for k in 0..fed {
            if let (Some(d), Some(p)) = (due(k), run.stamps.polled(s, k)) {
                out.ingest_lag.push((d, p.saturating_sub(d) as f64 / 1e6));
            }
        }
        for k in warmup..fed {
            let Some(d) = due(k) else { continue };
            let latency = run
                .stamps
                .classified(s, k)
                .map(|c| c.saturating_sub(d) as f64 / 1e6);
            if let Some(l) = latency {
                out.samples.push((d, l));
                out.bounded += u64::from(shed);
            }
            out.on_time
                .push((d, f64::from(u8::from(on_time(latency, ON_TIME_MS)))));
        }
    }
    out
}

/// The outcome of the output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Frames whose verdict or switch record disagreed with what the
    /// workload expects.
    pub mismatched: u64,
    /// Human-readable description of each failed check.
    pub failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, frames: u64, why: String) {
        self.mismatched += frames;
        self.failures.push(why);
    }
}

/// Checks the run's outputs: the fleet classified something, every
/// stream delivered what it was fed, the expected model switches
/// happened, and — where the plan asks — verdicts and switch logs equal
/// `FleetServer::run_reference` on the same frames.
pub fn check(plan: &Plan, fleet: &Fleet, run: &Run) -> Checks {
    let mut checks = Checks::default();
    if run.report.batches == 0 {
        checks.fail(0, "the fleet dispatched no classifier batch".into());
    }
    let warmup = plan.warmup() as u64;
    for (i, (cam, row)) in plan.cameras.iter().zip(&run.report.streams).enumerate() {
        let st = row.stats;
        let handle = &fleet.handles[i];
        if st.completed + st.shed() != st.fed {
            checks.fail(
                st.fed.abs_diff(st.completed + st.shed()),
                format!(
                    "stream {i}: fed {} but completed {} + shed {}",
                    st.fed,
                    st.completed,
                    st.shed()
                ),
            );
        }
        if matches!(cam.pacing, Pacing::Open { .. }) && st.fed != cam.frames as u64 {
            checks.fail(
                st.fed.abs_diff(cam.frames as u64),
                format!(
                    "stream {i}: scheduled {} frames but fed {}",
                    cam.frames, st.fed
                ),
            );
        }
        // With no confidence gate, every clip yields a verdict.
        let verdicts = handle.verdicts(&fleet.server).len() as u64;
        if st.shed() == 0 && verdicts != st.completed.saturating_sub(warmup) {
            checks.fail(
                verdicts.abs_diff(st.completed.saturating_sub(warmup)),
                format!(
                    "stream {i}: {verdicts} verdicts for {} frames",
                    st.completed
                ),
            );
        }
        if cam.precision == Precision::Int8 && st.completed > warmup && verdicts == 0 {
            checks.fail(0, format!("int8 stream {i} produced no verdict"));
        }
        // Record 0 is the activation at registration.
        let switched: Vec<String> = handle
            .session(&fleet.server)
            .switch_log()
            .into_iter()
            .skip(1)
            .map(|r| r.model)
            .collect();
        if switched != cam.expected_switches {
            checks.fail(
                1,
                format!(
                    "stream {i}: switched to {switched:?}, expected {:?}",
                    cam.expected_switches
                ),
            );
        }
    }
    if plan.reference_check {
        match reference_mismatches(plan, fleet) {
            Ok(diffs) => {
                for (stream, frames, why) in diffs {
                    checks.fail(frames, format!("stream {stream}: {why}"));
                }
            }
            Err(e) => checks.fail(0, format!("reference run failed: {e}")),
        }
    }
    checks
}

/// A stream whose outputs differ from the reference: `(stream,
/// mismatched frames, why)`.
type Mismatch = (usize, u64, String);

/// Frames per stream handed to one `run_reference` call: bounds the
/// frames the reference materializes at once.
const REFERENCE_CHUNK: usize = 64;

/// Replays every stream's offered frames through
/// `FleetServer::run_reference` — on one reference fleet per shard
/// thread, since streams are independent — and lists each stream whose
/// verdicts or switch log differ.
fn reference_mismatches(plan: &Plan, fleet: &Fleet) -> Result<Vec<Mismatch>, ServeError> {
    let groups = plan.serve.shards.clamp(1, plan.cameras.len());
    let results: Vec<Result<Vec<Mismatch>, ServeError>> = thread::scope(|s| {
        let workers: Vec<_> = (0..groups)
            .map(|g| {
                let members: Vec<usize> = (g..plan.cameras.len()).step_by(groups).collect();
                s.spawn(move || reference_group(plan, fleet, &members))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread panicked"))
            .collect()
    });
    let mut diffs = Vec::new();
    for r in results {
        diffs.extend(r?);
    }
    Ok(diffs)
}

/// [`reference_mismatches`] for the cameras in `members`, on one
/// reference fleet fed in chunks.
fn reference_group(
    plan: &Plan,
    fleet: &Fleet,
    members: &[usize],
) -> Result<Vec<Mismatch>, ServeError> {
    let mut reference = FleetServer::new(plan.serve)?;
    for (w, m) in &plan.models {
        reference.register_model(*w, m.clone())?;
    }
    let mut handles = Vec::with_capacity(members.len());
    for &i in members {
        let spec = StreamSpec::new().with_precision(plan.cameras[i].precision);
        handles.push(reference.open_stream(spec)?);
    }
    let fed: Vec<usize> = members
        .iter()
        .map(|&i| fleet.handles[i].stats(&fleet.server).fed as usize)
        .collect();
    let longest = fed.iter().copied().max().unwrap_or(0);
    for from in (0..longest).step_by(REFERENCE_CHUNK) {
        let feeds: Vec<Vec<GrayFrame>> = members
            .iter()
            .zip(&fed)
            .map(|(&i, &n)| {
                let to = n.min(from + REFERENCE_CHUNK);
                let reel = &plan.cameras[i].reel;
                (from.min(to)..to).map(|k| reel.frame(k).clone()).collect()
            })
            .collect();
        reference.run_reference(feeds)?;
    }
    let mut diffs = Vec::new();
    for (&i, expected) in members.iter().zip(&handles) {
        let served = &fleet.handles[i];
        let diff = verdict_diff(
            served.verdicts(&fleet.server),
            expected.verdicts(&reference),
        );
        let logs_match =
            served.session(&fleet.server).switch_log() == expected.session(&reference).switch_log();
        if diff > 0 || !logs_match {
            let why = format!(
                "{diff} verdicts differ from run_reference; switch logs equal: {logs_match}"
            );
            diffs.push((i, diff.max(1), why));
        }
    }
    Ok(diffs)
}

fn verdict_diff(a: &[Verdict], b: &[Verdict]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// Fleet throughput of a short flood of `frames` frames per camera,
/// with and without a stamping hook installed: what the latency stamps
/// cost the frame path. Returns `(fps without hook, fps with hook)`,
/// each the median of `rounds` alternating runs.
pub fn hook_cost(plan: &Plan, frames: usize, rounds: usize) -> Result<(f64, f64), ServeError> {
    let mut bare = Vec::new();
    let mut hooked = Vec::new();
    for round in 0..2 * rounds {
        let with_hook = round % 2 == 1;
        let (mut fleet, _) = build(plan)?;
        if with_hook {
            let stamps = Arc::new(Stamps::new(&vec![frames; plan.cameras.len()]));
            let clock = RunClock::starting_at(Instant::now());
            let hook = StampHook::new(clock, stamps);
            fleet.server.set_learn_hook(Arc::new(hook));
        }
        let feeds: Vec<Vec<GrayFrame>> = plan
            .cameras
            .iter()
            .map(|c| (0..frames).map(|k| c.reel.frame(k).clone()).collect())
            .collect();
        let report = fleet.server.run(feeds)?;
        let fps = report.completed as f64 / report.wall.max(Duration::from_nanos(1)).as_secs_f64();
        if with_hook { &mut hooked } else { &mut bare }.push(fps);
    }
    let median = |v: &[f64]| Quartiles::of(v).map_or(0.0, |q| q.median);
    Ok((median(&bare), median(&hooked)))
}
