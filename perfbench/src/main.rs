//! SafeCross fleet benchmark: one seeded workload per process.
//!
//! ```text
//! perfbench --workload <backlog_flood|rush_hour|city_10k> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs the same fleet workload and then the traced
//! per-layer pass, and reports the per-layer metrics. Every metric is
//! printed by name with its unit; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! process exits non-zero when an output check fails.
//! `perfbench/README.md` explains the metrics and workloads.

mod fleet;
mod footage;
mod schedule;
mod stats;
mod trace;
mod workloads;

use safecross_serve::{FleetReport, StreamStats};
use safecross_tensor::{Isa, KernelConfig};
use safecross_vision::GrayFrame;
use stats::{mean, per_chunk, tail_percentile, Quartiles};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    detail: String,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, detail: impl Into<String>) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            detail: detail.into(),
        });
    }

    fn print(&self) {
        for m in &self.0 {
            println!(
                "metric {:<42} {:>14.6} {:<9} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
    }

    fn json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

fn describe(q: &Quartiles, what: &str) -> String {
    format!("(median of {} {what}; q1 {:.4}, q3 {:.4})", q.n, q.q1, q.q3)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency and on-time figures are taken per chunk of frames in due
/// order and reported as the median over chunks: one burst of host noise
/// moves one chunk, not the run's figure.
const CHUNK: usize = 500;

/// A chunk large enough that its p99 has ten samples beyond it.
const P99_CHUNK: usize = 1100;

/// Median over chunks of `samples` of `stat`, with the quartiles and
/// counts behind it.
fn chunked(
    samples: &[(u64, f64)],
    chunk: usize,
    what: &str,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Result<(f64, String), String> {
    let per: Option<Vec<f64>> = per_chunk(samples, chunk, stat).into_iter().collect();
    let per = per.ok_or_else(|| format!("{what}: {} samples cannot support it", samples.len()))?;
    let q = Quartiles::of(&per).ok_or_else(|| format!("{what}: no samples"))?;
    Ok((
        q.median,
        format!(
            "(median of {} chunks of >= {chunk} frames in due order; q1 {:.4}, q3 {:.4}; {} samples)",
            q.n,
            q.q1,
            q.q3,
            samples.len()
        ),
    ))
}

/// The nearest-rank `q` percentile of a chunk, when ten samples lie
/// beyond it.
fn pct(q: f64) -> impl Fn(&[f64]) -> Option<f64> {
    move |v| tail_percentile(v, q).map(|p| p.value)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when an output check failed.
fn bench(args: &Args) -> Result<bool, String> {
    // Shards are the benchmark's parallelism: one per core, and no
    // intra-op kernel threads on top, so the process runs at most nproc
    // compute threads.
    KernelConfig::with_threads(1).install();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let plan =
        workloads::plan(&args.workload, args.seed, args.seconds, nproc).ok_or_else(|| {
            format!(
                "unknown workload {:?} (expected one of {:?})",
                args.workload,
                workloads::WORKLOADS
            )
        })?;
    println!(
        "host nproc={nproc} isa={} rustc={:?} workload={} seed={} seconds={} trace={}",
        Isa::detect().name(),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    // Set-up, several times; the last fleet is the one that runs.
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..plan.setups {
        drop(fleet.take());
        let (f, t) = fleet::build(&plan).map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(t);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    let run = fleet::run(&plan, &mut fleet).map_err(|e| format!("run failed: {e}"))?;
    let rss = peak_rss_mb();
    let report = &run.report;
    let lat = fleet::latency(&plan, &run);
    let checks = fleet::check(&plan, &fleet, &run);
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }

    let offered: u64 = report.streams.iter().map(|s| s.stats.fed).sum();
    let failed = report.shed + checks.mismatched;
    let correct = checks.failures.is_empty();
    println!(
        "run: {} frames offered, {} completed, {} shed, {} mismatched, {} batches (mean {:.2}, max {}), {} steals, wall {:.3} s",
        offered,
        report.completed,
        report.shed,
        checks.mismatched,
        report.batches,
        report.mean_batch,
        report.max_batch,
        report.steals,
        report.wall.as_secs_f64()
    );
    println!(
        "info shed_rate {:.6} ratio; failure_rate {:.6} ratio ((shed + mismatched) / offered)",
        report.shed as f64 / offered.max(1) as f64,
        failed as f64 / offered.max(1) as f64
    );
    if lat.bounded > 0 {
        println!(
            "info {} latency samples on shedding streams are upper bounds",
            lat.bounded
        );
    }

    let mut m = Metrics::default();
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let setup_q = Quartiles::of(&setup_s).expect("at least one set-up");
    let open_q = Quartiles::of(&setups.iter().map(|s| s.open_stream_us).collect::<Vec<_>>())
        .expect("at least one set-up");
    // The run's tail latency: printed with every run, reported as a
    // per-layer metric of the traced run. Host noise moves it too much
    // between runs to bound it end to end.
    let p99 = chunked(&lat.samples, P99_CHUNK, "latency p99", pct(0.99));
    match &p99 {
        Ok((ms, detail)) => println!("info latency p99 {ms:.4} ms {detail}"),
        Err(e) => println!("info {e}"),
    }
    if !args.trace {
        m.add(
            "throughput_fps",
            report.completed as f64 / report.wall.as_secs_f64(),
            "frames/s",
            format!(
                "({} frames over {:.3} s wall)",
                report.completed,
                report.wall.as_secs_f64()
            ),
        );
        let (p50, d50) = chunked(&lat.samples, CHUNK, "latency p50", pct(0.5))?;
        m.add("latency_p50_ms", p50, "ms", d50);
        let (rate, drate) = chunked(&lat.on_time, CHUNK, "on-time rate", |v| Some(mean(v)))?;
        let hits = lat.on_time.iter().filter(|(_, hit)| *hit > 0.0).count();
        println!(
            "info {hits} of {} classifiable frames classified within {:.1} ms of due",
            lat.on_time.len(),
            fleet::ON_TIME_MS
        );
        m.add("on_time_rate", rate, "ratio", drate);
        m.add(
            "setup_s",
            setup_q.median,
            "s",
            describe(&setup_q, "set-ups"),
        );
        m.add("peak_rss_mb", rss, "MB", "(VmHWM after the run)");
    } else {
        let replay = replay_cameras(&plan, report);
        per_layer(&mut m, &plan, &fleet, report, &lat, &replay)?;
        let (p99, d99) = p99?;
        m.add("serve.latency_p99_ms", p99, "ms", d99);
        m.add(
            "serve.open_stream_us",
            open_q.median,
            "us",
            describe(&open_q, "set-ups"),
        );
        // Four extra fleet builds of 10 000 streams would add seconds of
        // set-up for a figure the smaller fleets already give.
        if plan.name != "city_10k" {
            let (bare, hooked) =
                fleet::hook_cost(&plan, 64, 2).map_err(|e| format!("hook cost run failed: {e}"))?;
            println!(
                "info stamp hook cost: {bare:.1} frames/s without the hook, {hooked:.1} with it ({:+.2}%)",
                100.0 * (bare / hooked - 1.0)
            );
        }
    }
    m.print();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        offered.max(1),
        m.json()?
    );
    Ok(correct)
}

/// Runs the traced pass and adds every per-layer metric except the two
/// the caller already holds (tail latency and `open_stream` time).
fn per_layer(
    m: &mut Metrics,
    plan: &workloads::Plan,
    fleet: &fleet::Fleet,
    report: &FleetReport,
    lat: &fleet::Latency,
    replay: &[Vec<GrayFrame>],
) -> Result<(), String> {
    let batch = (report.mean_batch.round() as usize).clamp(1, plan.serve.batch_max);
    let p = trace::profile(&plan.serve.stream, &plan.models, replay, batch);
    println!(
        "info input density {:.6}: nonzero share of {} replayed clips",
        p.clip_density, p.clips
    );
    let share = |ms: f64| format!("({:.1}% of process_frame)", 100.0 * ms / p.process_frame_ms);
    for (name, ms) in [
        ("vision.bgs_ms", p.path.bgs_ms),
        ("vision.morph_ms", p.path.morph_ms),
        ("vision.remap_ms", p.path.remap_ms),
        ("vision.segment_ms", p.path.segment_ms),
        ("safecross.scene_ms", p.path.scene_ms),
    ] {
        m.add(name, ms, "ms", share(ms));
    }
    let forward = share(p.forward_ms_per_frame());
    let frames = format!(
        "({} frames, {} clips; the batch-1 forward is {forward})",
        p.frames, p.clips
    );
    m.add(
        "safecross.process_frame_ms",
        p.process_frame_ms,
        "ms",
        frames,
    );
    let overhead = format!(
        "(replay {:.1} frames/s untraced, {:.1} traced)",
        p.untraced_fps, p.traced_fps
    );
    m.add(
        "safecross.unattributed_share",
        p.unattributed_share(),
        "ratio",
        "",
    );
    m.add(
        "safecross.trace_overhead_share",
        p.overhead_share(),
        "ratio",
        overhead,
    );
    for (name, ms) in [
        ("videoclass.forward_ms_per_clip.f32.b1", p.forwards.f32_b1),
        ("videoclass.forward_ms_per_clip.f32.b8", p.forwards.f32_b8),
        ("videoclass.forward_ms_per_clip.int8.b1", p.forwards.int8_b1),
        ("videoclass.forward_ms_per_clip.int8.b8", p.forwards.int8_b8),
    ] {
        m.add(name, ms, "ms", "");
    }
    let at_batch = format!(
        "(f32 at the run's mean batch {batch}: {:.4} ms/clip)",
        p.gemm.observed_ms_per_clip
    );
    m.add(
        "tensor.gemm_share.f32",
        p.gemm.share,
        "ratio",
        at_batch.clone(),
    );
    m.add(
        "tensor.gemm_calls_per_forward.b1",
        p.gemm.calls_b1 as f64,
        "count",
        "",
    );
    m.add(
        "tensor.gemm_calls_per_forward.b8",
        p.gemm.calls_b8 as f64,
        "count",
        "",
    );
    m.add("tensor.gemm_gflops", p.gemm.gflops, "GFLOP/s", at_batch);

    // Record 0 of every switch log is the activation at registration.
    let switches: usize = fleet
        .handles
        .iter()
        .map(|h| h.session(&fleet.server).switch_count().saturating_sub(1))
        .sum();
    m.add(
        "modelswitch.switches",
        switches as f64,
        "count",
        "(during the fleet run)",
    );
    m.add(
        "modelswitch.activate_us",
        p.activation.activate_us,
        "us",
        "(measured switch_to)",
    );
    m.add(
        "modelswitch.activate_bytes",
        p.activation.activate_bytes,
        "bytes",
        "",
    );
    let modelled = "(modelled by the GPU switch simulator, not measured)";
    m.add(
        "modelswitch.modelled_ms",
        p.activation.modelled_ms,
        "ms",
        modelled,
    );

    let (lag99, dlag) = chunked(&lat.ingest_lag, P99_CHUNK, "ingest lag p99", pct(0.99))?;
    let stat_sum =
        |f: fn(&StreamStats) -> u64| report.streams.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    let queue_peak = report
        .streams
        .iter()
        .map(|s| s.stats.queue_peak)
        .max()
        .unwrap_or(0);
    let frames = format!("({} frames)", report.completed);
    m.add("serve.mean_batch", report.mean_batch, "clips", "");
    m.add(
        "serve.batch_fill",
        report.mean_batch / plan.serve.batch_max as f64,
        "ratio",
        "",
    );
    m.add("serve.batches", report.batches as f64, "count", "");
    m.add("serve.steals", report.steals as f64, "count", "");
    m.add("serve.ingest_lag_p99_ms", lag99, "ms", dlag);
    m.add(
        "serve.frame_age_p50_ms",
        report.frame_age.p50_ms,
        "ms",
        frames.clone(),
    );
    m.add(
        "serve.frame_age_p99_ms",
        report.frame_age.p99_ms,
        "ms",
        frames,
    );
    m.add("serve.queue_peak_max", queue_peak as f64, "frames", "");
    m.add(
        "serve.shed_overflow",
        stat_sum(|s| s.shed_overflow),
        "count",
        "",
    );
    m.add("serve.shed_stale", stat_sum(|s| s.shed_stale), "count", "");

    let mut snap_ms = Vec::new();
    let mut entries = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let snap = fleet.server.telemetry().snapshot();
        snap_ms.push(t.elapsed().as_secs_f64() * 1e3);
        entries = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    }
    let snap_q = Quartiles::of(&snap_ms).expect("three snapshots");
    m.add("telemetry.entries", entries as f64, "count", "");
    m.add(
        "telemetry.snapshot_ms",
        snap_q.median,
        "ms",
        describe(&snap_q, "snapshots"),
    );
    Ok(())
}

/// The frames the traced pass replays: the two busiest cameras' feeds,
/// up to 160 frames each (enough to fill a 32-frame segment and classify
/// well over a hundred clips; on `rush_hour` camera 0 meets the weather
/// front inside that span).
fn replay_cameras(plan: &workloads::Plan, report: &FleetReport) -> Vec<Vec<GrayFrame>> {
    let mut by_load: Vec<usize> = (0..plan.cameras.len()).collect();
    by_load.sort_by_key(|&i| std::cmp::Reverse(report.streams[i].stats.fed));
    by_load
        .into_iter()
        .take(2)
        .map(|i| {
            let n = (report.streams[i].stats.fed as usize).min(160);
            (0..n)
                .map(|k| plan.cameras[i].reel.frame(k).clone())
                .collect()
        })
        .collect()
}
