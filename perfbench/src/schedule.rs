//! The benchmark's load generator: fixed-schedule frame sources and the
//! stamps that turn them into latencies.
//!
//! Due times are fixed relative to the run start, never to the previous
//! poll, so a busy shard cannot lower the offered rate: an open-loop
//! camera that is polled late releases every frame that fell due in the
//! meantime, and the lateness shows up as ingest lag and latency. The
//! sources never block, so they are polled inline by the shards and the
//! process needs no feeder threads.

use crate::footage::Reel;
use safecross_serve::{
    FrameSource, HarvestSample, LearnHook, Promotion, PromotionOutcome, SourcePoll,
};
use safecross_vision::GrayFrame;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds since the run start: the shared time base of every due,
/// poll, and classification stamp.
#[derive(Debug, Clone, Copy)]
pub struct RunClock {
    origin: Instant,
}

impl RunClock {
    /// A clock whose zero is `origin`.
    pub fn starting_at(origin: Instant) -> Self {
        RunClock { origin }
    }

    /// `now` as nanoseconds since the origin (0 before it).
    pub fn ns(&self, now: Instant) -> u64 {
        u64::try_from(now.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Per-(stream, frame) poll and classification times, written by the
/// shard threads and read after the run.
///
/// Stored as `ns + 1` so 0 means "never happened". A stamp publishes no
/// other data, but a closed-loop source reads a classification stamp
/// written on another shard to open its window, so stores are `Release`
/// and loads `Acquire` to keep that hand-off ordered with the stamp.
#[derive(Debug)]
pub struct Stamps {
    offsets: Vec<usize>,
    polled: Vec<AtomicU64>,
    classified: Vec<AtomicU64>,
}

impl Stamps {
    /// Room for `capacity[s]` frames of stream `s`.
    pub fn new(capacity: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(capacity.len() + 1);
        let mut total = 0;
        offsets.push(0);
        for &c in capacity {
            total += c;
            offsets.push(total);
        }
        let slots = || (0..total).map(|_| AtomicU64::new(0)).collect();
        Stamps {
            offsets,
            polled: slots(),
            classified: slots(),
        }
    }

    /// Frames stream `stream` has room for.
    pub fn capacity(&self, stream: usize) -> usize {
        self.offsets[stream + 1] - self.offsets[stream]
    }

    fn slot(&self, stream: usize, frame: usize) -> Option<usize> {
        (frame < self.capacity(stream)).then(|| self.offsets[stream] + frame)
    }

    fn store(slots: &[AtomicU64], slot: Option<usize>, ns: u64) {
        if let Some(i) = slot {
            slots[i].store(ns.saturating_add(1), Ordering::Release);
        }
    }

    fn load(slots: &[AtomicU64], slot: Option<usize>) -> Option<u64> {
        let raw = slots[slot?].load(Ordering::Acquire);
        (raw > 0).then(|| raw - 1)
    }

    /// Records when frame `frame` of `stream` was handed to the fleet.
    pub fn set_polled(&self, stream: usize, frame: usize, ns: u64) {
        Self::store(&self.polled, self.slot(stream, frame), ns);
    }

    /// Records when frame `frame` of `stream` was classified.
    pub fn set_classified(&self, stream: usize, frame: usize, ns: u64) {
        Self::store(&self.classified, self.slot(stream, frame), ns);
    }

    /// When frame `frame` of `stream` was handed to the fleet.
    pub fn polled(&self, stream: usize, frame: usize) -> Option<u64> {
        Self::load(&self.polled, self.slot(stream, frame))
    }

    /// When frame `frame` of `stream` was classified.
    pub fn classified(&self, stream: usize, frame: usize) -> Option<u64> {
        Self::load(&self.classified, self.slot(stream, frame))
    }
}

/// When a camera's frames fall due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Open loop: frame `k` is due `phase_ns + k·interval_ns` after the
    /// run start, whatever the fleet is doing.
    Open {
        /// Due time of the first frame.
        phase_ns: u64,
        /// Frame interval.
        interval_ns: u64,
    },
    /// Closed loop: at most `window` classifiable frames in flight. The
    /// first `warmup + window` frames are due at the start (the first
    /// `warmup` frames only fill the segment buffer and are never
    /// classified); frame `k` after that falls due when frame
    /// `k - window` is classified. Nothing is released from `end_ns` on.
    Closed {
        /// Classifiable frames in flight per camera.
        window: usize,
        /// Frames before the first clip (segment length − 1).
        warmup: usize,
        /// When the camera stops offering frames.
        end_ns: u64,
    },
}

impl Pacing {
    /// When frame `k` of `stream` is due, or `None` while a closed-loop
    /// window is still shut.
    pub fn due_ns(&self, stamps: &Stamps, stream: usize, k: usize) -> Option<u64> {
        match *self {
            Pacing::Open {
                phase_ns,
                interval_ns,
            } => Some(phase_ns + k as u64 * interval_ns),
            Pacing::Closed { window, warmup, .. } => {
                if k < warmup + window {
                    Some(0)
                } else {
                    stamps.classified(stream, k - window)
                }
            }
        }
    }
}

/// Evenly staggered first arrivals: camera `index` of `cameras` starts
/// `(index + ½)/cameras` of the way into its own frame interval.
pub fn staggered_phase(index: usize, cameras: usize, interval_ns: u64) -> u64 {
    ((index as f64 + 0.5) / cameras as f64 * interval_ns as f64) as u64
}

/// A camera as a non-blocking [`FrameSource`] that follows a [`Pacing`]
/// schedule and stamps each frame's poll time.
pub struct ScheduledSource {
    stream: usize,
    reel: Reel,
    frames: usize,
    next: usize,
    pacing: Pacing,
    clock: RunClock,
    stamps: Arc<Stamps>,
}

impl ScheduledSource {
    /// Camera `stream` offering at most `frames` frames of `reel`.
    pub fn new(
        stream: usize,
        reel: Reel,
        frames: usize,
        pacing: Pacing,
        clock: RunClock,
        stamps: Arc<Stamps>,
    ) -> Self {
        ScheduledSource {
            stream,
            reel,
            frames: frames.min(stamps.capacity(stream)),
            next: 0,
            pacing,
            clock,
            stamps,
        }
    }
}

impl FrameSource for ScheduledSource {
    fn poll(&mut self, now: Instant) -> SourcePoll {
        if self.next >= self.frames {
            return SourcePoll::Done;
        }
        let t = self.clock.ns(now);
        if let Pacing::Closed { end_ns, .. } = self.pacing {
            if t >= end_ns {
                self.frames = self.next;
                return SourcePoll::Done;
            }
        }
        match self.pacing.due_ns(&self.stamps, self.stream, self.next) {
            Some(due) if t >= due => {
                self.stamps.set_polled(self.stream, self.next, t);
                let frame = self.reel.frame(self.next).clone();
                self.next += 1;
                SourcePoll::Ready(frame)
            }
            _ => SourcePoll::Pending,
        }
    }

    fn drain(&mut self) -> Vec<GrayFrame> {
        let frames = (self.next..self.frames)
            .map(|k| self.reel.frame(k).clone())
            .collect();
        self.next = self.frames;
        frames
    }
}

/// Stamps classification times through the fleet's continual-learning
/// seam: [`LearnHook::observe`] runs on the executing shard right after
/// a clip's forward. It never promotes anything.
pub struct StampHook {
    clock: RunClock,
    stamps: Arc<Stamps>,
}

impl StampHook {
    /// A hook writing into `stamps` on `clock`'s time base.
    pub fn new(clock: RunClock, stamps: Arc<Stamps>) -> Self {
        StampHook { clock, stamps }
    }
}

impl LearnHook for StampHook {
    fn observe(&self, sample: HarvestSample<'_>) {
        let seq = usize::try_from(sample.seq).unwrap_or(usize::MAX);
        self.stamps
            .set_classified(sample.stream, seq, self.clock.ns(Instant::now()));
    }

    fn take_promotions(&self, _shard: usize, _shard_count: usize) -> Vec<Promotion> {
        Vec::new()
    }

    fn promotion_result(&self, _promotion: &Promotion, _outcome: PromotionOutcome) {}
}

/// Zipf-skewed frame counts: every camera gets `base` frames, plus
/// `head / (rank + 1)^exponent` more, so rank 0 is the busiest camera
/// and the long tail stays nearly idle.
pub fn zipf_counts(ranks: &[usize], base: usize, head: usize, exponent: f64) -> Vec<usize> {
    ranks
        .iter()
        .map(|&r| base + (head as f64 / ((r + 1) as f64).powf(exponent)).round() as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footage::Reel;
    use std::time::Duration;

    fn reel(len: u8) -> Reel {
        Reel::looping(
            Arc::new((0..len).map(|v| GrayFrame::filled(4, 4, v)).collect()),
            0,
        )
    }

    fn ready(poll: SourcePoll) -> Option<u8> {
        match poll {
            SourcePoll::Ready(f) => Some(f.at(0, 0)),
            _ => None,
        }
    }

    #[test]
    fn open_schedule_is_fixed_from_the_run_start() {
        let origin = Instant::now();
        let clock = RunClock::starting_at(origin);
        let stamps = Arc::new(Stamps::new(&[8]));
        let pacing = Pacing::Open {
            phase_ns: 1_000,
            interval_ns: 10_000,
        };
        let mut src = ScheduledSource::new(0, reel(3), 4, pacing, clock, Arc::clone(&stamps));
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        assert!(matches!(src.poll(at(999)), SourcePoll::Pending));
        assert_eq!(ready(src.poll(at(1_000))), Some(0));
        assert!(matches!(src.poll(at(1_500)), SourcePoll::Pending));
        // A late poll releases every frame already due, back to back:
        // frames 1 and 2 were due at 11 µs and 21 µs.
        assert_eq!(ready(src.poll(at(25_000))), Some(1));
        assert_eq!(ready(src.poll(at(25_000))), Some(2));
        assert!(matches!(src.poll(at(25_000)), SourcePoll::Pending));
        // The reel loops; the source stops after `frames`.
        assert_eq!(ready(src.poll(at(31_000))), Some(0));
        assert!(matches!(src.poll(at(99_000)), SourcePoll::Done));
        assert_eq!(stamps.polled(0, 0), Some(1_000));
        assert_eq!(stamps.polled(0, 2), Some(25_000));
        assert_eq!(pacing.due_ns(&stamps, 0, 2), Some(21_000));
        assert_eq!(stamps.polled(0, 4), None);
    }

    #[test]
    fn closed_loop_waits_for_classification() {
        let origin = Instant::now();
        let clock = RunClock::starting_at(origin);
        let stamps = Arc::new(Stamps::new(&[16]));
        let pacing = Pacing::Closed {
            window: 2,
            warmup: 1,
            end_ns: 1_000_000,
        };
        let mut src = ScheduledSource::new(0, reel(9), 16, pacing, clock, Arc::clone(&stamps));
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        // warmup + window frames go at once, then the window is shut.
        for v in 0..3 {
            assert_eq!(ready(src.poll(at(10))), Some(v));
        }
        assert!(matches!(src.poll(at(20)), SourcePoll::Pending));
        // Classifying frame 1 opens the slot for frame 3.
        stamps.set_classified(0, 1, 500);
        assert_eq!(pacing.due_ns(&stamps, 0, 3), Some(500));
        assert_eq!(ready(src.poll(at(600))), Some(3));
        assert!(matches!(src.poll(at(700)), SourcePoll::Pending));
        // Past the end the camera is done, however open its window.
        stamps.set_classified(0, 2, 800);
        assert!(matches!(src.poll(at(1_000_000)), SourcePoll::Done));
        assert!(src.drain().is_empty());
    }

    #[test]
    fn drain_ignores_the_schedule() {
        let clock = RunClock::starting_at(Instant::now());
        let stamps = Arc::new(Stamps::new(&[5]));
        let pacing = Pacing::Open {
            phase_ns: u64::MAX / 4,
            interval_ns: 1,
        };
        let mut src = ScheduledSource::new(0, reel(2), 5, pacing, clock, stamps);
        let values: Vec<u8> = src.drain().iter().map(|f| f.at(0, 0)).collect();
        assert_eq!(values, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn stamps_are_per_stream_and_bounded() {
        let stamps = Stamps::new(&[2, 0, 3]);
        assert_eq!(stamps.capacity(1), 0);
        stamps.set_classified(2, 2, 0);
        stamps.set_classified(0, 5, 7); // out of range: ignored
        assert_eq!(stamps.classified(2, 2), Some(0));
        assert_eq!(stamps.classified(0, 1), None);
        assert_eq!(stamps.classified(0, 5), None);
        assert_eq!(stamps.classified(1, 0), None);
    }

    #[test]
    fn staggered_phases_spread_over_one_interval() {
        let phases: Vec<u64> = (0..4).map(|i| staggered_phase(i, 4, 1_000)).collect();
        assert_eq!(phases, vec![125, 375, 625, 875]);
    }

    #[test]
    fn zipf_counts_have_a_hot_head_and_an_idle_tail() {
        let ranks: Vec<usize> = vec![3, 0, 2, 1, 999];
        let counts = zipf_counts(&ranks, 2, 240, 1.0);
        assert_eq!(counts, vec![62, 242, 82, 122, 2]);
        // A flatter skew keeps more of the head busy.
        assert_eq!(
            zipf_counts(&ranks, 2, 240, 0.5),
            vec![122, 242, 141, 172, 10]
        );
        let mut by_rank: Vec<(usize, usize)> = ranks.iter().copied().zip(counts).collect();
        by_rank.sort();
        assert!(by_rank.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
