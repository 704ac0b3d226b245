//! Opening a stream costs the same however large the scene models are:
//! the session binds the fleet's stored checkpoints by name and never
//! reads, copies or hashes a weight. Pinned under a counting global
//! allocator — the bytes one `open_stream` allocates on a 32×24 stream
//! must stay below the size of one stored SlowFast checkpoint. The
//! allocator counters are process-global, so this binary holds this
//! single test.

use safecross::SafeCrossConfig;
use safecross_serve::{FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::Weather;
use safecross_videoclass::SlowFastLite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::dealloc`; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc`; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn open_stream_allocation_does_not_scale_with_model_size() {
    let config = ServeConfig::builder()
        .stream(SafeCrossConfig {
            frame_width: 32,
            frame_height: 24,
            segment_frames: 8,
            scene_window: 4,
            ..SafeCrossConfig::default()
        })
        .build()
        .expect("valid serve configuration");
    let mut fleet = FleetServer::new(config).expect("valid serve configuration");
    let mut rng = TensorRng::seed_from(0);
    for w in Weather::ALL {
        fleet
            .register_model(w, SlowFastLite::new(2, &mut rng))
            .expect("models first");
    }
    let checkpoint_bytes = fleet
        .model_store()
        .manifest(Weather::Daytime.label())
        .expect("stored")
        .total_bytes();

    // Every open is measured, the first included (it builds the store's
    // shared descriptor and activation layout).
    let per_open: Vec<usize> = (0..16)
        .map(|_| {
            let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
            fleet
                .open_stream(StreamSpec::new())
                .expect("models registered");
            ALLOCATED_BYTES.load(Ordering::Relaxed) - before
        })
        .collect();
    let mut sorted = per_open.clone();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    assert!(
        median < checkpoint_bytes,
        "one open_stream allocated {median} B (median; every open: {per_open:?}), \
         at least one {checkpoint_bytes} B checkpoint — opening a stream copies weights"
    );
}
