//! Seeded camera footage: rendered trafficsim frames, never noise.
//!
//! Real occupancy clips are almost all zeros (a few moving vehicles on a
//! static background), and a sparsity-aware kernel would win on them
//! where uniform inputs hide it, so every workload classifies rendered
//! intersections. Rendering is the generator's cost: it happens before
//! any timed region. To keep generator memory bounded, cameras share
//! small pools of rendered frames and loop over them from their own
//! offsets.

use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_vision::GrayFrame;
use std::sync::Arc;

/// A shared pool of rendered frames.
pub type Pool = Arc<Vec<GrayFrame>>;

/// SplitMix64 of `seed` mixed with a domain tag and an index: the one
/// way every seeded choice in the benchmark is derived from `--seed`.
pub fn derive_seed(seed: u64, domain: u64, index: u64) -> u64 {
    let mut z = seed
        ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (derive_seed(seed, 0x5045_524D, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Renders `frames` consecutive 30 fps frames of one simulated
/// intersection in `weather`, seen by a `config` camera, after two
/// seconds of simulated warm-up so traffic is already flowing.
pub fn render_pool(weather: Weather, seed: u64, frames: usize, config: RenderConfig) -> Pool {
    let mut sim = Simulator::new(Scenario::new(weather, true, 0.2), seed);
    sim.run(2.0);
    let mut renderer = Renderer::new(config, weather, seed);
    Arc::new(
        (0..frames)
            .map(|_| {
                sim.step(1.0 / 30.0);
                renderer.render(&sim)
            })
            .collect(),
    )
}

/// `pool` seen through a camera with `gain` more exposure, saturating at
/// white.
pub fn exposed(pool: &Pool, gain: f32) -> Pool {
    Arc::new(
        pool.iter()
            .map(|f| {
                let pixels = f
                    .pixels()
                    .iter()
                    .map(|&v| (f32::from(v) * gain).min(255.0) as u8);
                GrayFrame::from_pixels(f.width(), f.height(), pixels.collect())
            })
            .collect(),
    )
}

/// One camera's footage: a sequence of pools, each taking over from a
/// given frame index (a weather front is a cut from one pool to the
/// next), looped from a per-camera offset.
#[derive(Debug, Clone)]
pub struct Reel {
    /// `(first frame, pool)`, in increasing first-frame order; the first
    /// entry starts at frame 0.
    scenes: Vec<(usize, Pool)>,
    offset: usize,
}

impl Reel {
    /// Loops over `pool` starting `offset` frames in.
    pub fn looping(pool: Pool, offset: usize) -> Self {
        assert!(!pool.is_empty(), "a reel needs at least one frame");
        Reel {
            scenes: vec![(0, pool)],
            offset,
        }
    }

    /// Switches to `pool` from frame `from` on.
    pub fn cut_to(mut self, from: usize, pool: Pool) -> Self {
        assert!(!pool.is_empty(), "a reel needs at least one frame");
        let last = self.scenes.last().map_or(0, |s| s.0);
        assert!(from > last, "cuts must come in increasing frame order");
        self.scenes.push((from, pool));
        self
    }

    /// Frame `k` of this camera's feed.
    pub fn frame(&self, k: usize) -> &GrayFrame {
        let (_, pool) = self
            .scenes
            .iter()
            .rev()
            .find(|(from, _)| *from <= k)
            .expect("the first scene starts at frame 0");
        &pool[(self.offset + k) % pool.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(values: &[u8]) -> Pool {
        Arc::new(values.iter().map(|&v| GrayFrame::filled(2, 2, v)).collect())
    }

    #[test]
    fn reel_loops_from_its_offset_and_cuts_between_pools() {
        let reel = Reel::looping(pool(&[0, 1, 2]), 1).cut_to(4, pool(&[10, 11]));
        let values: Vec<u8> = (0..7).map(|k| reel.frame(k).at(0, 0)).collect();
        assert_eq!(values, vec![1, 2, 0, 1, 11, 10, 11]);
    }

    #[test]
    fn exposure_scales_and_saturates() {
        let brighter = exposed(&pool(&[0, 100, 200]), 1.3);
        let values: Vec<u8> = brighter.iter().map(|f| f.at(1, 1)).collect();
        assert_eq!(values, vec![0, 130, 255]);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(100, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
    }

    #[test]
    fn rendered_footage_is_a_textured_scene() {
        let config = RenderConfig {
            width: 64,
            height: 48,
            world_half: 18.0,
        };
        let frames = render_pool(Weather::Daytime, 3, 4, config);
        assert_eq!(frames.len(), 4);
        assert_eq!((frames[0].width(), frames[0].height()), (64, 48));
        // Not flat grey: a rendered scene has texture.
        assert!(frames[0].stddev() > 1.0);
    }
}
