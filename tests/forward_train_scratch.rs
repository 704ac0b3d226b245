//! Training through the scratch-backed forward: a `Mode::Train` forward
//! must not depend on what its `KernelScratch` held before. K SGD steps
//! run twice from identical models — once with a fresh scratch per
//! forward, once through one scratch that already served an eval
//! forward on other data — and every logit, parameter gradient and the
//! final state must agree bit for bit.

use safecross_nn::{
    softmax_cross_entropy, BatchNorm, Conv2d, Dropout, Flatten, GlobalAvgPool, Layer, Linear,
    MaxPool2d, Mode, Optimizer, Relu, Sequential, Sgd,
};
use safecross_tensor::{KernelScratch, Tensor, TensorRng};
use safecross_videoclass::{C3dLite, SlowFastLite, TsnLite, VideoClassifier};

const STEPS: usize = 3;

/// The one surface the two training runs need from a network.
trait Net: Clone {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor;
    fn backward(&mut self, grad: &Tensor);
    fn sgd_step(&mut self, opt: &mut Sgd);
    fn grads(&self) -> Vec<Tensor>;
    fn state(&self) -> Vec<(String, Tensor)>;
}

impl Net for Sequential {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        Layer::forward_scratch(self, x, mode, scratch)
    }
    fn backward(&mut self, grad: &Tensor) {
        Layer::backward(self, grad);
    }
    fn sgd_step(&mut self, opt: &mut Sgd) {
        opt.step(&mut Layer::params_mut(self));
    }
    fn grads(&self) -> Vec<Tensor> {
        Layer::params(self)
            .iter()
            .map(|p| p.grad_or_zeros())
            .collect()
    }
    fn state(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.visit_params("", &mut |name, t| out.push((name.to_owned(), t.clone())));
        out
    }
}

macro_rules! classifier_net {
    ($($model:ty),*) => {$(
        impl Net for $model {
            fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
                VideoClassifier::forward_scratch(self, x, mode, scratch)
            }
            fn backward(&mut self, grad: &Tensor) {
                VideoClassifier::backward(self, grad);
            }
            fn sgd_step(&mut self, opt: &mut Sgd) {
                opt.step(&mut VideoClassifier::params_mut(self));
            }
            fn grads(&self) -> Vec<Tensor> {
                VideoClassifier::params(self).iter().map(|p| p.grad_or_zeros()).collect()
            }
            fn state(&self) -> Vec<(String, Tensor)> {
                self.state_dict()
            }
        }
    )*};
}

classifier_net!(SlowFastLite, C3dLite, TsnLite);

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(fresh: &[Tensor], shared: &[Tensor], what: &str) {
    assert_eq!(fresh.len(), shared.len(), "{what}: count differs");
    for (i, (f, s)) in fresh.iter().zip(shared).enumerate() {
        assert_eq!(f.dims(), s.dims(), "{what} {i}: shape differs");
        assert_eq!(bits(f), bits(s), "{what} {i}: bits differ");
    }
}

/// Trains `model` for [`STEPS`] SGD steps on random `[2, ...]` batches of
/// `input_dims` both ways and compares the runs.
fn train_fresh_vs_shared<M: Net>(model: M, input_dims: &[usize], classes: usize, seed: u64) {
    let mut rng = TensorRng::seed_from(seed);
    let batches: Vec<(Tensor, Vec<usize>)> = (0..STEPS)
        .map(|step| {
            let labels = (0..input_dims[0]).map(|i| (i + step) % classes).collect();
            (rng.uniform(input_dims, 0.0, 1.0), labels)
        })
        .collect();
    // Dirty the shared scratch: an eval forward on other data (through
    // a throwaway copy, so the trained models start identical), then
    // garbage-filled buffers of every small size, so best fit hands
    // stale contents to any take a layer forgets to overwrite.
    let mut scratch = KernelScratch::new();
    let mut other_dims = input_dims.to_vec();
    other_dims[0] += 1;
    let other = rng.uniform(&other_dims, -1.0, 1.0);
    let warm = model
        .clone()
        .forward_scratch(&other, Mode::Eval, &mut scratch);
    scratch.recycle_tensor(warm);
    for len in 1..=64 {
        scratch.recycle(vec![-7.5; len]);
    }

    let (mut fresh, mut shared) = (model.clone(), model);
    let (mut opt_fresh, mut opt_shared) =
        (Sgd::with_momentum(0.05, 0.9), Sgd::with_momentum(0.05, 0.9));
    for (step, (x, labels)) in batches.iter().enumerate() {
        let logits_fresh = fresh.forward_scratch(x, Mode::Train, &mut KernelScratch::new());
        let logits_shared = shared.forward_scratch(x, Mode::Train, &mut scratch);
        assert_bit_identical(
            std::slice::from_ref(&logits_fresh),
            std::slice::from_ref(&logits_shared),
            &format!("step {step} logits"),
        );
        let (_, grad_fresh) = softmax_cross_entropy(&logits_fresh, labels);
        let (_, grad_shared) = softmax_cross_entropy(&logits_shared, labels);
        scratch.recycle_tensor(logits_shared);
        fresh.backward(&grad_fresh);
        shared.backward(&grad_shared);
        assert_bit_identical(
            &fresh.grads(),
            &shared.grads(),
            &format!("step {step} gradient"),
        );
        fresh.sgd_step(&mut opt_fresh);
        shared.sgd_step(&mut opt_shared);
    }
    let (state_fresh, state_shared) = (fresh.state(), shared.state());
    let names = |s: &[(String, Tensor)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&state_fresh), names(&state_shared));
    let tensors = |s: Vec<(String, Tensor)>| s.into_iter().map(|(_, t)| t).collect::<Vec<_>>();
    assert_bit_identical(&tensors(state_fresh), &tensors(state_shared), "final state");
}

#[test]
fn sequential_stack_trains_identically_through_a_dirty_scratch() {
    let mut rng = TensorRng::seed_from(3);
    let net = Sequential::new(vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
        Box::new(BatchNorm::new(4)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::new(4, 6, 3, 2, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
        Box::new(Dropout::new(0.5, &mut rng)),
        Box::new(Linear::new(6, 3, &mut rng)),
    ]);
    train_fresh_vs_shared(net, &[2, 1, 12, 12], 3, 11);
}

#[test]
fn slowfast_trains_identically_through_a_dirty_scratch() {
    let mut rng = TensorRng::seed_from(4);
    train_fresh_vs_shared(SlowFastLite::new(2, &mut rng), &[2, 1, 32, 16, 16], 2, 12);
}

#[test]
fn c3d_trains_identically_through_a_dirty_scratch() {
    let mut rng = TensorRng::seed_from(5);
    train_fresh_vs_shared(C3dLite::new(2, &mut rng), &[2, 1, 16, 12, 12], 2, 13);
}

#[test]
fn tsn_trains_identically_through_a_dirty_scratch() {
    let mut rng = TensorRng::seed_from(6);
    train_fresh_vs_shared(TsnLite::new(2, &mut rng), &[2, 1, 32, 14, 14], 2, 14);
}
