//! 3-D (spatio-temporal) convolution via vol2col.

use crate::{Layer, Mode, Param};
use safecross_tensor::{
    col2vol, kernel, qtensor, vol2col_into, Conv3dGeom, KernelScratch, Precision,
    QTensor, Tensor, TensorRng,
};

/// A 3-D convolution over `[N, C, T, H, W]` video batches.
///
/// Temporal and spatial kernel/stride/padding are independent so the
/// SlowFast pathways can use temporally-thin kernels on the Slow pathway
/// and thicker ones on the Fast pathway, exactly as in the paper's
/// backbone.
///
/// ```
/// use safecross_nn::{Conv3d, Layer, Mode};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut conv = Conv3d::new(1, 4, (3, 3), (1, 1), (1, 1), &mut rng);
/// let y = conv.forward(&Tensor::ones(&[1, 1, 8, 6, 6]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 4, 8, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv3d {
    weight: Param, // [out_c, in_c * kt * ks * ks]
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: (usize, usize), // (temporal, spatial)
    stride: (usize, usize),
    padding: (usize, usize),
    cached_cols: Vec<Tensor>,
    cached_geom: Option<Conv3dGeom>,
    // Some(..) only while Precision::Int8 is selected: the [out_c,
    // fan_in] weight quantized per output channel.
    qweight: Option<QTensor>,
}

impl Conv3d {
    /// Creates a 3-D convolution. `kernel`, `stride` and `padding` are
    /// `(temporal, spatial)` pairs; the spatial kernel is square.
    ///
    /// # Panics
    ///
    /// Panics if channel counts, kernel extents or strides are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        rng: &mut TensorRng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channel counts must be positive");
        assert!(kernel.0 > 0 && kernel.1 > 0, "kernel extents must be positive");
        assert!(stride.0 > 0 && stride.1 > 0, "strides must be positive");
        let fan_in = in_channels * kernel.0 * kernel.1 * kernel.1;
        Conv3d {
            weight: Param::new("weight", rng.kaiming(&[out_channels, fan_in], fan_in)),
            bias: Param::new("bias", Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_cols: Vec::new(),
            cached_geom: None,
            qweight: None,
        }
    }

    fn geometry(&self, t: usize, h: usize, w: usize) -> Conv3dGeom {
        Conv3dGeom {
            in_channels: self.in_channels,
            frames: t,
            height: h,
            width: w,
            kernel_t: self.kernel.0,
            kernel_s: self.kernel.1,
            stride_t: self.stride.0,
            stride_s: self.stride.1,
            pad_t: self.padding.0,
            pad_s: self.padding.1,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The int8 lowered convolution for one batch item: quantize the
    /// `[patch, plane]` vol2col matrix per column into the
    /// pair-interleaved panel, run the flat integer GEMM against the
    /// per-channel quantized weight.
    fn gemm_int8_cols(
        &self,
        qw: &QTensor,
        cols: &[f32],
        oseg: &mut [f32],
        patch: usize,
        plane: usize,
        scratch: &mut KernelScratch,
    ) {
        let mut qcols = scratch.take_q(2 * patch.div_ceil(2) * plane);
        let mut cscales = scratch.take(plane);
        qtensor::quantize_cols_paired(cols, patch, plane, &mut qcols, &mut cscales);
        qtensor::qgemm_paired_into(
            qw.data(),
            qw.scales(),
            &qcols,
            &cscales,
            oseg,
            self.out_channels,
            patch,
            plane,
        );
        scratch.recycle_q(qcols);
        scratch.recycle(cscales);
    }
}

impl Layer for Conv3d {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 5, "Conv3d expects [N, C, T, H, W]");
        assert_eq!(x.shape().dim(1), self.in_channels, "Conv3d channel mismatch");
        let (n, t, h, w) = (
            x.shape().dim(0),
            x.shape().dim(2),
            x.shape().dim(3),
            x.shape().dim(4),
        );
        let g = self.geometry(t, h, w);
        let (ot, oh, ow) = (g.out_frames(), g.out_height(), g.out_width());
        let plane = ot * oh * ow;
        let (patch, cthw) = (g.patch_len(), self.in_channels * t * h * w);
        let train = mode == Mode::Train;
        if train {
            self.cached_cols.clear();
            self.cached_geom = Some(g);
        }
        let mut out = scratch.take_tensor(&[n, self.out_channels, ot, oh, ow]);
        let mut cols = scratch.take(patch * plane);
        for i in 0..n {
            vol2col_into(&x.data()[i * cthw..(i + 1) * cthw], &g, &mut cols);
            let oseg = &mut out.data_mut()
                [i * self.out_channels * plane..(i + 1) * self.out_channels * plane];
            match &self.qweight {
                // Int8 inference path; training always stays f32.
                Some(qw) if !train => self.gemm_int8_cols(qw, &cols, oseg, patch, plane, scratch),
                _ => kernel::gemm_into(
                    self.weight.value.data(),
                    &cols,
                    oseg,
                    self.out_channels,
                    patch,
                    plane,
                ),
            }
            for (c, &bc) in self.bias.value.data().iter().enumerate() {
                for v in &mut oseg[c * plane..(c + 1) * plane] {
                    *v += bc;
                }
            }
            if train {
                // Backward reads the patch matrices after the call, so
                // they are owned copies, never pooled buffers.
                self.cached_cols.push(Tensor::from_vec(cols.clone(), &[patch, plane]));
            }
        }
        scratch.recycle(cols);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self
            .cached_geom
            .expect("Conv3d::backward called before a training forward");
        let n = grad_out.shape().dim(0);
        assert_eq!(n, self.cached_cols.len(), "batch size changed between passes");
        let plane = g.out_frames() * g.out_height() * g.out_width();
        let mut dx = Tensor::zeros(&[n, self.in_channels, g.frames, g.height, g.width]);
        for i in 0..n {
            let dy = grad_out
                .index_axis0(i)
                .reshape(&[self.out_channels, plane]);
            let dw = dy.matmul_transb(&self.cached_cols[i]);
            self.weight.grad_mut().add_scaled(&dw, 1.0);
            let db = self.bias.grad_mut().data_mut();
            for (c, dbc) in db.iter_mut().enumerate() {
                *dbc += dy.data()[c * plane..(c + 1) * plane].iter().sum::<f32>();
            }
            let dcols = self.weight.value.transpose().matmul(&dy);
            dx.set_axis0(i, &col2vol(&dcols, &g));
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.qweight = match precision {
            Precision::Int8 => Some(QTensor::quantize_rows(&self.weight.value)),
            Precision::F32 => None,
        };
    }

    fn name(&self) -> String {
        format!(
            "conv3d({}->{}, kt{} ks{}, st{} ss{})",
            self.in_channels,
            self.out_channels,
            self.kernel.0,
            self.kernel.1,
            self.stride.0,
            self.stride.1
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointwise_kernel_is_identity() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv3d::new(1, 1, (1, 1), (1, 1), (0, 0), &mut rng);
        conv.weight.value = Tensor::ones(&[1, 1]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[1, 1, 2, 3, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn temporal_stride_reduces_frames() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv3d::new(2, 3, (3, 3), (2, 1), (1, 1), &mut rng);
        let y = conv.forward(&Tensor::ones(&[1, 2, 8, 4, 4]), Mode::Eval);
        assert_eq!(y.dims(), &[1, 3, 4, 4, 4]);
    }

    #[test]
    fn int8_eval_tracks_f32_and_scratch_path_is_bit_identical() {
        let mut rng = TensorRng::seed_from(5);
        let mut conv = Conv3d::new(2, 4, (3, 3), (1, 1), (1, 1), &mut rng);
        let x = rng.uniform(&[2, 2, 4, 5, 5], -1.0, 1.0);
        let exact = conv.forward(&x, Mode::Eval);
        conv.set_precision(Precision::Int8);
        let quant = conv.forward(&x, Mode::Eval);
        let worst = exact
            .data()
            .iter()
            .zip(quant.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 0.1, "int8 conv drifted by {worst}");
        let mut scratch = KernelScratch::new();
        let pooled = conv.forward_scratch(&x, Mode::Eval, &mut scratch);
        assert_eq!(pooled, quant, "int8 scratch path diverged from forward");
        conv.set_precision(Precision::F32);
        assert_eq!(conv.forward(&x, Mode::Eval), exact, "f32 restore must be exact");
    }

    #[test]
    fn temporal_box_filter_sums_frames() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv3d::new(1, 1, (2, 1), (1, 1), (0, 0), &mut rng);
        conv.weight.value = Tensor::ones(&[1, 2]);
        conv.bias.value = Tensor::zeros(&[1]);
        // Two frames of constant 1 and 2 -> single output frame of 3.
        let mut x = Tensor::zeros(&[1, 1, 2, 2, 2]);
        for v in x.data_mut()[0..4].iter_mut() {
            *v = 1.0;
        }
        for v in x.data_mut()[4..8].iter_mut() {
            *v = 2.0;
        }
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }
}
