//! 2-D convolution via im2col.

use crate::{Layer, Mode, Param};
use safecross_tensor::{
    col2im, im2col_into, kernel, qtensor, Conv2dGeom, KernelScratch, Precision, QTensor,
    Tensor, TensorRng,
};

/// A 2-D convolution over `[N, C, H, W]` batches with square kernels.
///
/// Lowered to matrix multiplication through [`im2col_into`]; the backward pass
/// uses the adjoint [`col2im`]. Used by the TSN-lite classifier and the
/// YOLO-lite detector.
///
/// ```
/// use safecross_nn::{Conv2d, Layer, Mode};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::ones(&[2, 1, 8, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param, // [out_c, in_c * k * k]
    bias: Param,   // [out_c]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_cols: Vec<Tensor>,
    cached_geom: Option<Conv2dGeom>,
    // Some(..) only while Precision::Int8 is selected: the [out_c,
    // fan_in] weight quantized per output channel.
    qweight: Option<QTensor>,
}

impl Conv2d {
    /// Creates a convolution with the given channel counts, square
    /// `kernel`, `stride` and zero `padding`.
    ///
    /// # Panics
    ///
    /// Panics if any of the channel counts, kernel or stride are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channel counts must be positive");
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
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

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: self.in_channels,
            height: h,
            width: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The int8 lowered convolution for one batch item: quantize the
    /// `[patch, plane]` im2col matrix per column into the
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

impl Layer for Conv2d {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 4, "Conv2d expects [N, C, H, W]");
        assert_eq!(x.shape().dim(1), self.in_channels, "Conv2d channel mismatch");
        let (n, h, w) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
        let g = self.geometry(h, w);
        let (oh, ow) = (g.out_height(), g.out_width());
        let plane = oh * ow;
        let (patch, chw) = (g.patch_len(), self.in_channels * h * w);
        let train = mode == Mode::Train;
        if train {
            self.cached_cols.clear();
            self.cached_geom = Some(g);
        }
        let mut out = scratch.take_tensor(&[n, self.out_channels, oh, ow]);
        let mut cols = scratch.take(patch * plane);
        for i in 0..n {
            im2col_into(&x.data()[i * chw..(i + 1) * chw], &g, &mut cols);
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
            .expect("Conv2d::backward called before a training forward");
        let n = grad_out.shape().dim(0);
        assert_eq!(n, self.cached_cols.len(), "batch size changed between passes");
        let (oh, ow) = (g.out_height(), g.out_width());
        let plane = oh * ow;
        let mut dx = Tensor::zeros(&[n, self.in_channels, g.height, g.width]);
        for i in 0..n {
            let dy = grad_out
                .index_axis0(i)
                .reshape(&[self.out_channels, plane]);
            // dW += dy * cols^T (transb: cols rows are already packed)
            let dw = dy.matmul_transb(&self.cached_cols[i]);
            self.weight.grad_mut().add_scaled(&dw, 1.0);
            // db += row sums of dy
            let db = self.bias.grad_mut().data_mut();
            for (c, dbc) in db.iter_mut().enumerate() {
                *dbc += dy.data()[c * plane..(c + 1) * plane].iter().sum::<f32>();
            }
            // dx = col2im(W^T dy)
            let dcols = self.weight.value.transpose().matmul(&dy);
            dx.set_axis0(i, &col2im(&dcols, &g));
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
            "conv2d({}->{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
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
    fn identity_kernel_passes_through() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 1]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_filter_averages() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        conv.weight.value = Tensor::full(&[1, 9], 1.0 / 9.0);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stride_and_padding_shape() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn int8_eval_tracks_f32_and_scratch_path_is_bit_identical() {
        let mut rng = TensorRng::seed_from(9);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[2, 2, 6, 6], -1.0, 1.0);
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
    fn bias_shifts_output() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.weight.value = Tensor::zeros(&[2, 1]);
        conv.bias.value = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let y = conv.forward(&Tensor::ones(&[1, 1, 2, 2]), Mode::Eval);
        assert_eq!(&y.data()[0..4], &[1.5; 4]);
        assert_eq!(&y.data()[4..8], &[-2.0; 4]);
    }
}
