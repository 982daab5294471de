//! Convolutions as matrix-vector products (paper §VII-C, "Flexibility").
//!
//! The paper claims EIE "has the potential to support 1×1 convolution and
//! 3×3 Winograd convolution by turning the channel-wise reduction into an
//! M×V", with Winograd saving 2.25× multiplications. This module makes
//! both claims concrete:
//!
//! * a 1×1 convolution is per-pixel `out = W · in` over the channel
//!   vector — directly EIE's M×V with the pixel's channel activations as
//!   the (dynamically sparse, post-ReLU) input vector;
//! * an F(2×2, 3×3) Winograd convolution transforms each 4×4 input tile
//!   into 16 positions whose channel-wise reductions are 16 *independent*
//!   M×Vs (`U^{(i,j)} · v^{(i,j)}`), schedulable one per EIE pass.
//!
//! The reference implementations here are the golden models; the
//! examples/tests run the same reductions through the compressed
//! simulator and check agreement.

use std::fmt;

use crate::Matrix;

/// A dense feature map in CHW layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap {
    channels: usize,
    height: usize,
    width: usize,
    /// CHW-ordered data: `data[c*H*W + y*W + x]`.
    data: Vec<f32>,
}

impl FeatureMap {
    /// Creates a zero feature map.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "feature map dimensions must be non-zero"
        );
        Self {
            channels,
            height,
            width,
            data: vec![0.0; channels * height * width],
        }
    }

    /// Creates a feature map by evaluating `f(c, y, x)`.
    pub fn from_fn(
        channels: usize,
        height: usize,
        width: usize,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Self {
        let mut fm = Self::zeros(channels, height, width);
        for c in 0..channels {
            for y in 0..height {
                for x in 0..width {
                    let v = f(c, y, x);
                    fm.set(c, y, x, v);
                }
            }
        }
        fm
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        assert!(c < self.channels && y < self.height && x < self.width);
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        assert!(c < self.channels && y < self.height && x < self.width);
        self.data[(c * self.height + y) * self.width + x] = v;
    }

    /// The channel vector at pixel `(y, x)` — the M×V input of a 1×1
    /// convolution at that pixel.
    pub fn pixel_channels(&self, y: usize, x: usize) -> Vec<f32> {
        (0..self.channels).map(|c| self.get(c, y, x)).collect()
    }

    /// Fraction of non-zero values (dynamic sparsity).
    pub fn density(&self) -> f64 {
        crate::ops::density(&self.data)
    }
}

impl fmt::Display for FeatureMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FeatureMap({}x{}x{}, {:.0}% dense)",
            self.channels,
            self.height,
            self.width,
            self.density() * 100.0
        )
    }
}

/// Reference 1×1 convolution: `out[:, y, x] = W · in[:, y, x]` per pixel.
///
/// `weights` is `out_channels × in_channels`. Each pixel is one M×V —
/// exactly what EIE executes when given the compressed `weights` and the
/// pixel's channel vector.
///
/// # Panics
///
/// Panics if `weights.cols() != input.channels()`.
pub fn conv1x1(weights: &Matrix, input: &FeatureMap) -> FeatureMap {
    assert_eq!(
        weights.cols(),
        input.channels(),
        "weight columns must equal input channels"
    );
    let mut out = FeatureMap::zeros(weights.rows(), input.height(), input.width());
    for y in 0..input.height() {
        for x in 0..input.width() {
            let v = weights.gemv(&input.pixel_channels(y, x));
            for (oc, val) in v.into_iter().enumerate() {
                out.set(oc, y, x, val);
            }
        }
    }
    out
}

/// Direct (naive) 3×3 valid convolution — the golden model Winograd is
/// checked against. `weights[oc][ic]` is a 3×3 kernel, row-major.
///
/// # Panics
///
/// Panics on shape mismatches or inputs smaller than 3×3.
pub fn conv3x3_direct(weights: &[Vec<[f32; 9]>], input: &FeatureMap) -> FeatureMap {
    let out_ch = weights.len();
    assert!(out_ch > 0, "need at least one output channel");
    let in_ch = weights[0].len();
    assert_eq!(in_ch, input.channels(), "input channel mismatch");
    assert!(
        input.height() >= 3 && input.width() >= 3,
        "input must be at least 3x3"
    );
    let (oh, ow) = (input.height() - 2, input.width() - 2);
    let mut out = FeatureMap::zeros(out_ch, oh, ow);
    for (oc, per_in) in weights.iter().enumerate() {
        assert_eq!(per_in.len(), in_ch, "ragged weight tensor");
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0.0f32;
                for (ic, k) in per_in.iter().enumerate() {
                    for dy in 0..3 {
                        for dx in 0..3 {
                            acc += k[dy * 3 + dx] * input.get(ic, y + dy, x + dx);
                        }
                    }
                }
                out.set(oc, y, x, acc);
            }
        }
    }
    out
}

/// An F(2×2, 3×3) Winograd convolution whose 16 per-position channel
/// reductions are expressed as matrices — the form EIE schedules.
///
/// For each of the 16 transform positions `(i, j)`, `position_matrix(i,j)`
/// is the `out_channels × in_channels` matrix `U^{(i,j)}`; the forward
/// pass computes `m^{(i,j)} = U^{(i,j)} · v^{(i,j)}` per input tile, where
/// `v` is the transformed input tile's channel vector at that position.
/// Those 16 products are the paper's "16 M×V … scheduled on an EIE".
#[derive(Debug, Clone, PartialEq)]
pub struct WinogradConv3x3 {
    /// `u[i*4+j]` is `U^{(i,j)}`, out_channels × in_channels.
    u: Vec<Matrix>,
    out_channels: usize,
    in_channels: usize,
}

impl WinogradConv3x3 {
    /// Transforms a 3×3 kernel tensor into the 16 position matrices:
    /// `U = G g Gᵀ` per (out, in) channel pair.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or ragged.
    pub fn from_kernels(weights: &[Vec<[f32; 9]>]) -> Self {
        let out_channels = weights.len();
        assert!(out_channels > 0, "need at least one output channel");
        let in_channels = weights[0].len();
        assert!(in_channels > 0, "need at least one input channel");
        let mut u = vec![Matrix::zeros(out_channels, in_channels); 16];
        for (oc, per_in) in weights.iter().enumerate() {
            assert_eq!(per_in.len(), in_channels, "ragged weight tensor");
            for (ic, g) in per_in.iter().enumerate() {
                let transformed = kernel_transform(g); // 4×4
                for (pos, m) in u.iter_mut().enumerate() {
                    m.set(oc, ic, transformed[pos / 4][pos % 4]);
                }
            }
        }
        Self {
            u,
            out_channels,
            in_channels,
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// The `U^{(i,j)}` matrix of one transform position.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` exceeds 3.
    pub fn position_matrix(&self, i: usize, j: usize) -> &Matrix {
        assert!(i < 4 && j < 4, "position out of range");
        &self.u[i * 4 + j]
    }

    /// The transformed input-tile channel vectors for the tile whose
    /// top-left corner is `(y0, x0)`: 16 vectors of length `in_channels`
    /// (`v^{(i,j)}[ic] = (Bᵀ d_ic B)[i][j]`).
    ///
    /// # Panics
    ///
    /// Panics if the 4×4 tile does not fit in the input.
    pub fn input_tile_vectors(&self, input: &FeatureMap, y0: usize, x0: usize) -> Vec<Vec<f32>> {
        assert!(y0 + 4 <= input.height() && x0 + 4 <= input.width());
        assert_eq!(input.channels(), self.in_channels);
        let mut vs = vec![vec![0.0f32; self.in_channels]; 16];
        for ic in 0..self.in_channels {
            let mut d = [[0.0f32; 4]; 4];
            for (dy, row) in d.iter_mut().enumerate() {
                for (dx, v) in row.iter_mut().enumerate() {
                    *v = input.get(ic, y0 + dy, x0 + dx);
                }
            }
            let t = input_transform(&d);
            for (pos, v) in vs.iter_mut().enumerate() {
                v[ic] = t[pos / 4][pos % 4];
            }
        }
        vs
    }

    /// Applies the inverse transform `Y = Aᵀ m A` to the 16 per-position
    /// reduction results of one tile, producing its 2×2 output block for
    /// one output channel.
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != 16`.
    pub fn output_block(&self, m: &[f32]) -> [[f32; 2]; 2] {
        assert_eq!(m.len(), 16, "need 16 position results");
        let mut grid = [[0.0f32; 4]; 4];
        for (pos, &v) in m.iter().enumerate() {
            grid[pos / 4][pos % 4] = v;
        }
        output_transform(&grid)
    }

    /// Full Winograd forward pass (f32 reference): tiles the input with
    /// stride 2, runs the 16 reductions per tile, inverse-transforms.
    ///
    /// The per-position reduction `U^{(i,j)} · v^{(i,j)}` is exactly the
    /// product EIE accelerates; callers holding an `eie-core` compiled
    /// model can substitute the simulator for `gemv` (see the
    /// `winograd_conv` example).
    ///
    /// # Panics
    ///
    /// Panics if the input is smaller than 4×4 or has odd output size.
    pub fn forward(&self, input: &FeatureMap) -> FeatureMap {
        self.forward_with(input, |pos, v| self.u[pos].gemv(v))
    }

    /// Forward pass with a caller-supplied M×V executor (`pos` in 0..16)
    /// — the hook the EIE-scheduled path plugs the simulator into.
    ///
    /// # Panics
    ///
    /// Same conditions as [`forward`](WinogradConv3x3::forward).
    pub fn forward_with(
        &self,
        input: &FeatureMap,
        mut mv: impl FnMut(usize, &[f32]) -> Vec<f32>,
    ) -> FeatureMap {
        let (oh, ow) = (input.height() - 2, input.width() - 2);
        assert!(
            oh >= 2 && ow >= 2 && oh % 2 == 0 && ow % 2 == 0,
            "output must be even-sized (pad the input); got {oh}x{ow}"
        );
        let mut out = FeatureMap::zeros(self.out_channels, oh, ow);
        for ty in (0..oh).step_by(2) {
            for tx in (0..ow).step_by(2) {
                let vs = self.input_tile_vectors(input, ty, tx);
                // 16 M×Vs: m^(pos)[oc] = U^(pos) · v^(pos).
                let ms: Vec<Vec<f32>> = vs.iter().enumerate().map(|(p, v)| mv(p, v)).collect();
                for oc in 0..self.out_channels {
                    // Gather this output channel's 16 position results.
                    let per_pos: Vec<f32> = ms.iter().map(|m| m[oc]).collect();
                    let block = self.output_block(&per_pos);
                    for (dy, brow) in block.iter().enumerate() {
                        for (dx, &v) in brow.iter().enumerate() {
                            out.set(oc, ty + dy, tx + dx, v);
                        }
                    }
                }
            }
        }
        out
    }

    /// Multiplications per output pixel per channel pair: direct needs 9,
    /// Winograd 16/4 = 4 → the paper's 2.25× saving.
    pub fn multiplication_saving() -> f64 {
        9.0 / 4.0
    }
}

/// `G g Gᵀ` for the F(2×2, 3×3) kernel transform.
fn kernel_transform(g: &[f32; 9]) -> [[f32; 4]; 4] {
    // G = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]]
    let grows = [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.0, 0.0, 1.0],
    ];
    let mut tmp = [[0.0f32; 3]; 4]; // G g
    for (r, grow) in grows.iter().enumerate() {
        for c in 0..3 {
            tmp[r][c] = (0..3).map(|k| grow[k] * g[k * 3 + c]).sum();
        }
    }
    let mut out = [[0.0f32; 4]; 4]; // (G g) Gᵀ
    for (r, trow) in tmp.iter().enumerate() {
        for (c, grow) in grows.iter().enumerate() {
            out[r][c] = (0..3).map(|k| trow[k] * grow[k]).sum();
        }
    }
    out
}

/// `Bᵀ d B` for the input-tile transform.
fn input_transform(d: &[[f32; 4]; 4]) -> [[f32; 4]; 4] {
    // Bᵀ = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
    let bt = [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ];
    let mut tmp = [[0.0f32; 4]; 4]; // Bᵀ d
    for (r, brow) in bt.iter().enumerate() {
        for c in 0..4 {
            tmp[r][c] = (0..4).map(|k| brow[k] * d[k][c]).sum();
        }
    }
    let mut out = [[0.0f32; 4]; 4]; // (Bᵀ d) B — B's rows are bt's columns
    for (r, trow) in tmp.iter().enumerate() {
        for (c, brow) in bt.iter().enumerate() {
            out[r][c] = (0..4).map(|k| trow[k] * brow[k]).sum();
        }
    }
    out
}

/// `Aᵀ m A` for the output transform.
fn output_transform(m: &[[f32; 4]; 4]) -> [[f32; 2]; 2] {
    // Aᵀ = [[1, 1, 1, 0], [0, 1, -1, -1]]
    let at = [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]];
    let mut tmp = [[0.0f32; 4]; 2]; // Aᵀ m
    for (r, arow) in at.iter().enumerate() {
        for c in 0..4 {
            tmp[r][c] = (0..4).map(|k| arow[k] * m[k][c]).sum();
        }
    }
    let mut out = [[0.0f32; 2]; 2];
    for (r, trow) in tmp.iter().enumerate() {
        for (c, arow) in at.iter().enumerate() {
            out[r][c] = (0..4).map(|k| trow[k] * arow[k]).sum();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_kernels(out_ch: usize, in_ch: usize, seed: f32) -> Vec<Vec<[f32; 9]>> {
        (0..out_ch)
            .map(|oc| {
                (0..in_ch)
                    .map(|ic| {
                        let mut k = [0.0f32; 9];
                        for (i, v) in k.iter_mut().enumerate() {
                            *v = ((oc * 31 + ic * 7 + i) as f32 * seed).sin();
                        }
                        k
                    })
                    .collect()
            })
            .collect()
    }

    fn test_input(ch: usize, h: usize, w: usize) -> FeatureMap {
        FeatureMap::from_fn(ch, h, w, |c, y, x| {
            let v = ((c * 13 + y * 5 + x) as f32 * 0.37).sin();
            if v > 0.0 {
                v
            } else {
                0.0
            } // post-ReLU map
        })
    }

    #[test]
    fn conv1x1_is_per_pixel_gemv() {
        let w = Matrix::from_rows(&[&[1.0, -1.0, 0.5], &[0.0, 2.0, 1.0]]);
        let fm = test_input(3, 4, 5);
        let out = conv1x1(&w, &fm);
        assert_eq!(out.channels(), 2);
        assert_eq!((out.height(), out.width()), (4, 5));
        // Spot-check one pixel against an explicit gemv.
        let expected = w.gemv(&fm.pixel_channels(2, 3));
        assert_eq!(out.get(0, 2, 3), expected[0]);
        assert_eq!(out.get(1, 2, 3), expected[1]);
    }

    #[test]
    fn winograd_matches_direct_convolution() {
        let kernels = test_kernels(3, 2, 0.61);
        let input = test_input(2, 6, 8); // output 4×6, even
        let direct = conv3x3_direct(&kernels, &input);
        let wino = WinogradConv3x3::from_kernels(&kernels).forward(&input);
        assert_eq!(direct.channels(), wino.channels());
        for c in 0..direct.channels() {
            for y in 0..direct.height() {
                for x in 0..direct.width() {
                    let (a, b) = (direct.get(c, y, x), wino.get(c, y, x));
                    assert!(
                        (a - b).abs() < 1e-4,
                        "mismatch at ({c},{y},{x}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn winograd_identity_kernel() {
        // A kernel that picks the center pixel: direct = shifted input.
        let mut k = [0.0f32; 9];
        k[4] = 1.0;
        let kernels = vec![vec![k]];
        let input = test_input(1, 6, 6);
        let wino = WinogradConv3x3::from_kernels(&kernels).forward(&input);
        for y in 0..4 {
            for x in 0..4 {
                let expect = input.get(0, y + 1, x + 1);
                assert!((wino.get(0, y, x) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn forward_with_is_the_eie_hook() {
        // Substituting a custom M×V that uses the position matrices must
        // reproduce forward() exactly.
        let kernels = test_kernels(2, 3, 0.43);
        let conv = WinogradConv3x3::from_kernels(&kernels);
        let input = test_input(3, 4, 4);
        let a = conv.forward(&input);
        let b = conv.forward_with(&input, |pos, v| {
            conv.position_matrix(pos / 4, pos % 4).gemv(v)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn position_matrices_have_channel_shape() {
        let conv = WinogradConv3x3::from_kernels(&test_kernels(5, 7, 0.2));
        for i in 0..4 {
            for j in 0..4 {
                let m = conv.position_matrix(i, j);
                assert_eq!((m.rows(), m.cols()), (5, 7));
            }
        }
    }

    #[test]
    fn multiplication_saving_is_paper_value() {
        assert_eq!(WinogradConv3x3::multiplication_saving(), 2.25);
    }

    #[test]
    fn feature_map_density_counts_relu_zeros() {
        let fm = test_input(2, 8, 8);
        let d = fm.density();
        assert!(d > 0.2 && d < 0.8, "density {d}");
    }

    #[test]
    #[should_panic(expected = "even-sized")]
    fn winograd_rejects_odd_output() {
        let conv = WinogradConv3x3::from_kernels(&test_kernels(1, 1, 0.5));
        let input = test_input(1, 5, 5); // output 3×3, odd
        let _ = conv.forward(&input);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn direct_rejects_channel_mismatch() {
        let kernels = test_kernels(1, 2, 0.5);
        let input = test_input(3, 6, 6);
        let _ = conv3x3_direct(&kernels, &input);
    }
}
