//! The sliding-window unit: on-the-fly `im2col` over 3-bit feature maps.
//!
//! In the FINN dataflow architecture a sliding-window unit buffers incoming
//! feature-map rows and emits one kernel footprint per output pixel to the
//! MVTU. Functionally this is `im2col` restricted to a single column at a
//! time; padding emits level 0, which is exact because hidden feature maps
//! are unsigned quantized activations whose level 0 *is* real zero (the
//! output of a ReLU-style threshold stack).
//! Part of the behavioural test oracle, [`crate::ConvEngine::run_layer`].

use tincy_nn::NnError;
use tincy_tensor::{ConvGeom, Shape3, Tensor, U3Tensor};

/// Sliding-window generator for one layer application.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    shape: Shape3,
    geom: ConvGeom,
    out_h: usize,
    out_w: usize,
}

impl SlidingWindow {
    /// Creates a window generator.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the geometry does not fit the
    /// input shape.
    pub fn new(shape: Shape3, geom: ConvGeom) -> Result<Self, NnError> {
        geom.validate(shape).map_err(|e| NnError::InvalidSpec {
            what: e.to_string(),
        })?;
        Ok(Self {
            shape,
            geom,
            out_h: geom.output_extent(shape.height),
            out_w: geom.output_extent(shape.width),
        })
    }

    /// Output spatial height.
    pub fn out_height(&self) -> usize {
        self.out_h
    }

    /// Output spatial width.
    pub fn out_width(&self) -> usize {
        self.out_w
    }

    /// Length of each emitted footprint vector (`K²·C`).
    pub fn vector_len(&self) -> usize {
        self.geom.dot_length(self.shape.channels)
    }

    /// Emits the packed footprint for output pixel `(oy, ox)`.
    ///
    /// Element order is channel-major `(c, ky, kx)`, matching the weight
    /// row linearization.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range or the feature map shape
    /// disagrees with the construction shape.
    pub fn footprint(&self, fmap: &Tensor<u8>, oy: usize, ox: usize) -> U3Tensor {
        assert_eq!(fmap.shape(), self.shape, "feature map shape mismatch");
        assert!(
            oy < self.out_h && ox < self.out_w,
            "output pixel out of range"
        );
        let mut out = U3Tensor::zeros(self.vector_len());
        let mut i = 0;
        for c in 0..self.shape.channels {
            for ky in 0..self.geom.kernel {
                for kx in 0..self.geom.kernel {
                    let iy = (oy * self.geom.stride + ky) as isize - self.geom.pad as isize;
                    let ix = (ox * self.geom.stride + kx) as isize - self.geom.pad as isize;
                    let v = if iy < 0
                        || ix < 0
                        || iy as usize >= self.shape.height
                        || ix as usize >= self.shape.width
                    {
                        0
                    } else {
                        fmap.at(c, iy as usize, ix as usize)
                    };
                    out.set(i, v);
                    i += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmap() -> Tensor<u8> {
        Tensor::from_fn(Shape3::new(2, 4, 4), |c, y, x| {
            ((c * 3 + y * 2 + x) % 8) as u8
        })
    }

    #[test]
    fn footprint_matches_direct_gather() {
        let f = fmap();
        let geom = ConvGeom::same(3, 1);
        let swu = SlidingWindow::new(f.shape(), geom).unwrap();
        let fp = swu.footprint(&f, 1, 2).to_values();
        let mut expected = Vec::new();
        for c in 0..2 {
            for ky in 0..3 {
                for kx in 0..3 {
                    let iy = 1 + ky as isize - 1;
                    let ix = 2 + kx as isize - 1;
                    expected.push(if iy < 0 || ix < 0 || iy >= 4 || ix >= 4 {
                        0
                    } else {
                        f.at(c, iy as usize, ix as usize)
                    });
                }
            }
        }
        assert_eq!(fp, expected);
    }

    #[test]
    fn border_padding_is_level_zero() {
        let f = Tensor::filled(Shape3::new(1, 3, 3), 7u8);
        let swu = SlidingWindow::new(f.shape(), ConvGeom::same(3, 1)).unwrap();
        let fp = swu.footprint(&f, 0, 0).to_values();
        // Top-left footprint: first row and column are padding.
        assert_eq!(fp, vec![0, 0, 0, 0, 7, 7, 0, 7, 7]);
    }

    #[test]
    fn stride_moves_window() {
        let f = fmap();
        let swu = SlidingWindow::new(f.shape(), ConvGeom::new(2, 2, 0)).unwrap();
        assert_eq!(swu.out_height(), 2);
        assert_eq!(swu.out_width(), 2);
        let fp = swu.footprint(&f, 1, 1).to_values();
        assert_eq!(fp[0], f.at(0, 2, 2));
    }

    #[test]
    fn vector_len_is_dot_length() {
        let swu = SlidingWindow::new(Shape3::new(16, 8, 8), ConvGeom::same(3, 1)).unwrap();
        assert_eq!(swu.vector_len(), 144);
    }
}
