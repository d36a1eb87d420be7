//! Bit-packed im2col footprints and the packed hidden-layer evaluator.
//!
//! # Packing format
//!
//! For one hidden layer the weights are a packed [`BitTensor`] (bit set ⇔
//! +1): one row per output channel, `K²·C` columns padded to whole `u64`
//! words with the padding bits clear. Callers hand them over channel-major,
//! column `c·K² + ky·K + kx`, the order the naive reference and the fabric
//! read. [`PackedLayer::new`] reorders every row once to tap-major, column
//! `(ky·K + kx)·C + c`, so each kernel tap owns one contiguous `C`-bit
//! chunk. The AND-popcount sum does not depend on the column order, so the
//! permutation changes no result, only the packing cost.
//!
//! The activations are packed to match, a word at a time. Each input
//! pixel's `C` channels are packed once per plane into `⌈C/64⌉` words; the
//! footprint of every output pixel is then built by OR-ing its `K²` tap
//! chunks into a zeroed row of `words_per_row` words at bit offset
//! `tap·C` — whole words when `C` is a multiple of 64, a shift-and-carry
//! insert otherwise. Taps outside the feature map are skipped, which is
//! the zero padding of the naive reference. There are `planes` such rows
//! per output pixel: plane `p` holds bit `p` of each activation, so a
//! 3-bit activation column contributes to up to three planes with weights
//! 1, 2 and 4.
//!
//! # Correction-term math
//!
//! With `w ∈ {−1,+1}` packed as a bitmask, `Σ wᵢ·bᵢ = 2·pc(w ∧ b) − pc(b)`
//! per plane. The `pc(b)` term depends only on the activations, so it is
//! folded once per pixel into a correction term
//!
//! ```text
//! asum[pix] = Σ_p 2^p · pc(plane_p[pix])
//! ```
//!
//! and the per-(row, pixel) inner loop reduces to AND+popcount only:
//!
//! ```text
//! acc = 2 · Σ_p 2^p · pc(w_row ∧ plane_p[pix]) − asum[pix]
//! ```
//!
//! `acc` then goes through the layer's folded batchnorm [`ThresholdSet`]
//! (ascending or descending) to produce the next 3-bit activation, and an
//! optional max-pool finishes the layer. Every kernel variant sums the
//! same integers in a different order, so all variants are bit-exact with
//! the naive signed-arithmetic reference, [`reference_conv`].
//!
//! # Popcount dispatch
//!
//! The portable x86-64 baseline has no `popcnt` instruction, so
//! `count_ones` there compiles to a bit-twiddling sequence. On `x86_64` the
//! GEMM body is instantiated twice from one `#[inline(always)]` function:
//! once with `#[target_feature(enable = "popcnt")]`, selected at run time
//! by `is_x86_feature_detected!("popcnt")` through the crate's only
//! `unsafe` call, and once portable for every other case. On aarch64 (the
//! A53 host) `count_ones` already lowers to the NEON `cnt` instruction.

use crate::tune::{LayerShape, Variant};
use tincy_quant::{and_popcount, ThresholdsForLayer};
use tincy_simd::U64x4;
use tincy_tensor::{BitTensor, ConvGeom, PoolGeom, Shape3, Tensor};
use tincy_trace::{static_label, Backend};

/// Bits per packed word (matches [`BitTensor`]).
const WORD_BITS: usize = 64;

/// Output-channel tile of the cache-blocked variants: 16 weight rows keep
/// the tile's weight words resident in L1 while a pixel tile streams by.
const ROW_TILE: usize = 16;

/// Pixel tile of the cache-blocked variants.
const PIX_TILE: usize = 64;

/// One hidden layer prepared for packed evaluation: tap-major packed
/// weights, folded thresholds, convolution geometry and optional max-pool.
#[derive(Debug, Clone)]
pub struct PackedLayer {
    in_shape: Shape3,
    weights: BitTensor,
    thresholds: ThresholdsForLayer,
    geom: ConvGeom,
    pool: Option<PoolGeom>,
    act_bits: usize,
    trace_layer: Option<u32>,
}

/// Activation bitplanes for one input feature map: `planes[p]` holds
/// `pixels × words` packed words, plane-major, pixel rows contiguous.
struct PackedMap {
    pixels: usize,
    words: usize,
    planes: Vec<Vec<u64>>,
    /// Per-pixel popcount-correction term `Σ_p 2^p · pc(plane_p)`.
    asum: Vec<i32>,
}

impl PackedLayer {
    /// Prepares a layer for packed evaluation from channel-major weights
    /// (see the [module docs](self)), reordering them to tap-major once.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate against `in_shape`, the
    /// weight width differs from the im2col dot length, the threshold
    /// channel count differs from the weight row count, or `act_bits` is
    /// outside `1..=3` — all programmer errors (upstream layer builders
    /// validate these shapes).
    pub fn new(
        in_shape: Shape3,
        weights: BitTensor,
        thresholds: ThresholdsForLayer,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
        act_bits: usize,
    ) -> Self {
        assert!(
            (1..=3).contains(&act_bits),
            "act_bits must be in 1..=3, got {act_bits}"
        );
        geom.validate(in_shape).expect("conv geometry");
        assert_eq!(
            weights.cols(),
            geom.dot_length(in_shape.channels),
            "weight width mismatch"
        );
        assert_eq!(
            thresholds.num_channels(),
            weights.rows(),
            "threshold channel count mismatch"
        );
        let weights = tap_major(&weights, in_shape.channels, geom.kernel * geom.kernel);
        Self {
            in_shape,
            weights,
            thresholds,
            geom,
            pool,
            act_bits,
            trace_layer: None,
        }
    }

    /// Tags `kernel.*` spans emitted by this layer with a layer index.
    #[must_use]
    pub fn with_trace_layer(mut self, layer: u32) -> Self {
        self.trace_layer = Some(layer);
        self
    }

    /// Input feature-map shape.
    pub fn in_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// Output feature-map shape (after the optional max-pool).
    pub fn out_shape(&self) -> Shape3 {
        let conv = self.geom.output_shape(self.in_shape, self.weights.rows());
        match self.pool {
            Some(pool) => pool.output_shape(conv),
            None => conv,
        }
    }

    /// Activation bit width consumed by this layer.
    pub fn act_bits(&self) -> usize {
        self.act_bits
    }

    /// The shape key the autotuner bins this layer under.
    pub fn shape(&self) -> LayerShape {
        let conv = self.geom.output_shape(self.in_shape, self.weights.rows());
        LayerShape {
            rows: self.weights.rows(),
            cols: self.weights.cols(),
            pixels: conv.spatial(),
            planes: self.act_bits,
        }
    }

    /// Evaluates the layer with the chosen kernel variant inside a
    /// `cpu.kernel.<variant>` span — the CPU fallback's entry point.
    ///
    /// `threads` only matters for [`Variant::Threaded`]; every variant
    /// produces bit-identical output.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong shape.
    pub fn forward(&self, input: &Tensor<u8>, variant: Variant, threads: usize) -> Tensor<u8> {
        let label = match variant {
            Variant::Scalar => static_label!("cpu.kernel.scalar"),
            Variant::Unrolled4 => static_label!("cpu.kernel.unrolled4"),
            Variant::Blocked => static_label!("cpu.kernel.blocked"),
            Variant::Threaded => static_label!("cpu.kernel.threaded"),
        };
        let mut builder = tincy_trace::span(label)
            .backend(Backend::Host)
            .variant(variant.label());
        if let Some(layer) = self.trace_layer {
            builder = builder.layer(layer);
        }
        let _span = builder.start();
        self.forward_untraced(input, variant, threads)
    }

    /// [`PackedLayer::forward`] without the span, for the simulated fabric,
    /// whose time is accounted under its own `finn.layer` span.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong shape.
    pub fn forward_untraced(
        &self,
        input: &Tensor<u8>,
        variant: Variant,
        threads: usize,
    ) -> Tensor<u8> {
        assert_eq!(input.shape(), self.in_shape, "input shape mismatch");
        let conv_shape = self.geom.output_shape(self.in_shape, self.weights.rows());
        let map = self.pack_input(input, conv_shape);
        let mut conv_out = Tensor::zeros(conv_shape);
        self.gemm_into(&map, conv_out.as_mut_slice(), variant, threads);
        match self.pool {
            Some(pool) => max_pool_levels(&conv_out, pool),
            None => conv_out,
        }
    }

    /// Packs the im2col footprint of every output pixel into tap-major
    /// activation bitplanes and computes the per-pixel correction terms.
    fn pack_input(&self, input: &Tensor<u8>, conv_shape: Shape3) -> PackedMap {
        let Shape3 {
            channels,
            height,
            width,
        } = self.in_shape;
        let ConvGeom {
            kernel,
            stride,
            pad,
        } = self.geom;
        // Each input pixel's channels, once per plane: `chunk` words each.
        let chunk = channels.div_ceil(WORD_BITS);
        let in_pixels = height * width;
        let mut chans = vec![vec![0u64; in_pixels * chunk]; self.act_bits];
        for (c, fmap) in input.as_slice().chunks_exact(in_pixels).enumerate() {
            let (word, bit) = (c / WORD_BITS, c % WORD_BITS);
            for (pix, &v) in fmap.iter().enumerate() {
                debug_assert!(
                    (v as usize) >> self.act_bits == 0,
                    "activation {v} exceeds {} bits",
                    self.act_bits
                );
                for (p, plane) in chans.iter_mut().enumerate() {
                    plane[pix * chunk + word] |= u64::from((v >> p) & 1) << bit;
                }
            }
        }

        let pixels = conv_shape.spatial();
        let words = self.weights.words_per_row();
        let mut planes = vec![vec![0u64; pixels * words]; self.act_bits];
        let mut pix = 0usize;
        for oy in 0..conv_shape.height {
            for ox in 0..conv_shape.width {
                let row = pix * words..(pix + 1) * words;
                for ky in 0..kernel {
                    let Some(iy) = (oy * stride + ky).checked_sub(pad).filter(|&y| y < height)
                    else {
                        continue;
                    };
                    for kx in 0..kernel {
                        let Some(ix) = (ox * stride + kx).checked_sub(pad).filter(|&x| x < width)
                        else {
                            continue;
                        };
                        let src = (iy * width + ix) * chunk;
                        let offset = (ky * kernel + kx) * channels;
                        for (plane, chan) in planes.iter_mut().zip(&chans) {
                            insert_chunk(&mut plane[row.clone()], &chan[src..src + chunk], offset);
                        }
                    }
                }
                pix += 1;
            }
        }
        let mut asum = vec![0i32; pixels];
        for (p, plane) in planes.iter().enumerate() {
            for (pix, total) in asum.iter_mut().enumerate() {
                let row = &plane[pix * words..(pix + 1) * words];
                let pc: u32 = row.iter().map(|&w| w.count_ones()).sum();
                *total += (pc as i32) << p;
            }
        }
        PackedMap {
            pixels,
            words,
            planes,
            asum,
        }
    }

    /// Dispatches the packed GEMM; `out` is channel-major
    /// (`rows × pixels`).
    fn gemm_into(&self, map: &PackedMap, out: &mut [u8], variant: Variant, threads: usize) {
        let rows = self.weights.rows();
        if variant == Variant::Threaded && threads > 1 && rows > 1 {
            let chunk = rows.div_ceil(threads.min(rows));
            std::thread::scope(|scope| {
                let mut rest = out;
                let mut r0 = 0usize;
                while r0 < rows {
                    let r1 = (r0 + chunk).min(rows);
                    let (head, tail) = rest.split_at_mut((r1 - r0) * map.pixels);
                    rest = tail;
                    scope.spawn(move || self.gemm_range(map, head, r0, r1, Variant::Blocked));
                    r0 = r1;
                }
            });
        } else {
            self.gemm_range(map, out, 0, rows, variant);
        }
    }

    /// Evaluates output rows `r0..r1` into `out` (length
    /// `(r1-r0) × pixels`), on the hardware popcount where the CPU has one.
    fn gemm_range(&self, map: &PackedMap, out: &mut [u8], r0: usize, r1: usize, variant: Variant) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("popcnt") {
            // SAFETY: `gemm_range_popcnt` is safe code whose only
            // precondition is the `popcnt` target feature, detected on
            // this CPU just above.
            unsafe { self.gemm_range_popcnt(map, out, r0, r1, variant) };
            return;
        }
        self.gemm_range_body(map, out, r0, r1, variant);
    }

    /// [`PackedLayer::gemm_range_body`] compiled with the `popcnt`
    /// instruction enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn gemm_range_popcnt(
        &self,
        map: &PackedMap,
        out: &mut [u8],
        r0: usize,
        r1: usize,
        variant: Variant,
    ) {
        self.gemm_range_body(map, out, r0, r1, variant);
    }

    /// The packed GEMM over rows `r0..r1`, inlined into each caller so it
    /// compiles with that caller's target features.
    #[inline(always)]
    fn gemm_range_body(
        &self,
        map: &PackedMap,
        out: &mut [u8],
        r0: usize,
        r1: usize,
        variant: Variant,
    ) {
        let pixels = map.pixels;
        let words = map.words;
        match variant {
            Variant::Scalar | Variant::Unrolled4 => {
                let unrolled = variant == Variant::Unrolled4;
                for r in r0..r1 {
                    let wrow = self.weights.row_words(r);
                    let tset = self.thresholds.channel(r);
                    for pix in 0..pixels {
                        let base = pix * words;
                        let pos = if unrolled {
                            dot_unrolled(wrow, &map.planes, base)
                        } else {
                            dot_scalar(wrow, &map.planes, base)
                        };
                        let acc = 2 * pos - map.asum[pix];
                        out[(r - r0) * pixels + pix] = tset.activate(acc);
                    }
                }
            }
            Variant::Blocked | Variant::Threaded => {
                let mut pt = 0usize;
                while pt < pixels {
                    let pend = (pt + PIX_TILE).min(pixels);
                    let mut rt = r0;
                    while rt < r1 {
                        let rend = (rt + ROW_TILE).min(r1);
                        for r in rt..rend {
                            let wrow = self.weights.row_words(r);
                            let tset = self.thresholds.channel(r);
                            for pix in pt..pend {
                                let pos = dot_unrolled(wrow, &map.planes, pix * words);
                                let acc = 2 * pos - map.asum[pix];
                                out[(r - r0) * pixels + pix] = tset.activate(acc);
                            }
                        }
                        rt = rend;
                    }
                    pt = pend;
                }
            }
        }
    }
}

/// Plane-weighted AND-popcount `Σ_p 2^p · pc(w ∧ plane_p)`, one word at a
/// time.
#[inline(always)]
fn dot_scalar(wrow: &[u64], planes: &[Vec<u64>], base: usize) -> i32 {
    let mut acc = 0i32;
    for (p, plane) in planes.iter().enumerate() {
        let pc = and_popcount(wrow, &plane[base..base + wrow.len()]);
        acc += (pc as i32) << p;
    }
    acc
}

/// Plane-weighted AND-popcount, four words per iteration on [`U64x4`].
#[inline(always)]
fn dot_unrolled(wrow: &[u64], planes: &[Vec<u64>], base: usize) -> i32 {
    let words = wrow.len();
    let full = words & !3;
    let mut acc = 0i32;
    for (p, plane) in planes.iter().enumerate() {
        let brow = &plane[base..base + words];
        let mut pc = 0u32;
        let mut j = 0usize;
        while j < full {
            pc += U64x4::load(&wrow[j..])
                .and(U64x4::load(&brow[j..]))
                .count_ones();
            j += 4;
        }
        for j in full..words {
            pc += (wrow[j] & brow[j]).count_ones();
        }
        acc += (pc as i32) << p;
    }
    acc
}

/// Reorders every weight row from channel-major columns `c·taps + t` to
/// tap-major columns `t·channels + c`, 64 channels at a time: each
/// channel's `taps` bits are read as one group and spread, one shift and
/// OR per bit, over one accumulator word per tap, which is then inserted
/// whole. Runs once per layer build.
fn tap_major(weights: &BitTensor, channels: usize, taps: usize) -> BitTensor {
    let mut out = BitTensor::zeros(weights.rows(), weights.cols());
    let mut acc = vec![0u64; taps];
    for r in 0..weights.rows() {
        let src = weights.row_words(r);
        let dst = out.row_words_mut(r);
        for c0 in (0..channels).step_by(WORD_BITS) {
            acc.fill(0);
            for b in 0..WORD_BITS.min(channels - c0) {
                let col = (c0 + b) * taps;
                for (i, tap_acc) in acc.chunks_mut(WORD_BITS).enumerate() {
                    let mut group = bits_at(src, col + i * WORD_BITS);
                    for a in tap_acc {
                        *a |= (group & 1) << b;
                        group >>= 1;
                    }
                }
            }
            for (t, &a) in acc.iter().enumerate() {
                insert_chunk(dst, &[a], t * channels + c0);
            }
        }
    }
    out
}

/// The 64 bits of `words` starting at bit `pos`, zero past the end.
#[inline]
fn bits_at(words: &[u64], pos: usize) -> u64 {
    let (word, shift) = (pos / WORD_BITS, pos % WORD_BITS);
    let low = words[word] >> shift;
    match words.get(word + 1) {
        Some(&next) if shift != 0 => low | next << (WORD_BITS - shift),
        _ => low,
    }
}

/// ORs the bits of `chunk` into `row` starting at bit `offset`: whole
/// words when `offset` is word-aligned, a shift-and-carry insert
/// otherwise. The chunk's bits beyond its logical width are clear, so a
/// carry past the end of `row` is zero and is dropped.
#[inline]
fn insert_chunk(row: &mut [u64], chunk: &[u64], offset: usize) {
    let word = offset / WORD_BITS;
    let shift = offset % WORD_BITS;
    if shift == 0 {
        for (dst, &src) in row[word..word + chunk.len()].iter_mut().zip(chunk) {
            *dst |= src;
        }
    } else {
        for (j, &src) in chunk.iter().enumerate() {
            row[word + j] |= src << shift;
            if let Some(next) = row.get_mut(word + j + 1) {
                *next |= src >> (WORD_BITS - shift);
            }
        }
    }
}

/// Naive signed-arithmetic convolution over channel-major weights (column
/// `c·K² + ky·K + kx`), thresholded and optionally max-pooled: the golden
/// path the packed variants are proven bit-exact against. It reads the
/// caller's weights, never a [`PackedLayer`]'s permuted copy, so a wrong
/// permutation cannot corrupt the oracle along with the kernels.
///
/// # Panics
///
/// Panics if the weight width differs from the im2col dot length of
/// `input` or the threshold channel count from the weight row count.
pub fn reference_conv(
    input: &Tensor<u8>,
    weights: &BitTensor,
    thresholds: &ThresholdsForLayer,
    geom: ConvGeom,
    pool: Option<PoolGeom>,
) -> Tensor<u8> {
    let in_shape = input.shape();
    assert_eq!(
        weights.cols(),
        geom.dot_length(in_shape.channels),
        "weight width mismatch"
    );
    assert_eq!(
        thresholds.num_channels(),
        weights.rows(),
        "threshold channel count mismatch"
    );
    let conv_shape = geom.output_shape(in_shape, weights.rows());
    let mut conv_out = Tensor::zeros(conv_shape);
    for oy in 0..conv_shape.height {
        for ox in 0..conv_shape.width {
            for ch in 0..weights.rows() {
                let mut acc = 0i32;
                let mut col = 0usize;
                for c in 0..in_shape.channels {
                    for ky in 0..geom.kernel {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        for kx in 0..geom.kernel {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            let inside = iy >= 0
                                && (iy as usize) < in_shape.height
                                && ix >= 0
                                && (ix as usize) < in_shape.width;
                            if inside {
                                let a = input.at(c, iy as usize, ix as usize) as i32;
                                acc += weights.sign(ch, col) * a;
                            }
                            col += 1;
                        }
                    }
                }
                *conv_out.at_mut(ch, oy, ox) = thresholds.channel(ch).activate(acc);
            }
        }
    }
    match pool {
        Some(pool) => max_pool_levels(&conv_out, pool),
        None => conv_out,
    }
}

/// Max-pool over quantization levels — the unsigned activation codes are
/// monotone in the represented value, so pooling codes equals pooling
/// values. This is also the fabric engine's in-stream pooling stage:
/// ragged edge windows are truncated at the feature-map border.
pub fn max_pool_levels(input: &Tensor<u8>, geom: PoolGeom) -> Tensor<u8> {
    let shape = input.shape();
    let out_shape = geom.output_shape(shape);
    let mut out = Tensor::zeros(out_shape);
    for c in 0..shape.channels {
        for oy in 0..out_shape.height {
            for ox in 0..out_shape.width {
                let mut best = 0u8;
                for ky in 0..geom.size {
                    for kx in 0..geom.size {
                        let iy = oy * geom.stride + ky;
                        let ix = ox * geom.stride + kx;
                        if iy < shape.height && ix < shape.width {
                            best = best.max(input.at(c, iy, ix));
                        }
                    }
                }
                *out.at_mut(c, oy, ox) = best;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tincy_quant::ThresholdSet;

    /// A random layer together with the channel-major weights and
    /// thresholds it was built from, for [`reference_conv`].
    struct Case {
        layer: PackedLayer,
        weights: BitTensor,
        thresholds: ThresholdsForLayer,
        geom: ConvGeom,
        pool: Option<PoolGeom>,
    }

    impl Case {
        /// A random layer whose thresholds split its accumulator range.
        fn new(
            rng: &mut StdRng,
            in_shape: Shape3,
            out_c: usize,
            geom: ConvGeom,
            pool: Option<PoolGeom>,
            act_bits: usize,
        ) -> Self {
            let cols = geom.dot_length(in_shape.channels);
            let thresholds = spread_thresholds(rng, out_c, cols, act_bits);
            Self::with_thresholds(rng, in_shape, geom, pool, thresholds, act_bits)
        }

        /// A random-weight layer with the given thresholds, one output
        /// channel per threshold set.
        fn with_thresholds(
            rng: &mut StdRng,
            in_shape: Shape3,
            geom: ConvGeom,
            pool: Option<PoolGeom>,
            thresholds: ThresholdsForLayer,
            act_bits: usize,
        ) -> Self {
            let out_c = thresholds.num_channels();
            let weights = random_weights(rng, out_c, geom.dot_length(in_shape.channels));
            let layer = PackedLayer::new(
                in_shape,
                weights.clone(),
                thresholds.clone(),
                geom,
                pool,
                act_bits,
            );
            Self {
                layer,
                weights,
                thresholds,
                geom,
                pool,
            }
        }

        fn expected(&self, input: &Tensor<u8>) -> Tensor<u8> {
            reference_conv(input, &self.weights, &self.thresholds, self.geom, self.pool)
        }
    }

    fn random_weights(rng: &mut StdRng, rows: usize, cols: usize) -> BitTensor {
        let signs: Vec<i8> = (0..rows * cols)
            .map(|_| if rng.gen() { 1 } else { -1 })
            .collect();
        BitTensor::from_signs(rows, cols, &signs).unwrap()
    }

    /// Per-channel thresholds at evenly spaced quantiles of the
    /// accumulator, whose spread is `σ = √(cols · E[a²])` for random ±1
    /// weights and uniform `act_bits` activations, shifted by a small
    /// random offset and in a random direction. The outputs then spread
    /// over the levels, so a packing or GEMM error shows in them instead
    /// of being clamped away.
    fn spread_thresholds(
        rng: &mut StdRng,
        out_c: usize,
        cols: usize,
        act_bits: usize,
    ) -> ThresholdsForLayer {
        let n = (1usize << act_bits) as f64;
        let sigma = (cols as f64 * (n - 1.0) * (2.0 * n - 1.0) / 6.0).sqrt();
        let levels = (1usize << act_bits) - 1;
        let jitter = (sigma / 4.0) as i32;
        let sets: Vec<ThresholdSet> = (0..out_c)
            .map(|_| {
                let shift = rng.gen_range(-jitter..=jitter);
                let taus = (0..levels)
                    .map(|k| {
                        let z = 3.0 * (k as f64 + 0.5) / levels as f64 - 1.5;
                        (sigma * z).round() as i32 + shift
                    })
                    .collect();
                ThresholdSet::with_direction(taus, rng.gen()).unwrap()
            })
            .collect();
        ThresholdsForLayer::new(sets).unwrap()
    }

    fn random_input(rng: &mut StdRng, shape: Shape3, act_bits: usize) -> Tensor<u8> {
        Tensor::from_fn(shape, |_, _, _| rng.gen_range(0..1u8 << act_bits))
    }

    /// Number of distinct activation levels in `out`.
    fn levels_seen(out: &[u8]) -> usize {
        let mut seen = [false; 256];
        for &v in out {
            seen[v as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn all_variants_match_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let in_shape = Shape3::new(3, 6, 5);
        let case = Case::new(&mut rng, in_shape, 9, ConvGeom::same(3, 1), None, 3);
        let input = random_input(&mut rng, in_shape, 3);
        let expected = case.expected(&input);
        assert_eq!(
            levels_seen(expected.as_slice()),
            8,
            "every 3-bit level occurs"
        );
        for variant in Variant::ALL {
            for threads in [1usize, 3] {
                let got = case.layer.forward(&input, variant, threads);
                assert_eq!(
                    got.as_slice(),
                    expected.as_slice(),
                    "variant={variant:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pooled_and_strided_layers_match_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        let in_shape = Shape3::new(2, 7, 7);
        let pool = Some(PoolGeom::new(2, 2));
        let case = Case::new(&mut rng, in_shape, 4, ConvGeom::same(3, 2), pool, 3);
        let input = random_input(&mut rng, in_shape, 3);
        let expected = case.expected(&input);
        assert!(
            levels_seen(expected.as_slice()) >= 4,
            "pooling keeps several levels"
        );
        for variant in Variant::ALL {
            let got = case.layer.forward(&input, variant, 2);
            assert_eq!(got.as_slice(), expected.as_slice(), "variant={variant:?}");
        }
        assert_eq!(expected.shape(), case.layer.out_shape());
    }

    #[test]
    fn pool_levels_max() {
        let input = Tensor::from_fn(Shape3::new(1, 2, 2), |_, y, x| (y * 2 + x) as u8);
        let out = max_pool_levels(&input, PoolGeom::new(2, 2));
        assert_eq!(out.as_slice(), &[3]);
    }

    #[test]
    fn binary_activations_pack_to_one_plane() {
        let mut rng = StdRng::seed_from_u64(13);
        let in_shape = Shape3::new(4, 4, 4);
        let thresholds = ThresholdsForLayer::new(vec![ThresholdSet::binary(); 5]).unwrap();
        let case = Case::with_thresholds(
            &mut rng,
            in_shape,
            ConvGeom::same(3, 1),
            None,
            thresholds,
            1,
        );
        let input = random_input(&mut rng, in_shape, 1);
        let expected = case.expected(&input);
        assert_eq!(
            levels_seen(expected.as_slice()),
            2,
            "τ = 0 splits the outputs"
        );
        for variant in Variant::ALL {
            let got = case.layer.forward(&input, variant, 2);
            assert_eq!(got.as_slice(), expected.as_slice(), "variant={variant:?}");
        }
    }

    #[test]
    fn tap_major_moves_every_column() {
        let mut rng = StdRng::seed_from_u64(14);
        for channels in [1usize, 16, 63, 64, 65, 130] {
            for kernel in [1usize, 3, 9] {
                let taps = kernel * kernel;
                let weights = random_weights(&mut rng, 3, taps * channels);
                let permuted = tap_major(&weights, channels, taps);
                for r in 0..3 {
                    for c in 0..channels {
                        for t in 0..taps {
                            assert_eq!(
                                permuted.get(r, t * channels + c),
                                weights.get(r, c * taps + t),
                                "channels={channels} kernel={kernel} r={r} c={c} t={t}"
                            );
                        }
                    }
                    assert_eq!(permuted.row_count_ones(r), weights.row_count_ones(r));
                }
            }
        }
    }

    /// CI x86 runners always have `popcnt`, so the dispatched path alone
    /// would never run the portable instantiation.
    #[test]
    fn portable_gemm_body_matches_dispatched() {
        let mut rng = StdRng::seed_from_u64(15);
        let in_shape = Shape3::new(65, 5, 6);
        let case = Case::new(&mut rng, in_shape, 20, ConvGeom::same(3, 1), None, 3);
        let layer = &case.layer;
        let input = random_input(&mut rng, in_shape, 3);
        let conv_shape = layer.geom.output_shape(in_shape, layer.weights.rows());
        let map = layer.pack_input(&input, conv_shape);
        assert!(map.words > 1, "footprint must span several words");
        let rows = layer.weights.rows();
        for variant in Variant::ALL {
            let mut portable = vec![0u8; rows * map.pixels];
            let mut dispatched = vec![0u8; rows * map.pixels];
            layer.gemm_range_body(&map, &mut portable, 0, rows, variant);
            layer.gemm_range(&map, &mut dispatched, 0, rows, variant);
            assert_eq!(levels_seen(&portable), 8, "every 3-bit level occurs");
            assert_eq!(portable, dispatched, "variant={variant:?}");
        }
    }
}
