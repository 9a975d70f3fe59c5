//! Instruction schemes and their saturation-safe accumulation ratios
//! (paper Fig. 3 and Sec. 3.3).
//!
//! A scheme answers: *which multiply-accumulate instruction do we use, and how
//! many of them can run before an intermediate register must be drained to a
//! wider one by `SADDW`?* The paper derives the drain ratio from the
//! worst-case product of two in-range operands:
//!
//! * `SMLAL` scheme (4–8 bit): products accumulate in **i16**; ratio =
//!   `⌊32767 / max|a·b|⌋` → 511, 127, 31, 8, 2 for 4..=8 bit (7/8-bit use the
//!   adjusted symmetric ranges).
//! * `MLA` scheme (2–3 bit): products accumulate in **i8**; ratio =
//!   `⌊127 / max|a·b|⌋` → 31 and 7 for 2 and 3 bit.
//!
//! The same formula generalizes to operands with arbitrary bounds — which is
//! exactly what the Winograd path needs, since its transforms inflate the
//! value ranges (Sec. 3.4).

use lowbit_tensor::BitWidth;

/// Why an operand bound cannot be resolved into a safe scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchemeError {
    /// The product bound was zero or negative.
    NonPositiveBound { max_product: i32 },
    /// The worst-case product itself exceeds the intermediate accumulator,
    /// so even `ratio = 1` (drain after every MAC) would overflow. Holds the
    /// offending bound and the intermediate limit (127 for `Mla`, 32767 for
    /// `Smlal8`).
    ProductExceedsIntermediate { max_product: i32, limit: i32 },
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SchemeError::NonPositiveBound { max_product } => {
                write!(f, "product bound must be positive, got {max_product}")
            }
            SchemeError::ProductExceedsIntermediate { max_product, limit } => {
                let name = if limit == i8::MAX as i32 { "MLA" } else { "SMLAL" };
                write!(f, "{name} scheme requires |a*b| <= {limit}, got {max_product}")
            }
        }
    }
}

impl std::error::Error for SchemeError {}

/// Which multiply-accumulate instruction drives the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SchemeKind {
    /// `SMLAL vd.8h, vn.8b, vm.8b`: widening 8-lane i8 MAC into i16,
    /// drained to i32 by `SADDW` (paper's 4–8-bit scheme).
    Smlal8,
    /// `MLA vd.16b, vn.16b, vm.16b`: non-widening 16-lane i8 MAC, drained
    /// i8→i16→i32 by two `SADDW` levels (paper's 2–3-bit scheme).
    Mla,
    /// ncnn-like baseline: operands pre-widened to i16,
    /// `SMLAL vd.4s, vn.4h, vm.4h` accumulates straight into i32 — no drain,
    /// but only 4 lanes per instruction and double the load traffic. On the
    /// host it runs on the narrow 8x4 tile, which widens in registers.
    Ncnn16,
}

/// A fully-resolved instruction scheme for specific operand bounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scheme {
    kind: SchemeKind,
    /// Largest `|a·b|` the operand ranges permit.
    max_product: i32,
    /// MACs per accumulator lane before the first-level drain (usize::MAX for
    /// `Ncnn16`, which accumulates directly in i32).
    ratio: usize,
    /// First-level drains before the second-level drain (only meaningful for
    /// `Mla`; `Smlal8` drains straight to i32).
    ratio2: usize,
    /// Loop-unrolling factor applied to the K loop (paper Sec. 3.3).
    unroll: usize,
}

impl Scheme {
    /// The paper's scheme selection: `MLA` for 2–3 bit, `SMLAL` for 4–8 bit.
    pub fn for_bits(bits: BitWidth) -> Scheme {
        let kind = if bits.uses_mla_scheme() {
            SchemeKind::Mla
        } else {
            SchemeKind::Smlal8
        };
        Scheme::for_product_bound(kind, bits.max_abs_product())
            .with_unroll(Self::paper_unroll(bits))
    }

    /// The ncnn-like 16-bit baseline (any operand range up to 8 bit is safe:
    /// i32 accumulates ≤ `127² · K` without overflow for all evaluated `K`).
    pub fn ncnn16() -> Scheme {
        Scheme {
            kind: SchemeKind::Ncnn16,
            max_product: 127 * 127,
            ratio: usize::MAX,
            ratio2: usize::MAX,
            unroll: 2,
        }
    }

    /// Resolves a scheme from an explicit worst-case product bound — used by
    /// the Winograd kernels whose transformed operands exceed their nominal
    /// bit width. Panics on an unsatisfiable bound; use
    /// [`Scheme::try_for_product_bound`] to handle that case.
    pub fn for_product_bound(kind: SchemeKind, max_product: i32) -> Scheme {
        Scheme::try_for_product_bound(kind, max_product).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Scheme::for_product_bound`], but returns a [`SchemeError`] when
    /// the bound is non-positive or so large that even a drain after every
    /// single MAC (`ratio == 1`) would overflow the intermediate accumulator.
    pub fn try_for_product_bound(
        kind: SchemeKind,
        max_product: i32,
    ) -> Result<Scheme, SchemeError> {
        if max_product <= 0 {
            return Err(SchemeError::NonPositiveBound { max_product });
        }
        match kind {
            SchemeKind::Smlal8 => {
                let ratio = (i16::MAX as i32 / max_product) as usize;
                if ratio < 1 {
                    return Err(SchemeError::ProductExceedsIntermediate {
                        max_product,
                        limit: i16::MAX as i32,
                    });
                }
                Ok(Scheme {
                    kind,
                    max_product,
                    ratio,
                    ratio2: usize::MAX,
                    unroll: 2,
                })
            }
            SchemeKind::Mla => {
                let ratio = (i8::MAX as i32 / max_product) as usize;
                if ratio < 1 {
                    return Err(SchemeError::ProductExceedsIntermediate {
                        max_product,
                        limit: i8::MAX as i32,
                    });
                }
                // Each first-level drain deposits at most ratio*max_product
                // (<= 127) into an i16 lane.
                let per_drain = (ratio as i32) * max_product;
                let ratio2 = (i16::MAX as i32 / per_drain) as usize;
                Ok(Scheme {
                    kind,
                    max_product,
                    ratio,
                    ratio2,
                    unroll: 4,
                })
            }
            SchemeKind::Ncnn16 => Ok(Scheme::ncnn16()),
        }
    }

    /// Overrides the K-loop unrolling factor.
    pub fn with_unroll(mut self, unroll: usize) -> Scheme {
        self.unroll = unroll.max(1);
        self
    }

    /// Overrides the first-level drain ratio **without safety checks**. This
    /// deliberately permits unsound ratios; it exists so the static verifier's
    /// negative tests can emit a kernel with `ratio + 1` and prove the checker
    /// rejects it. Never use it on a production path.
    pub fn with_ratio_unchecked(mut self, ratio: usize) -> Scheme {
        self.ratio = ratio.max(1);
        self
    }

    /// Overrides the second-level drain ratio **without safety checks** (MLA
    /// only). Same caveat as [`Scheme::with_ratio_unchecked`].
    pub fn with_ratio2_unchecked(mut self, ratio2: usize) -> Scheme {
        self.ratio2 = ratio2.max(1);
        self
    }

    /// The paper's published unrolling factors: 32, 24, 16, 8, 2 for 4..=8
    /// bit; 4 for the MLA widths.
    fn paper_unroll(bits: BitWidth) -> usize {
        match bits.bits() {
            4 => 32,
            5 => 24,
            6 => 16,
            7 => 8,
            8 => 2,
            _ => 4,
        }
    }

    /// The driving instruction kind.
    #[inline]
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Worst-case operand product this scheme is safe for.
    #[inline]
    pub fn max_product(&self) -> i32 {
        self.max_product
    }

    /// MACs per lane before the first-level `SADDW` drain.
    #[inline]
    pub fn ratio(&self) -> usize {
        self.ratio
    }

    /// First-level drains before the second-level `SADDW` drain (MLA only).
    #[inline]
    pub fn ratio2(&self) -> usize {
        self.ratio2
    }

    /// K-loop unrolling factor.
    #[inline]
    pub fn unroll(&self) -> usize {
        self.unroll
    }

    /// MAC lanes moved per multiply-accumulate instruction: 16 for `MLA`,
    /// 8 for `SMLAL` (the "2x throughput" of Sec. 3.4), 4 for the 16-bit
    /// baseline.
    #[inline]
    pub fn lanes_per_mac_inst(&self) -> usize {
        match self.kind {
            SchemeKind::Mla => 16,
            SchemeKind::Smlal8 => 8,
            SchemeKind::Ncnn16 => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_smlal_ratios() {
        // Paper Sec. 3.3: 511/1, 127/1, 31/1, 8/1, 2/1 for 4..=8 bit.
        let expected = [(4u8, 511usize), (5, 127), (6, 31), (7, 8), (8, 2)];
        for (bits, ratio) in expected {
            let s = Scheme::for_bits(BitWidth::new(bits).unwrap());
            assert_eq!(s.kind(), SchemeKind::Smlal8);
            assert_eq!(s.ratio(), ratio, "{bits}-bit SMLAL ratio");
        }
    }

    #[test]
    fn published_mla_ratios() {
        // Paper Sec. 3.3: 31/1 and 7/1 for 2 and 3 bit.
        let s2 = Scheme::for_bits(BitWidth::W2);
        assert_eq!(s2.kind(), SchemeKind::Mla);
        assert_eq!(s2.ratio(), 31);
        let s3 = Scheme::for_bits(BitWidth::W3);
        assert_eq!(s3.ratio(), 7);
    }

    #[test]
    fn mla_second_level_ratio_is_safe() {
        for bits in [BitWidth::W2, BitWidth::W3] {
            let s = Scheme::for_bits(bits);
            let per_drain = s.ratio() as i32 * bits.max_abs_product();
            assert!(per_drain <= 127, "first drain must fit i8 headroom");
            assert!(s.ratio2() as i32 * per_drain <= i16::MAX as i32);
            assert!((s.ratio2() + 1) as i32 * per_drain > i16::MAX as i32);
        }
    }

    #[test]
    fn ratios_are_tight() {
        // One more MAC than the ratio could overflow the intermediate.
        for bits in [BitWidth::W4, BitWidth::W5, BitWidth::W6, BitWidth::W7, BitWidth::W8] {
            let s = Scheme::for_bits(bits);
            let worst = bits.max_abs_product();
            assert!(s.ratio() as i32 * worst <= i16::MAX as i32);
            assert!((s.ratio() as i32 + 1) * worst > i16::MAX as i32);
        }
    }

    #[test]
    fn winograd_style_custom_bounds() {
        // 6-bit Winograd: |U| <= 96, |V| <= 126 -> product 12096 -> ratio 2.
        let s = Scheme::for_product_bound(SchemeKind::Smlal8, 96 * 126);
        assert_eq!(s.ratio(), 2);
        // 4-bit Winograd: |U| <= 24, |V| <= 30 -> ratio 45.
        let s = Scheme::for_product_bound(SchemeKind::Smlal8, 24 * 30);
        assert_eq!(s.ratio(), 45);
    }

    #[test]
    #[should_panic(expected = "MLA scheme requires")]
    fn mla_rejects_oversized_products() {
        let _ = Scheme::for_product_bound(SchemeKind::Mla, 128);
    }

    #[test]
    fn adjusted_symmetric_ranges_drive_7_and_8_bit() {
        // Sec. 3.3: 7/8-bit quantized ranges are narrowed to the symmetric
        // [-63,63] / [-127,127] so the worst product stays predictable.
        assert_eq!(BitWidth::W7.max_abs_product(), 63 * 63);
        assert_eq!(BitWidth::W8.max_abs_product(), 127 * 127);
        let s7 = Scheme::for_product_bound(SchemeKind::Smlal8, 63 * 63);
        assert_eq!(s7.ratio(), 8);
        let s8 = Scheme::for_product_bound(SchemeKind::Smlal8, 127 * 127);
        assert_eq!(s8.ratio(), 2);
    }

    #[test]
    fn ratio_one_degenerate_drain() {
        // A drain after every single MAC is still a valid scheme: any bound in
        // (32767/2, 32767] resolves to ratio == 1.
        for bound in [16384, 20_000, i16::MAX as i32] {
            let s = Scheme::try_for_product_bound(SchemeKind::Smlal8, bound).unwrap();
            assert_eq!(s.ratio(), 1, "bound {bound}");
        }
        // Same degeneracy at the MLA level: bound in (63, 127].
        let s = Scheme::try_for_product_bound(SchemeKind::Mla, 127).unwrap();
        assert_eq!(s.ratio(), 1);
        assert_eq!(s.ratio2(), 258); // 32767 / 127
    }

    #[test]
    fn product_bound_at_i16_max_edge() {
        // 32767 is the last representable-safe bound; 32768 must be a checked
        // error, not a silently clamped ratio of 1 (the old `.max(1)` bug).
        assert!(Scheme::try_for_product_bound(SchemeKind::Smlal8, i16::MAX as i32).is_ok());
        let err =
            Scheme::try_for_product_bound(SchemeKind::Smlal8, i16::MAX as i32 + 1).unwrap_err();
        assert_eq!(
            err,
            SchemeError::ProductExceedsIntermediate { max_product: 32768, limit: 32767 }
        );
        assert!(err.to_string().contains("SMLAL scheme requires |a*b| <= 32767"));
    }

    #[test]
    fn winograd_bound_near_i16_max() {
        // The generalised formula at the edge of usefulness: an inflated
        // operand pair like |U| <= 181, |V| <= 181 gives 32761, just under
        // i16::MAX -> ratio 1 and still provable.
        let s = Scheme::try_for_product_bound(SchemeKind::Smlal8, 181 * 181).unwrap();
        assert_eq!(s.ratio(), 1);
        // One notch wider and the scheme is unsatisfiable.
        assert!(Scheme::try_for_product_bound(SchemeKind::Smlal8, 182 * 181).is_err());
    }

    #[test]
    fn non_positive_bounds_are_checked_errors() {
        for kind in [SchemeKind::Smlal8, SchemeKind::Mla] {
            for bad in [0, -1, i32::MIN] {
                assert_eq!(
                    Scheme::try_for_product_bound(kind, bad),
                    Err(SchemeError::NonPositiveBound { max_product: bad })
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "SMLAL scheme requires")]
    fn smlal_panics_not_clamps_on_oversized_bound() {
        let _ = Scheme::for_product_bound(SchemeKind::Smlal8, 40_000);
    }

    #[test]
    fn unchecked_ratio_overrides_for_negative_testing() {
        let s = Scheme::for_bits(BitWidth::W8).with_ratio_unchecked(3);
        assert_eq!(s.ratio(), 3);
        let s = Scheme::for_bits(BitWidth::W2).with_ratio2_unchecked(300);
        assert_eq!(s.ratio2(), 300);
    }

    #[test]
    fn paper_unroll_factors() {
        assert_eq!(Scheme::for_bits(BitWidth::W4).unroll(), 32);
        assert_eq!(Scheme::for_bits(BitWidth::W8).unroll(), 2);
    }

    #[test]
    fn lane_throughput_ordering() {
        // MLA moves 2x the lanes of SMLAL, which moves 2x the baseline.
        assert_eq!(Scheme::for_bits(BitWidth::W2).lanes_per_mac_inst(), 16);
        assert_eq!(Scheme::for_bits(BitWidth::W5).lanes_per_mac_inst(), 8);
        assert_eq!(Scheme::ncnn16().lanes_per_mac_inst(), 4);
    }
}
