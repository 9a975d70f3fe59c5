//! The one-shot GEMM entry point and its analytic schedule (paper Fig. 1(b)
//! + Fig. 2 pipeline).
//!
//! Pipeline stages, mirrored in the analytic [`KernelSchedule`]:
//! 1. pack A (weights) — amortizable across calls, but charged here as the
//!    paper does for its per-layer measurements,
//! 2. pack B (the im2col matrix),
//! 3. the register-tiled inner loop over all `(M/16) x (N/4)` tiles.
//!
//! [`gemm`] packs A and runs the one tiled driver every caller shares,
//! [`crate::parallel::gemm_parallel_cm`], at one thread; so does the ncnn
//! baseline ([`gemm_ncnn`]), on the narrow tile under its own scheme.

use crate::micro::tile_counts;
use crate::narrow::{pack_a_narrow, NA8};
use crate::pack::{pack_a, NA, NB};
use crate::parallel::{gemm_row_major_on, SharedWeights};
use crate::scheme::{Scheme, SchemeKind};
use lowbit_isa::Isa;
use neon_sim::{InstCounts, KernelSchedule, StageCost};

/// Result of a GEMM call: the `M x N` i32 matrix plus the analytic schedule.
#[derive(Clone, Debug)]
pub struct GemmOutput {
    /// Logical rows.
    pub m: usize,
    /// Logical columns.
    pub n: usize,
    /// Row-major `m x n` accumulator matrix.
    pub c: Vec<i32>,
    /// Analytic cost schedule for the whole call.
    pub schedule: KernelSchedule,
}

/// Computes `C = A x B` with the re-designed low-bit GEMM.
///
/// `a` is row-major `m x k`, `b` is row-major `k x n`; both must already be
/// within the scheme's value range (checked by debug assertions via the
/// overflow-free drain invariant, and by property tests).
///
/// ```
/// use lowbit_qgemm::{gemm, Scheme};
/// use lowbit_tensor::BitWidth;
///
/// // [1 2] x [5 6]   [19 22]
/// // [3 4]   [7 8] = [43 50]
/// let out = gemm(&Scheme::for_bits(BitWidth::W4), &[1, 2, 3, 4], &[5, 6, 7, 8], 2, 2, 2);
/// assert_eq!(out.c, vec![19, 22, 43, 50]);
/// ```
pub fn gemm(scheme: &Scheme, a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> GemmOutput {
    let pa = pack_a(a, m, k);
    let c = gemm_row_major_on(Isa::host(), scheme, SharedWeights::Wide(&pa), b, n);
    GemmOutput { m, n, c, schedule: schedule_gemm(scheme, m, k, n) }
}

/// Computes `C = A x B` with the ncnn-like 16-bit baseline: the narrow 8x4
/// tile under [`Scheme::ncnn16`], packed and run like [`gemm`].
pub fn gemm_ncnn(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> GemmOutput {
    let (scheme, pa) = (Scheme::ncnn16(), pack_a_narrow(a, m, k));
    let c = gemm_row_major_on(Isa::host(), &scheme, SharedWeights::Narrow(&pa), b, n);
    GemmOutput { m, n, c, schedule: schedule_gemm(&scheme, m, k, n) }
}

/// Analytic schedule for a full GEMM of the given logical dimensions,
/// including both packing stages (paper Fig. 2) and the tiled inner loop.
/// Under [`Scheme::ncnn16`] it prices ncnn's own 8-row panels pre-widened to
/// i16, which the host kernel does not build: it widens in registers.
pub fn schedule_gemm(scheme: &Scheme, m: usize, k: usize, n: usize) -> KernelSchedule {
    let (na, elem) = match scheme.kind() {
        SchemeKind::Ncnn16 => (NA8, 2u64), // ncnn packs widened i16
        _ => (NA, 1u64),
    };
    let m_pad = m.div_ceil(na) * na;
    let n_pad = n.div_ceil(NB) * NB;
    let tiles = (m_pad / na) as u64 * (n_pad / NB) as u64;

    let mut sched = KernelSchedule::new();
    sched.push(StageCost::bulk_move(
        "pack A",
        (m * k) as u64,
        m_pad as u64 * k as u64 * elem,
    ));
    sched.push(StageCost::bulk_move(
        "pack B",
        (k * n) as u64,
        k as u64 * n_pad as u64 * elem,
    ));
    let mut counts = InstCounts::default();
    counts.add_scaled(&tile_counts(scheme, k), tiles);
    sched.push(StageCost::compute("gemm", counts));
    sched
}

/// Inner-loop utilization summary for the redesign ablation (Eq. 1–4).
///
/// Following the paper's definitions, `CAL` counts multiply-accumulate SIMD
/// instructions (`β2·M·N·K/θ1` in Eq. 2/4) and `LD` counts loads
/// (`β1·M·N·K/θ1` vs `β1·M·N·K/(θ2·θ1)` in Eq. 1/3); drain/reduction
/// instructions are reported separately as `overhead`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LoadArithmeticProfile {
    /// Load instructions in the inner loop (`LD`).
    pub loads: u64,
    /// Multiply-accumulate instructions in the inner loop (`CAL`).
    pub macs: u64,
    /// Drain/reduction/move instructions (the `δ`-like terms).
    pub overhead: u64,
}

impl LoadArithmeticProfile {
    /// Extracts the inner-loop profile from a schedule.
    pub fn of(schedule: &KernelSchedule) -> LoadArithmeticProfile {
        let gemm: InstCounts = schedule
            .stages
            .iter()
            .filter(|s| s.name == "gemm")
            .fold(InstCounts::default(), |mut acc, s| {
                acc.add_scaled(&s.counts, 1);
                acc
            });
        LoadArithmeticProfile {
            loads: gemm.loads,
            macs: gemm.neon_mac,
            overhead: gemm.neon_alu + gemm.neon_mov,
        }
    }

    /// The `CAL / LD` ratio of Sec. 3.2.
    pub fn cal_per_ld(&self) -> f64 {
        self.macs as f64 / self.loads as f64
    }
}

/// Plain i32 reference GEMM used as the correctness oracle throughout the
/// workspace.
pub fn reference_gemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk] as i32;
            if av == 0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv as i32;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowbit_tensor::BitWidth;
    use neon_sim::CortexA53;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(len: usize, bits: BitWidth, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(bits.qmin() as i32..=bits.qmax() as i32) as i8)
            .collect()
    }

    #[test]
    fn gemm_matches_reference_for_all_bit_widths() {
        for bits in BitWidth::ALL {
            let scheme = Scheme::for_bits(bits);
            let (m, k, n) = (33, 45, 13); // awkward, non-multiple dims
            let a = random_mat(m * k, bits, 21);
            let b = random_mat(k * n, bits, 22);
            let out = gemm(&scheme, &a, &b, m, k, n);
            assert_eq!(out.c, reference_gemm(&a, &b, m, k, n), "{bits}");
        }
    }

    #[test]
    fn ncnn_gemm_matches_reference() {
        let bits = BitWidth::W8;
        let (m, k, n) = (17, 40, 11);
        let a = random_mat(m * k, bits, 31);
        let b = random_mat(k * n, bits, 32);
        let out = gemm_ncnn(&a, &b, m, k, n);
        assert_eq!(out.c, reference_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn lower_bits_model_faster_inner_loops() {
        // The core claim of Fig. 7: at fixed shape, modeled GEMM time
        // decreases monotonically from 8-bit down to 2-bit.
        let model = CortexA53::cost_model();
        let (m, k, n) = (64, 576, 3136);
        let mut last = f64::INFINITY;
        for bits in BitWidth::ALL.iter().rev() {
            let sched = schedule_gemm(&Scheme::for_bits(*bits), m, k, n);
            let cycles = sched.stage_cycles("gemm", &model);
            assert!(
                cycles <= last,
                "{bits} inner loop should not be slower than the next width up"
            );
            last = cycles;
        }
    }

    #[test]
    fn eight_bit_redesign_is_not_faster_than_ncnn_inner_loop() {
        // Paper Sec. 5.2: at 8-bit the drain overhead eats the advantage.
        let model = CortexA53::cost_model();
        let (m, k, n) = (64, 576, 3136);
        let ours = schedule_gemm(&Scheme::for_bits(BitWidth::W8), m, k, n)
            .stage_cycles("gemm", &model);
        let ncnn = schedule_gemm(&Scheme::ncnn16(), m, k, n).stage_cycles("gemm", &model);
        assert!(ours >= 0.9 * ncnn, "8-bit should be roughly at parity");
        assert!(ours <= 1.3 * ncnn);
    }

    #[test]
    fn cal_per_ld_is_about_four_times_traditional() {
        // Eq. 3/4: at equal per-instruction lane width (the MLA scheme also
        // moves θ1 = 16 lanes), the redesigned GEMM performs exactly 4x the
        // MACs per load (θ2 = 4, the LD4R replication factor).
        let (m, k, n) = (64, 128, 256); // granule multiples: no pad distortion
        let ours =
            LoadArithmeticProfile::of(&schedule_gemm(&Scheme::for_bits(BitWidth::W2), m, k, n));
        let trad = LoadArithmeticProfile::of(&crate::traditional::schedule_traditional(m, k, n));
        let gain = ours.cal_per_ld() / trad.cal_per_ld();
        assert!(
            (3.9..=4.1).contains(&gain),
            "CAL/LD gain should be ~4x, got {gain}"
        );
        // The SMLAL scheme halves the lanes per MAC (8 vs 16), doubling CAL:
        // its CAL/LD gain is 8x.
        let smlal =
            LoadArithmeticProfile::of(&schedule_gemm(&Scheme::for_bits(BitWidth::W4), m, k, n));
        let gain = smlal.cal_per_ld() / trad.cal_per_ld();
        assert!((7.9..=8.1).contains(&gain), "SMLAL CAL/LD gain {gain}");
    }

    #[test]
    fn schedule_mac_count_matches_padded_volume() {
        let (m, k, n) = (30, 50, 70);
        let scheme = Scheme::for_bits(BitWidth::W4);
        let sched = schedule_gemm(&scheme, m, k, n);
        let counts = sched.total_counts();
        let m_pad = 32u64;
        let n_pad = 72u64;
        // 8 SMLAL per k-step per 16x4 tile -> one MAC instruction per 8 MACs.
        let macs = m_pad * n_pad * k as u64;
        assert_eq!(counts.neon_mac, macs / 8);
    }
}
