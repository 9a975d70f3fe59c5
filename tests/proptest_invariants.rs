//! Property-based tests of the DESIGN.md invariants, driven through the
//! public API over randomized shapes, bit widths and data.

use lowbit::prelude::*;
use lowbit::qgemm::{gemm, pack_a, pack_b, Scheme};
use lowbit::qnn::{Quantizer, RequantParams};
use lowbit::ArmAlgo;
use proptest::prelude::*;

/// Strategy for a small but structurally diverse convolution shape.
fn conv_shape() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=2,  // batch
        1usize..=6,  // c_in
        4usize..=9,  // h
        4usize..=9,  // w
        1usize..=6,  // c_out
        prop_oneof![Just(1usize), Just(3usize)],
        1usize..=2,  // stride
        0usize..=1,  // pad
    )
        .prop_filter_map("kernel must fit", |(b, ci, h, w, co, k, s, p)| {
            let shape = ConvShape { batch: b, c_in: ci, h, w, c_out: co, kh: k, kw: k, stride: s, pad: p };
            (h + 2 * p >= k && w + 2 * p >= k).then_some(shape)
        })
}

/// The column-major `m x n` matrix `c_cm` (`c_cm[j * m + i]`) in row-major
/// order, to compare with the reference product.
fn row_major(c_cm: &[i32], m: usize, n: usize) -> Vec<i32> {
    (0..m * n).map(|idx| c_cm[(idx % n) * m + idx / n]).collect()
}

fn any_bits() -> impl Strategy<Value = BitWidth> {
    (2u8..=8).prop_map(|b| BitWidth::new(b).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Invariant 1: the optimized GEMM conv path equals direct convolution
    /// for every shape and bit width.
    #[test]
    fn gemm_conv_equals_direct(shape in conv_shape(), bits in any_bits(), seed in 0u64..1000) {
        let (input, weights) = lowbit_suite::arm_tensors(&shape, bits, seed);
        let engine = ArmEngine::cortex_a53();
        let out = engine.conv(&input, &weights, &shape, ArmAlgo::Gemm);
        let oracle = lowbit::conv_arm::direct_conv(&input, &weights, &shape);
        prop_assert_eq!(out.acc.data(), oracle.data());
    }

    /// Invariant 3 (half): Winograd is bit-exact at <= 4 bit.
    #[test]
    fn winograd_exact_at_low_bits(
        c in 1usize..=5,
        co in 1usize..=5,
        hw in 6usize..=10,
        bits in 2u8..=4,
        seed in 0u64..1000,
    ) {
        let bits = BitWidth::new(bits).unwrap();
        let shape = ConvShape::new(1, c, hw, hw, co, 3, 1, 1);
        let (input, weights) = lowbit_suite::arm_tensors(&shape, bits, seed);
        let engine = ArmEngine::cortex_a53();
        let out = engine.conv(&input, &weights, &shape, ArmAlgo::Winograd);
        let oracle = lowbit::conv_arm::direct_conv(&input, &weights, &shape);
        prop_assert_eq!(out.acc.data(), oracle.data());
    }

    /// Invariant 4: pad+pack round-trips the logical matrix, and padded
    /// GEMM results equal plain i32 matrix multiplication.
    #[test]
    fn packing_preserves_gemm_results(
        m in 1usize..=20,
        k in 1usize..=24,
        n in 1usize..=12,
        bits in any_bits(),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        // Round trip.
        let pa = pack_a(&a, m, k);
        let pb = pack_b(&b, k, n);
        for r in 0..m {
            for c in 0..k {
                prop_assert_eq!(pa.get(r, c), a[r * k + c]);
            }
        }
        for r in 0..k {
            for c in 0..n {
                prop_assert_eq!(pb.get(r, c), b[r * n + c]);
            }
        }
        // GEMM equivalence.
        let got = gemm(&Scheme::for_bits(bits), &a, &b, m, k, n);
        let want = lowbit::qgemm::gemm::reference_gemm(&a, &b, m, k, n);
        prop_assert_eq!(got.c, want);
    }

    /// Invariant 2 (safety direction): with operands in the declared range,
    /// the drain ratios guarantee the i16 partial never exceeds its bound at
    /// the moment of draining — checked indirectly: the full GEMM result is
    /// exact even with adversarial all-extreme operands.
    #[test]
    fn extreme_operands_never_overflow(bits in any_bits(), k in 1usize..=600) {
        let (m, n) = (16, 4);
        let a = vec![bits.qmin(); m * k];
        let b = vec![bits.qmin(); k * n]; // qmin*qmin is the worst product
        let got = gemm(&Scheme::for_bits(bits), &a, &b, m, k, n);
        let expected = (bits.qmin() as i32) * (bits.qmin() as i32) * k as i32;
        prop_assert!(got.c.iter().all(|&v| v == expected));
    }

    /// GPU invariant: the implicit-GEMM Tensor Core path equals direct
    /// convolution at both supported precisions.
    #[test]
    fn gpu_conv_equals_direct(shape in conv_shape(), four_bit in any::<bool>(), seed in 0u64..1000) {
        let bits = if four_bit { BitWidth::W4 } else { BitWidth::W8 };
        let (input, weights) = lowbit_suite::gpu_tensors(&shape, bits, seed);
        let gpu = GpuEngine::rtx2080ti();
        let out = gpu.conv(&input, &weights, &shape, Tuning::Default);
        // Oracle via the ARM direct conv on the NCHW copies.
        let (i_nchw, w_nchw) = lowbit_suite::arm_tensors(&shape, bits, seed);
        let oracle = lowbit::conv_arm::direct_conv(&i_nchw, &w_nchw, &shape);
        let (n, c, h, w) = oracle.dims();
        for bn in 0..n {
            for cc in 0..c {
                for hh in 0..h {
                    for ww in 0..w {
                        prop_assert_eq!(
                            out.acc.get((bn, cc, hh, ww)),
                            oracle.get((bn, cc, hh, ww))
                        );
                    }
                }
            }
        }
    }

    /// Quantizer round trip stays within half a step; requantize+ReLU
    /// equals requantize-then-ReLU for arbitrary accumulators.
    #[test]
    fn quantization_properties(
        vals in proptest::collection::vec(-1000f32..1000f32, 1..64),
        accs in proptest::collection::vec(-1_000_000i32..1_000_000, 1..64),
        mult in 0.0001f32..0.1,
        bits in any_bits(),
    ) {
        let q = Quantizer::calibrate(bits, &vals);
        for &v in &vals {
            let err = (q.dequantize(q.quantize(v)) - v).abs();
            prop_assert!(err <= q.scale / 2.0 + 1e-3);
        }
        let p = RequantParams::new(bits, mult);
        let pr = p.with_relu();
        for &acc in &accs {
            prop_assert_eq!(pr.apply(acc), p.apply(acc).max(0));
        }
    }

    /// Every *valid* tiling configuration computes the exact convolution —
    /// tile sizes are a pure performance choice (invariant 5, second half).
    #[test]
    fn any_valid_tile_config_computes_exactly(
        shape in conv_shape(),
        idx in any::<prop::sample::Index>(),
        four_bit in any::<bool>(),
        seed in 0u64..500,
    ) {
        use lowbit::conv_gpu::{search_space, ConvGpuPlan};
        let bits = if four_bit { BitWidth::W4 } else { BitWidth::W8 };
        let precision = GpuEngine::precision_for(bits).unwrap();
        let small: Vec<_> = search_space(precision)
            .into_iter()
            .filter(|c| c.m_tile <= 64 && c.n_tile <= 64 && c.k_tile <= 64)
            .collect();
        let cfg = small[idx.index(small.len())];
        let (input, weights) = lowbit_suite::gpu_tensors(&shape, bits, seed);
        let plan = ConvGpuPlan::new(shape, cfg, precision);
        let (got, _) = plan.execute(&input, &weights);
        let (i_nchw, w_nchw) = lowbit_suite::arm_tensors(&shape, bits, seed);
        let oracle = lowbit::conv_arm::direct_conv(&i_nchw, &w_nchw, &shape);
        let (n, c, h, w) = oracle.dims();
        for bn in 0..n {
            for cc in 0..c {
                for hh in 0..h {
                    for ww in 0..w {
                        prop_assert_eq!(
                            got.get((bn, cc, hh, ww)),
                            oracle.get((bn, cc, hh, ww)),
                            "cfg {:?}", cfg
                        );
                    }
                }
            }
        }
    }

    /// Parallel-engine invariant: the scoped-thread, cache-blocked GEMM
    /// driver is bit-exact versus plain i32 matrix multiplication for every
    /// shape, bit width, thread count and block geometry, on the wide tile,
    /// the SDOT tile (whose K blocks may start and end inside a quad) and
    /// the narrow tile under the ncnn baseline's drain-free scheme.
    #[test]
    fn parallel_gemm_is_bit_exact(
        m in 1usize..=40,
        k in 1usize..=80,
        n in 1usize..=40,
        bits in any_bits(),
        threads in 1usize..=4,
        kc in 1usize..=96,
        nc_tiles in 1usize..=4,
        seed in 0u64..1000,
    ) {
        use lowbit::qgemm::gemm::reference_gemm;
        use lowbit::qgemm::narrow::pack_a_narrow;
        use lowbit::qgemm::parallel::gemm_parallel_cm;
        use lowbit::qgemm::sdot::pack_a_quads;
        use lowbit::qgemm::{GemmWorkspace, ParallelConfig, SharedWeights, NB};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
        let scheme = Scheme::for_bits(bits);
        let cfg = ParallelConfig { threads, kc, nc: nc_tiles * NB };
        let (pa, pq, pn) = (pack_a(&a, m, k), pack_a_quads(&a, m, k), pack_a_narrow(&a, m, k));
        let want = reference_gemm(&a, &b, m, k, n);
        let mut ws = GemmWorkspace::new();
        let tiles = [
            ("wide", scheme, SharedWeights::Wide(&pa)),
            ("sdot", scheme, SharedWeights::Quads(&pq)),
            ("narrow ncnn", Scheme::ncnn16(), SharedWeights::Narrow(&pn)),
        ];
        for (tile, scheme, weights) in tiles {
            let c_cm = gemm_parallel_cm(&scheme, weights, &b, k, n, &cfg, &mut ws);
            prop_assert_eq!(row_major(c_cm, m, n), want.clone(), "{} tile", tile);
        }
    }

    /// Parallel-engine invariant: reusing one workspace arena across calls
    /// of varying shapes never changes results (stale capacity is invisible).
    #[test]
    fn workspace_reuse_is_bit_exact(
        shapes in proptest::collection::vec(
            (1usize..=24, 1usize..=48, 1usize..=24), 1..5),
        bits in any_bits(),
        threads in 1usize..=4,
        seed in 0u64..1000,
    ) {
        use lowbit::qgemm::gemm::reference_gemm;
        use lowbit::qgemm::parallel::gemm_parallel_cm;
        use lowbit::qgemm::{GemmWorkspace, ParallelConfig, SharedWeights};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scheme = Scheme::for_bits(bits);
        let cfg = ParallelConfig::with_threads(threads);
        let mut ws = GemmWorkspace::new();
        for (m, k, n) in shapes {
            let a: Vec<i8> =
                (0..m * k).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
            let b: Vec<i8> =
                (0..k * n).map(|_| rng.gen_range(bits.qmin()..=bits.qmax())).collect();
            let pa = pack_a(&a, m, k);
            let c_cm =
                gemm_parallel_cm(&scheme, SharedWeights::Wide(&pa), &b, k, n, &cfg, &mut ws);
            prop_assert_eq!(row_major(c_cm, m, n), reference_gemm(&a, &b, m, k, n));
        }
    }

    /// Auto-search dominance (invariant 5) over random shapes.
    #[test]
    fn auto_search_dominates_default(shape in conv_shape(), four_bit in any::<bool>()) {
        let bits = if four_bit { BitWidth::W4 } else { BitWidth::W8 };
        let gpu = GpuEngine::rtx2080ti();
        let tuned = gpu.estimate(&shape, bits, Tuning::AutoSearch);
        let default = gpu.estimate(&shape, bits, Tuning::Default);
        prop_assert!(tuned.total_s <= default.total_s + 1e-12);
    }
}
