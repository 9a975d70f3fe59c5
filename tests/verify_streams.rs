//! Static verification sweep: `lowbit-verify` must prove every emitted
//! kernel stream safe — and must reject deliberately broken variants.
//!
//! The positive half runs the full standard catalog (all bit widths 2–8,
//! SMLAL and MLA schemes, Winograd-inflated operand ranges, the SDOT and
//! ncnn baselines, whole multi-tile GEMMs). The negative half re-emits
//! kernels with an unsound drain ratio (`ratio + 1`), a clobbered live
//! accumulator and an overlapping thread partition, and checks each is
//! rejected with the right violation.

use lowbit_qgemm::{ColumnSpan, Scheme, TileKind};
use lowbit_tensor::BitWidth;
use lowbit_verify::{
    check_spans, standard_cases, verify_case, verify_stream, OperandBounds, Violation,
};
use neon_sim::inst::Inst;
use neon_sim::meta::ElemWidth;

#[test]
fn every_standard_stream_is_proven_safe() {
    let cases = standard_cases();
    assert!(cases.len() >= 70, "catalog shrank to {} cases", cases.len());
    for case in &cases {
        let proof = verify_case(case)
            .unwrap_or_else(|v| panic!("{}: {v}", case.stream.name));
        assert!(proof.macs > 0, "{}: no MACs analyzed", proof.name);
    }
}

#[test]
fn paper_ratios_sit_at_the_saturation_edge() {
    // Fig. 3's ratios are maximal: at ratio r the i16 peak must land within
    // one worst-case product of 32767 (otherwise a larger ratio would fit).
    for bits in BitWidth::ALL {
        if bits.uses_mla_scheme() {
            continue;
        }
        let scheme = Scheme::for_bits(bits);
        let stream = TileKind::Wide.stream(&scheme, scheme.ratio());
        let proof = verify_stream(&stream, &OperandBounds::for_bits(bits)).unwrap();
        let product = bits.max_abs_product() as i64;
        assert!(
            proof.peak_i16 + product > i16::MAX as i64,
            "{}-bit ratio {} is not tight: peak {} + product {product}",
            bits.bits(),
            scheme.ratio(),
            proof.peak_i16
        );
    }
}

#[test]
fn ratio_plus_one_overflows_at_every_bit_width() {
    // The central negative test: bump each published drain ratio by one and
    // the verifier must find the i16 (or i8, for MLA) wrap that Fig. 3 says
    // is there.
    for bits in BitWidth::ALL {
        let scheme = Scheme::for_bits(bits);
        let broken = scheme.with_ratio_unchecked(scheme.ratio() + 1);
        // One unsound drain group is enough to wrap the intermediate.
        let stream = TileKind::Wide.stream(&broken, broken.ratio());
        let expect = if bits.uses_mla_scheme() { ElemWidth::B } else { ElemWidth::H };
        match verify_stream(&stream, &OperandBounds::for_bits(bits)) {
            Err(Violation::SaturationOverflow { width, .. }) => assert_eq!(
                width,
                expect,
                "{}-bit overflow reported at the wrong width",
                bits.bits()
            ),
            other => panic!(
                "{}-bit ratio {} must be rejected, got {other:?}",
                bits.bits(),
                broken.ratio()
            ),
        }
    }
}

#[test]
fn mla_second_level_ratio_plus_one_overflows_i16() {
    // The MLA scheme's second drain level (i16 -> i32) has its own ratio;
    // exceeding it must be caught even though every i8 group is safe.
    for bits in [BitWidth::W2, BitWidth::W3] {
        let scheme = Scheme::for_bits(bits);
        let broken = scheme.with_ratio2_unchecked(scheme.ratio2() + 1);
        let k = broken.ratio() * (broken.ratio2() + 1);
        let stream = TileKind::Wide.stream(&broken, k);
        match verify_stream(&stream, &OperandBounds::for_bits(bits)) {
            Err(Violation::SaturationOverflow { width: ElemWidth::H, .. }) => {}
            other => panic!("{}-bit ratio2 bump must wrap i16, got {other:?}", bits.bits()),
        }
    }
}

#[test]
fn winograd_inflated_ranges_break_the_direct_ratio() {
    // Feeding Winograd-domain operand ranges (Sec. 3.4) into a kernel
    // scheduled for the *natural* 4-bit ranges must fail: the inflated
    // products overrun the direct scheme's drain ratio.
    let direct = Scheme::for_bits(BitWidth::W4);
    let stream = TileKind::Narrow.stream(&direct, direct.ratio());
    match verify_stream(&stream, &OperandBounds::winograd(BitWidth::W4)) {
        Err(Violation::SaturationOverflow { width: ElemWidth::H, .. }) => {}
        other => panic!("inflated ranges must be rejected, got {other:?}"),
    }
}

#[test]
fn clobbered_accumulator_is_rejected() {
    // Destroy a live i32 accumulator with a load before its store: the lint
    // pass must name the clobbered register and the producing instruction.
    let scheme = Scheme::for_bits(BitWidth::W8);
    let mut stream = TileKind::Narrow.stream(&scheme, 2);
    let store_at = stream
        .prog
        .iter()
        .position(|i| matches!(i, Inst::St1 { .. }))
        .expect("stream has stores");
    let Inst::St1 { vt, .. } = stream.prog[store_at] else { unreachable!() };
    stream.prog.insert(store_at, Inst::Ld1 { vt, addr: stream.a.span.start });
    match verify_stream(&stream, &OperandBounds::for_bits(BitWidth::W8)) {
        Err(Violation::Clobbered { reg, .. }) => assert_eq!(reg, format!("v{vt}")),
        other => panic!("clobber must be rejected, got {other:?}"),
    }
}

#[test]
fn dropped_drain_is_rejected_as_unconsumed() {
    // Truncate the stream before its stores: the computed accumulators are
    // never consumed, which the lint pass must flag as dead work.
    let scheme = Scheme::for_bits(BitWidth::W8);
    let mut stream = TileKind::Narrow.stream(&scheme, 2);
    let first_store = stream
        .prog
        .iter()
        .position(|i| matches!(i, Inst::St1 { .. }))
        .unwrap();
    stream.prog.truncate(first_store);
    match verify_stream(&stream, &OperandBounds::for_bits(BitWidth::W8)) {
        Err(Violation::Unconsumed { .. }) => {}
        other => panic!("dropped stores must be rejected, got {other:?}"),
    }
}

#[test]
fn uninitialized_accumulator_is_rejected() {
    // Drop the prologue's accumulator zeroing: the first MAC then reads an
    // undefined register.
    let scheme = Scheme::for_bits(BitWidth::W4);
    let mut stream = TileKind::Wide.stream(&scheme, 1);
    let zero_at = stream
        .prog
        .iter()
        .position(|i| matches!(i, Inst::MoviZero { vd } if *vd >= 18))
        .expect("prologue zeroes the i32 accumulators");
    stream.prog.remove(zero_at);
    match verify_stream(&stream, &OperandBounds::for_bits(BitWidth::W4)) {
        Err(Violation::UninitRead { .. }) => {}
        other => panic!("missing prologue zero must be rejected, got {other:?}"),
    }
}

#[test]
fn overlapping_and_gappy_partitions_are_rejected() {
    let overlap = [
        ColumnSpan { col0: 0, cols: 8 },
        ColumnSpan { col0: 4, cols: 8 },
    ];
    assert!(matches!(
        check_spans(&overlap, 12),
        Err(Violation::GeometryOverlap { .. })
    ));
    let gap = [
        ColumnSpan { col0: 0, cols: 4 },
        ColumnSpan { col0: 8, cols: 4 },
    ];
    assert!(matches!(check_spans(&gap, 12), Err(Violation::GeometryGap { .. })));
}
