//! `lowbit-verify`: sweep the standard kernel catalog, the parallel
//! partition geometry, the GPU tile-configuration space and the whole-plan
//! verifier, printing one line per proof.
//!
//! * no flags — the ARM sweep: abstract interpretation of every emitted
//!   NEON stream plus the parallel-GEMM partition geometry.
//! * `--gpu` — the GPU sweep: prove every tile configuration the tuner can
//!   emit, at both Tensor Core precisions, over the demo and ResNet-50
//!   shapes (tiling geometry, bank conflicts + negative witness, staging
//!   hazards, launch resources).
//! * `--gpu --check <golden>` — regenerate the demo-network proof report
//!   and diff it against the golden file (CI's drift gate). With
//!   `--report`, print the report instead (for regenerating the golden).
//! * `--plan` — the whole-plan sweep: compile the demo and ResNet-50
//!   bottleneck networks at every supported bit width (plus heterogeneous
//!   ARM+GPU plans at the Tensor Core widths), prove each end to end
//!   (numeric ranges, layout dataflow, workspace certification), audit the
//!   network fingerprint for cache-key soundness, and reject every seeded
//!   plan mutant in the negative catalog with its expected typed witness.
//! * `--plan --report` / `--plan --check <golden>` — the demo plan's proof
//!   certificate as a golden-file report.
//! * `--conc` — the concurrency sweep: compile the demo and every DAG block
//!   with the parallel node scheduler at every supported bit width, prove
//!   each certified schedule (disjoint footprints for every node pair that
//!   may run concurrently, disjoint arena spans under wave-coarsened
//!   liveness, partition geometry, reachability-respecting waves, intact
//!   digest), and reject every seeded schedule mutant with its expected
//!   typed witness.
//! * `--conc --report` / `--conc --check <golden>` — the demo plan's
//!   concurrency certificate as a golden-file report.
//! * `--json` (with `--plan` or `--conc`) — machine-readable output for CI
//!   consumption.
//!
//! Exit codes: 0 every proof succeeded, 1 something failed to prove (or a
//! mutant escaped), 2 usage error.

use lowbit_verify::gpu::{gpu_demo_report, gpu_sweep_layers, precision_label};
use lowbit_verify::{
    schedule_digest, standard_cases, verify_case, verify_conc, verify_gpu_plan, verify_plan,
    ChannelSums, ConcProof, ConcSpec, ConcViolation, PlanProof, PlanSpec, PlanViolation,
    ScheduleSpec,
};

use lowbit::prelude::*;
use lowbit_conv_gpu::{search_space_stats, ConvGpuPlan};
use turing_sim::{Device, Precision};

fn arm_sweep() -> usize {
    let cases = standard_cases();
    let mut failures = 0usize;
    println!("{:<34} {:>6} {:>6} {:>6} {:>9} {:>9}", "stream", "insts", "macs", "drains", "peak i16", "headroom");
    for case in &cases {
        match verify_case(case) {
            Ok(proof) => {
                println!(
                    "{:<34} {:>6} {:>6} {:>6} {:>9} {:>8.1}%",
                    proof.name,
                    proof.insts,
                    proof.macs,
                    proof.drains,
                    proof.peak_i16,
                    proof.tightest_headroom() * 100.0
                );
            }
            Err(v) => {
                failures += 1;
                println!("{:<34} FAIL: {v}", case.stream.name);
            }
        }
    }

    // Partition geometry: prove the per-thread column spans partition the
    // output for a sweep of shapes and thread counts.
    let mut geo = 0usize;
    for n in 1..=256 {
        for threads in 1..=32 {
            if let Err(v) = lowbit_verify::check_partition(n, threads) {
                eprintln!("partition n={n} threads={threads}: {v}");
                failures += 1;
            }
            geo += 1;
        }
    }

    println!();
    println!(
        "{} streams, {} partitions checked, {} failure(s)",
        cases.len(),
        geo,
        failures
    );
    failures
}

fn gpu_sweep() -> usize {
    let device = Device::rtx2080ti();
    let layers = gpu_sweep_layers();
    let mut failures = 0usize;
    let mut proofs = 0usize;
    for precision in [Precision::TensorCoreInt8, Precision::TensorCoreInt4] {
        let (space, stats) = search_space_stats(precision);
        println!("{} search space: {stats}", precision_label(precision));
        for layer in &layers {
            let mut worst_witness = u64::MAX;
            let mut layer_failures = 0usize;
            for cfg in &space {
                let plan = match ConvGpuPlan::try_new(layer.shape, *cfg, precision) {
                    Ok(p) => p,
                    Err(r) => {
                        eprintln!(
                            "{} {} {cfg:?}: space emitted an invalid config: {r}",
                            layer.name,
                            precision_label(precision)
                        );
                        layer_failures += 1;
                        continue;
                    }
                };
                match verify_gpu_plan(&plan, &device) {
                    Ok(proof) => {
                        proofs += 1;
                        worst_witness = worst_witness.min(proof.witness_degree);
                    }
                    Err(v) => {
                        eprintln!(
                            "{} {} {cfg:?}: {v}",
                            layer.name,
                            precision_label(precision)
                        );
                        layer_failures += 1;
                    }
                }
            }
            let (m, n, k) = {
                let s = &layer.shape;
                (s.gemm_n(), s.gemm_m(), s.gemm_k())
            };
            println!(
                "  {:<7} gemm {:>5}x{:>4}x{:>5} {}: {} configs proven, witness >= x{}, {} failure(s)",
                layer.name,
                m,
                n,
                k,
                precision_label(precision),
                space.len() - layer_failures,
                worst_witness,
                layer_failures
            );
            failures += layer_failures;
        }
    }
    println!();
    println!(
        "{} GPU plans proven over {} shapes x 2 precisions, {} failure(s)",
        proofs,
        layers.len(),
        failures
    );
    failures
}

fn diff_golden(report: &str, golden_path: &str, regen_hint: &str) -> usize {
    let golden = match std::fs::read_to_string(golden_path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot read golden file {golden_path}: {e}");
            return 1;
        }
    };
    if report == golden {
        println!(
            "report matches {golden_path} ({} lines)",
            report.lines().count()
        );
        return 0;
    }
    eprintln!("report drifted from {golden_path}:");
    for (i, (got, want)) in report.lines().zip(golden.lines()).enumerate() {
        if got != want {
            eprintln!("  line {}:", i + 1);
            eprintln!("    golden: {want}");
            eprintln!("    got:    {got}");
        }
    }
    let (got_n, want_n) = (report.lines().count(), golden.lines().count());
    if got_n != want_n {
        eprintln!("  line counts differ: golden {want_n}, got {got_n}");
    }
    eprintln!("regenerate with: {regen_hint} > {golden_path}");
    1
}

fn gpu_check(golden_path: &str) -> usize {
    match gpu_demo_report(&Device::rtx2080ti()) {
        Ok(r) => diff_golden(&r, golden_path, "lowbit-verify --gpu --report"),
        Err(e) => {
            eprintln!("demo report failed to prove: {e}");
            1
        }
    }
}

/// The canonical label of a plan-violation variant — what the negative
/// catalog matches mutant rejections against.
fn witness_label(v: &PlanViolation) -> &'static str {
    match v {
        PlanViolation::ShapeBreak { .. } => "ShapeBreak",
        PlanViolation::LayoutMismatch { .. } => "LayoutMismatch",
        PlanViolation::AccOverflow { .. } => "AccOverflow",
        PlanViolation::OperandRangeBreak { .. } => "OperandRangeBreak",
        PlanViolation::RequantWidthBreak { .. } => "RequantWidthBreak",
        PlanViolation::ClampRangeBreak { .. } => "ClampRangeBreak",
        PlanViolation::EpilogueBiasBreak { .. } => "EpilogueBiasBreak",
        PlanViolation::ChannelSumsBreak { .. } => "ChannelSumsBreak",
        PlanViolation::WorkspaceUnderstated { .. } => "WorkspaceUnderstated",
        PlanViolation::HighWaterUnderstated { .. } => "HighWaterUnderstated",
        PlanViolation::FingerprintBlind { .. } => "FingerprintBlind",
        PlanViolation::GraphStructureBroken { .. } => "GraphStructureBroken",
        PlanViolation::ActivationOverlap { .. } => "ActivationOverlap",
        PlanViolation::ActivationHighWaterUnderstated { .. } => "ActivationHighWaterUnderstated",
    }
}

/// The demo plan's proof certificate — the `--plan --report`/`--check`
/// golden content (deterministic: intervals and workspace figures only, no
/// modeled timings).
fn plan_golden_proof() -> Result<PlanProof, CoreError> {
    let net = Network::demo(BitWidth::W4, 12, 9);
    let plan = Planner::for_arm(&ArmEngine::cortex_a53()).compile(&net)?;
    lowbit::verify::verify_compiled(&plan, &net)
}

/// One row of the `--plan` sweep (also the `--json` record).
struct SweepRow {
    net: &'static str,
    bits: BitWidth,
    backends: &'static str,
    layers: usize,
    headroom: f64,
    high_water: usize,
    proven: bool,
}

/// One entry of the seeded negative catalog.
struct Mutant {
    name: &'static str,
    expected: &'static str,
    spec: PlanSpec,
}

/// Seeds the negative catalog from a proven demo plan spec: every mutant is
/// one targeted corruption that must be rejected with its expected witness.
fn mutant_catalog(base: &PlanSpec) -> Vec<Mutant> {
    let mut out = Vec::new();
    let mut push = |name, expected, f: &dyn Fn(&mut PlanSpec)| {
        let mut spec = base.clone();
        f(&mut spec);
        out.push(Mutant { name, expected, spec });
    };
    push("shape-break", "ShapeBreak", &|s| s.layers[1].plan.shape.c_in += 1);
    // The demo's first activation kept NHWC between its ARM layers, which
    // write and read NCHW.
    push("nhwc-value-into-arm", "LayoutMismatch", &|s| s.values[1].layout = Layout::Nhwc);
    push("acc-overflow", "AccOverflow", &|s| {
        s.layers[0].channel_sums[0] = ChannelSums { neg: 0, pos: i32::MAX as i64 };
    });
    // A plan claiming Winograd at 7 bit: the 4x input transform escapes i8
    // (the value table is widened consistently so the numeric pass, not the
    // table-consistency check, is what rejects it).
    push("winograd-at-w7", "OperandRangeBreak", &|s| {
        for l in &mut s.layers {
            l.plan.bits = BitWidth::W7;
            l.plan.epilogue.requant.bits = BitWidth::W7;
        }
        for v in &mut s.values {
            v.bits = BitWidth::W7;
        }
        s.layers[0].plan.algo = PlanAlgo::Arm(ArmAlgo::Winograd);
    });
    // A producer re-quantizing into a width its consumer's proofs never
    // assumed (again with the value record kept consistent, so the edge
    // check fires).
    push("requant-width-skew", "RequantWidthBreak", &|s| {
        s.layers[0].plan.epilogue.requant.bits = BitWidth::W6;
        s.values[1].bits = BitWidth::W6;
    });
    // The issue's "corrupted requant shift": a truncation clamp outside the
    // declared output width. Seeded on the last layer — its ReLU-free
    // epilogue applies clamp_min as-is.
    push("corrupted-requant-clamp", "ClampRangeBreak", &|s| {
        let last = s.layers.len() - 1;
        s.layers[last].plan.epilogue.requant.clamp_min = -100;
    });
    push("bias-length-break", "EpilogueBiasBreak", &|s| {
        s.layers[0].plan.epilogue.bias = Some(vec![1; s.layers[0].plan.shape.c_out + 1]);
    });
    push("channel-sums-break", "ChannelSumsBreak", &|s| {
        s.layers[0].channel_sums.pop();
    });
    push("understated-workspace", "WorkspaceUnderstated", &|s| {
        s.layers[0].plan.workspace_bytes /= 2;
    });
    push("understated-high-water", "HighWaterUnderstated", &|s| {
        s.declared_high_water_bytes -= 1;
    });
    // Graph-level mutants: the DAG passes behind the activation memory
    // planner must reject a lying arena declaration, an overlapping
    // placement, and a live range shorter than the dataflow proves.
    push("understated-activation", "ActivationHighWaterUnderstated", &|s| {
        s.declared_activation_high_water_bytes -= 1;
    });
    push("overlapping-activations", "ActivationOverlap", &|s| {
        s.values[1].offset = s.values[0].offset;
    });
    push("broken-live-range", "GraphStructureBroken", &|s| {
        s.values[1].last_use = 0;
    });
    out
}

/// The canonical label of a concurrency-violation variant — what the
/// schedule mutant catalog matches rejections against.
fn conc_witness_label(v: &ConcViolation) -> &'static str {
    match v {
        ConcViolation::ArenaInterference { .. } => "ArenaInterference",
        ConcViolation::WorkspaceAliasing { .. } => "WorkspaceAliasing",
        ConcViolation::FootprintEscape { .. } => "FootprintEscape",
        ConcViolation::PartitionOverlap { .. } => "PartitionOverlap",
        ConcViolation::ReachabilityError { .. } => "ReachabilityError",
        ConcViolation::CertificateForged { .. } => "CertificateForged",
        ConcViolation::ScheduleBroken { .. } => "ScheduleBroken",
    }
}

/// Compiles one network with the parallel node scheduler and lowers it to
/// the concurrency spec + schedule pair the verifier consumes.
fn conc_lowered(net: &Network) -> Result<(ConcSpec, ScheduleSpec), String> {
    let plan = Planner::for_arm(&ArmEngine::cortex_a53())
        .with_parallel_nodes(true)
        .compile(net)
        .map_err(|e| e.to_string())?;
    lowbit::verify::lower_conc(&plan).ok_or_else(|| "plan carries no parallel schedule".into())
}

/// The demo plan's concurrency certificate — the `--conc --report`/`--check`
/// golden content (deterministic: wave structure, footprint bounds and the
/// schedule digest only, no modeled timings).
fn conc_golden_proof() -> Result<ConcProof, String> {
    let net = Network::demo(BitWidth::W4, 12, 9);
    let (spec, sched) = conc_lowered(&net)?;
    verify_conc(&spec, &sched).map_err(|v| v.to_string())
}

/// One entry of the seeded schedule-mutant catalog.
struct ConcMutant {
    name: &'static str,
    expected: &'static str,
    spec: ConcSpec,
    sched: ScheduleSpec,
}

/// Seeds the concurrency negative catalog: each mutant is one targeted
/// corruption of a certified spec/schedule pair that must be rejected with
/// its expected typed witness.
///
/// `chain` is a certified serial-shaped plan (the demo network) — the
/// shifted-arena mutant needs a chain because a chain's producer/consumer
/// values are co-live under *every* schedule, so the wave-liveness pass is
/// what has to catch the overlap. `dag` is a certified wide plan (the
/// ResNet-50 projection block) whose genuinely incomparable nodes exercise
/// the concurrent-disjointness and reachability obligations.
fn conc_mutant_catalog(
    chain: &(ConcSpec, ScheduleSpec),
    dag: &(ConcSpec, ScheduleSpec),
) -> Vec<ConcMutant> {
    let mut out = Vec::new();
    let mut push = |name,
                    expected,
                    base: &(ConcSpec, ScheduleSpec),
                    f: &dyn Fn(&mut ConcSpec, &mut ScheduleSpec)| {
        let (mut spec, mut sched) = base.clone();
        f(&mut spec, &mut sched);
        out.push(ConcMutant { name, expected, spec, sched });
    };
    // A value placement slid onto its own producer's input: the two are
    // co-live in adjacent waves, so the wave-coarsened liveness pass must
    // reject the overlap (the digest is stale too, but the structural proof
    // fires first — the certificate is the last line of defense, not the
    // first).
    push("shifted-arena-offset", "ArenaInterference", chain, &|spec, _| {
        spec.values[2].offset = spec.values[1].offset;
    });
    // A GEMM partition whose first span swallows its neighbour's columns.
    push("overlapping-partition", "PartitionOverlap", chain, &|spec, _| {
        let g = spec
            .nodes
            .iter_mut()
            .find(|n| n.partition.len() > 1 && n.partition[1].cols > 0)
            .expect("chain base has a multi-span gemm node");
        g.partition[0].cols += g.partition[1].cols;
    });
    // A conv node declaring a workspace slice smaller than its packing
    // footprint arithmetic requires.
    push("understated-workspace-slice", "FootprintEscape", chain, &|spec, _| {
        let g = spec
            .nodes
            .iter_mut()
            .find(|n| n.gemm.is_some() && n.workspace.bytes > 0)
            .expect("chain base has a gemm node with workspace");
        g.workspace.bytes = 1;
    });
    // Two may-run-concurrently convs whose workspace slices collide: the
    // smaller slice is slid onto the larger one so the mutation cannot
    // escape the workspace arena and be caught by the (earlier) footprint
    // pass instead.
    push("aliased-concurrent-slices", "WorkspaceAliasing", dag, &|spec, _| {
        let a = spec.nodes.iter().position(|n| n.node.name.contains("reduce")).expect("reduce");
        let b = spec.nodes.iter().position(|n| n.node.name.contains("project")).expect("project");
        let (small, large) = if spec.nodes[a].workspace.bytes <= spec.nodes[b].workspace.bytes {
            (a, b)
        } else {
            (b, a)
        };
        spec.nodes[small].workspace.offset = spec.nodes[large].workspace.offset;
    });
    // A certificate that does not match the schedule it claims to prove.
    push("forged-certificate", "CertificateForged", dag, &|_, sched| {
        sched.certificate ^= 1;
    });
    // A dependent node hoisted into its producer's wave — with the digest
    // recomputed over the broken schedule, so the reachability proof (not
    // the hash) is what rejects it.
    push("reachability-error", "ReachabilityError", dag, &|spec, sched| {
        let hoisted = sched.waves[1].remove(0);
        sched.waves[0].push(hoisted);
        sched.waves.retain(|w| !w.is_empty());
        sched.certificate = schedule_digest(spec, &sched.waves);
    });
    out
}

/// One row of the `--conc` sweep (also the `--json` record).
struct ConcRow {
    net: &'static str,
    bits: BitWidth,
    nodes: usize,
    waves: usize,
    width: usize,
    certified: bool,
}

/// A named network constructor for the `--conc` sweep catalog.
type ConcNet = (&'static str, fn(BitWidth) -> Network);

fn conc_sweep(json: bool) -> usize {
    let mut failures = 0usize;
    let mut rows: Vec<ConcRow> = Vec::new();

    let nets: [ConcNet; 4] = [
        ("demo", |bits| Network::demo(bits, 12, 9)),
        ("resnet50-residual-block", |bits| {
            Network::from_graph_defs(&lowbit::models::resnet50_residual_block(8), bits, 9)
                .expect("block defs are valid")
        }),
        ("densenet121-dense-block", |bits| {
            Network::from_graph_defs(&lowbit::models::densenet121_dense_block(8), bits, 9)
                .expect("block defs are valid")
        }),
        ("resnet50-projection-block", |bits| {
            Network::from_graph_defs(&lowbit::models::resnet50_projection_block(8), bits, 9)
                .expect("block defs are valid")
        }),
    ];
    for bits in BitWidth::ALL {
        for (name, mk) in &nets {
            let net = mk(bits);
            let verdict =
                conc_lowered(&net).and_then(|(spec, sched)| {
                    verify_conc(&spec, &sched).map_err(|v| v.to_string())
                });
            match verdict {
                Ok(proof) => rows.push(ConcRow {
                    net: name,
                    bits,
                    nodes: proof.nodes,
                    waves: proof.waves.len(),
                    width: proof.max_wave_width,
                    certified: true,
                }),
                Err(e) => {
                    failures += 1;
                    eprintln!("{name} {bits}: {e}");
                    rows.push(ConcRow {
                        net: name,
                        bits,
                        nodes: 0,
                        waves: 0,
                        width: 0,
                        certified: false,
                    });
                }
            }
        }
    }

    // The schedule-mutant catalog, seeded from one certified chain and one
    // certified wide DAG.
    let chain = conc_lowered(&Network::demo(BitWidth::W4, 12, 9));
    let dag = conc_lowered(
        &Network::from_graph_defs(
            &lowbit::models::resnet50_projection_block(8),
            BitWidth::W4,
            9,
        )
        .expect("block defs are valid"),
    );
    let mut mutant_rows: Vec<(&'static str, &'static str, String, bool)> = Vec::new();
    match (&chain, &dag) {
        (Ok(chain), Ok(dag)) => {
            for m in &conc_mutant_catalog(chain, dag) {
                let (got, ok) = match verify_conc(&m.spec, &m.sched) {
                    Err(v) => {
                        let label = conc_witness_label(&v);
                        (label.to_string(), label == m.expected)
                    }
                    Ok(_) => ("certified".to_string(), false),
                };
                if !ok {
                    failures += 1;
                    eprintln!("conc mutant {}: expected {}, got {got}", m.name, m.expected);
                }
                mutant_rows.push((m.name, m.expected, got, ok));
            }
        }
        _ => {
            failures += 1;
            eprintln!("mutant bases failed to certify; catalog skipped");
        }
    }

    if json {
        let plan_items: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"net\":\"{}\",\"bits\":{},\"nodes\":{},\"waves\":{},\
\"max_wave_width\":{},\"certified\":{}}}",
                    r.net, r.bits.bits(), r.nodes, r.waves, r.width, r.certified
                )
            })
            .collect();
        let mutant_items: Vec<String> = mutant_rows
            .iter()
            .map(|(name, expected, got, ok)| {
                format!(
                    "    {{\"name\":\"{name}\",\"expected\":\"{expected}\",\
\"got\":\"{got}\",\"rejected_as_expected\":{ok}}}"
                )
            })
            .collect();
        println!(
            "{{\n  \"schedules\": [\n{}\n  ],\n  \"mutants\": [\n{}\n  ],\n  \
\"failures\":{}\n}}",
            plan_items.join(",\n"),
            mutant_items.join(",\n"),
            failures
        );
        return failures;
    }

    println!(
        "{:<26} {:>4} {:>6} {:>6} {:>6} {:>10}",
        "plan", "bits", "nodes", "waves", "width", "status"
    );
    for r in &rows {
        println!(
            "{:<26} {:>4} {:>6} {:>6} {:>6} {:>10}",
            r.net,
            r.bits.to_string(),
            r.nodes,
            r.waves,
            r.width,
            if r.certified { "certified" } else { "FAIL" }
        );
    }
    println!();
    for (name, expected, got, ok) in &mutant_rows {
        let status =
            if *ok { "ok".to_string() } else { format!("FAIL (expected {expected})") };
        println!("mutant  {:<28} rejected as {:<24} {}", name, got, status);
    }
    println!();
    println!(
        "{} schedules certified, {} mutants rejected, {} failure(s)",
        rows.iter().filter(|r| r.certified).count(),
        mutant_rows.iter().filter(|(.., ok)| *ok).count(),
        failures
    );
    failures
}

fn plan_sweep(json: bool) -> usize {
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    let mut failures = 0usize;
    let mut rows: Vec<SweepRow> = Vec::new();
    // One row per compiled plan; a rejected plan is a failure, reported on
    // stderr and recorded as an unproven row.
    let mut record = |net, bits, backends, verdict: Result<PlanProof, CoreError>| {
        let (layers, headroom, high_water, proven) = match verdict {
            Ok(p) => (p.layers.len(), p.tightest_headroom(), p.certified_high_water, true),
            Err(e) => {
                failures += 1;
                eprintln!("{net} {bits} {backends}: {e}");
                (0, 0.0, 0, false)
            }
        };
        rows.push(SweepRow { net, bits, backends, layers, headroom, high_water, proven });
    };

    let nets: [(&'static str, Vec<lowbit::models::LayerDef>); 2] = [
        ("demo", lowbit::models::demo(12)),
        ("resnet50-bottleneck", lowbit::models::resnet50_bottleneck()),
    ];
    // ARM-only plans at every supported width.
    for bits in BitWidth::ALL {
        for (name, defs) in &nets {
            let net = Network::from_layer_defs(defs, bits, 9).expect("defs chain");
            let verdict = Planner::for_arm(&arm)
                .compile(&net)
                .and_then(|plan| lowbit::verify::verify_compiled(&plan, &net));
            record(name, bits, "arm", verdict);
        }
    }
    // Heterogeneous ARM+GPU plans at the Tensor Core widths.
    for bits in [BitWidth::W4, BitWidth::W8] {
        for (name, defs) in &nets {
            let net = Network::from_layer_defs(defs, bits, 9).expect("defs chain");
            let verdict = Planner::new()
                .with_arm(&arm)
                .with_gpu(&gpu, Tuning::Default)
                .compile(&net)
                .and_then(|plan| lowbit::verify::verify_compiled(&plan, &net));
            record(name, bits, "arm+gpu", verdict);
        }
    }

    // DAG-shaped plans: the residual and dense blocks compile through the
    // graph fusion passes and must prove end to end (including the
    // activation-arena disjointness certificate) at every supported width.
    let graphs: [(&'static str, lowbit::models::GraphDef); 2] = [
        ("resnet50-residual-block", lowbit::models::resnet50_residual_block(8)),
        ("densenet121-dense-block", lowbit::models::densenet121_dense_block(8)),
    ];
    for bits in BitWidth::ALL {
        for (name, def) in &graphs {
            let net = Network::from_graph_defs(def, bits, 9).expect("block defs are valid");
            let verdict = Planner::for_arm(&arm)
                .compile(&net)
                .and_then(|plan| lowbit::verify::verify_compiled(&plan, &net));
            record(name, bits, "arm", verdict);
        }
    }

    // Cache-key soundness: the fingerprint audit over both model classes,
    // plus a deliberately blind hash that must be caught, and the topology
    // audit proving the fingerprint covers the graph structure itself.
    let mut audits: Vec<(String, bool)> = Vec::new();
    for (name, defs) in &nets {
        let net = Network::from_layer_defs(defs, BitWidth::W4, 9).expect("defs chain");
        let ok = lowbit::verify::fingerprint_audit(&net).is_ok();
        if !ok {
            failures += 1;
            eprintln!("{name}: fingerprint audit failed");
        }
        audits.push((format!("{name}-fingerprint"), ok));
    }
    for (name, def) in &graphs {
        let net = Network::from_graph_defs(def, BitWidth::W4, 9).expect("block defs are valid");
        let ok = lowbit::verify::topology_audit(&net).is_ok();
        if !ok {
            failures += 1;
            eprintln!("{name}: topology audit failed");
        }
        audits.push((format!("{name}-topology"), ok));
    }
    {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let blind = |layers: &[NetLayer]| {
            let mut ls = layers.to_vec();
            for l in &mut ls {
                l.requant.clamp_min = 0;
            }
            lowbit::verify::fingerprint_layers(&ls)
        };
        let caught = matches!(
            lowbit::verify::fingerprint_audit_with(&net, blind),
            Err(PlanViolation::FingerprintBlind { ref field }) if field == "requant.clamp_min"
        );
        if !caught {
            failures += 1;
            eprintln!("fingerprint-invisible epilogue edit escaped the audit");
        }
        audits.push(("blind-hash-caught".into(), caught));
    }

    // The negative catalog: seeded plan mutants, each rejected with its
    // expected typed witness.
    let base = {
        let net = Network::demo(BitWidth::W4, 12, 9);
        let plan = Planner::for_arm(&arm).compile(&net).expect("demo compiles");
        lowbit::verify::lower_plan(&plan, &net).expect("plan belongs to its network")
    };
    let mutants = mutant_catalog(&base);
    let mut mutant_rows: Vec<(&'static str, &'static str, String, bool)> = Vec::new();
    for m in &mutants {
        let (got, ok) = match verify_plan(&m.spec) {
            Err(v) => {
                let label = witness_label(&v);
                (label.to_string(), label == m.expected)
            }
            Ok(_) => ("proven".to_string(), false),
        };
        if !ok {
            failures += 1;
            eprintln!("mutant {}: expected {}, got {got}", m.name, m.expected);
        }
        mutant_rows.push((m.name, m.expected, got, ok));
    }

    if json {
        let plan_items: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"net\":\"{}\",\"bits\":{},\"backends\":\"{}\",\"layers\":{},\
\"tightest_headroom\":{:.6},\"certified_high_water\":{},\"proven\":{}}}",
                    r.net, r.bits.bits(), r.backends, r.layers, r.headroom, r.high_water, r.proven
                )
            })
            .collect();
        let audit_items: Vec<String> = audits
            .iter()
            .map(|(name, ok)| format!("    {{\"name\":\"{name}\",\"ok\":{ok}}}"))
            .collect();
        let mutant_items: Vec<String> = mutant_rows
            .iter()
            .map(|(name, expected, got, ok)| {
                format!(
                    "    {{\"name\":\"{name}\",\"expected\":\"{expected}\",\
\"got\":\"{got}\",\"rejected_as_expected\":{ok}}}"
                )
            })
            .collect();
        println!(
            "{{\n  \"plans\": [\n{}\n  ],\n  \"audits\": [\n{}\n  ],\n  \
\"mutants\": [\n{}\n  ],\n  \"failures\":{}\n}}",
            plan_items.join(",\n"),
            audit_items.join(",\n"),
            mutant_items.join(",\n"),
            failures
        );
        return failures;
    }

    println!(
        "{:<20} {:>4} {:>8} {:>6} {:>9} {:>11} {:>7}",
        "plan", "bits", "backends", "layers", "headroom", "high-water", "status"
    );
    for r in &rows {
        println!(
            "{:<20} {:>4} {:>8} {:>6} {:>8.1}% {:>11} {:>7}",
            r.net,
            r.bits.to_string(),
            r.backends,
            r.layers,
            r.headroom * 100.0,
            r.high_water,
            if r.proven { "proven" } else { "FAIL" }
        );
    }
    println!();
    for (name, ok) in &audits {
        println!("audit   {:<32} {}", name, if *ok { "ok" } else { "FAIL" });
    }
    println!();
    for (name, expected, got, ok) in &mutant_rows {
        let status =
            if *ok { "ok".to_string() } else { format!("FAIL (expected {expected})") };
        println!("mutant  {:<26} rejected as {:<22} {}", name, got, status);
    }
    println!();
    println!(
        "{} plans proven, {} audits, {} mutants rejected, {} failure(s)",
        rows.iter().filter(|r| r.proven).count(),
        audits.len(),
        mutant_rows.iter().filter(|(.., ok)| *ok).count(),
        failures
    );
    failures
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: lowbit-verify [--gpu | --plan | --conc] [--report | --check <golden>] [--json]\n\
         \n\
         (no flags)              ARM stream + partition sweep\n\
         --gpu                   GPU tile-configuration sweep\n\
         --gpu --report          demo GPU proof report (golden format)\n\
         --gpu --check <golden>  diff the GPU report against a golden file\n\
         --plan                  whole-plan sweep + fingerprint audits + mutant catalog\n\
         --plan --report         demo plan proof report (golden format)\n\
         --plan --check <golden> diff the plan report against a golden file\n\
         --conc                  parallel-schedule sweep + schedule-mutant catalog\n\
         --conc --report         demo concurrency certificate (golden format)\n\
         --conc --check <golden> diff the concurrency report against a golden file\n\
         --plan/--conc [--report] --json  machine-readable output\n\
         \n\
         exit codes: 0 proven, 1 rejected, 2 usage error"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = ["--gpu", "--plan", "--conc", "--report", "--check", "--json"];
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if !known.contains(&args[i].as_str()) {
            usage(&format!("unknown argument {}", args[i]));
        }
        if args[i] == "--check" {
            match args.get(i + 1) {
                Some(p) if !p.starts_with("--") => {
                    check_path = Some(p.clone());
                    i += 1;
                }
                _ => usage("--check requires a golden file path"),
            }
        }
        i += 1;
    }
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if [has("--gpu"), has("--plan"), has("--conc")].iter().filter(|&&f| f).count() > 1 {
        usage("--gpu, --plan and --conc are mutually exclusive");
    }
    if has("--json") && !has("--plan") && !has("--conc") {
        usage("--json requires --plan or --conc");
    }
    let failures = if has("--gpu") {
        if let Some(path) = &check_path {
            gpu_check(path)
        } else if has("--report") {
            match gpu_demo_report(&Device::rtx2080ti()) {
                Ok(r) => {
                    print!("{r}");
                    0
                }
                Err(e) => {
                    eprintln!("demo report failed to prove: {e}");
                    1
                }
            }
        } else {
            gpu_sweep()
        }
    } else if has("--plan") {
        if let Some(path) = &check_path {
            match plan_golden_proof() {
                Ok(proof) => {
                    diff_golden(&proof.report(), path, "lowbit-verify --plan --report")
                }
                Err(e) => {
                    eprintln!("demo plan failed to prove: {e}");
                    1
                }
            }
        } else if has("--report") {
            match plan_golden_proof() {
                Ok(proof) => {
                    if has("--json") {
                        print!("{}", proof.to_json());
                    } else {
                        print!("{}", proof.report());
                    }
                    0
                }
                Err(e) => {
                    eprintln!("demo plan failed to prove: {e}");
                    1
                }
            }
        } else {
            plan_sweep(has("--json"))
        }
    } else if has("--conc") {
        if let Some(path) = &check_path {
            match conc_golden_proof() {
                Ok(proof) => {
                    diff_golden(&proof.report(), path, "lowbit-verify --conc --report")
                }
                Err(e) => {
                    eprintln!("demo schedule failed to certify: {e}");
                    1
                }
            }
        } else if has("--report") {
            match conc_golden_proof() {
                Ok(proof) => {
                    if has("--json") {
                        print!("{}", proof.to_json());
                    } else {
                        print!("{}", proof.report());
                    }
                    0
                }
                Err(e) => {
                    eprintln!("demo schedule failed to certify: {e}");
                    1
                }
            }
        } else {
            conc_sweep(has("--json"))
        }
    } else {
        if check_path.is_some() || has("--report") {
            usage("--report/--check require --gpu, --plan or --conc");
        }
        arm_sweep()
    };
    if failures > 0 {
        std::process::exit(1);
    }
}
