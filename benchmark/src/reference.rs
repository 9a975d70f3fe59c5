//! The independent reference every measured output is checked against.
//!
//! It recomputes a network from the definition of each step and shares no
//! code with the executor or the fast kernels: the plain nested-loop
//! `direct_conv`, `Quantizer::calibrate` + `quantize_f32` for the input,
//! each layer's `Epilogue::effective_requant` + `requantize`, and this
//! file's own bias, add, concat and dequantize loops.

use lowbit::conv_arm::direct_conv;
use lowbit::prelude::*;
use lowbit::qnn::{quantize_f32, requantize, Quantizer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The network's float output on `input`, computed by the reference path.
pub fn reference_output(net: &Network, input: &Tensor<f32>) -> Tensor<f32> {
    let topo = net.topology();
    let q_in = Quantizer::calibrate(topo.values[topo.input].bits, input.data());
    let mut values: Vec<Option<(QTensor, f32)>> = vec![None; topo.values.len()];
    values[topo.input] = Some((quantize_f32(input, &q_in), q_in.scale));
    for node in &topo.nodes {
        let operand = |v: usize| {
            values[v]
                .as_ref()
                .expect("topological order defines inputs first")
        };
        let out = match node.op {
            NodeOp::Conv { layer } => {
                let l = &net.layers()[layer];
                let (act, scale) = operand(node.inputs[0]);
                let mut acc = direct_conv(act, &l.weights, &l.shape);
                if let Some(bias) = &l.bias {
                    add_bias(&mut acc, bias);
                }
                let rq = Epilogue {
                    bias: l.bias.clone(),
                    requant: l.requant,
                    relu: l.relu,
                }
                .effective_requant();
                (
                    requantize(&acc, &rq),
                    scale * l.weights.scale() / rq.multiplier,
                )
            }
            NodeOp::Add => {
                let (a, scale) = operand(node.inputs[0]);
                (saturating_add(a, &operand(node.inputs[1]).0), *scale)
            }
            NodeOp::Concat => {
                let parts: Vec<&QTensor> = node.inputs.iter().map(|&v| &operand(v).0).collect();
                (concat_channels(&parts), operand(node.inputs[0]).1)
            }
        };
        values[node.output] = Some(out);
    }
    let (q, scale) = values[topo.output]
        .take()
        .expect("the output value is defined");
    let data = q.data().iter().map(|&v| v as f32 * scale).collect();
    Tensor::from_vec(q.dims(), Layout::Nchw, data)
}

/// Adds `bias[c]` to every accumulator of output channel `c` (NCHW).
fn add_bias(acc: &mut Tensor<i32>, bias: &[i32]) {
    let (_, c, h, w) = acc.dims();
    let plane = h * w;
    for (i, v) in acc.data_mut().iter_mut().enumerate() {
        *v += bias[(i / plane) % c];
    }
}

/// Elementwise add clamped into the left operand's range (the residual join).
fn saturating_add(a: &QTensor, b: &QTensor) -> QTensor {
    let bits = a.bits();
    let (lo, hi) = (bits.qmin() as i32, bits.qmax() as i32);
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x as i32 + y as i32).clamp(lo, hi) as i8)
        .collect();
    QTensor::new(Tensor::from_vec(a.dims(), Layout::Nchw, data), bits, 1.0)
}

/// Channel concatenation of NCHW tensors.
fn concat_channels(parts: &[&QTensor]) -> QTensor {
    let (n, _, h, w) = parts[0].dims();
    let channels: usize = parts.iter().map(|p| p.dims().1).sum();
    let mut data = Vec::with_capacity(n * channels * h * w);
    for b in 0..n {
        for p in parts {
            let per_image = p.dims().1 * h * w;
            data.extend_from_slice(&p.data()[b * per_image..(b + 1) * per_image]);
        }
    }
    QTensor::new(
        Tensor::from_vec((n, channels, h, w), Layout::Nchw, data),
        parts[0].bits(),
        1.0,
    )
}

/// Maps `f` over `items` on `threads` scoped threads, preserving order. The
/// reference dominates a run's unmeasured time, and its items are
/// independent.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("a reference worker panicked")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("a reference worker panicked")
        .into_iter()
        .map(|r| r.expect("every item was mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{float_input, seeded_bias};

    fn check(net: &Network, input: &Tensor<f32>, what: &str) {
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let plan = Planner::for_arm(&engine).compile(net).unwrap();
        let run = Executor::for_arm(&engine).run(&plan, net, input).unwrap();
        let reference = reference_output(net, input);
        assert_eq!(run.output.dims(), reference.dims(), "{what}");
        let same = run
            .output
            .data()
            .iter()
            .zip(reference.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what}: executor and reference differ");
    }

    #[test]
    fn reference_equals_the_executor_on_the_demo_net_at_every_width() {
        for bits in BitWidth::ALL {
            let net = Network::demo(bits, 12, 9);
            check(
                &net,
                &float_input((1, 3, 12, 12), 5),
                &format!("demo {bits}"),
            );
        }
    }

    #[test]
    fn reference_equals_the_executor_on_the_blocks_at_w4() {
        let bits = BitWidth::W4;
        for (name, def) in [
            ("residual", lowbit::models::resnet50_residual_block(8)),
            ("dense", lowbit::models::densenet121_dense_block(8)),
            ("projection", lowbit::models::resnet50_projection_block(8)),
        ] {
            let net = Network::from_graph_defs(&def, bits, 3).unwrap();
            let (c, h, w) = def.input;
            check(&net, &float_input((1, c, h, w), 4), name);
        }
        // Batched projection block through the parallel path.
        let def = lowbit::models::resnet50_projection_block(8);
        let net = Network::from_graph_defs(&def, bits, 3)
            .unwrap()
            .with_batch(2)
            .unwrap();
        let engine = ArmEngine::cortex_a53().with_threads(2);
        let plan = Planner::for_arm(&engine)
            .with_parallel_nodes(true)
            .compile(&net)
            .unwrap();
        let input = float_input((2, 256, 8, 8), 6);
        let run = Executor::for_arm(&engine)
            .run_parallel(&plan, &net, &input)
            .unwrap();
        assert_eq!(run.output.data(), reference_output(&net, &input).data());
    }

    #[test]
    fn reference_applies_the_bias_epilogue() {
        let bits = BitWidth::W4;
        let base = Network::demo(bits, 12, 2);
        let layers = base
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| NetLayer {
                bias: Some(seeded_bias(&l.shape, bits, i as u64)),
                ..l.clone()
            })
            .collect();
        let net = Network::sequential(layers).unwrap();
        let input = float_input((1, 3, 12, 12), 1);
        check(&net, &input, "biased demo");
        assert_ne!(
            reference_output(&net, &input).data(),
            reference_output(&base, &input).data()
        );
    }

    #[test]
    fn par_map_keeps_order() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(
            par_map(&items, 3, |x| x * x),
            items.iter().map(|x| x * x).collect::<Vec<_>>()
        );
        assert!(par_map(&Vec::<u64>::new(), 2, |x| *x).is_empty());
    }
}
