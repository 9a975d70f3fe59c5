//! Measured host-clock benchmark of the lowbit stack.
//!
//! Five workloads, each chosen to exercise layers the others bypass (see
//! `README.md` for the reasons and the metric table):
//!
//! - `bottleneck-w4`: the ResNet-50 stage-2 bottleneck chain at W4 with a
//!   bias on every layer (wide GEMM, Winograd, wide GEMM);
//! - `dense-w8`: DenseNet-121's six-step dense block at W8 (narrow GEMM,
//!   concat-heavy executor glue);
//! - `projection-w4-b4-par`: the projection block at batch 4 on the
//!   certified parallel node path;
//! - `serve-mix`: open-loop Poisson traffic through `lowbit-serve`;
//! - `resnet50-layers-w2`: the paper's 19 ResNet-50 shapes at 2 bits.
//!
//! The benchmark calls only public APIs and times them from outside; every
//! output is checked bit for bit against [`reference`].

#![forbid(unsafe_code)]

pub mod harness;
pub mod inputs;
pub mod metric;
pub mod offline;
pub mod reference;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod sys;

use harness::{Options, Outcome};

/// The workloads, in the order a full run measures them.
pub const WORKLOADS: [&str; 5] = [
    "bottleneck-w4",
    "dense-w8",
    "projection-w4-b4-par",
    "serve-mix",
    "resnet50-layers-w2",
];

/// Runs one workload.
pub fn run_workload(name: &str, opts: &Options) -> Result<Outcome, String> {
    match name {
        "bottleneck-w4" => offline::run(&offline::BOTTLENECK, opts),
        "dense-w8" => offline::run(&offline::DENSE, opts),
        "projection-w4-b4-par" => offline::run(&offline::PROJECTION, opts),
        "serve-mix" => serving::run(opts),
        "resnet50-layers-w2" => sweep::run(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_match_their_modules() {
        assert_eq!(offline::BOTTLENECK.name, WORKLOADS[0]);
        assert_eq!(offline::DENSE.name, WORKLOADS[1]);
        assert_eq!(offline::PROJECTION.name, WORKLOADS[2]);
        assert_eq!(serving::NAME, WORKLOADS[3]);
        assert_eq!(sweep::NAME, WORKLOADS[4]);
    }
}
