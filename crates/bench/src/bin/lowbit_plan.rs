//! `lowbit-plan` — print a network's compiled execution plan.
//!
//! Compiles a network (`--model demo|dense-block|residual-block`) with the
//! cost-driven planner and prints the resulting plan: per-node backend,
//! algorithm, predicted milliseconds, prepack fingerprint, workspace and
//! activation-arena sizing — as an aligned table and as deterministic JSON.
//! `--check` diffs the JSON against a golden file (the CI hook that makes
//! planner regressions visible in review).
//!
//! ```sh
//! cargo run --release -p lowbit-bench --bin lowbit-plan -- --bits 4
//! cargo run --release -p lowbit-bench --bin lowbit-plan -- --json
//! cargo run --release -p lowbit-bench --bin lowbit-plan -- --check tests/golden/plan_demo.json
//! cargo run --release -p lowbit-bench --bin lowbit-plan -- --model dense-block --check tests/golden/plan_dense_block.json
//! cargo run --release -p lowbit-bench --bin lowbit-plan -- --model residual-block --hw 56 --check tests/golden/plan_residual_block.json
//! cargo run --release -p lowbit-bench --bin lowbit-plan -- --backend gpu --check tests/golden/plan_demo_gpu.json
//! ```

use lowbit::prelude::*;

struct Args {
    bits: BitWidth,
    hw: usize,
    seed: u64,
    model: String,
    backend: String,
    json_only: bool,
    check: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lowbit-plan [--bits 2..8] [--hw N] [--seed N] \
         [--model demo|dense-block|residual-block] \
         [--backend arm|gpu|both] [--json] [--check <golden.json>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        bits: BitWidth::W4,
        hw: 12,
        seed: 9,
        model: "demo".to_string(),
        backend: "arm".to_string(),
        json_only: false,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match flag.as_str() {
            "--bits" => {
                let n: u8 = value("--bits").parse().unwrap_or_else(|_| usage());
                out.bits = BitWidth::new(n).unwrap_or_else(|_| usage());
            }
            "--hw" => out.hw = value("--hw").parse().unwrap_or_else(|_| usage()),
            "--seed" => out.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--model" => out.model = value("--model"),
            "--backend" => out.backend = value("--backend"),
            "--json" => out.json_only = true,
            "--check" => out.check = Some(value("--check")),
            _ => usage(),
        }
    }
    out
}

fn main() {
    let args = parse_args();
    let net = match args.model.as_str() {
        "demo" => Network::demo(args.bits, args.hw, args.seed),
        "dense-block" => Network::from_graph_defs(
            &lowbit::models::densenet121_dense_block(args.hw),
            args.bits,
            args.seed,
        )
        .expect("dense-block graph def is valid"),
        "residual-block" => Network::from_graph_defs(
            &lowbit::models::resnet50_residual_block(args.hw),
            args.bits,
            args.seed,
        )
        .expect("residual-block graph def is valid"),
        _ => usage(),
    };
    let arm = ArmEngine::cortex_a53();
    let gpu = GpuEngine::rtx2080ti();
    let planner = match args.backend.as_str() {
        "arm" => Planner::for_arm(&arm),
        "gpu" => Planner::for_gpu(&gpu, Tuning::Default),
        "both" => Planner::for_arm(&arm).with_gpu(&gpu, Tuning::Default),
        _ => usage(),
    };
    let plan = match planner.compile(&net) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("plan compilation failed: {e}");
            std::process::exit(1);
        }
    };
    let json = plan.to_json();

    if let Some(golden_path) = &args.check {
        let golden = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
            eprintln!("cannot read golden file {golden_path}: {e}");
            std::process::exit(2);
        });
        if golden == json {
            println!("plan matches golden file {golden_path}");
            return;
        }
        eprintln!("plan DIVERGES from golden file {golden_path}");
        for (i, (g, n)) in golden.lines().zip(json.lines()).enumerate() {
            if g != n {
                eprintln!("line {}:\n  golden:  {g}\n  current: {n}", i + 1);
            }
        }
        let (gl, nl) = (golden.lines().count(), json.lines().count());
        if gl != nl {
            eprintln!("line counts differ: golden {gl}, current {nl}");
        }
        let Args { model, bits, hw, seed, backend, .. } = &args;
        eprintln!(
            "\nif the change is intended, regenerate with:\n  cargo run --release -p lowbit-bench --bin lowbit-plan -- --model {model} --bits {} --hw {hw} --seed {seed} --backend {backend} --json > {golden_path}",
            bits.bits()
        );
        std::process::exit(1);
    }

    if args.json_only {
        print!("{json}");
        return;
    }
    println!(
        "{} network: {} @ {}x{} (seed {}), backend: {}\n",
        args.model, args.bits, args.hw, args.hw, args.seed, args.backend
    );
    print!("{}", plan.table());
    println!("\n{json}");
}
