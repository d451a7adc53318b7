//! Benchmark tour: pick a workload (default `bzip2`, the paper's
//! keybuffer showcase), run it under every scheme and print the full
//! cycle breakdown the pipeline model collects — including keybuffer
//! hit rates and the shadow-memory traffic that metadata compression
//! halves.
//!
//! ```sh
//! cargo run --example benchmark_tour [workload]
//! ```

use hwst128::compiler::Scheme;
use hwst128::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bzip2".into());
    let Some(wl) = Workload::by_name(&name) else {
        eprintln!("unknown workload {name}; available:");
        for w in hwst128::workloads::all() {
            eprintln!("  {:<12} [{}] {}", w.name, w.suite, w.profile);
        }
        std::process::exit(1);
    };
    println!("workload: {} [{}] — {}", wl.name, wl.suite, wl.profile);
    println!();

    let module = wl.module(Scale::Test);
    let mut baseline = 0u64;
    for scheme in Scheme::ALL {
        let exit = hwst128::run_scheme(&module, CompileOptions::new(scheme), wl.fuel(Scale::Test))
            .expect("benchmark runs clean");
        let s = exit.stats;
        if scheme == Scheme::None {
            baseline = s.total_cycles();
        }
        println!("=== {} ===", scheme.label());
        println!("{s}");
        println!(
            "overhead      {:>12.1}%",
            (s.total_cycles() as f64 / baseline as f64 - 1.0) * 100.0
        );
        if s.keybuffer_hits + s.keybuffer_misses > 0 {
            println!(
                "kb hit rate   {:>11.1}%",
                s.keybuffer_hits as f64 / (s.keybuffer_hits + s.keybuffer_misses) as f64 * 100.0
            );
        }
        println!();
    }

    // The speedup sentence the paper leads with (Eq. 8).
    let sb = hwst128::run_scheme(
        &module,
        CompileOptions::new(Scheme::Sbcets),
        wl.fuel(Scale::Test),
    )
    .unwrap()
    .stats
    .total_cycles();
    let hw = hwst128::run_scheme(
        &module,
        CompileOptions::new(Scheme::Hwst128Tchk),
        wl.fuel(Scale::Test),
    )
    .unwrap()
    .stats
    .total_cycles();
    println!(
        "HWST128 is {:.2}x faster than the software-only SBCETS on {}",
        sb as f64 / hw as f64,
        wl.name
    );
}
