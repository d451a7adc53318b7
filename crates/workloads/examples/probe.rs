use hwst_compiler::instrument::config_for;
use hwst_compiler::{compile, Scheme};
use hwst_sim::Machine;
use hwst_workloads::{all, Scale};

fn main() {
    let mut logsum = [0f64; 3];
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>9}",
        "workload", "base", "sbcets%", "hwst%", "tchk%"
    );
    for wl in all() {
        let m = wl.module(Scale::Test);
        let cycles: Vec<f64> = Scheme::ALL
            .iter()
            .map(|&s| {
                let p = compile(&m, s).unwrap();
                Machine::new(p, config_for(s))
                    .run(wl.fuel(Scale::Test))
                    .unwrap()
                    .stats
                    .total_cycles() as f64
            })
            .collect();
        let oh: Vec<f64> = (1..4)
            .map(|i| (cycles[i] / cycles[0] - 1.0) * 100.0)
            .collect();
        println!(
            "{:<12} {:>10.0} {:>9.1} {:>9.1} {:>9.1}",
            wl.name, cycles[0], oh[0], oh[1], oh[2]
        );
        for i in 0..3 {
            logsum[i] += (cycles[i + 1] / cycles[0]).ln();
        }
    }
    let n = all().len() as f64;
    println!(
        "{:<12} {:>10} {:>9.1} {:>9.1} {:>9.1}",
        "GEOMEAN",
        "",
        ((logsum[0] / n).exp() - 1.0) * 100.0,
        ((logsum[1] / n).exp() - 1.0) * 100.0,
        ((logsum[2] / n).exp() - 1.0) * 100.0
    );
}
