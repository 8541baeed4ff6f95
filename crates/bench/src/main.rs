//! `cbv-bench <name>` — regenerates one experiment's table. The names
//! are the ones in EXPERIMENTS.md's section headers; with no name or an
//! unknown one, the list goes to stderr and the exit code is 2.

use std::process::ExitCode;

use cbv_bench::*;

/// Every experiment, keyed by the name its EXPERIMENTS.md header gives.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("e1_table1", e01_waterfall::print),
    ("e2_fig1", e02_hierarchy::print),
    ("e3_fig2", e03_flow::print),
    ("e4_fig3", e04_noise::print),
    ("e5_fig4", e05_timing::print),
    ("e6_fig5", e06_rcgrid::print),
    ("e7_throughput", e07_throughput::print),
    ("e8_equiv", e08_equiv::print),
    ("e9_standby", e09_leakage::print),
    ("e10_roc", e10_pessimism::print),
    ("e11_sizing", e11_sizing::print),
    ("e12_matrix", e12_coverage::print),
    ("e13_scaling", e13_parallel::print),
    ("e14_eco", e14_eco::print),
    ("e15_trace", e15_trace::print),
    ("e16_mutation", e16_mutation::print),
    ("e17_serve", e17_serve::print),
    ("e18_compile", e18_compile::print),
    ("e19_farm", e19_farm::print),
    ("e22_repair", e22_repair::print),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let found = match args.as_slice() {
        [name] => EXPERIMENTS.iter().find(|(key, _)| key == name),
        _ => None,
    };
    match found {
        Some((_, print)) => {
            print();
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("usage: cbv-bench <experiment>, one of:");
            for (name, _) in EXPERIMENTS {
                eprintln!("  {name}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::EXPERIMENTS;

    #[test]
    fn experiments_md_headers_name_exactly_the_dispatch_table() {
        let documented: BTreeSet<&str> = include_str!("../../../EXPERIMENTS.md")
            .lines()
            .filter(|line| line.starts_with("## E"))
            .filter_map(|line| line.strip_suffix("`)"))
            .filter_map(|line| line.rsplit_once("(`").map(|(_, name)| name))
            .collect();
        let dispatched: BTreeSet<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(documented, dispatched);
    }
}
