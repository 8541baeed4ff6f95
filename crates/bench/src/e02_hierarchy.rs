//! E2 — **Fig 1**: RTL vs schematic hierarchy overlap.
//!
//! The designer partitions logic into RTL blocks by *function* (one block
//! per adder bit); the schematic partitions the same transistors into
//! channel-connected components by *electrical* structure. Fig 1's claim
//! is that these boundaries overlap irregularly — measured here as
//! best-match Jaccard and boundary-crossing fraction.

use cbv_core::gen::datapath::alu_slice;
use cbv_core::recognize::recognize;
use cbv_core::tech::Process;
use cbv_core::views::{partition_overlap, OverlapStats};

/// The two comparisons: a strawman where the schematic mirrors the RTL
/// exactly, and the real electrical partition.
pub struct HierarchyResult {
    /// RTL blocks vs themselves (sanity: perfect overlap).
    pub aligned: OverlapStats,
    /// RTL blocks vs electrical CCC clusters (the Fig 1 situation).
    pub electrical: OverlapStats,
}

/// Derives an "RTL block" label for a net from its generated name — the
/// generator names encode the functional block (`xp3_...` = bit 3 xor).
fn rtl_block_of(name: &str) -> u32 {
    // Bit index digits in the name choose the block; shared nets
    // (clocks, rails) go to block 99.
    name.chars()
        .find(|c| c.is_ascii_digit())
        .map(|c| c.to_digit(10).expect("digit"))
        .unwrap_or(99)
}

/// Runs the overlap measurement on an 8-bit ALU slice.
pub fn run() -> HierarchyResult {
    let p = Process::strongarm_035();
    let g = alu_slice(8, &p);
    let netlist = g.netlist;
    let rec = recognize(&netlist);

    // Element universe: every net driven by some CCC.
    let mut rtl_labels = Vec::new();
    let mut sch_labels = Vec::new();
    for (ci, ccc) in rec.cccs.iter().enumerate() {
        for &out in &ccc.outputs {
            rtl_labels.push(rtl_block_of(netlist.net_name(out)));
            sch_labels.push(ci as u32);
        }
    }
    // Cluster CCCs: group several CCCs per "schematic sheet" the way a
    // designer would (every 6 components = one sheet), crossing RTL bits.
    let sheet_labels: Vec<u32> = sch_labels.iter().map(|&c| c / 6).collect();

    HierarchyResult {
        aligned: partition_overlap(&rtl_labels, &rtl_labels),
        electrical: partition_overlap(&rtl_labels, &sheet_labels),
    }
}

/// Prints the Fig 1 quantification.
pub fn print() {
    crate::banner("E2", "Fig 1 — RTL vs schematic hierarchy overlap");
    let r = run();
    println!(
        "{:<28}{:>10}{:>10}{:>16}{:>12}",
        "comparison", "blocks A", "blocks B", "mean jaccard", "crossers"
    );
    for (name, s) in [
        ("rtl vs rtl (control)", &r.aligned),
        ("rtl vs schematic", &r.electrical),
    ] {
        println!(
            "{:<28}{:>10}{:>10}{:>16.3}{:>11.1}%",
            name,
            s.groups_a,
            s.groups_b,
            s.mean_best_jaccard,
            s.crossing_fraction() * 100.0
        );
    }
    println!("\n(the schematic is free to cluster across RTL boundaries — Fig 1's");
    println!(" irregular overlap — and the database never forces correspondence)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn electrical_partition_overlaps_irregularly() {
        let r = run();
        assert_eq!(r.aligned.mean_best_jaccard, 1.0);
        assert!(r.electrical.mean_best_jaccard < 0.9, "must be irregular");
        assert!(r.electrical.crossing_elements > 0);
    }
}
