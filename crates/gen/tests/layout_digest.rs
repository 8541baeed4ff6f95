//! Pins the layouts `cbv_layout::synthesize` draws for three generated
//! designs: a digest of each layout's `Debug` text, so a change to
//! placement or routing that moves one shape, net or site fails here.
//! Extraction, and every signoff after it, reads these shapes; a
//! routing speed-up must leave them as they are.

use cbv_gen::adders::{manchester_domino_adder, static_ripple_adder};
use cbv_gen::datapath::alu_slice;
use cbv_tech::Process;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn synthesized_layouts_are_pinned() {
    let p = Process::strongarm_035();
    let pinned = [
        (alu_slice(8, &p), 344_817, 0x09d1_6810_8bb3_0b41),
        (
            manchester_domino_adder(4, &p),
            118_301,
            0xfc64_24ac_ae0f_a013,
        ),
        (static_ripple_adder(8, &p), 253_478, 0x0a84_337a_ea64_bca7),
    ];
    for (design, len, digest) in pinned {
        let text = format!("{:?}", cbv_layout::synthesize(&design.netlist, &p));
        assert_eq!(
            (text.len(), fnv1a(text.as_bytes())),
            (len, digest),
            "{}: the synthesized layout moved",
            design.netlist.name()
        );
    }
}
