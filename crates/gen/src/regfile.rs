//! Register file generator: address decoder + latch cell array + pass
//! read port — the classic hand-crafted datapath macro ("most
//! transistors on our microprocessors are constructed in arrayed or
//! datapath structures", §2.2).

use cbv_netlist::{Device, FlatNetlist, NetId, NetKind};
use cbv_tech::{MosKind, Process};

use crate::gates::{add_inverter, add_nand, Sizing};
use crate::Generated;

/// Generates a `words × width` register file.
///
/// Interface nets:
/// * `waddr[i]`, `we`, `din[j]` — write port (write on `clk` high with
///   `we` high);
/// * `raddr[i]` — read address;
/// * `dout[j]` — read data (combinational through the pass read port);
/// * `clk` — the write clock.
///
/// Each cell is a jam latch written through a word-line-gated pass
/// device and read through a second pass device onto a shared bit line
/// with a pseudo-NMOS style restoring buffer.
///
/// # Panics
///
/// Panics unless `words` is a power of two between 2 and 64 and
/// `width >= 1`.
pub fn register_file(words: u32, width: u32, process: &Process) -> Generated {
    assert!(
        words.is_power_of_two() && (2..=64).contains(&words),
        "words must be a power of two in 2..=64"
    );
    assert!(width >= 1);
    let abits = words.trailing_zeros();
    let s = Sizing::standard(process, 1.0);
    let s2 = Sizing::standard(process, 2.0);
    let mut f = FlatNetlist::new(format!("rf{words}x{width}"));
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let clk = f.add_net("clk", NetKind::Clock);
    let clkb = f.add_net("clkb", NetKind::Clock);
    let we = f.add_net("we", NetKind::Input);

    let waddr: Vec<NetId> = (0..abits)
        .map(|i| f.add_net(&format!("waddr[{i}]"), NetKind::Input))
        .collect();
    let raddr: Vec<NetId> = (0..abits)
        .map(|i| f.add_net(&format!("raddr[{i}]"), NetKind::Input))
        .collect();
    let din: Vec<NetId> = (0..width)
        .map(|j| f.add_net(&format!("din[{j}]"), NetKind::Input))
        .collect();
    let dout: Vec<NetId> = (0..width)
        .map(|j| f.add_net(&format!("dout[{j}]"), NetKind::Output))
        .collect();

    // Address complements.
    let addr_decode = |f: &mut FlatNetlist, tag: &str, addr: &[NetId]| -> Vec<NetId> {
        let comps: Vec<NetId> = addr
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let n = f.add_net(&format!("{tag}n{i}"), NetKind::Signal);
                add_inverter(f, &format!("{tag}inv{i}"), a, n, vdd, gnd, s);
                n
            })
            .collect();
        // One select line per word: NAND of the matching literals, then
        // an inverter (AND).
        (0..words)
            .map(|w| {
                let lits: Vec<NetId> = (0..abits as usize)
                    .map(|i| if (w >> i) & 1 == 1 { addr[i] } else { comps[i] })
                    .collect();
                let nsel = f.add_net(&format!("{tag}nsel{w}"), NetKind::Signal);
                add_nand(f, &format!("{tag}nand{w}"), &lits, nsel, vdd, gnd, s);
                let sel = f.add_net(&format!("{tag}sel{w}"), NetKind::Signal);
                add_inverter(f, &format!("{tag}selinv{w}"), nsel, sel, vdd, gnd, s);
                sel
            })
            .collect()
    };
    let wsel = addr_decode(&mut f, "w", &waddr);
    let rsel = addr_decode(&mut f, "r", &raddr);

    // Write word lines: wl[w] = wsel[w] & we & clk — a 3-input NAND plus
    // inverter per word.
    let word_lines: Vec<NetId> = (0..words as usize)
        .map(|w| {
            let nwl = f.add_net(&format!("nwl{w}"), NetKind::Signal);
            add_nand(
                &mut f,
                &format!("wlnand{w}"),
                &[wsel[w], we, clk],
                nwl,
                vdd,
                gnd,
                s,
            );
            let wl = f.add_net(&format!("wl{w}"), NetKind::Signal);
            add_inverter(&mut f, &format!("wlinv{w}"), nwl, wl, vdd, gnd, s2);
            wl
        })
        .collect();

    // Cells and read port.
    for j in 0..width as usize {
        // Shared read bit line per column.
        let bl = f.add_net(&format!("bl{j}"), NetKind::Signal);
        for w in 0..words as usize {
            let cell = format!("c{w}_{j}");
            let x = f.add_net(&format!("{cell}_x"), NetKind::Signal);
            let q = f.add_net(&format!("{cell}_q"), NetKind::Signal);
            let qb = f.add_net(&format!("{cell}_qb"), NetKind::Signal);
            // Write pass.
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{cell}_wp"),
                word_lines[w],
                din[j],
                x,
                gnd,
                4.0 * s.wn,
                s.l,
            ));
            // Storage loop.
            add_inverter(&mut f, &format!("{cell}_fwd"), x, qb, vdd, gnd, s);
            add_inverter(&mut f, &format!("{cell}_bck"), qb, q, vdd, gnd, s);
            // Weak opposite-phase feedback holds when the word line is
            // low (gated by clkb so writes always win).
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{cell}_fbk"),
                clkb,
                q,
                x,
                gnd,
                0.5 * s.wn,
                2.0 * s.l,
            ));
            // Read pass onto the bit line.
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{cell}_rp"),
                rsel[w],
                q,
                bl,
                gnd,
                2.0 * s.wn,
                s.l,
            ));
        }
        // Restoring read buffer: two inverters from the bit line.
        let bln = f.add_net(&format!("bln{j}"), NetKind::Signal);
        add_inverter(&mut f, &format!("rb1_{j}"), bl, bln, vdd, gnd, s);
        add_inverter(&mut f, &format!("rb2_{j}"), bln, dout[j], vdd, gnd, s2);
    }

    let mut inputs = waddr;
    inputs.extend(raddr);
    inputs.push(we);
    inputs.extend(din);
    Generated {
        netlist: f,
        inputs,
        outputs: dout,
        clocks: vec![clk, clkb],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_sim::{Logic, SwitchSim};

    fn set_bus(sim: &mut SwitchSim<'_>, f: &FlatNetlist, base: &str, width: u32, v: u64) {
        for i in 0..width {
            let n = f.find_net(&format!("{base}[{i}]")).expect("net exists");
            sim.set(n, Logic::from_bool((v >> i) & 1 == 1));
        }
    }

    /// Drives every control input to a defined level (an undriven read
    /// address X-poisons the shared bit lines — the pessimistic X
    /// analysis is doing its job).
    fn init(sim: &mut SwitchSim<'_>, f: &FlatNetlist, abits: u32, width: u32) {
        sim.set_by_name("clk", Logic::Zero);
        sim.set_by_name("clkb", Logic::One);
        sim.set_by_name("we", Logic::Zero);
        set_bus(sim, f, "waddr", abits, 0);
        set_bus(sim, f, "raddr", abits, 0);
        set_bus(sim, f, "din", width, 0);
        sim.settle().expect("stable");
    }

    fn write_word(
        sim: &mut SwitchSim<'_>,
        f: &FlatNetlist,
        addr: u64,
        value: u64,
        abits: u32,
        width: u32,
    ) {
        // Address/data settle before the pulse — launching the clock
        // with a stale decode writes the previously selected word (the
        // same input-stability discipline the timing checks infer).
        set_bus(sim, f, "waddr", abits, addr);
        set_bus(sim, f, "din", width, value);
        sim.set_by_name("we", Logic::One);
        sim.settle().expect("stable");
        // Clock pulse: clk high writes, clkb low releases feedback.
        sim.set_by_name("clk", Logic::One);
        sim.set_by_name("clkb", Logic::Zero);
        sim.settle().expect("stable");
        sim.set_by_name("clk", Logic::Zero);
        sim.set_by_name("clkb", Logic::One);
        sim.settle().expect("stable");
        sim.set_by_name("we", Logic::Zero);
    }

    fn read_word(
        sim: &mut SwitchSim<'_>,
        f: &FlatNetlist,
        addr: u64,
        abits: u32,
        width: u32,
    ) -> Option<u64> {
        set_bus(sim, f, "raddr", abits, addr);
        sim.settle().expect("stable");
        let mut v = 0u64;
        for i in 0..width {
            let n = f.find_net(&format!("dout[{i}]")).expect("net exists");
            match sim.value(n) {
                Logic::One => v |= 1 << i,
                Logic::Zero => {}
                Logic::X => return None,
            }
        }
        Some(v)
    }

    #[test]
    fn write_then_read_back_four_words() {
        let p = Process::strongarm_035();
        let g = register_file(4, 4, &p);
        let mut sim = SwitchSim::new(&g.netlist);
        init(&mut sim, &g.netlist, 2, 4);
        let patterns = [(0u64, 0x5u64), (1, 0xA), (2, 0x3), (3, 0xC)];
        for &(a, v) in &patterns {
            write_word(&mut sim, &g.netlist, a, v, 2, 4);
        }
        for &(a, v) in &patterns {
            assert_eq!(
                read_word(&mut sim, &g.netlist, a, 2, 4),
                Some(v),
                "word {a} readback"
            );
        }
    }

    #[test]
    fn overwrite_changes_only_the_target_word() {
        let p = Process::strongarm_035();
        let g = register_file(4, 4, &p);
        let mut sim = SwitchSim::new(&g.netlist);
        init(&mut sim, &g.netlist, 2, 4);
        write_word(&mut sim, &g.netlist, 1, 0xF, 2, 4);
        write_word(&mut sim, &g.netlist, 2, 0x1, 2, 4);
        write_word(&mut sim, &g.netlist, 1, 0x6, 2, 4);
        assert_eq!(read_word(&mut sim, &g.netlist, 1, 2, 4), Some(0x6));
        assert_eq!(read_word(&mut sim, &g.netlist, 2, 2, 4), Some(0x1));
    }

    #[test]
    fn we_low_blocks_writes() {
        let p = Process::strongarm_035();
        let g = register_file(2, 2, &p);
        let mut sim = SwitchSim::new(&g.netlist);
        init(&mut sim, &g.netlist, 1, 2);
        write_word(&mut sim, &g.netlist, 0, 0x3, 1, 2);
        // Attempt a write with we low.
        set_bus(&mut sim, &g.netlist, "waddr", 1, 0);
        set_bus(&mut sim, &g.netlist, "din", 2, 0x0);
        sim.set_by_name("clk", Logic::One);
        sim.set_by_name("clkb", Logic::Zero);
        sim.settle().expect("stable");
        sim.set_by_name("clk", Logic::Zero);
        sim.set_by_name("clkb", Logic::One);
        sim.settle().expect("stable");
        assert_eq!(
            read_word(&mut sim, &g.netlist, 0, 1, 2),
            Some(0x3),
            "value held"
        );
    }

    #[test]
    fn recognition_finds_the_cell_array() {
        let p = Process::strongarm_035();
        let g = register_file(4, 2, &p);
        let rec = cbv_recognize::recognize(&g.netlist);
        // The shared bit line channel-merges a column's cells into one
        // component, so count storage *nets*: one per cell.
        let storage: usize = rec
            .state_elements
            .iter()
            .filter(|se| se.kind == cbv_recognize::StateKind::LevelLatch)
            .map(|se| se.storage_nets.len())
            .sum();
        assert!(
            storage >= 8,
            "found {storage} storage nets (want 4 words x 2 bits)"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_word_count_panics() {
        let p = Process::strongarm_035();
        let _ = register_file(3, 4, &p);
    }
}
