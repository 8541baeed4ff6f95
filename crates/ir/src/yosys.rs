//! Yosys-JSON front end: gate-level netlists onto transistor topologies.
//!
//! `yosys -p 'synth; abc -g simple; write_json out.json'` emits a JSON
//! netlist of single-bit gate cells (`$_AND_`, `$_NOT_`, `$_MUX_`,
//! `$_DFF_P_`, ...). This module techmaps those cells onto the same
//! transistor topologies `cbv-gen` builds — static complementary gates
//! via [`add_inverter`]/[`add_nand`]/[`add_nor`]/[`add_xor2`], flip-flops
//! as master–slave jam latches — so an externally synthesized design
//! runs the §4.2/§4.3 battery unchanged.
//!
//! The import is deterministic: modules, ports, net names, and cells are
//! processed in sorted name order, so one JSON document always produces
//! one netlist (and therefore one signoff byte stream). Every structural
//! problem — no module, ambiguous top, hierarchical (unmapped) cells,
//! undriven `x` constants, width mismatches — is a structured
//! [`IrError::Import`] naming the offending entity.

use std::collections::HashMap;

use cbv_gen::gates::{add_inverter, add_nand, add_nor, add_xor2, Sizing};
use cbv_netlist::{Device, FlatNetlist, NetId, NetKind};
use cbv_tech::{MosKind, Process};
use serde_json::Value;

use crate::error::IrError;

fn import_err(message: impl Into<String>) -> IrError {
    IrError::Import {
        message: message.into(),
    }
}

/// One resolved connection bit: a net, or a constant rail.
#[derive(Clone, Copy)]
enum Bit {
    Net(u64),
    Const(bool),
}

/// Sorted (key, value) view of a JSON object; `Err` if not an object.
fn object<'a>(v: &'a Value, what: &str) -> Result<Vec<(&'a str, &'a Value)>, IrError> {
    match v {
        Value::Object(fields) => {
            let mut out: Vec<(&str, &Value)> =
                fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
            out.sort_by_key(|(k, _)| *k);
            Ok(out)
        }
        _ => Err(import_err(format!("{what} is not a JSON object"))),
    }
}

fn bit_from(v: &Value, what: &str) -> Result<Bit, IrError> {
    if let Some(n) = v.as_u64() {
        return Ok(Bit::Net(n));
    }
    match v.as_str() {
        Some("0") => Ok(Bit::Const(false)),
        Some("1") => Ok(Bit::Const(true)),
        Some("x") | Some("z") => Err(import_err(format!(
            "{what} is an undriven '{}' constant",
            v.as_str().unwrap()
        ))),
        _ => Err(import_err(format!("{what} has a malformed bit index"))),
    }
}

fn bits_of<'a>(conn: &'a Value, what: &str) -> Result<&'a [Value], IrError> {
    conn.as_array()
        .ok_or_else(|| import_err(format!("{what} connection is not a bit array")))
}

/// Resolves net names for bits: ports first (direction gives the kind),
/// then `netnames`, then anonymous `$bit<N>` signals on demand.
struct NetMap {
    by_bit: HashMap<u64, NetId>,
    vdd: NetId,
    gnd: NetId,
}

impl NetMap {
    fn resolve(&mut self, f: &mut FlatNetlist, bit: Bit) -> NetId {
        match bit {
            Bit::Const(true) => self.vdd,
            Bit::Const(false) => self.gnd,
            Bit::Net(n) => *self
                .by_bit
                .entry(n)
                .or_insert_with(|| f.add_net(&format!("$bit{n}"), NetKind::Signal)),
        }
    }
}

/// Picks the module to import: the named one, else the one marked with
/// a `top` attribute, else the only module present.
fn select_module<'a>(
    modules: &[(&'a str, &'a Value)],
    top: Option<&str>,
) -> Result<(&'a str, &'a Value), IrError> {
    if let Some(name) = top {
        return modules
            .iter()
            .find(|(k, _)| *k == name)
            .copied()
            .ok_or_else(|| import_err(format!("no module named {name:?}")));
    }
    let marked: Vec<&(&str, &Value)> = modules
        .iter()
        .filter(|(_, m)| {
            m.get("attributes")
                .and_then(|a| a.get("top"))
                .map(|t| {
                    t.as_u64() == Some(1)
                        || t.as_str().is_some_and(|s| s.trim_start_matches('0') == "1")
                })
                .unwrap_or(false)
        })
        .collect();
    match (marked.as_slice(), modules.len()) {
        ([one], _) => Ok(**one),
        ([], 1) => Ok(modules[0]),
        ([], 0) => Err(import_err("document contains no modules")),
        ([], _) => Err(import_err(
            "multiple modules and no top attribute; pass --top",
        )),
        (_, _) => Err(import_err("multiple modules carry the top attribute")),
    }
}

/// A cell's connection, single-bit, by port name.
fn port_bit(conns: &[(&str, &Value)], cell: &str, port: &str) -> Result<Bit, IrError> {
    let (_, v) = conns
        .iter()
        .find(|(k, _)| *k == port)
        .ok_or_else(|| import_err(format!("cell {cell:?} has no {port} connection")))?;
    let bits = bits_of(v, &format!("cell {cell:?} port {port}"))?;
    if bits.len() != 1 {
        return Err(import_err(format!(
            "cell {cell:?} port {port} is {} bits wide; gate-level cells are single-bit",
            bits.len()
        )));
    }
    bit_from(&bits[0], &format!("cell {cell:?} port {port}"))
}

/// Canonical gate class of a Yosys internal or liberty-style cell type.
enum Gate {
    Not,
    Buf,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Mux,
    /// `true` = rising-edge clock.
    Dff(bool),
}

fn classify(cell_type: &str) -> Option<Gate> {
    // Yosys internal gate-level names first, then liberty-style
    // prefixes (AND2X4, NAND3, INVX1, DFFPOSX1, ...).
    let t = cell_type;
    let lib = t.to_ascii_uppercase();
    let lib = lib.as_str();
    let starts = |p: &str| lib.starts_with(p);
    Some(match t {
        "$_NOT_" => Gate::Not,
        "$_BUF_" => Gate::Buf,
        "$_AND_" => Gate::And,
        "$_NAND_" => Gate::Nand,
        "$_OR_" => Gate::Or,
        "$_NOR_" => Gate::Nor,
        "$_XOR_" => Gate::Xor,
        "$_XNOR_" => Gate::Xnor,
        "$_MUX_" => Gate::Mux,
        "$_DFF_P_" => Gate::Dff(true),
        "$_DFF_N_" => Gate::Dff(false),
        _ if starts("NAND") => Gate::Nand,
        _ if starts("NOR") => Gate::Nor,
        _ if starts("XNOR") => Gate::Xnor,
        _ if starts("XOR") => Gate::Xor,
        _ if starts("AND") => Gate::And,
        _ if starts("OR") => Gate::Or,
        _ if starts("NOT") || starts("INV") => Gate::Not,
        _ if starts("BUF") => Gate::Buf,
        _ if starts("MUX") => Gate::Mux,
        _ if starts("DFFNEG") => Gate::Dff(false),
        _ if starts("DFF") => Gate::Dff(true),
        _ => return None,
    })
}

/// Device names inside generated cells reuse the cell instance name;
/// Yosys `$`-mangled names pass through verbatim (the IR quotes them).
fn inst(name: &str) -> String {
    name.to_string()
}

/// A master–slave positive- or negative-edge flip-flop from two jam
/// latches (pass transistor + forward/output inverters + weak clocked
/// feedback), the `cbv-gen` latch topology.
#[allow(clippy::too_many_arguments)]
fn add_dff(
    f: &mut FlatNetlist,
    name: &str,
    d: NetId,
    q: NetId,
    ck: NetId,
    ckb: NetId,
    vdd: NetId,
    gnd: NetId,
    s: Sizing,
) {
    let latch =
        |f: &mut FlatNetlist, tag: &str, input: NetId, output: NetId, open: NetId, hold: NetId| {
            let x = f.add_net(&format!("{name}_{tag}x"), NetKind::Signal);
            let qb = f.add_net(&format!("{name}_{tag}qb"), NetKind::Signal);
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{name}_{tag}pass"),
                open,
                input,
                x,
                gnd,
                s.wn,
                s.l,
            ));
            add_inverter(f, &format!("{name}_{tag}fwd"), x, qb, vdd, gnd, s);
            add_inverter(f, &format!("{name}_{tag}out"), qb, output, vdd, gnd, s);
            // Weak feedback: half-width, double-length pass device closing
            // the loop while the latch is opaque.
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{name}_{tag}fbk"),
                hold,
                output,
                x,
                gnd,
                s.wn * 0.5,
                s.l * 2.0,
            ));
        };
    let q1 = f.add_net(&format!("{name}_q1"), NetKind::Signal);
    // Posedge: master transparent while the clock is low (opened by
    // ckb), slave transparent while high — so Q captures D on the rise.
    latch(f, "m", d, q1, ckb, ck);
    latch(f, "s", q1, q, ck, ckb);
}

/// Imports one Yosys JSON document into a [`FlatNetlist`], techmapping
/// gate-level cells onto transistor topologies sized for `process`.
pub fn import_yosys(
    text: &str,
    top: Option<&str>,
    process: &Process,
) -> Result<FlatNetlist, IrError> {
    let doc = serde_json::from_str(text).map_err(|e| import_err(format!("malformed JSON: {e}")))?;
    let modules = object(doc.req("modules")?, "\"modules\"")?;
    let (module_name, module) = select_module(&modules, top)?;

    let mut f = FlatNetlist::new(module_name);
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let mut nets = NetMap {
        by_bit: HashMap::new(),
        vdd,
        gnd,
    };

    // Ports: direction fixes the net kind; multi-bit ports fan out to
    // one net per bit.
    let ports = match module.get("ports") {
        Some(p) => object(p, &format!("module {module_name:?} ports"))?,
        None => Vec::new(),
    };
    for (port_name, port) in &ports {
        let dir = port
            .get("direction")
            .and_then(Value::as_str)
            .ok_or_else(|| import_err(format!("port {port_name:?} has no direction")))?;
        let kind = match dir {
            "input" => NetKind::Input,
            "output" => NetKind::Output,
            "inout" => NetKind::Inout,
            other => {
                return Err(import_err(format!(
                    "port {port_name:?} has unknown direction {other:?}"
                )))
            }
        };
        let bits = bits_of(
            port.get("bits")
                .ok_or_else(|| import_err(format!("port {port_name:?} has no bits")))?,
            &format!("port {port_name:?}"),
        )?;
        for (i, bv) in bits.iter().enumerate() {
            let bit = bit_from(bv, &format!("port {port_name:?} bit {i}"))?;
            let n = match bit {
                Bit::Const(_) => {
                    return Err(import_err(format!(
                        "port {port_name:?} bit {i} is tied to a constant"
                    )))
                }
                Bit::Net(n) => n,
            };
            let name = if bits.len() == 1 {
                port_name.to_string()
            } else {
                format!("{port_name}[{i}]")
            };
            nets.by_bit
                .entry(n)
                .or_insert_with(|| f.add_net(&name, kind));
        }
    }

    // Internal net names (sorted; the first name per bit wins).
    if let Some(netnames) = module.get("netnames") {
        for (net_name, rec) in object(netnames, "\"netnames\"")? {
            let bits = bits_of(
                rec.get("bits")
                    .ok_or_else(|| import_err(format!("netname {net_name:?} has no bits")))?,
                &format!("netname {net_name:?}"),
            )?;
            for (i, bv) in bits.iter().enumerate() {
                if let Bit::Net(n) = bit_from(bv, &format!("netname {net_name:?} bit {i}"))? {
                    let name = if bits.len() == 1 {
                        net_name.to_string()
                    } else {
                        format!("{net_name}[{i}]")
                    };
                    nets.by_bit
                        .entry(n)
                        .or_insert_with(|| f.add_net(&name, NetKind::Signal));
                }
            }
        }
    }

    let sizing = Sizing::standard(process, 1.0);
    let cells = match module.get("cells") {
        Some(c) => object(c, &format!("module {module_name:?} cells"))?,
        None => Vec::new(),
    };
    if cells.is_empty() {
        return Err(import_err(format!(
            "module {module_name:?} has no cells (nothing to techmap)"
        )));
    }
    for (cell_name, cell) in cells {
        let cell_type = cell
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| import_err(format!("cell {cell_name:?} has no type")))?;
        let gate = classify(cell_type).ok_or_else(|| {
            let hint = if cell_type.starts_with('$') {
                "run `abc -g simple` or techmap to gate-level cells first"
            } else {
                "hierarchical modules are not supported; run `yosys flatten`"
            };
            import_err(format!(
                "cell {cell_name:?} has unsupported type {cell_type:?} ({hint})"
            ))
        })?;
        let conns = object(
            cell.get("connections")
                .ok_or_else(|| import_err(format!("cell {cell_name:?} has no connections")))?,
            &format!("cell {cell_name:?} connections"),
        )?;
        let name = inst(cell_name);
        let net = |f: &mut FlatNetlist, nets: &mut NetMap, port: &str| -> Result<NetId, IrError> {
            let bit = port_bit(&conns, cell_name, port)?;
            Ok(nets.resolve(f, bit))
        };
        // Data inputs: every connection except the named output/control
        // ports, in sorted port order (A, B, C, D, ...).
        let data_inputs = |f: &mut FlatNetlist,
                           nets: &mut NetMap,
                           exclude: &[&str]|
         -> Result<Vec<NetId>, IrError> {
            let mut ids = Vec::new();
            for (port, _) in conns.iter().filter(|(k, _)| !exclude.contains(k)) {
                let bit = port_bit(&conns, cell_name, port)?;
                ids.push(nets.resolve(f, bit));
            }
            if ids.is_empty() {
                return Err(import_err(format!("cell {cell_name:?} has no inputs")));
            }
            Ok(ids)
        };
        match gate {
            Gate::Not => {
                let a = net(&mut f, &mut nets, "A")?;
                let y = net(&mut f, &mut nets, "Y")?;
                add_inverter(&mut f, &name, a, y, vdd, gnd, sizing);
            }
            Gate::Buf => {
                let a = net(&mut f, &mut nets, "A")?;
                let y = net(&mut f, &mut nets, "Y")?;
                let mid = f.add_net(&format!("{name}_ab"), NetKind::Signal);
                add_inverter(&mut f, &format!("{name}_i0"), a, mid, vdd, gnd, sizing);
                add_inverter(&mut f, &format!("{name}_i1"), mid, y, vdd, gnd, sizing);
            }
            Gate::Nand | Gate::And => {
                let y = net(&mut f, &mut nets, "Y")?;
                let ins = data_inputs(&mut f, &mut nets, &["Y"])?;
                if matches!(gate, Gate::Nand) {
                    add_nand(&mut f, &name, &ins, y, vdd, gnd, sizing);
                } else {
                    let yb = f.add_net(&format!("{name}_yb"), NetKind::Signal);
                    add_nand(&mut f, &name, &ins, yb, vdd, gnd, sizing);
                    add_inverter(&mut f, &format!("{name}_o"), yb, y, vdd, gnd, sizing);
                }
            }
            Gate::Nor | Gate::Or => {
                let y = net(&mut f, &mut nets, "Y")?;
                let ins = data_inputs(&mut f, &mut nets, &["Y"])?;
                if matches!(gate, Gate::Nor) {
                    add_nor(&mut f, &name, &ins, y, vdd, gnd, sizing);
                } else {
                    let yb = f.add_net(&format!("{name}_yb"), NetKind::Signal);
                    add_nor(&mut f, &name, &ins, yb, vdd, gnd, sizing);
                    add_inverter(&mut f, &format!("{name}_o"), yb, y, vdd, gnd, sizing);
                }
            }
            Gate::Xor | Gate::Xnor => {
                let a = net(&mut f, &mut nets, "A")?;
                let b = net(&mut f, &mut nets, "B")?;
                let y = net(&mut f, &mut nets, "Y")?;
                if matches!(gate, Gate::Xor) {
                    add_xor2(&mut f, &name, a, b, y, vdd, gnd, sizing);
                } else {
                    let yb = f.add_net(&format!("{name}_yb"), NetKind::Signal);
                    add_xor2(&mut f, &name, a, b, yb, vdd, gnd, sizing);
                    add_inverter(&mut f, &format!("{name}_o"), yb, y, vdd, gnd, sizing);
                }
            }
            Gate::Mux => {
                // Y = S ? B : A as three NANDs plus the select inverter
                // (fully static, glitch-safe through the AOI tree).
                let a = net(&mut f, &mut nets, "A")?;
                let b = net(&mut f, &mut nets, "B")?;
                let s = net(&mut f, &mut nets, "S")?;
                let y = net(&mut f, &mut nets, "Y")?;
                let sn = f.add_net(&format!("{name}_sn"), NetKind::Signal);
                let m1 = f.add_net(&format!("{name}_m1"), NetKind::Signal);
                let m2 = f.add_net(&format!("{name}_m2"), NetKind::Signal);
                add_inverter(&mut f, &format!("{name}_si"), s, sn, vdd, gnd, sizing);
                add_nand(&mut f, &format!("{name}_n1"), &[b, s], m1, vdd, gnd, sizing);
                add_nand(
                    &mut f,
                    &format!("{name}_n2"),
                    &[a, sn],
                    m2,
                    vdd,
                    gnd,
                    sizing,
                );
                add_nand(
                    &mut f,
                    &format!("{name}_n3"),
                    &[m1, m2],
                    y,
                    vdd,
                    gnd,
                    sizing,
                );
            }
            Gate::Dff(rising) => {
                let d = net(&mut f, &mut nets, "D")?;
                let q = net(&mut f, &mut nets, "Q")?;
                let cport = ["C", "CK", "CLK"]
                    .into_iter()
                    .find(|p| conns.iter().any(|(k, _)| k == p))
                    .ok_or_else(|| {
                        import_err(format!("cell {cell_name:?} has no clock connection"))
                    })?;
                let c = net(&mut f, &mut nets, cport)?;
                f.set_net_kind(c, NetKind::Clock);
                let ckb = f.add_net(&format!("{name}_ckb"), NetKind::Clock);
                add_inverter(&mut f, &format!("{name}_cki"), c, ckb, vdd, gnd, sizing);
                // A negedge flop is the posedge topology with the two
                // clock phases exchanged.
                let (ck_eff, ckb_eff) = if rising { (c, ckb) } else { (ckb, c) };
                add_dff(&mut f, &name, d, q, ck_eff, ckb_eff, vdd, gnd, sizing);
            }
        }
    }
    Ok(f)
}

/// [`import_yosys`] for raw bytes: rejects non-UTF-8 input with a
/// structured error.
pub fn import_yosys_bytes(
    bytes: &[u8],
    top: Option<&str>,
    process: &Process,
) -> Result<FlatNetlist, IrError> {
    let text = std::str::from_utf8(bytes).map_err(|e| IrError::Encoding {
        offset: e.valid_up_to(),
    })?;
    import_yosys(text, top, process)
}
