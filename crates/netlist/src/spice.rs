//! SPICE-subset reader and writer.
//!
//! The supported subset is what a transistor-level methodology needs to
//! round-trip designs through text:
//!
//! * `.subckt NAME port...` / `.ends` — cell definitions
//! * `Mname drain gate source bulk nmos|pmos w=.. l=.. [m=..]` — MOS devices
//! * `Xname net... CELLNAME` — subcircuit instances
//! * `Cname a b value` / `Rname a b value` — passives
//! * `*` comments, `+` continuation lines, engineering suffixes
//!   (`f p n u m k meg g`)
//!
//! Nets named `vdd`/`vcc` parse as power, `gnd`/`vss`/`0` as ground —
//! matching universal SPICE convention.

use std::collections::HashMap;
use std::fmt::Write as _;

use cbv_tech::MosKind;

use crate::cell::{Cell, Instance, Library};
use crate::device::{Device, Passive};
use crate::error::NetlistError;
use crate::{NetId, NetKind};

/// Parses engineering-notation numbers: `4u`, `0.35e-6`, `10f`, `1meg`.
///
/// # Errors
///
/// Returns a description of the malformed token.
fn parse_value(token: &str) -> Result<f64, String> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return Err("empty value".to_owned());
    }
    // Split the numeric prefix from any suffix.
    let split = t
        .char_indices()
        .find(|(_, c)| c.is_ascii_alphabetic() && *c != 'e')
        .map(|(i, _)| i);
    // Careful: `1e-6` keeps the `e`; `1meg` splits at `m`.
    let (num_str, suffix) = match split {
        Some(i) => (&t[..i], &t[i..]),
        None => (t.as_str(), ""),
    };
    let base: f64 = num_str
        .parse()
        .map_err(|_| format!("malformed number `{token}`"))?;
    let mult = match suffix {
        "" => 1.0,
        "f" => 1e-15,
        "p" => 1e-12,
        "n" => 1e-9,
        "u" => 1e-6,
        "m" => 1e-3,
        "k" => 1e3,
        "meg" => 1e6,
        "g" => 1e9,
        other => return Err(format!("unknown unit suffix `{other}` in `{token}`")),
    };
    Ok(base * mult)
}

fn net_kind_for_name(name: &str) -> NetKind {
    match name.to_ascii_lowercase().as_str() {
        "vdd" | "vcc" => NetKind::Power,
        "gnd" | "vss" | "0" => NetKind::Ground,
        _ => NetKind::Signal,
    }
}

struct CellBuilder {
    cell: Cell,
    nets: HashMap<String, NetId>,
}

impl CellBuilder {
    fn new(name: &str, ports: &[&str]) -> CellBuilder {
        let mut cell = Cell::new(name);
        let mut nets = HashMap::new();
        for p in ports {
            let kind = match net_kind_for_name(p) {
                NetKind::Signal => NetKind::Inout,
                rail => rail,
            };
            // Rails are also ports when listed in a .subckt header; the
            // Inout port kind subsumes direction which SPICE lacks. We keep
            // the rail kind for vdd/gnd so flattening merges them right,
            // and register them as explicit ports below.
            let id = cell.add_net(*p, if kind.is_rail() { NetKind::Inout } else { kind });
            nets.insert((*p).to_owned(), id);
        }
        CellBuilder { cell, nets }
    }

    fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.nets.get(name) {
            return id;
        }
        let id = self.cell.add_net(name, net_kind_for_name(name));
        self.nets.insert(name.to_owned(), id);
        id
    }
}

/// Parses SPICE text into a [`Library`]. Top-level elements (outside any
/// `.subckt`) are collected into a cell named `top`; if there are none,
/// no `top` cell is created.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a line number on malformed input,
/// and propagates library errors (duplicate cells, dangling references).
pub fn parse(text: &str) -> Result<Library, NetlistError> {
    // Join continuation lines first, tracking original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(rest.trim());
                }
                None => {
                    return Err(NetlistError::Parse {
                        line: i + 1,
                        message: "continuation line with nothing to continue".into(),
                    })
                }
            }
        } else {
            logical.push((i + 1, line.to_owned()));
        }
    }

    let mut lib = Library::new();
    let mut top = CellBuilder::new("top", &[]);
    let mut top_used = false;
    let mut current: Option<CellBuilder> = None;
    // Instances are resolved by name after all cells are defined:
    // (instance name, master name, connection nets).
    type PendingInst = (String, String, Vec<String>);
    let mut pending: Vec<(String, Vec<PendingInst>)> = Vec::new();
    let mut cur_pending: Vec<(String, String, Vec<String>)> = Vec::new();
    let mut top_pending: Vec<(String, String, Vec<String>)> = Vec::new();

    let err = |line: usize, msg: String| NetlistError::Parse { line, message: msg };

    for (lineno, line) in logical {
        let lower = line.to_ascii_lowercase();
        let toks: Vec<&str> = line.split_whitespace().collect();
        if lower.starts_with(".subckt") {
            if current.is_some() {
                return Err(err(lineno, "nested .subckt is not supported".into()));
            }
            if toks.len() < 2 {
                return Err(err(lineno, ".subckt needs a name".into()));
            }
            current = Some(CellBuilder::new(toks[1], &toks[2..]));
            continue;
        }
        if lower.starts_with(".ends") {
            let Some(builder) = current.take() else {
                return Err(err(lineno, ".ends without .subckt".into()));
            };
            pending.push((
                builder.cell.name().to_owned(),
                std::mem::take(&mut cur_pending),
            ));
            lib.add_cell(builder.cell)?;
            continue;
        }
        if lower.starts_with('.') {
            // .global, .end, .option... — accepted and ignored.
            continue;
        }

        let (builder, pend) = match current.as_mut() {
            Some(b) => (b, &mut cur_pending),
            None => {
                top_used = true;
                (&mut top, &mut top_pending)
            }
        };

        let first = toks[0];
        match first.chars().next().map(|c| c.to_ascii_lowercase()) {
            Some('m') => {
                // Mname drain gate source bulk model [w=..] [l=..] [m=..]
                if toks.len() < 6 {
                    return Err(err(
                        lineno,
                        format!("device `{first}` needs 4 nets and a model"),
                    ));
                }
                let d = builder.net(toks[1]);
                let g = builder.net(toks[2]);
                let s = builder.net(toks[3]);
                let b = builder.net(toks[4]);
                let kind = match toks[5].to_ascii_lowercase().as_str() {
                    m if m.starts_with('n') => MosKind::Nmos,
                    m if m.starts_with('p') => MosKind::Pmos,
                    other => return Err(err(lineno, format!("unknown model `{other}`"))),
                };
                let mut w = None;
                let mut l = None;
                let mut fingers = 1u32;
                for t in &toks[6..] {
                    let Some((k, v)) = t.split_once('=') else {
                        return Err(err(lineno, format!("expected key=value, got `{t}`")));
                    };
                    let val = parse_value(v).map_err(|m| err(lineno, m))?;
                    match k.to_ascii_lowercase().as_str() {
                        "w" => w = Some(val),
                        "l" => l = Some(val),
                        "m" => fingers = val as u32,
                        other => return Err(err(lineno, format!("unknown parameter `{other}`"))),
                    }
                }
                let (Some(w), Some(l)) = (w, l) else {
                    return Err(err(lineno, format!("device `{first}` is missing w= or l=")));
                };
                // Zero-width or non-finite deck values used to trip the
                // constructor assert; reject them as parse errors.
                let device = Device::try_mos(kind, first, g, d, s, b, w, l)
                    .map_err(|e| err(lineno, e.to_string()))?;
                builder.cell.add_device(device.with_fingers(fingers.max(1)));
            }
            Some('c') | Some('r') => {
                if toks.len() < 4 {
                    return Err(err(
                        lineno,
                        format!("passive `{first}` needs 2 nets and a value"),
                    ));
                }
                let a = builder.net(toks[1]);
                let b = builder.net(toks[2]);
                let val = parse_value(toks[3]).map_err(|m| err(lineno, m))?;
                let p = if first.to_ascii_lowercase().starts_with('c') {
                    Passive::try_capacitor(first, a, b, val)
                } else {
                    Passive::try_resistor(first, a, b, val)
                }
                .map_err(|e| err(lineno, e.to_string()))?;
                builder.cell.add_passive(p);
            }
            Some('x') => {
                if toks.len() < 2 {
                    return Err(err(lineno, format!("instance `{first}` needs a master")));
                }
                let master = toks[toks.len() - 1].to_owned();
                let conns: Vec<String> = toks[1..toks.len() - 1]
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect();
                // Create the nets now; resolve the master later.
                for c in &conns {
                    builder.net(c);
                }
                pend.push((first.to_owned(), master, conns));
            }
            _ => return Err(err(lineno, format!("unrecognized element `{first}`"))),
        }
    }

    if current.is_some() {
        return Err(NetlistError::Parse {
            line: text.lines().count(),
            message: "missing .ends".into(),
        });
    }

    if top_used {
        pending.push(("top".to_owned(), top_pending));
        lib.add_cell(top.cell)?;
    }

    // Second pass: resolve instances now that every cell exists. We must
    // rebuild the library because cells are immutable once added; instead
    // we rebuilt via a temporary map of extra instances.
    let mut lib2 = Library::new();
    for cell in lib.cells() {
        let mut c2 = cell.clone();
        if let Some((_, insts)) = pending.iter().find(|(n, _)| n == cell.name()) {
            for (iname, master, conns) in insts {
                let master_id = lib
                    .find_cell(master)
                    .ok_or_else(|| NetlistError::UnknownCell(master.clone()))?;
                let connections: Vec<NetId> = conns
                    .iter()
                    .map(|n| c2.find_net(n).expect("net created during first pass"))
                    .collect();
                c2.add_instance(Instance {
                    name: iname.clone(),
                    master: master_id,
                    connections,
                });
            }
        }
        lib2.add_cell(c2)?;
    }
    Ok(lib2)
}

/// Serializes a library back to SPICE text. Instance masters must precede
/// their users, which insertion order already guarantees for parsed
/// libraries.
pub fn write(lib: &Library) -> String {
    let mut out = String::from("* written by cbv-netlist\n");
    for cell in lib.cells() {
        let ports: Vec<&str> = cell.ports().iter().map(|&p| cell.net_name(p)).collect();
        let _ = writeln!(out, ".subckt {} {}", cell.name(), ports.join(" "));
        for d in cell.devices() {
            let model = match d.kind {
                MosKind::Nmos => "nmos",
                MosKind::Pmos => "pmos",
            };
            // SPICE dispatches element type on the first letter.
            let name = if d.name.starts_with(['m', 'M']) {
                d.name.clone()
            } else {
                format!("m_{}", d.name)
            };
            let _ = writeln!(
                out,
                "{} {} {} {} {} {} w={:.6e} l={:.6e} m={}",
                name,
                cell.net_name(d.drain),
                cell.net_name(d.gate),
                cell.net_name(d.source),
                cell.net_name(d.bulk),
                model,
                d.w,
                d.l,
                d.fingers
            );
        }
        for p in cell.passives() {
            let prefix = match p.kind {
                crate::device::PassiveKind::Capacitor => 'c',
                crate::device::PassiveKind::Resistor => 'r',
            };
            let name = if p.name.to_ascii_lowercase().starts_with(prefix) {
                p.name.clone()
            } else {
                format!("{prefix}_{}", p.name)
            };
            let _ = writeln!(
                out,
                "{} {} {} {:.6e}",
                name,
                cell.net_name(p.a),
                cell.net_name(p.b),
                p.value
            );
        }
        for i in cell.instances() {
            let conns: Vec<&str> = i.connections.iter().map(|&c| cell.net_name(c)).collect();
            let master = lib.cell(i.master).name();
            let _ = writeln!(out, "{} {} {}", i.name, conns.join(" "), master);
        }
        let _ = writeln!(out, ".ends");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const INV_BUF: &str = "\
* an inverter and a buffer built from it
.subckt inv a y vdd gnd
mp y a vdd vdd pmos w=4u l=0.35u
mn y a gnd gnd nmos w=2u l=0.35u
.ends
.subckt buf a y vdd gnd
xi0 a m vdd gnd inv
xi1 m y vdd gnd inv
.ends
xtop in out vdd gnd buf
cload out 0 25f
";

    #[test]
    fn parse_value_suffixes() {
        let close = |v: f64, expect: f64| (v / expect - 1.0).abs() < 1e-12;
        assert!(close(parse_value("4u").unwrap(), 4e-6));
        assert!(close(parse_value("10f").unwrap(), 10e-15));
        assert!(close(parse_value("0.35e-6").unwrap(), 0.35e-6));
        assert!(close(parse_value("1meg").unwrap(), 1e6));
        assert!(close(parse_value("2.5k").unwrap(), 2500.0));
        assert!(parse_value("4z").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn parse_and_flatten() {
        let lib = parse(INV_BUF).unwrap();
        let top = lib.find_cell("top").unwrap();
        let flat = lib.flatten(top).unwrap();
        assert_eq!(flat.devices().len(), 4);
        assert_eq!(flat.passives().len(), 1);
        // Hierarchical names: xtop/xi0/mp etc.
        assert!(flat.devices().iter().any(|d| d.name == "xtop/xi0/mp"));
    }

    #[test]
    fn continuation_lines() {
        let text = ".subckt i a y vdd gnd\nmp y a vdd vdd pmos\n+ w=4u l=0.35u\n.ends\n";
        let lib = parse(text).unwrap();
        let c = lib.cell(lib.find_cell("i").unwrap());
        assert_eq!(c.devices().len(), 1);
        assert_eq!(c.devices()[0].w, 4e-6);
    }

    #[test]
    fn rails_recognized_by_name() {
        let lib = parse("m1 y a 0 0 nmos w=1u l=1u\n").unwrap();
        let top = lib.cell(lib.find_cell("top").unwrap());
        let zero = top.find_net("0").unwrap();
        assert_eq!(top.net_kind(zero), NetKind::Ground);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let lib = parse(INV_BUF).unwrap();
        let text = write(&lib);
        let lib2 = parse(&text).unwrap();
        let f1 = lib.flatten(lib.find_cell("top").unwrap()).unwrap();
        let f2 = lib2.flatten(lib2.find_cell("top").unwrap()).unwrap();
        assert_eq!(f1.devices().len(), f2.devices().len());
        assert_eq!(f1.passives().len(), f2.passives().len());
        assert_eq!(f1.net_count(), f2.net_count());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("q1 a b c\n").unwrap_err();
        match e {
            NetlistError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
        let e = parse(".subckt x a\nmn y a gnd gnd nmos w=1u\n.ends\n").unwrap_err();
        match e {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("missing"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_master_detected() {
        let e = parse("xi a b ghost\n").unwrap_err();
        assert!(matches!(e, NetlistError::UnknownCell(name) if name == "ghost"));
    }

    #[test]
    fn missing_ends_detected() {
        let e = parse(".subckt x a\n").unwrap_err();
        assert!(matches!(e, NetlistError::Parse { .. }));
    }

    #[test]
    fn fingers_parse_as_m() {
        let lib = parse("m1 y a 0 0 nmos w=8u l=0.35u m=4\n").unwrap();
        let top = lib.cell(lib.find_cell("top").unwrap());
        assert_eq!(top.devices()[0].fingers, 4);
    }
}
