//! `cbv-ir/1` text emit and parse.
//!
//! The format is line-oriented:
//!
//! ```text
//! cbv-ir/1
//! design "ripple2"
//! net 0 "vdd" power
//! net 1 "gnd" ground
//! net 2 "a" input
//! mos 0 "inv_p" pmos g=2 d=3 s=0 b=0 w=8e-6 l=3.5e-7 m=1
//! res 0 "rload" a=3 b=1 v=1200.0
//! cap 1 "cl" a=3 b=1 v=1e-14
//! ccc 0 family=static devices=0,1
//! clock 4
//! state level-latch cccs=0,1 storage=3,5 clocks=4
//! end
//! ```
//!
//! Records carry explicit ids and may appear in any order; [`load`]
//! sorts them and rejects duplicate or missing ids. [`dump`] emits in id
//! order with shortest-round-trip floats, so equal designs produce equal
//! bytes and `load ∘ dump` is the identity. The `end` marker makes
//! truncation detectable: a file without it is rejected.

use cbv_netlist::{valid_geometry, Device, FlatNetlist, NetId, NetKind, Passive, PassiveKind};
use cbv_recognize::{LogicFamily, Recognition, StateKind};
use cbv_tech::MosKind;
use serde::write_json_string;

use crate::error::IrError;

/// One CCC annotation: the family recognition assigned and the member
/// devices, in partition order.
#[derive(Debug, Clone, PartialEq)]
pub struct IrCcc {
    /// Recognized logic family.
    pub family: LogicFamily,
    /// Member device ids.
    pub devices: Vec<u32>,
}

/// One state-element annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct IrState {
    /// Keeper, level latch, or cross-coupled pair.
    pub kind: StateKind,
    /// CCC ids forming the feedback loop.
    pub cccs: Vec<u32>,
    /// Nets holding state.
    pub storage: Vec<u32>,
    /// Clocks gating the loop (may be empty).
    pub clocks: Vec<u32>,
}

/// Recognition results as carried by the IR: the CCC partition with
/// family tags, the inferred clock nets, and the state elements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrAnnotations {
    /// CCCs in partition order.
    pub cccs: Vec<IrCcc>,
    /// Clock nets, sorted ascending.
    pub clocks: Vec<u32>,
    /// State elements in recognition order.
    pub states: Vec<IrState>,
}

/// A loaded IR document: the netlist plus any recognition annotations
/// the file carried.
#[derive(Debug, Clone, PartialEq)]
pub struct IrDesign {
    /// The reconstructed netlist.
    pub netlist: FlatNetlist,
    /// Annotations, when the file carried `ccc`/`clock`/`state` lines.
    pub annotations: Option<IrAnnotations>,
}

const VERSION_LINE: &str = "cbv-ir/1";

fn family_tag(family: LogicFamily) -> &'static str {
    match family {
        LogicFamily::StaticComplementary => "static",
        LogicFamily::Ratioed => "ratioed",
        LogicFamily::Dynamic {
            footed: false,
            dual_rail: false,
        } => "dynamic",
        LogicFamily::Dynamic {
            footed: true,
            dual_rail: false,
        } => "dynamic-footed",
        LogicFamily::Dynamic {
            footed: false,
            dual_rail: true,
        } => "dynamic-dual",
        LogicFamily::Dynamic {
            footed: true,
            dual_rail: true,
        } => "dynamic-footed-dual",
        LogicFamily::Dcvsl => "dcvsl",
        LogicFamily::PassTransistor => "pass",
        LogicFamily::Unknown => "unknown",
    }
}

fn parse_family(tag: &str) -> Option<LogicFamily> {
    Some(match tag {
        "static" => LogicFamily::StaticComplementary,
        "ratioed" => LogicFamily::Ratioed,
        "dynamic" => LogicFamily::Dynamic {
            footed: false,
            dual_rail: false,
        },
        "dynamic-footed" => LogicFamily::Dynamic {
            footed: true,
            dual_rail: false,
        },
        "dynamic-dual" => LogicFamily::Dynamic {
            footed: false,
            dual_rail: true,
        },
        "dynamic-footed-dual" => LogicFamily::Dynamic {
            footed: true,
            dual_rail: true,
        },
        "dcvsl" => LogicFamily::Dcvsl,
        "pass" => LogicFamily::PassTransistor,
        "unknown" => LogicFamily::Unknown,
        _ => return None,
    })
}

fn state_tag(kind: StateKind) -> &'static str {
    match kind {
        StateKind::Keeper => "keeper",
        StateKind::LevelLatch => "level-latch",
        StateKind::CrossCoupled => "cross-coupled",
    }
}

fn parse_state_kind(tag: &str) -> Option<StateKind> {
    Some(match tag {
        "keeper" => StateKind::Keeper,
        "level-latch" => StateKind::LevelLatch,
        "cross-coupled" => StateKind::CrossCoupled,
        _ => return None,
    })
}

fn kind_tag(kind: NetKind) -> &'static str {
    match kind {
        NetKind::Signal => "signal",
        NetKind::Power => "power",
        NetKind::Ground => "ground",
        NetKind::Input => "input",
        NetKind::Output => "output",
        NetKind::Inout => "inout",
        NetKind::Clock => "clock",
    }
}

fn parse_kind(tag: &str) -> Option<NetKind> {
    Some(match tag {
        "signal" => NetKind::Signal,
        "power" => NetKind::Power,
        "ground" => NetKind::Ground,
        "input" => NetKind::Input,
        "output" => NetKind::Output,
        "inout" => NetKind::Inout,
        "clock" => NetKind::Clock,
        _ => return None,
    })
}

fn write_list(ids: &[u32], out: &mut String) {
    if ids.is_empty() {
        out.push('-');
        return;
    }
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
}

/// Serializes `netlist` (and, when given, its recognition results) to
/// `cbv-ir/1` text. Deterministic: equal inputs produce equal bytes.
pub fn dump(netlist: &FlatNetlist, recognition: Option<&Recognition>) -> String {
    let mut out = String::new();
    out.push_str(VERSION_LINE);
    out.push('\n');
    out.push_str("design ");
    write_json_string(netlist.name(), &mut out);
    out.push('\n');
    for net in netlist.net_ids() {
        out.push_str(&format!("net {} ", net.index()));
        write_json_string(netlist.net_name(net), &mut out);
        out.push(' ');
        out.push_str(kind_tag(netlist.net_kind(net)));
        out.push('\n');
    }
    for (i, d) in netlist.devices().iter().enumerate() {
        out.push_str(&format!("mos {i} "));
        write_json_string(&d.name, &mut out);
        let kind = match d.kind {
            MosKind::Nmos => "nmos",
            MosKind::Pmos => "pmos",
        };
        out.push_str(&format!(
            " {kind} g={} d={} s={} b={} w={:?} l={:?} m={}\n",
            d.gate.index(),
            d.drain.index(),
            d.source.index(),
            d.bulk.index(),
            d.w,
            d.l,
            d.fingers
        ));
    }
    for (i, p) in netlist.passives().iter().enumerate() {
        let tag = match p.kind {
            PassiveKind::Resistor => "res",
            PassiveKind::Capacitor => "cap",
        };
        out.push_str(&format!("{tag} {i} "));
        write_json_string(&p.name, &mut out);
        out.push_str(&format!(
            " a={} b={} v={:?}\n",
            p.a.index(),
            p.b.index(),
            p.value
        ));
    }
    if let Some(rec) = recognition {
        for (i, ccc) in rec.cccs.iter().enumerate() {
            out.push_str(&format!(
                "ccc {i} family={} devices=",
                family_tag(rec.classes[i].family)
            ));
            let devices: Vec<u32> = ccc.devices.iter().map(|d| d.0).collect();
            write_list(&devices, &mut out);
            out.push('\n');
        }
        let mut clocks: Vec<u32> = rec.clock_nets.iter().map(|n| n.0).collect();
        clocks.sort_unstable();
        clocks.dedup();
        for c in clocks {
            out.push_str(&format!("clock {c}\n"));
        }
        for s in &rec.state_elements {
            out.push_str(&format!("state {} cccs=", state_tag(s.kind)));
            let cccs: Vec<u32> = s.cccs.iter().map(|c| c.0).collect();
            write_list(&cccs, &mut out);
            out.push_str(" storage=");
            let storage: Vec<u32> = s.storage_nets.iter().map(|n| n.0).collect();
            write_list(&storage, &mut out);
            out.push_str(" clocks=");
            let clocks: Vec<u32> = s.clocks.iter().map(|n| n.0).collect();
            write_list(&clocks, &mut out);
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// One whitespace-separated token: bare word or quoted string literal.
enum Token {
    Bare(String),
    Quoted(String),
}

fn parse_err(line: usize, message: impl Into<String>) -> IrError {
    IrError::Parse {
        line,
        message: message.into(),
    }
}

/// Splits one line into tokens. Quoted tokens are JSON string literals,
/// decoded by the `serde_json` shim's tokenizer.
fn tokenize(line: &str, lineno: usize) -> Result<Vec<Token>, IrError> {
    let mut tokens = Vec::new();
    let mut rest = line.trim_start();
    while !rest.is_empty() {
        let used = if rest.starts_with('"') {
            let (s, used) =
                serde_json::string_literal(rest).map_err(|e| parse_err(lineno, e.message))?;
            tokens.push(Token::Quoted(s));
            used
        } else {
            let used = rest.find(char::is_whitespace).unwrap_or(rest.len());
            tokens.push(Token::Bare(rest[..used].to_string()));
            used
        };
        rest = rest[used..].trim_start();
    }
    Ok(tokens)
}

fn bare<'a>(tokens: &'a [Token], i: usize, lineno: usize, what: &str) -> Result<&'a str, IrError> {
    match tokens.get(i) {
        Some(Token::Bare(s)) => Ok(s),
        _ => Err(parse_err(lineno, format!("expected {what}"))),
    }
}

fn quoted<'a>(
    tokens: &'a [Token],
    i: usize,
    lineno: usize,
    what: &str,
) -> Result<&'a str, IrError> {
    match tokens.get(i) {
        Some(Token::Quoted(s)) => Ok(s),
        _ => Err(parse_err(lineno, format!("expected quoted {what}"))),
    }
}

fn parse_u32(text: &str, lineno: usize, what: &str) -> Result<u32, IrError> {
    text.parse::<u32>()
        .map_err(|_| parse_err(lineno, format!("bad {what} {text:?}")))
}

/// Parses a `key=value` bare token, returning the value text.
fn keyed<'a>(tokens: &'a [Token], i: usize, key: &str, lineno: usize) -> Result<&'a str, IrError> {
    let t = bare(tokens, i, lineno, &format!("{key}=..."))?;
    t.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| parse_err(lineno, format!("expected {key}=..., found {t:?}")))
}

fn parse_f64(text: &str, lineno: usize, what: &str) -> Result<f64, IrError> {
    let x: f64 = text
        .parse()
        .map_err(|_| parse_err(lineno, format!("bad {what} {text:?}")))?;
    if !x.is_finite() {
        return Err(parse_err(lineno, format!("non-finite {what} {text:?}")));
    }
    Ok(x)
}

fn parse_list(text: &str, lineno: usize, what: &str) -> Result<Vec<u32>, IrError> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|t| parse_u32(t, lineno, what))
        .collect()
}

struct NetRec {
    name: String,
    kind: NetKind,
}

struct MosRec {
    line: usize,
    name: String,
    kind: MosKind,
    g: u32,
    d: u32,
    s: u32,
    b: u32,
    w: f64,
    l: f64,
    m: u32,
}

struct PassiveRec {
    line: usize,
    name: String,
    kind: PassiveKind,
    a: u32,
    b: u32,
    v: f64,
}

struct CccRec {
    line: usize,
    family: LogicFamily,
    devices: Vec<u32>,
}

/// Sorts `(id, record)` pairs and checks the ids form `0..n` with no
/// duplicates, reporting the offending record's line number.
fn sort_contiguous<T>(mut records: Vec<(u32, usize, T)>, entity: &str) -> Result<Vec<T>, IrError> {
    records.sort_by_key(|(id, _, _)| *id);
    for (expect, (id, line, _)) in records.iter().enumerate() {
        let expect = expect as u32;
        if *id < expect {
            return Err(parse_err(*line, format!("duplicate {entity} id {id}")));
        }
        if *id > expect {
            return Err(parse_err(
                *line,
                format!("{entity} ids are not contiguous: found {id}, expected {expect}"),
            ));
        }
    }
    Ok(records.into_iter().map(|(_, _, r)| r).collect())
}

/// Parses `cbv-ir/1` text into a netlist plus annotations.
///
/// Lines may appear in any order after the version header. Every
/// malformed construct — truncation, bad ids, out-of-range references,
/// non-finite geometry — is a structured [`IrError`], never a panic.
pub fn load(text: &str) -> Result<IrDesign, IrError> {
    let mut design: Option<(usize, String)> = None;
    let mut nets: Vec<(u32, usize, NetRec)> = Vec::new();
    let mut mosfets: Vec<(u32, usize, MosRec)> = Vec::new();
    let mut passives: Vec<(u32, usize, PassiveRec)> = Vec::new();
    let mut cccs: Vec<(u32, usize, CccRec)> = Vec::new();
    let mut clocks: Vec<(usize, u32)> = Vec::new();
    let mut states: Vec<IrState> = Vec::new();
    let mut saw_version = false;
    let mut saw_end = false;
    let mut last_line = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        last_line = lineno;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !saw_version {
            if line == VERSION_LINE {
                saw_version = true;
                continue;
            }
            if line.starts_with("cbv-ir/") {
                return Err(IrError::Version {
                    found: line.to_string(),
                });
            }
            return Err(parse_err(
                lineno,
                format!("expected {VERSION_LINE} header, found {line:?}"),
            ));
        }
        if saw_end {
            return Err(parse_err(lineno, "trailing data after end marker"));
        }
        let tokens = tokenize(line, lineno)?;
        let head = bare(&tokens, 0, lineno, "record keyword")?;
        match head {
            "end" => {
                if tokens.len() != 1 {
                    return Err(parse_err(lineno, "end takes no arguments"));
                }
                saw_end = true;
            }
            "design" => {
                if design.is_some() {
                    return Err(parse_err(lineno, "duplicate design line"));
                }
                if tokens.len() != 2 {
                    return Err(parse_err(lineno, "design takes exactly one name"));
                }
                design = Some((
                    lineno,
                    quoted(&tokens, 1, lineno, "design name")?.to_string(),
                ));
            }
            "net" => {
                if tokens.len() != 4 {
                    return Err(parse_err(lineno, "net takes: id, name, kind"));
                }
                let id = parse_u32(bare(&tokens, 1, lineno, "net id")?, lineno, "net id")?;
                let name = quoted(&tokens, 2, lineno, "net name")?.to_string();
                let tag = bare(&tokens, 3, lineno, "net kind")?;
                let kind = parse_kind(tag)
                    .ok_or_else(|| parse_err(lineno, format!("unknown net kind {tag:?}")))?;
                nets.push((id, lineno, NetRec { name, kind }));
            }
            "mos" => {
                if tokens.len() != 11 {
                    return Err(parse_err(
                        lineno,
                        "mos takes: id, name, kind, g=, d=, s=, b=, w=, l=, m=",
                    ));
                }
                let id = parse_u32(bare(&tokens, 1, lineno, "device id")?, lineno, "device id")?;
                let name = quoted(&tokens, 2, lineno, "device name")?.to_string();
                let kind = match bare(&tokens, 3, lineno, "device kind")? {
                    "nmos" => MosKind::Nmos,
                    "pmos" => MosKind::Pmos,
                    other => {
                        return Err(parse_err(lineno, format!("unknown device kind {other:?}")))
                    }
                };
                let g = parse_u32(keyed(&tokens, 4, "g", lineno)?, lineno, "gate net")?;
                let d = parse_u32(keyed(&tokens, 5, "d", lineno)?, lineno, "drain net")?;
                let s = parse_u32(keyed(&tokens, 6, "s", lineno)?, lineno, "source net")?;
                let b = parse_u32(keyed(&tokens, 7, "b", lineno)?, lineno, "bulk net")?;
                let w = parse_f64(keyed(&tokens, 8, "w", lineno)?, lineno, "width")?;
                let l = parse_f64(keyed(&tokens, 9, "l", lineno)?, lineno, "length")?;
                let m = parse_u32(keyed(&tokens, 10, "m", lineno)?, lineno, "finger count")?;
                if !valid_geometry(w, l) {
                    return Err(parse_err(
                        lineno,
                        format!("non-positive geometry w={w:?} l={l:?}"),
                    ));
                }
                if m == 0 {
                    return Err(parse_err(lineno, "finger count must be at least 1"));
                }
                mosfets.push((
                    id,
                    lineno,
                    MosRec {
                        line: lineno,
                        name,
                        kind,
                        g,
                        d,
                        s,
                        b,
                        w,
                        l,
                        m,
                    },
                ));
            }
            "res" | "cap" => {
                if tokens.len() != 6 {
                    return Err(parse_err(
                        lineno,
                        format!("{head} takes: id, name, a=, b=, v="),
                    ));
                }
                let id = parse_u32(
                    bare(&tokens, 1, lineno, "passive id")?,
                    lineno,
                    "passive id",
                )?;
                let name = quoted(&tokens, 2, lineno, "passive name")?.to_string();
                let a = parse_u32(keyed(&tokens, 3, "a", lineno)?, lineno, "terminal net")?;
                let b = parse_u32(keyed(&tokens, 4, "b", lineno)?, lineno, "terminal net")?;
                let v = parse_f64(keyed(&tokens, 5, "v", lineno)?, lineno, "value")?;
                if v < 0.0 {
                    return Err(parse_err(lineno, format!("negative value {v:?}")));
                }
                let kind = if head == "res" {
                    PassiveKind::Resistor
                } else {
                    PassiveKind::Capacitor
                };
                passives.push((
                    id,
                    lineno,
                    PassiveRec {
                        line: lineno,
                        name,
                        kind,
                        a,
                        b,
                        v,
                    },
                ));
            }
            "ccc" => {
                if tokens.len() != 4 {
                    return Err(parse_err(lineno, "ccc takes: id, family=, devices="));
                }
                let id = parse_u32(bare(&tokens, 1, lineno, "ccc id")?, lineno, "ccc id")?;
                let tag = keyed(&tokens, 2, "family", lineno)?;
                let family = parse_family(tag)
                    .ok_or_else(|| parse_err(lineno, format!("unknown family {tag:?}")))?;
                let devices =
                    parse_list(keyed(&tokens, 3, "devices", lineno)?, lineno, "device id")?;
                if devices.is_empty() {
                    return Err(parse_err(lineno, "ccc has no member devices"));
                }
                cccs.push((
                    id,
                    lineno,
                    CccRec {
                        line: lineno,
                        family,
                        devices,
                    },
                ));
            }
            "clock" => {
                if tokens.len() != 2 {
                    return Err(parse_err(lineno, "clock takes exactly one net id"));
                }
                let net = parse_u32(bare(&tokens, 1, lineno, "net id")?, lineno, "net id")?;
                clocks.push((lineno, net));
            }
            "state" => {
                if tokens.len() != 5 {
                    return Err(parse_err(
                        lineno,
                        "state takes: kind, cccs=, storage=, clocks=",
                    ));
                }
                let tag = bare(&tokens, 1, lineno, "state kind")?;
                let kind = parse_state_kind(tag)
                    .ok_or_else(|| parse_err(lineno, format!("unknown state kind {tag:?}")))?;
                let cccs = parse_list(keyed(&tokens, 2, "cccs", lineno)?, lineno, "ccc id")?;
                let storage = parse_list(keyed(&tokens, 3, "storage", lineno)?, lineno, "net id")?;
                let clocks = parse_list(keyed(&tokens, 4, "clocks", lineno)?, lineno, "net id")?;
                states.push(IrState {
                    kind,
                    cccs,
                    storage,
                    clocks,
                });
            }
            other => return Err(parse_err(lineno, format!("unknown record {other:?}"))),
        }
    }
    if !saw_version {
        return Err(parse_err(last_line.max(1), "empty input (missing header)"));
    }
    if !saw_end {
        return Err(parse_err(
            last_line.max(1),
            "truncated input (missing end marker)",
        ));
    }
    let (_, design_name) = design.ok_or_else(|| parse_err(last_line, "missing design line"))?;

    let nets = sort_contiguous(nets, "net")?;
    let mosfets = sort_contiguous(mosfets, "device")?;
    let passives = sort_contiguous(passives, "passive")?;
    let cccs = sort_contiguous(cccs, "ccc")?;

    let mut netlist = FlatNetlist::new(design_name);
    let net_count = nets.len() as u32;
    for rec in nets {
        netlist.add_net(&rec.name, rec.kind);
    }
    let check_net = |id: u32, line: usize, what: &str| -> Result<NetId, IrError> {
        if id >= net_count {
            return Err(parse_err(
                line,
                format!("{what} references unknown net {id} (only {net_count} nets)"),
            ));
        }
        Ok(NetId(id))
    };
    let device_count = mosfets.len() as u32;
    for rec in mosfets {
        let device = Device::mos(
            rec.kind,
            rec.name,
            check_net(rec.g, rec.line, "device gate")?,
            check_net(rec.d, rec.line, "device drain")?,
            check_net(rec.s, rec.line, "device source")?,
            check_net(rec.b, rec.line, "device bulk")?,
            rec.w,
            rec.l,
        )
        .with_fingers(rec.m);
        netlist.add_device(device);
    }
    for rec in passives {
        let a = check_net(rec.a, rec.line, "passive terminal")?;
        let b = check_net(rec.b, rec.line, "passive terminal")?;
        let passive = match rec.kind {
            PassiveKind::Resistor => Passive::resistor(rec.name, a, b, rec.v),
            PassiveKind::Capacitor => Passive::capacitor(rec.name, a, b, rec.v),
        };
        netlist.add_passive(passive);
    }

    let ccc_count = cccs.len() as u32;
    let has_annotations = !cccs.is_empty() || !clocks.is_empty() || !states.is_empty();
    let annotations = if has_annotations {
        let mut ann = IrAnnotations::default();
        let mut seen_device = vec![false; device_count as usize];
        for rec in &cccs {
            for &d in &rec.devices {
                if d >= device_count {
                    return Err(parse_err(
                        rec.line,
                        format!("ccc references unknown device {d}"),
                    ));
                }
                if std::mem::replace(&mut seen_device[d as usize], true) {
                    return Err(parse_err(
                        rec.line,
                        format!("device {d} appears in more than one ccc"),
                    ));
                }
            }
        }
        ann.cccs = cccs
            .into_iter()
            .map(|rec| IrCcc {
                family: rec.family,
                devices: rec.devices,
            })
            .collect();
        let mut sorted_clocks: Vec<(usize, u32)> = clocks;
        sorted_clocks.sort_by_key(|(_, n)| *n);
        for pair in sorted_clocks.windows(2) {
            if pair[0].1 == pair[1].1 {
                return Err(parse_err(
                    pair[1].0,
                    format!("duplicate clock net {}", pair[1].1),
                ));
            }
        }
        for (line, net) in sorted_clocks {
            check_net(net, line, "clock")?;
            ann.clocks.push(net);
        }
        for s in &states {
            for &c in &s.cccs {
                if c >= ccc_count {
                    return Err(parse_err(
                        last_line,
                        format!("state references unknown ccc {c}"),
                    ));
                }
            }
            for &n in s.storage.iter().chain(&s.clocks) {
                check_net(n, last_line, "state")?;
            }
        }
        ann.states = states;
        Some(ann)
    } else {
        None
    };

    Ok(IrDesign {
        netlist,
        annotations,
    })
}

/// [`load`] for raw bytes: rejects non-UTF-8 input with a structured
/// error instead of panicking on a lossy conversion.
pub fn load_bytes(bytes: &[u8]) -> Result<IrDesign, IrError> {
    let text = std::str::from_utf8(bytes).map_err(|e| IrError::Encoding {
        offset: e.valid_up_to(),
    })?;
    load(text)
}

/// Builds [`IrAnnotations`] from a recognition result (the same mapping
/// [`dump`] uses), for cross-checking loaded annotations.
pub fn annotations_from(recognition: &Recognition) -> IrAnnotations {
    let mut ann = IrAnnotations::default();
    for (i, ccc) in recognition.cccs.iter().enumerate() {
        ann.cccs.push(IrCcc {
            family: recognition.classes[i].family,
            devices: ccc.devices.iter().map(|d| d.0).collect(),
        });
    }
    let mut clocks: Vec<u32> = recognition.clock_nets.iter().map(|n| n.0).collect();
    clocks.sort_unstable();
    clocks.dedup();
    ann.clocks = clocks;
    for s in &recognition.state_elements {
        ann.states.push(IrState {
            kind: s.kind,
            cccs: s.cccs.iter().map(|c| c.0).collect(),
            storage: s.storage_nets.iter().map(|n| n.0).collect(),
            clocks: s.clocks.iter().map(|n| n.0).collect(),
        });
    }
    ann
}
