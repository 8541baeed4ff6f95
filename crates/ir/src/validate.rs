//! The validation pass gating every flow entry point.
//!
//! [`validate`] inspects an arbitrary [`FlatNetlist`] and reports every
//! rule violation in deterministic order; [`ensure_valid`] is the gate
//! form used by `run_flow`, the daemon's design upload, and the farm
//! worker load — malformed designs become structured [`IrError`]s at
//! the door instead of panics deep in recognition or extraction.
//!
//! The rules deliberately run on the *constructed* netlist, not on IR
//! text: SPICE uploads and Yosys imports pass through the same gate as
//! `cbv-ir` files.

use cbv_netlist::{valid_geometry, FlatNetlist, NetKind};
use cbv_recognize::recognize;

use crate::error::{IrError, IrRule, IrViolation};
use crate::text::{annotations_from, IrAnnotations};

fn violation(rule: IrRule, subject: String, message: String) -> IrViolation {
    IrViolation {
        rule,
        subject,
        message,
    }
}

/// Checks `netlist` against the interchange rules and returns every
/// violation found, in deterministic order (devices, passives, then
/// nets). An empty vector means the design is valid.
pub fn validate(netlist: &FlatNetlist) -> Vec<IrViolation> {
    let mut out = Vec::new();
    let nets = netlist.net_count();
    if netlist.devices().is_empty() && netlist.passives().is_empty() {
        out.push(violation(
            IrRule::EmptyDesign,
            format!("design {:?}", netlist.name()),
            "no devices and no passives".to_string(),
        ));
    }
    let mut touched = vec![false; nets];
    let mut touch = |id: cbv_netlist::NetId| {
        if (id.index()) < nets {
            touched[id.index()] = true;
        }
    };
    for (i, d) in netlist.devices().iter().enumerate() {
        let subject = format!("device {i} ({:?})", d.name);
        for (term, net) in [
            ("gate", d.gate),
            ("drain", d.drain),
            ("source", d.source),
            ("bulk", d.bulk),
        ] {
            if net.index() >= nets {
                out.push(violation(
                    IrRule::BadReference,
                    subject.clone(),
                    format!("{term} references unknown net {}", net.index()),
                ));
            } else {
                touch(net);
            }
        }
        if !valid_geometry(d.w, d.l) {
            let (rule, what) = if d.w.is_finite() && d.l.is_finite() {
                (IrRule::IllTypedDevice, "non-positive")
            } else {
                (IrRule::NonFiniteGeometry, "non-finite")
            };
            out.push(violation(
                rule,
                subject.clone(),
                format!("{what} geometry w={:?} l={:?}", d.w, d.l),
            ));
        }
        if d.fingers == 0 {
            out.push(violation(
                IrRule::IllTypedDevice,
                subject,
                "zero fingers".to_string(),
            ));
        }
    }
    for (i, p) in netlist.passives().iter().enumerate() {
        let subject = format!("passive {i} ({:?})", p.name);
        for net in [p.a, p.b] {
            if net.index() >= nets {
                out.push(violation(
                    IrRule::BadReference,
                    subject.clone(),
                    format!("terminal references unknown net {}", net.index()),
                ));
            } else {
                touch(net);
            }
        }
        if !p.value.is_finite() {
            out.push(violation(
                IrRule::NonFiniteGeometry,
                subject,
                format!("non-finite value {:?}", p.value),
            ));
        } else if p.value < 0.0 {
            out.push(violation(
                IrRule::NonFiniteGeometry,
                subject,
                format!("negative value {:?}", p.value),
            ));
        }
    }
    for net in netlist.net_ids() {
        // Rails, ports, and clocks legitimately exist without local
        // consumers; an untouched plain signal net is a wiring error.
        if netlist.net_kind(net) == NetKind::Signal && !touched[net.index()] {
            out.push(violation(
                IrRule::DanglingNet,
                format!("net {} ({:?})", net.index(), netlist.net_name(net)),
                "signal net with no device or passive attached".to_string(),
            ));
        }
    }
    out
}

/// The gate form of [`validate`]: `Ok(())` or a structured
/// [`IrError::Invalid`] carrying every violation.
pub fn ensure_valid(netlist: &FlatNetlist) -> Result<(), IrError> {
    let violations = validate(netlist);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(IrError::invalid(violations))
    }
}

/// Cross-checks annotations carried by an IR file against a fresh
/// recognition of the loaded netlist. Recognition is deterministic, so
/// any disagreement means the file's partition, families, clocks, or
/// state elements describe a *different* design — the "inconsistent
/// CCC ownership" failure mode.
pub fn check_annotations(netlist: &FlatNetlist, annotations: &IrAnnotations) -> Vec<IrViolation> {
    let recognition = recognize(netlist);
    let fresh = annotations_from(&recognition);
    let mut out = Vec::new();
    if annotations.cccs.len() != fresh.cccs.len() {
        out.push(violation(
            IrRule::CccOwnership,
            "ccc partition".to_string(),
            format!(
                "file declares {} cccs, recognition finds {}",
                annotations.cccs.len(),
                fresh.cccs.len()
            ),
        ));
    } else {
        for (i, (a, b)) in annotations.cccs.iter().zip(&fresh.cccs).enumerate() {
            if a.devices != b.devices {
                out.push(violation(
                    IrRule::CccOwnership,
                    format!("ccc {i}"),
                    format!(
                        "device ownership mismatch: file {:?}, recognition {:?}",
                        a.devices, b.devices
                    ),
                ));
            } else if a.family != b.family {
                out.push(violation(
                    IrRule::CccOwnership,
                    format!("ccc {i}"),
                    format!(
                        "family mismatch: file {:?}, recognition {:?}",
                        a.family, b.family
                    ),
                ));
            }
        }
    }
    if annotations.clocks != fresh.clocks {
        out.push(violation(
            IrRule::CccOwnership,
            "clock nets".to_string(),
            format!(
                "file declares {:?}, recognition finds {:?}",
                annotations.clocks, fresh.clocks
            ),
        ));
    }
    if annotations.states != fresh.states {
        out.push(violation(
            IrRule::CccOwnership,
            "state elements".to_string(),
            format!(
                "file declares {} state elements, recognition finds {}",
                annotations.states.len(),
                fresh.states.len()
            ),
        ));
    }
    out
}
