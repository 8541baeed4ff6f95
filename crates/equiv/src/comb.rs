//! Combinational equivalence via BDDs.

use std::collections::HashMap;

use cbv_bdd::{Bdd, Ref};
use cbv_netlist::FlatNetlist;
use cbv_recognize::{BoolExpr, LogicFamily, Recognition};
use cbv_rtl::boolnet::{BoolNet, Gate};

/// Result of a combinational comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombResult {
    /// Functions agree for every input assignment.
    Equivalent,
    /// Functions differ; a distinguishing assignment over named inputs.
    Counterexample(Vec<(String, bool)>),
}

/// Variable table: input name → BDD variable id.
#[derive(Debug, Default, Clone)]
pub struct VarTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl VarTable {
    /// The variable for a name, allocating on first use.
    pub fn var(&mut self, name: &str) -> u32 {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = self.names.len() as u32;
        self.by_name.insert(name.to_owned(), v);
        self.names.push(name.to_owned());
        v
    }

    /// Name of a variable.
    pub fn name(&self, var: u32) -> &str {
        &self.names[var as usize]
    }
}

/// Converts a purely combinational [`BoolNet`] into per-output BDD
/// vectors. Input bit names become BDD variables via `vars`.
///
/// # Errors
///
/// Returns `Err` if the network contains state bits.
pub fn boolnet_to_bdds(
    net: &BoolNet,
    mgr: &mut Bdd,
    vars: &mut VarTable,
) -> Result<Vec<(String, Vec<Ref>)>, String> {
    if !net.states.is_empty() {
        return Err(format!(
            "network has {} state bits; combinational checking requires none",
            net.states.len()
        ));
    }
    let mut map: Vec<Ref> = Vec::with_capacity(net.gate_count());
    for g in net.gates() {
        let r = match *g {
            Gate::Const(b) => mgr.constant(b),
            Gate::Input(k) => {
                let v = vars.var(&net.inputs[k as usize]);
                mgr.var(v)
            }
            Gate::State(_) => unreachable!("states checked above"),
            Gate::Not(a) => mgr.not(map[a.index()]),
            Gate::And(a, b) => mgr.and(map[a.index()], map[b.index()]),
            Gate::Or(a, b) => mgr.or(map[a.index()], map[b.index()]),
            Gate::Xor(a, b) => mgr.xor(map[a.index()], map[b.index()]),
            Gate::Mux(s, a, b) => mgr.ite(map[s.index()], map[a.index()], map[b.index()]),
        };
        map.push(r);
    }
    Ok(net
        .outputs
        .iter()
        .map(|(name, bits)| (name.clone(), bits.iter().map(|b| map[b.index()]).collect()))
        .collect())
}

/// Converts a transistor-extracted [`BoolExpr`] to a BDD. Net ids become
/// variables named after the netlist's net names.
pub fn expr_to_bdd(
    expr: &BoolExpr,
    netlist: &FlatNetlist,
    mgr: &mut Bdd,
    vars: &mut VarTable,
) -> Ref {
    match expr {
        BoolExpr::Const(b) => mgr.constant(*b),
        BoolExpr::Var(net) => {
            let v = vars.var(netlist.net_name(*net));
            mgr.var(v)
        }
        BoolExpr::Not(e) => {
            let inner = expr_to_bdd(e, netlist, mgr, vars);
            mgr.not(inner)
        }
        BoolExpr::And(es) => {
            let parts: Vec<Ref> = es
                .iter()
                .map(|e| expr_to_bdd(e, netlist, mgr, vars))
                .collect();
            mgr.and_all(parts)
        }
        BoolExpr::Or(es) => {
            let parts: Vec<Ref> = es
                .iter()
                .map(|e| expr_to_bdd(e, netlist, mgr, vars))
                .collect();
            mgr.or_all(parts)
        }
    }
}

/// What a circuit output should implement.
#[derive(Debug, Clone)]
pub struct OutputSpec {
    /// The circuit net (by name) under check.
    pub net: String,
    /// The golden function as a BDD reference (built by the caller in the
    /// same manager / variable table).
    pub golden: Ref,
    /// If the circuit net is the *complement* rail of a dual-rail pair,
    /// the checker compares against `!golden`.
    pub complemented: bool,
}

/// Checks recognized circuit output functions against golden BDDs.
///
/// The circuit functions come from recognition: a static complementary
/// gate's output is `!pull_down`; a dynamic (domino) node evaluates to
/// `!eval_function` after precharge, and its follower inverter restores
/// the positive sense — the caller picks the right net and
/// `complemented` flag to express that.
///
/// # Errors
///
/// Returns `Err` when a net is not a recognized output or its function
/// could not be extracted.
pub fn check_circuit_outputs(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    specs: &[OutputSpec],
    mgr: &mut Bdd,
    vars: &mut VarTable,
) -> Result<Vec<(String, CombResult)>, String> {
    let mut results = Vec::new();
    for spec in specs {
        let net = netlist
            .find_net(&spec.net)
            .ok_or_else(|| format!("no net named `{}`", spec.net))?;
        let class = recognition
            .driver_class(net)
            .ok_or_else(|| format!("`{}` is not a recognized circuit output", spec.net))?;
        let out_fn = class
            .outputs
            .iter()
            .find(|o| o.net == net)
            .ok_or_else(|| format!("no output function for `{}`", spec.net))?;
        // The settled logic value of the output.
        let circuit_expr = match class.family {
            LogicFamily::Dynamic { .. } => {
                // After evaluate, the node is the complement of its
                // pull-down condition (with clocks treated as asserted).
                out_fn.pull_down.clone().negate()
            }
            _ => out_fn.function.clone().ok_or_else(|| {
                format!(
                    "`{}` has non-complementary pull networks; no settled function",
                    spec.net
                )
            })?,
        };
        let mut circuit = expr_to_bdd(&circuit_expr, netlist, mgr, vars);
        // Clock variables are asserted during evaluation.
        for &ck in &recognition.clock_nets {
            let v = vars.var(netlist.net_name(ck));
            circuit = mgr.restrict(circuit, v, true);
        }
        let golden = if spec.complemented {
            mgr.not(spec.golden)
        } else {
            spec.golden
        };
        let diff = mgr.xor(circuit, golden);
        let result = match mgr.any_sat(diff) {
            None => CombResult::Equivalent,
            Some(assignment) => CombResult::Counterexample(
                assignment
                    .into_iter()
                    .map(|(v, b)| (vars.name(v).to_owned(), b))
                    .collect(),
            ),
        };
        results.push((spec.net.clone(), result));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_rtl::{blast::blast, compile};
    use cbv_tech::MosKind;

    #[test]
    fn two_rtl_adders_equivalent() {
        // Ripple expression vs library `+`: same function.
        let a = compile(
            "module m(in a[4], in b[4], out s[4]) { assign s = a + b; }",
            "m",
        )
        .unwrap();
        let b = compile(
            "module m(in a[4], in b[4], out s[4]) {\n\
               wire c0 = a[0] & b[0];\n\
               wire s0 = a[0] ^ b[0];\n\
               wire s1 = a[1] ^ b[1] ^ c0;\n\
               wire c1 = (a[1] & b[1]) | (c0 & (a[1] ^ b[1]));\n\
               wire s2 = a[2] ^ b[2] ^ c1;\n\
               wire c2 = (a[2] & b[2]) | (c1 & (a[2] ^ b[2]));\n\
               wire s3 = a[3] ^ b[3] ^ c2;\n\
               assign s = {s3, s2, s1, s0};\n\
             }",
            "m",
        )
        .unwrap();
        let na = blast(&a).unwrap();
        let nb = blast(&b).unwrap();
        let mut mgr = Bdd::new();
        let mut vars = VarTable::default();
        let oa = boolnet_to_bdds(&na, &mut mgr, &mut vars).unwrap();
        let ob = boolnet_to_bdds(&nb, &mut mgr, &mut vars).unwrap();
        let sa = &oa.iter().find(|(n, _)| n == "s").unwrap().1;
        let sb = &ob.iter().find(|(n, _)| n == "s").unwrap().1;
        assert_eq!(sa, sb, "canonical BDDs must coincide bit for bit");
    }

    #[test]
    fn different_functions_give_counterexample() {
        let a = compile("module m(in x[3], out y) { assign y = &x; }", "m").unwrap();
        let b = compile("module m(in x[3], out y) { assign y = |x; }", "m").unwrap();
        let (na, nb) = (blast(&a).unwrap(), blast(&b).unwrap());
        let mut mgr = Bdd::new();
        let mut vars = VarTable::default();
        let oa = boolnet_to_bdds(&na, &mut mgr, &mut vars).unwrap();
        let ob = boolnet_to_bdds(&nb, &mut mgr, &mut vars).unwrap();
        let ya = oa[0].1[0];
        let yb = ob[0].1[0];
        let diff = mgr.xor(ya, yb);
        assert!(mgr.any_sat(diff).is_some());
    }

    #[test]
    fn nand_circuit_matches_rtl() {
        // Transistor NAND vs RTL ~(a&b).
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a[0]", NetKind::Input);
        let b = f.add_net("b[0]", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            x,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let rec = recognize(&f);

        let golden_rtl =
            compile("module g(in a, in b, out y) { assign y = ~(a & b); }", "g").unwrap();
        let gnet = blast(&golden_rtl).unwrap();
        let mut mgr = Bdd::new();
        let mut vars = VarTable::default();
        let gout = boolnet_to_bdds(&gnet, &mut mgr, &mut vars).unwrap();
        let golden = gout.iter().find(|(n, _)| n == "y").unwrap().1[0];

        let results = check_circuit_outputs(
            &f,
            &rec,
            &[OutputSpec {
                net: "y".into(),
                golden,
                complemented: false,
            }],
            &mut mgr,
            &mut vars,
        )
        .unwrap();
        assert_eq!(results[0].1, CombResult::Equivalent);
    }

    #[test]
    fn wrong_circuit_is_caught_with_counterexample() {
        // NOR circuit checked against a NAND spec.
        let mut f = FlatNetlist::new("nor2");
        let a = f.add_net("a[0]", NetKind::Input);
        let b = f.add_net("b[0]", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let p = f.add_net("p", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            p,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            y,
            p,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let rec = recognize(&f);
        let golden_rtl =
            compile("module g(in a, in b, out y) { assign y = ~(a & b); }", "g").unwrap();
        let gnet = blast(&golden_rtl).unwrap();
        let mut mgr = Bdd::new();
        let mut vars = VarTable::default();
        let gout = boolnet_to_bdds(&gnet, &mut mgr, &mut vars).unwrap();
        let golden = gout.iter().find(|(n, _)| n == "y").unwrap().1[0];
        let results = check_circuit_outputs(
            &f,
            &rec,
            &[OutputSpec {
                net: "y".into(),
                golden,
                complemented: false,
            }],
            &mut mgr,
            &mut vars,
        )
        .unwrap();
        match &results[0].1 {
            CombResult::Counterexample(cex) => {
                // NOR != NAND exactly when a != b.
                assert!(!cex.is_empty());
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn domino_stage_checks_against_positive_function() {
        // Footed domino AND2: dynamic node = !(a&b) during eval.
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a[0]", NetKind::Input);
        let b = f.add_net("b[0]", NetKind::Input);
        let d = f.add_net("dyn", NetKind::Output);
        let m = f.add_net("m", NetKind::Signal);
        let ft = f.add_net("ft", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre",
            clk,
            d,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            d,
            m,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            m,
            ft,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "foot",
            clk,
            ft,
            gnd,
            gnd,
            6e-6,
            0.35e-6,
        ));
        let rec = recognize(&f);
        let golden_rtl = compile("module g(in a, in b, out y) { assign y = a & b; }", "g").unwrap();
        let gnet = blast(&golden_rtl).unwrap();
        let mut mgr = Bdd::new();
        let mut vars = VarTable::default();
        let gout = boolnet_to_bdds(&gnet, &mut mgr, &mut vars).unwrap();
        let golden = gout.iter().find(|(n, _)| n == "y").unwrap().1[0];
        // The dynamic node is the *complement* of the AND during eval.
        let results = check_circuit_outputs(
            &f,
            &rec,
            &[OutputSpec {
                net: "dyn".into(),
                golden,
                complemented: true,
            }],
            &mut mgr,
            &mut vars,
        )
        .unwrap();
        assert_eq!(results[0].1, CombResult::Equivalent, "{results:?}");
    }
}
