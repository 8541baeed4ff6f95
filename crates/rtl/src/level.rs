//! Levelization of a [`BoolNet`].
//!
//! The compiled simulation backend (`cbv-csim`) needs three structural
//! facts about a bit-blasted network: a topological evaluation
//! schedule, its depth in levels, and the *live* cone of the gates that
//! actually feed an output or a next-state function, so dead branches
//! never cost a per-cycle op.
//!
//! [`BoolNet::mk`] builds networks whose gates only reference earlier
//! ids, but [`crate::boolnet::BoolId`] is a public newtype: nothing stops
//! a caller from interning a gate that points forward (a combinational
//! cycle once ids wrap around through state). Levelization therefore
//! detects ill-formed networks and returns a typed [`LevelError`] instead
//! of panicking deep inside a simulator.

use std::fmt;

use crate::boolnet::{BoolId, BoolNet, Gate};

/// A levelized view of one [`BoolNet`].
#[derive(Debug, Clone)]
pub struct Levelization {
    /// Live gates in a valid evaluation order (every gate appears after
    /// all of its inputs), restricted to the requested cone.
    pub order: Vec<BoolId>,
    /// Whether each gate id is inside the requested cone.
    pub live: Vec<bool>,
    /// Number of distinct levels among live gates (0 for an empty net):
    /// leaves (constants, inputs, state reads) are level 0, every other
    /// live gate is `1 + max(level of inputs)`.
    pub levels: u32,
}

/// Level marker for gates outside the live cone.
const DEAD: u32 = u32::MAX;

/// Why a network could not be levelized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelError {
    /// A gate references an id that does not exist in the network.
    DanglingInput {
        /// The referencing gate.
        gate: BoolId,
        /// The missing operand id.
        input: BoolId,
    },
    /// The combinational graph contains a cycle (or a forward reference
    /// that cannot be scheduled); `gate` is the smallest unschedulable id.
    Cycle {
        /// The smallest live gate that never became ready.
        gate: BoolId,
    },
}

impl fmt::Display for LevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelError::DanglingInput { gate, input } => write!(
                f,
                "gate {} references missing gate {}",
                gate.index(),
                input.index()
            ),
            LevelError::Cycle { gate } => write!(
                f,
                "combinational cycle: gate {} can never be scheduled",
                gate.index()
            ),
        }
    }
}

impl std::error::Error for LevelError {}

fn gate_inputs(g: &Gate) -> [Option<BoolId>; 3] {
    match *g {
        Gate::Const(_) | Gate::Input(_) | Gate::State(_) => [None, None, None],
        Gate::Not(a) => [Some(a), None, None],
        Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => [Some(a), Some(b), None],
        Gate::Mux(s, a, b) => [Some(s), Some(a), Some(b)],
    }
}

/// Levelizes only the cone of `roots`: the gates transitively feeding
/// them. Gates outside the cone are reported dead (not
/// [`Levelization::live`], absent from the schedule) — the compiler's
/// dead-branch elimination. Passing every gate as a root levelizes the
/// whole network.
///
/// # Errors
///
/// Returns [`LevelError`] on dangling operand ids or combinational
/// cycles inside the cone.
pub fn levelize_cone(net: &BoolNet, roots: &[BoolId]) -> Result<Levelization, LevelError> {
    let n = net.gate_count();
    let gates = net.gates();

    // Mark the live cone by reverse DFS from the roots.
    let mut live = vec![false; n];
    let mut stack: Vec<BoolId> = Vec::new();
    for &r in roots {
        if r.index() >= n {
            return Err(LevelError::DanglingInput { gate: r, input: r });
        }
        if !live[r.index()] {
            live[r.index()] = true;
            stack.push(r);
        }
    }
    while let Some(id) = stack.pop() {
        for inp in gate_inputs(&gates[id.index()]).into_iter().flatten() {
            if inp.index() >= n {
                return Err(LevelError::DanglingInput {
                    gate: id,
                    input: inp,
                });
            }
            if !live[inp.index()] {
                live[inp.index()] = true;
                stack.push(inp);
            }
        }
    }

    // Kahn's algorithm over the live subgraph, processing ready gates in
    // ascending id order so the schedule is deterministic.
    let mut pending = vec![0u8; n];
    let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        if !live[i] {
            continue;
        }
        for inp in gate_inputs(&gates[i]).into_iter().flatten() {
            pending[i] += 1;
            fanout[inp.index()].push(i as u32);
        }
    }
    let mut level = vec![DEAD; n];
    let mut order = Vec::with_capacity(live.iter().filter(|&&l| l).count());
    // Ready list kept sorted by draining lowest ids first: seed with all
    // live zero-dependency gates (their ids ascend naturally).
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n)
        .filter(|&i| live[i] && pending[i] == 0)
        .map(|i| std::cmp::Reverse(i as u32))
        .collect();
    let mut max_level = 0u32;
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        let i = i as usize;
        let lv = gate_inputs(&gates[i])
            .into_iter()
            .flatten()
            .map(|inp| level[inp.index()] + 1)
            .max()
            .unwrap_or(0);
        level[i] = lv;
        max_level = max_level.max(lv);
        order.push(BoolId(i as u32));
        for &f in &fanout[i] {
            let f = f as usize;
            pending[f] -= 1;
            if pending[f] == 0 {
                ready.push(std::cmp::Reverse(f as u32));
            }
        }
    }
    if order.len() != live.iter().filter(|&&l| l).count() {
        let gate = (0..n)
            .find(|&i| live[i] && level[i] == DEAD)
            .map(|i| BoolId(i as u32))
            .expect("some live gate is unscheduled");
        return Err(LevelError::Cycle { gate });
    }
    let levels = if order.is_empty() { 0 } else { max_level + 1 };
    Ok(Levelization {
        order,
        live,
        levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolnet::{BoolNet, Gate};

    /// Levelizes the whole network: every gate is a root.
    fn levelize_all(net: &BoolNet) -> Result<Levelization, LevelError> {
        let roots: Vec<BoolId> = (0..net.gate_count() as u32).map(BoolId).collect();
        levelize_cone(net, &roots)
    }

    #[test]
    fn levels_follow_depth() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.mk(Gate::Xor(a, b));
        let y = n.mk(Gate::And(x, a));
        let lv = levelize_all(&n).unwrap();
        assert_eq!(lv.levels, 3);
        assert_eq!(lv.order.len(), n.gate_count());
        // Each gate's depth is the level count of its own cone.
        assert_eq!(levelize_cone(&n, &[a]).unwrap().levels, 1);
        assert_eq!(levelize_cone(&n, &[x]).unwrap().levels, 2);
        assert_eq!(levelize_cone(&n, &[y]).unwrap().levels, 3);
        // The schedule is a valid topological order.
        let pos: Vec<usize> = {
            let mut p = vec![0; n.gate_count()];
            for (k, id) in lv.order.iter().enumerate() {
                p[id.index()] = k;
            }
            p
        };
        assert!(pos[a.index()] < pos[x.index()]);
        assert!(pos[x.index()] < pos[y.index()]);
    }

    #[test]
    fn cone_restriction_drops_dead_branches() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let b = n.input("b");
        let used = n.mk(Gate::And(a, b));
        let dead = n.mk(Gate::Or(a, b));
        let lv = levelize_cone(&n, &[used]).unwrap();
        assert!(lv.live[used.index()]);
        assert!(!lv.live[dead.index()]);
        assert!(!lv.order.contains(&dead));
    }

    #[test]
    fn forward_reference_is_a_cycle_error_not_a_panic() {
        // Hand-build a net whose gate 0 references gate 1 and vice
        // versa — impossible via `mk` discipline, but expressible.
        let mut n = BoolNet::new();
        let a = n.input("a"); // id 0
        let x = n.mk(Gate::Not(a)); // id 1
        let y = n.mk(Gate::And(a, x)); // id 2

        // Rewire the next-state-free combinational graph into a loop:
        // pretend gate 1 reads gate 2.
        let mut looped = n.clone();
        looped.replace_gate(x, Gate::And(y, a));
        let err = levelize_all(&looped).unwrap_err();
        assert!(matches!(err, LevelError::Cycle { .. }), "{err}");
        assert!(err.to_string().contains("combinational cycle"));
    }

    #[test]
    fn dangling_operand_is_reported() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let x = n.mk(Gate::Not(a));
        let mut broken = n.clone();
        broken.replace_gate(x, Gate::Not(BoolId(999)));
        let err = levelize_all(&broken).unwrap_err();
        assert!(matches!(err, LevelError::DanglingInput { .. }), "{err}");
    }

    #[test]
    fn empty_net_levelizes() {
        let n = BoolNet::new();
        let lv = levelize_all(&n).unwrap();
        assert_eq!(lv.levels, 0);
        assert!(lv.order.is_empty());
    }
}
