//! `cbv-bdd` — a reduced ordered binary decision diagram (ROBDD) package.
//!
//! The equivalence-checking leg of the paper's logic verification (§4.1)
//! needs canonical representations of boolean functions extracted from
//! transistor topology and compiled from RTL. This crate provides a
//! self-contained BDD manager with hash-consed nodes, a memoized `ite`
//! core, existential quantification and composition.
//!
//! # Example
//!
//! ```
//! use cbv_bdd::Bdd;
//!
//! let mut m = Bdd::new();
//! let a = m.var(0);
//! let b = m.var(1);
//! let ab = m.and(a, b);
//! let ba = m.and(b, a);
//! assert_eq!(ab, ba); // canonical: same function, same node
//! ```

use std::collections::HashMap;

/// A reference to a BDD node within one [`Bdd`] manager.
///
/// References are only meaningful within the manager that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

impl Ref {
    /// The constant-false function.
    pub const FALSE: Ref = Ref(0);
    /// The constant-true function.
    pub const TRUE: Ref = Ref(1);

    /// Whether this is one of the two constants.
    fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// `Some(bool)` if constant.
    pub fn as_const(self) -> Option<bool> {
        match self.0 {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    /// Position of the variable in the current order (level), not the
    /// external variable id.
    level: u32,
    lo: Ref,
    hi: Ref,
}

/// The BDD manager: owns all nodes.
///
/// Variables are identified by external `u32` ids; the manager maintains a
/// mapping between ids and levels so external ids are stable.
#[derive(Debug, Clone)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, Ref>,
    ite_cache: HashMap<(Ref, Ref, Ref), Ref>,
    /// level -> external var id
    level_to_var: Vec<u32>,
    /// external var id -> level
    var_to_level: HashMap<u32, u32>,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// Creates an empty manager containing only the two constants.
    pub fn new() -> Bdd {
        Bdd {
            // Slots 0/1 are placeholders for the constants; level u32::MAX
            // sorts below every real variable.
            nodes: vec![
                Node {
                    level: u32::MAX,
                    lo: Ref::FALSE,
                    hi: Ref::FALSE,
                },
                Node {
                    level: u32::MAX,
                    lo: Ref::TRUE,
                    hi: Ref::TRUE,
                },
            ],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            level_to_var: Vec::new(),
            var_to_level: HashMap::new(),
        }
    }

    /// Number of live nodes (including the two constants).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn level_of(&mut self, var: u32) -> u32 {
        if let Some(&l) = self.var_to_level.get(&var) {
            return l;
        }
        let l = self.level_to_var.len() as u32;
        self.level_to_var.push(var);
        self.var_to_level.insert(var, l);
        l
    }

    fn mk(&mut self, level: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        let node = Node { level, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = Ref(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    /// The function of a single variable.
    pub fn var(&mut self, var: u32) -> Ref {
        let level = self.level_of(var);
        self.mk(level, Ref::FALSE, Ref::TRUE)
    }

    /// A constant function.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    fn node(&self, r: Ref) -> Node {
        self.nodes[r.0 as usize]
    }

    /// If-then-else: the Shannon core all operators reduce to.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal cases.
        if f == Ref::TRUE {
            return g;
        }
        if f == Ref::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Ref::TRUE && h == Ref::FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let (nf, ng, nh) = (self.node(f), self.node(g), self.node(h));
        let level = nf.level.min(ng.level).min(nh.level);
        let split = |n: Node, r: Ref| -> (Ref, Ref) {
            if n.level == level {
                (n.lo, n.hi)
            } else {
                (r, r)
            }
        };
        let (flo, fhi) = split(nf, f);
        let (glo, ghi) = split(ng, g);
        let (hlo, hhi) = split(nh, h);
        let lo = self.ite(flo, glo, hlo);
        let hi = self.ite(fhi, ghi, hhi);
        let r = self.mk(level, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Logical NOT.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, Ref::FALSE, Ref::TRUE)
    }

    /// Logical AND.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::FALSE)
    }

    /// Logical OR.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::TRUE, g)
    }

    /// Logical XOR.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// AND over an iterator (true for empty input).
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::TRUE;
        for r in items {
            acc = self.and(acc, r);
            if acc == Ref::FALSE {
                break;
            }
        }
        acc
    }

    /// OR over an iterator (false for empty input).
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::FALSE;
        for r in items {
            acc = self.or(acc, r);
            if acc == Ref::TRUE {
                break;
            }
        }
        acc
    }

    /// Restricts `var` to a constant in `f` (cofactor).
    pub fn restrict(&mut self, f: Ref, var: u32, value: bool) -> Ref {
        let level = self.level_of(var);
        self.restrict_level(f, level, value)
    }

    fn restrict_level(&mut self, f: Ref, level: u32, value: bool) -> Ref {
        let n = self.node(f);
        if n.level > level {
            return f;
        }
        if n.level == level {
            return if value { n.hi } else { n.lo };
        }
        let lo = self.restrict_level(n.lo, level, value);
        let hi = self.restrict_level(n.hi, level, value);
        self.mk(n.level, lo, hi)
    }

    /// Existential quantification over `var`: `f[var:=0] ∨ f[var:=1]`.
    pub fn exists(&mut self, f: Ref, var: u32) -> Ref {
        let lo = self.restrict(f, var, false);
        let hi = self.restrict(f, var, true);
        self.or(lo, hi)
    }

    /// Substitutes function `g` for variable `var` inside `f`.
    pub fn compose(&mut self, f: Ref, var: u32, g: Ref) -> Ref {
        let hi = self.restrict(f, var, true);
        let lo = self.restrict(f, var, false);
        self.ite(g, hi, lo)
    }

    /// Evaluates `f` under an assignment (map from external var id to
    /// value). Missing variables default to `false`.
    pub fn eval(&self, f: Ref, assignment: &HashMap<u32, bool>) -> bool {
        let mut cur = f;
        loop {
            match cur.as_const() {
                Some(b) => return b,
                None => {
                    let n = self.node(cur);
                    let var = self.level_to_var[n.level as usize];
                    let v = assignment.get(&var).copied().unwrap_or(false);
                    cur = if v { n.hi } else { n.lo };
                }
            }
        }
    }

    /// The set of external variable ids on which `f` structurally depends.
    pub fn support(&self, f: Ref) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if r.is_const() || !seen.insert(r) {
                continue;
            }
            let n = self.node(r);
            vars.insert(self.level_to_var[n.level as usize]);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        let mut out: Vec<u32> = vars.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// One satisfying assignment, if any, as `(var, value)` pairs for the
    /// variables along the chosen path.
    pub fn any_sat(&self, f: Ref) -> Option<Vec<(u32, bool)>> {
        if f == Ref::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while cur.as_const().is_none() {
            let n = self.node(cur);
            let var = self.level_to_var[n.level as usize];
            if n.hi != Ref::FALSE {
                path.push((var, true));
                cur = n.hi;
            } else {
                path.push((var, false));
                cur = n.lo;
            }
        }
        debug_assert_eq!(cur, Ref::TRUE);
        Some(path)
    }

    /// Declares variables in the given order (only meaningful on a fresh
    /// manager, before any `var` calls).
    fn declare_order(&mut self, order: &[u32]) {
        for &v in order {
            let _ = self.level_of(v);
        }
    }

    /// The current variable order, top level first.
    pub fn order(&self) -> Vec<u32> {
        self.level_to_var.clone()
    }

    /// Rebuilds the given functions in a **new** manager whose variable
    /// order is `order` (must cover every variable in the roots'
    /// support). Returns the new manager and the mapped roots.
    ///
    /// Variable reordering can shrink a function's representation
    /// dramatically (or blow it up).
    pub fn rebuild(&self, roots: &[Ref], order: &[u32]) -> (Bdd, Vec<Ref>) {
        let mut out = Bdd::new();
        out.declare_order(order);
        let mut memo: HashMap<Ref, Ref> = HashMap::new();
        fn translate(src: &Bdd, dst: &mut Bdd, r: Ref, memo: &mut HashMap<Ref, Ref>) -> Ref {
            if let Some(b) = r.as_const() {
                return dst.constant(b);
            }
            if let Some(&m) = memo.get(&r) {
                return m;
            }
            let n = src.node(r);
            let var = src.level_to_var[n.level as usize];
            let lo = translate(src, dst, n.lo, memo);
            let hi = translate(src, dst, n.hi, memo);
            let v = dst.var(var);
            let out_ref = dst.ite(v, hi, lo);
            memo.insert(r, out_ref);
            out_ref
        }
        let mapped = roots
            .iter()
            .map(|&r| translate(self, &mut out, r, &mut memo))
            .collect();
        (out, mapped)
    }

    /// Size (node count) of the subgraph rooted at `f`.
    pub fn size(&self, f: Ref) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            if r.is_const() || !seen.insert(r) {
                continue;
            }
            count += 1;
            let n = self.node(r);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of satisfying assignments over a universe of `n_vars`
    /// variables (levels `0..n_vars`): the oracle the counting tests
    /// compare against. Returns `f64` since counts explode.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars` is smaller than the number of levels `f` uses.
    fn sat_count(bdd: &Bdd, f: Ref, n_vars: u32) -> f64 {
        fn walk(bdd: &Bdd, r: Ref, memo: &mut HashMap<Ref, f64>, n_vars: u32) -> f64 {
            match r.as_const() {
                Some(false) => return 0.0,
                Some(true) => return 1.0,
                None => {}
            }
            if let Some(&c) = memo.get(&r) {
                return c;
            }
            let n = bdd.node(r);
            assert!(n.level < n_vars, "n_vars smaller than bdd depth");
            let level_of = |x: Ref| -> u32 {
                match x.as_const() {
                    Some(_) => n_vars,
                    None => bdd.node(x).level,
                }
            };
            let lo =
                walk(bdd, n.lo, memo, n_vars) * 2f64.powi((level_of(n.lo) - n.level - 1) as i32);
            let hi =
                walk(bdd, n.hi, memo, n_vars) * 2f64.powi((level_of(n.hi) - n.level - 1) as i32);
            let c = lo + hi;
            memo.insert(r, c);
            c
        }
        if let Some(b) = f.as_const() {
            return if b { 2f64.powi(n_vars as i32) } else { 0.0 };
        }
        let top_level = bdd.node(f).level;
        let mut memo = HashMap::new();
        walk(bdd, f, &mut memo, n_vars) * 2f64.powi(top_level as i32)
    }

    #[test]
    fn canonical_commutativity() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        assert_eq!(m.and(a, b), m.and(b, a));
        assert_eq!(m.or(a, b), m.or(b, a));
        assert_eq!(m.xor(a, b), m.xor(b, a));
    }

    #[test]
    fn de_morgan() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation() {
        let mut m = Bdd::new();
        let a = m.var(3);
        let na = m.not(a);
        assert_eq!(m.not(na), a);
    }

    #[test]
    fn tautology_and_contradiction() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let na = m.not(a);
        assert_eq!(m.or(a, na), Ref::TRUE);
        assert_eq!(m.and(a, na), Ref::FALSE);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), Ref::FALSE);
    }

    #[test]
    fn quantification() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.exists(f, 0), b);
        let g = m.or(a, b);
        assert_eq!(m.exists(g, 0), Ref::TRUE);
    }

    #[test]
    fn compose_substitutes() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.xor(a, b);
        let g = m.and(b, c);
        let h = m.compose(f, 0, g); // (b&c) ^ b
        let mut asn = HashMap::new();
        asn.insert(1, true);
        asn.insert(2, true);
        assert!(!m.eval(h, &asn));
        asn.insert(2, false);
        assert!(m.eval(h, &asn));
    }

    #[test]
    fn sat_count_majority() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let bc = m.and(b, c);
        let ac = m.and(a, c);
        let t = m.or(ab, bc);
        let maj = m.or(t, ac);
        assert_eq!(sat_count(&m, maj, 3), 4.0);
        assert_eq!(sat_count(&m, Ref::TRUE, 3), 8.0);
        assert_eq!(sat_count(&m, Ref::FALSE, 3), 0.0);
    }

    #[test]
    fn any_sat_finds_model() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let nb = m.not(b);
        let f = m.and(a, nb);
        let model = m.any_sat(f).unwrap();
        let asn: HashMap<u32, bool> = model.into_iter().collect();
        assert!(m.eval(f, &asn));
        assert!(m.any_sat(Ref::FALSE).is_none());
    }

    #[test]
    fn support_lists_dependencies() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(5);
        let c = m.var(3);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        assert_eq!(m.support(f), vec![0, 3, 5]);
        // A variable that cancels out is not in the support.
        let x = m.xor(a, a);
        assert_eq!(x, Ref::FALSE);
    }

    #[test]
    fn xor_chain_size_is_linear() {
        let mut m = Bdd::new();
        let mut f = m.constant(false);
        for i in 0..16 {
            let v = m.var(i);
            f = m.xor(f, v);
        }
        // Parity has exactly 2 nodes per level except the deepest.
        assert_eq!(m.size(f), 31);
        assert_eq!(sat_count(&m, f, 16), 32768.0);
    }

    #[test]
    fn eval_default_false_for_missing_vars() {
        let mut m = Bdd::new();
        let a = m.var(0);
        assert!(!m.eval(a, &HashMap::new()));
    }

    #[test]
    fn rebuild_preserves_function() {
        let mut m = Bdd::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.xor(ab, c);
        let (m2, roots) = m.rebuild(&[f], &[2, 0, 1]);
        let g = roots[0];
        for mask in 0u32..8 {
            let asn: HashMap<u32, bool> = (0..3).map(|i| (i, (mask >> i) & 1 == 1)).collect();
            assert_eq!(m.eval(f, &asn), m2.eval(g, &asn), "mask {mask}");
        }
    }

    #[test]
    fn interleaving_shrinks_the_comparator() {
        // f = AND_i (a_i == b_i): linear when interleaved, exponential
        // when the a's and b's are separated.
        const N: u32 = 6;
        let mut m = Bdd::new();
        // Bad order: a0..a5 then b0..b5 (vars 0..5 = a, 6..11 = b).
        // Levels follow first use, so pin the order explicitly.
        let order: Vec<u32> = (0..2 * N).collect();
        m.declare_order(&order);
        let mut f = m.constant(true);
        for i in 0..N {
            let ai = m.var(i);
            let bi = m.var(N + i);
            let ne = m.xor(ai, bi);
            let eq = m.not(ne);
            f = m.and(f, eq);
        }
        let bad = m.size(f);
        // Good order: a0,b0,a1,b1,...
        let order: Vec<u32> = (0..N).flat_map(|i| [i, N + i]).collect();
        let (m2, roots) = m.rebuild(&[f], &order);
        let good = m2.size(roots[0]);
        assert!(
            bad > 4 * good,
            "separated {bad} nodes vs interleaved {good}"
        );
    }

    #[test]
    fn and_all_or_all() {
        let mut m = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.iter().copied());
        assert_eq!(sat_count(&m, all, 4), 1.0);
        let any = m.or_all(vars.iter().copied());
        assert_eq!(sat_count(&m, any, 4), 15.0);
        assert_eq!(m.and_all(std::iter::empty()), Ref::TRUE);
        assert_eq!(m.or_all(std::iter::empty()), Ref::FALSE);
    }
}
