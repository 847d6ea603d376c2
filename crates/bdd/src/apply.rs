//! The `apply` family: binary connectives, negation, and `ite`.
//!
//! `apply` is Bryant's classic simultaneous-descent algorithm: recurse on the
//! topmost variable of the two operands, memoizing on (op, f, g). Its cost is
//! O(‖f‖·‖g‖) node visits in the worst case — this is the "node count is only
//! additive for Cartesian product" property the paper exploits in Section 2.2
//! (the conjunction of BDDs over disjoint variables never multiplies sizes).
//!
//! [`BddManager::and_is_false`] walks the same descent over up to three
//! operands but builds nothing: it only decides whether their conjunction
//! is empty, which is all a constraint check asks.

use crate::cache::{OpCode, OpKind};
use crate::error::Result;
use crate::manager::{Bdd, BddManager};
use crate::Op;

impl BddManager {
    /// `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.apply(Op::And, f, g)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.apply(Op::Or, f, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.apply(Op::Xor, f, g)
    }

    /// `f ⇒ g`.
    pub fn imp(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.apply(Op::Imp, f, g)
    }

    /// `f ⇔ g`.
    pub fn biimp(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.apply(Op::Biimp, f, g)
    }

    /// `f ∧ ¬g` — set difference on characteristic functions.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.apply(Op::Diff, f, g)
    }

    /// Apply any binary connective.
    pub fn apply(&mut self, op: Op, f: Bdd, g: Bdd) -> Result<Bdd> {
        // Constant and absorption shortcuts. These matter: they terminate
        // entire subproblems without touching the cache (and are therefore
        // not counted as calls in telemetry).
        if let Some(r) = apply_shortcut(op, f, g) {
            return Ok(r);
        }
        self.budget_check()?;
        self.count_op(OpKind::Apply);
        if let Some(r) = self.cache.get(OpCode::Apply(op_code(op)), f.0, g.0, 0) {
            return Ok(Bdd(r));
        }
        self.depth_enter();
        let descended = self.apply_descend(op, f, g);
        self.depth_exit();
        let r = descended?;
        self.cache.put(OpCode::Apply(op_code(op)), f.0, g.0, 0, r.0);
        Ok(r)
    }

    fn apply_descend(&mut self, op: Op, f: Bdd, g: Bdd) -> Result<Bdd> {
        let (lf, lg) = (self.level(f), self.level(g));
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { self.cofactors(f) } else { (f, f) };
        let (g0, g1) = if lg == top { self.cofactors(g) } else { (g, g) };
        let low = self.apply(op, f0, g0)?;
        let high = self.apply(op, f1, g1)?;
        self.mk(top, low, high)
    }

    /// `¬f`.
    pub fn not(&mut self, f: Bdd) -> Result<Bdd> {
        if f.is_false() {
            return Ok(Bdd::TRUE);
        }
        if f.is_true() {
            return Ok(Bdd::FALSE);
        }
        self.budget_check()?;
        self.count_op(OpKind::Not);
        if let Some(r) = self.cache.get(OpCode::Not, f.0, 0, 0) {
            return Ok(Bdd(r));
        }
        self.depth_enter();
        let descended = self.not_descend(f);
        self.depth_exit();
        let r = descended?;
        self.cache.put(OpCode::Not, f.0, 0, 0, r.0);
        Ok(r)
    }

    fn not_descend(&mut self, f: Bdd) -> Result<Bdd> {
        let n = self.node(f);
        let low = self.not(Bdd(n.low))?;
        let high = self.not(Bdd(n.high))?;
        self.mk(n.level, low, high)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`. Handles operands whose supports
    /// interleave arbitrarily, which is what makes it suitable as the
    /// correction step in order-crossing [`BddManager::replace`] calls.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd> {
        if f.is_true() {
            return Ok(g);
        }
        if f.is_false() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g.is_true() && h.is_false() {
            return Ok(f);
        }
        self.budget_check()?;
        self.count_op(OpKind::Ite);
        if let Some(r) = self.cache.get(OpCode::Ite, f.0, g.0, h.0) {
            return Ok(Bdd(r));
        }
        self.depth_enter();
        let descended = self.ite_descend(f, g, h);
        self.depth_exit();
        let r = descended?;
        self.cache.put(OpCode::Ite, f.0, g.0, h.0, r.0);
        Ok(r)
    }

    fn ite_descend(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd> {
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = if self.level(f) == top {
            self.cofactors(f)
        } else {
            (f, f)
        };
        let (g0, g1) = if self.level(g) == top {
            self.cofactors(g)
        } else {
            (g, g)
        };
        let (h0, h1) = if self.level(h) == top {
            self.cofactors(h)
        } else {
            (h, h)
        };
        let low = self.ite(f0, g0, h0)?;
        let high = self.ite(f1, g1, h1)?;
        self.mk(top, low, high)
    }

    /// Is `f ∧ g ∧ h` empty? The answer `and` followed by
    /// [`Bdd::is_false`] gives, without building the conjunction: a
    /// simultaneous descent over the three operands that creates no node
    /// and returns at the first satisfying path. Pass [`Bdd::TRUE`] for an
    /// unused operand. TRUE and repeated operands drop out, and one
    /// non-constant operand left is satisfiable (every ROBDD node reaches
    /// TRUE). Each subproblem is memoised in the op cache as 1 (empty) or
    /// 0, keyed on its operands sorted so that argument order does not
    /// split entries, and counts as an apply-class call. It polls the
    /// budget like every memoised recursion, so deadlines and the `apply`
    /// failpoint fire inside it; it cannot exceed a node limit.
    pub fn and_is_false(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<bool> {
        let ops = match conjunction_operands([f, g, h]) {
            Ok(ops) => ops,
            Err(empty) => return Ok(empty),
        };
        let [a, b, c] = ops.map(|x| x.0);
        self.budget_check()?;
        self.count_op(OpKind::Apply);
        if let Some(r) = self.cache.get(OpCode::AndIsFalse, a, b, c) {
            return Ok(r == 1);
        }
        self.depth_enter();
        let descended = self.and_is_false_descend(ops);
        self.depth_exit();
        let empty = descended?;
        self.cache.put(OpCode::AndIsFalse, a, b, c, empty as u32);
        Ok(empty)
    }

    fn and_is_false_descend(&mut self, ops: [Bdd; 3]) -> Result<bool> {
        let levels = ops.map(|x| self.level(x));
        let top = levels[0].min(levels[1]).min(levels[2]);
        let (mut low, mut high) = (ops, ops);
        for i in 0..3 {
            if levels[i] == top {
                (low[i], high[i]) = self.cofactors(ops[i]);
            }
        }
        Ok(self.and_is_false(low[0], low[1], low[2])?
            && self.and_is_false(high[0], high[1], high[2])?)
    }

    /// Fold a conjunction over many operands, smallest-first. Ordering by
    /// size keeps intermediate results small — the same motivation as join
    /// ordering in a relational optimizer.
    pub fn and_many(&mut self, operands: &[Bdd]) -> Result<Bdd> {
        self.fold(Op::And, Bdd::TRUE, operands)
    }

    /// Fold a disjunction over many operands, smallest-first.
    pub fn or_many(&mut self, operands: &[Bdd]) -> Result<Bdd> {
        self.fold(Op::Or, Bdd::FALSE, operands)
    }

    fn fold(&mut self, op: Op, unit: Bdd, operands: &[Bdd]) -> Result<Bdd> {
        let mut ops: Vec<(usize, Bdd)> = operands.iter().map(|&b| (self.size(b), b)).collect();
        ops.sort_by_key(|&(s, _)| s);
        let mut acc = unit;
        for (_, b) in ops {
            acc = self.apply(op, acc, b)?;
        }
        Ok(acc)
    }
}

#[inline]
fn op_code(op: Op) -> u8 {
    match op {
        Op::And => 0,
        Op::Or => 1,
        Op::Xor => 2,
        Op::Nand => 3,
        Op::Nor => 4,
        Op::Imp => 5,
        Op::Biimp => 6,
        Op::Diff => 7,
    }
}

/// The operands of [`BddManager::and_is_false`] in canonical form: the
/// distinct non-constant ones in ascending order, padded with TRUE. A
/// conjunction that decides without recursion is `Err(empty)`: any FALSE
/// operand makes it empty, and fewer than two non-constant operands make
/// it satisfiable.
#[inline]
fn conjunction_operands(mut ops: [Bdd; 3]) -> std::result::Result<[Bdd; 3], bool> {
    if ops.iter().any(|x| x.is_false()) {
        return Err(true);
    }
    // Three compare-exchanges sort the operands; TRUE (handle 1) and
    // duplicates then sit where one pass can drop them.
    for (i, j) in [(0, 1), (1, 2), (0, 1)] {
        if ops[i] > ops[j] {
            ops.swap(i, j);
        }
    }
    let mut out = [Bdd::TRUE; 3];
    let mut n = 0;
    for x in ops {
        if !x.is_const() && (n == 0 || out[n - 1] != x) {
            out[n] = x;
            n += 1;
        }
    }
    if n < 2 {
        return Err(false);
    }
    Ok(out)
}

/// Terminal and absorption cases that resolve without recursion.
#[inline]
fn apply_shortcut(op: Op, f: Bdd, g: Bdd) -> Option<Bdd> {
    if f.is_const() && g.is_const() {
        return Some(if op.eval(f.is_true(), g.is_true()) {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        });
    }
    match op {
        Op::And => match () {
            _ if f.is_false() || g.is_false() => Some(Bdd::FALSE),
            _ if f.is_true() => Some(g),
            _ if g.is_true() => Some(f),
            _ if f == g => Some(f),
            _ => None,
        },
        Op::Or => match () {
            _ if f.is_true() || g.is_true() => Some(Bdd::TRUE),
            _ if f.is_false() => Some(g),
            _ if g.is_false() => Some(f),
            _ if f == g => Some(f),
            _ => None,
        },
        Op::Xor => match () {
            _ if f == g => Some(Bdd::FALSE),
            _ if f.is_false() => Some(g),
            _ if g.is_false() => Some(f),
            _ => None,
        },
        Op::Imp => match () {
            _ if f.is_false() || g.is_true() => Some(Bdd::TRUE),
            _ if f.is_true() => Some(g),
            _ if f == g => Some(Bdd::TRUE),
            _ => None,
        },
        Op::Biimp => {
            if f == g {
                Some(Bdd::TRUE)
            } else {
                None
            }
        }
        Op::Diff => match () {
            _ if f.is_false() || g.is_true() => Some(Bdd::FALSE),
            _ if g.is_false() => Some(f),
            _ if f == g => Some(Bdd::FALSE),
            _ => None,
        },
        Op::Nand | Op::Nor => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively check a binary op against its truth table over all
    /// assignments of the variables in play.
    fn check_op(op: Op) {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..3).map(|_| m.new_var()).collect();
        let x = m.var(vars[0]).unwrap();
        let y = m.var(vars[1]).unwrap();
        let z = m.var(vars[2]).unwrap();
        let xy = m.and(x, y).unwrap();
        let yz = m.or(y, z).unwrap();
        let f = m.apply(op, xy, yz).unwrap();
        for bits in 0u32..8 {
            let assign = |v: u32| bits >> v & 1 == 1;
            let a = assign(0) && assign(1);
            let b = assign(1) || assign(2);
            assert_eq!(
                m.eval(f, assign),
                op.eval(a, b),
                "op {op:?} bits {bits:03b}"
            );
        }
    }

    #[test]
    fn all_binary_ops_match_truth_tables() {
        for op in [
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Nand,
            Op::Nor,
            Op::Imp,
            Op::Biimp,
            Op::Diff,
        ] {
            check_op(op);
        }
    }

    #[test]
    fn and_is_commutative_and_canonical() {
        let mut m = BddManager::new();
        let v: Vec<_> = (0..2).map(|_| m.new_var()).collect();
        let x = m.var(v[0]).unwrap();
        let y = m.var(v[1]).unwrap();
        let a = m.and(x, y).unwrap();
        let b = m.and(y, x).unwrap();
        assert_eq!(a, b, "canonicity: equivalent functions share a node");
    }

    #[test]
    fn de_morgan() {
        let mut m = BddManager::new();
        let v: Vec<_> = (0..2).map(|_| m.new_var()).collect();
        let x = m.var(v[0]).unwrap();
        let y = m.var(v[1]).unwrap();
        let lhs = {
            let a = m.and(x, y).unwrap();
            m.not(a).unwrap()
        };
        let rhs = {
            let nx = m.not(x).unwrap();
            let ny = m.not(y).unwrap();
            m.or(nx, ny).unwrap()
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation_is_identity() {
        let mut m = BddManager::new();
        let v: Vec<_> = (0..3).map(|_| m.new_var()).collect();
        let x = m.var(v[0]).unwrap();
        let z = m.var(v[2]).unwrap();
        let f = m.xor(x, z).unwrap();
        let nf = m.not(f).unwrap();
        let nnf = m.not(nf).unwrap();
        assert_eq!(f, nnf);
    }

    #[test]
    fn ite_equals_expansion() {
        let mut m = BddManager::new();
        let v: Vec<_> = (0..3).map(|_| m.new_var()).collect();
        let f = m.var(v[1]).unwrap();
        let g = m.var(v[0]).unwrap();
        let h = m.var(v[2]).unwrap();
        let ite = m.ite(f, g, h).unwrap();
        let expansion = {
            let fg = m.and(f, g).unwrap();
            let nf = m.not(f).unwrap();
            let nfh = m.and(nf, h).unwrap();
            m.or(fg, nfh).unwrap()
        };
        assert_eq!(ite, expansion);
    }

    #[test]
    fn ite_shortcuts() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let x = m.var(v).unwrap();
        assert_eq!(m.ite(Bdd::TRUE, x, Bdd::FALSE).unwrap(), x);
        assert_eq!(m.ite(Bdd::FALSE, Bdd::FALSE, x).unwrap(), x);
        assert_eq!(m.ite(x, Bdd::TRUE, Bdd::FALSE).unwrap(), x);
        assert_eq!(m.ite(x, Bdd::TRUE, Bdd::TRUE).unwrap(), Bdd::TRUE);
    }

    #[test]
    fn conjunction_of_disjoint_supports_is_additive() {
        // The Section 2.2 claim: ‖BDD(R1) ∧ BDD(R2)‖ = ‖R1‖ + ‖R2‖ when the
        // supports are disjoint (Cartesian product of relations).
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..8).map(|_| m.new_var()).collect();
        // f = parity of vars 0..4 (4 levels × 2 nodes each minus sharing)
        let mut f = Bdd::FALSE;
        for &v in &vars[..4] {
            let x = m.var(v).unwrap();
            f = m.xor(f, x).unwrap();
        }
        let mut g = Bdd::FALSE;
        for &v in &vars[4..] {
            let x = m.var(v).unwrap();
            g = m.xor(g, x).unwrap();
        }
        let sf = m.size(f);
        let sg = m.size(g);
        let fg = m.and(f, g).unwrap();
        assert_eq!(m.size(fg), sf + sg);
    }

    #[test]
    fn and_many_matches_pairwise() {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..4).map(|_| m.new_var()).collect();
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v).unwrap()).collect();
        let folded = m.and_many(&lits).unwrap();
        let mut pairwise = Bdd::TRUE;
        for &l in &lits {
            pairwise = m.and(pairwise, l).unwrap();
        }
        assert_eq!(folded, pairwise);
        assert_eq!(m.or_many(&[]).unwrap(), Bdd::FALSE);
        assert_eq!(m.and_many(&[]).unwrap(), Bdd::TRUE);
    }
}
