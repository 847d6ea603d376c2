//! Figure 6 — the query-rewrite micro-comparisons, on raw BDD operations.
//!
//! * `fig6 a` (Fig 6(a)): equi-join `R1 ⋈ R2`, naive strategy
//!   (`BDD(R1) ∧ BDD(R2) ∧ ⋀ BDD([xᵢ = yᵢ])`) vs the optimized rename
//!   (`BDD(R1) ∧ BDD(R2[x/y])`), with one and two join attributes, varying
//!   ‖BDD(R1)‖ at fixed ‖BDD(R2)‖.
//! * `fig6 b` (Fig 6(b)): `∃x P ∨ ∃x Q`, each operand quantified
//!   separately, vs `∃x (P ∨ Q)` with the fused `app_exists` (quantifier
//!   pull-up, Rule 3).
//! * `fig6 c` (Fig 6(c)): `∀x (P ∧ Q)` evaluated as one big conjunction
//!   with `app_forall` vs pushed-down `∀x P ∧ ∀x Q` (Rule 5).
//!
//! Flags: `--steps N` (number of sizes, default 6), `--base N` (tuples per
//! step, default 20000).

use relcheck_bdd::{Bdd, BddManager, DomainId, Op};
use relcheck_bench::{arg_selector, arg_usize, ms, timed, Table};
use relcheck_datagen::gen_random;
use relcheck_datagen::rng::SplitMix64;

/// Build a relation BDD over `k` fresh domains of size `dom` from `n`
/// random tuples.
fn random_bdd(m: &mut BddManager, k: usize, dom: u64, n: usize, seed: u64) -> (Vec<DomainId>, Bdd) {
    let g = gen_random(k, dom, n, seed);
    let domains: Vec<DomainId> = (0..k).map(|_| m.add_domain(dom).unwrap()).collect();
    let rows: Vec<Vec<u64>> = g
        .relation
        .rows()
        .map(|r| r.iter().map(|&v| v as u64).collect())
        .collect();
    let root = m.relation_from_rows(&domains, &rows).unwrap();
    (domains, root)
}

fn fig6a(steps: usize, base: usize) {
    println!("Figure 6(a): equi-join — naive equality cubes vs rename");
    println!("(|dom| = 1000 per attribute; R2 fixed; R1 grows)\n");
    let mut t = Table::new(&[
        "R1 nodes",
        "naive 1-attr (ms)",
        "rename 1-attr (ms)",
        "naive 2-attr (ms)",
        "rename 2-attr (ms)",
    ]);
    for step in 1..=steps {
        let mut row = Vec::new();
        let mut sizes = Vec::new();
        for attrs in [1usize, 2] {
            let mut m = BddManager::with_capacity(1 << 20);
            // R1(a, b, c), R2(d, e, f): join on (b=d) or (b=d, c=e).
            let (d1, r1) = random_bdd(&mut m, 3, 1000, base * step, 11 + step as u64);
            let (d2, r2) = random_bdd(&mut m, 3, 1000, base, 999);
            sizes.push(m.size(r1));
            let pairs: Vec<(DomainId, DomainId)> = match attrs {
                1 => vec![(d2[0], d1[1])],
                _ => vec![(d2[0], d1[1]), (d2[1], d1[2])],
            };
            // Naive: conjoin equality BDDs, then drop R2's join columns.
            let (naive, naive_t) = timed(|| {
                let mut acc = m.and(r1, r2).unwrap();
                for &(from, to) in &pairs {
                    let eq = m.domain_eq(from, to).unwrap();
                    acc = m.and(acc, eq).unwrap();
                }
                let drop: Vec<DomainId> = pairs.iter().map(|&(from, _)| from).collect();
                let vs = m.domain_varset(&drop);
                m.exists(acc, vs).unwrap()
            });
            // Optimized: rename R2's join columns onto R1's, then conjoin.
            let (renamed, rename_t) = timed(|| {
                let moved = m.replace_domains(r2, &pairs).unwrap();
                m.and(r1, moved).unwrap()
            });
            assert_eq!(naive, renamed, "both strategies compute the same join");
            row.push(ms(naive_t));
            row.push(ms(rename_t));
        }
        t.row(&[
            sizes[0].to_string(),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
            row[3].clone(),
        ]);
    }
    t.print();
    println!("\nPaper expectation: rename is 2-3x faster than the naive strategy.");
}

fn fig6b(steps: usize, base: usize) {
    println!("Figure 6(b): Ex(P) OR Ex(Q)  vs  Ex(P OR Q) with app_exists\n");
    println!("(P, Q: random relations over the same three attributes; x quantified)\n");
    let mut t = Table::new(&["P nodes", "separate (ms)", "fused appex (ms)"]);
    for step in 1..=steps {
        let mut m = BddManager::with_capacity(1 << 20);
        let dom = 1000u64;
        let doms: Vec<DomainId> = (0..3).map(|_| m.add_domain(dom).unwrap()).collect();
        let x = doms[0];
        let build = |m: &mut BddManager, n: usize, seed: u64| {
            let g = gen_random(3, dom, n, seed);
            let rows: Vec<Vec<u64>> = g
                .relation
                .rows()
                .map(|r| r.iter().map(|&v| v as u64).collect())
                .collect();
            m.relation_from_rows(&doms, &rows).unwrap()
        };
        let p = build(&mut m, base * step, 21 + step as u64);
        let q = build(&mut m, base, 2999);
        let p_nodes = m.size(p);
        let vs = m.domain_varset(&[x]);
        let (sep, sep_t) = timed(|| {
            let ep = m.exists(p, vs).unwrap();
            let eq = m.exists(q, vs).unwrap();
            m.or(ep, eq).unwrap()
        });
        m.gc(&[p, q, sep]);
        let (fused, fused_t) = timed(|| m.app_exists(Op::Or, p, q, vs).unwrap());
        assert_eq!(sep, fused);
        t.row(&[p_nodes.to_string(), ms(sep_t), ms(fused_t)]);
    }
    t.print();
    println!(
        "\nPaper expectation: the fused pull-up form (app_exists) wins — ∃x φ is not\n\
         much smaller than φ, so fusing avoids materializing the disjunction (Rule 3)."
    );
}

fn fig6c(steps: usize, base: usize) {
    println!("Figure 6(c): FAx(P) AND FAx(Q)  vs  FAx(P AND Q) with app_forall\n");
    println!("(P, Q: implication-shaped constraint matrices R_i -> C_i, the form ∀ is");
    println!(" actually applied to during checking; x is the deepest attribute)\n");
    let mut t = Table::new(&["P nodes", "pushed-down (ms)", "fused appall (ms)"]);
    for step in 1..=steps {
        let mut m = BddManager::with_capacity(1 << 20);
        let dom = 1000u64;
        let a = m.add_domain(dom).unwrap();
        let b = m.add_domain(dom).unwrap();
        let x = m.add_domain(dom).unwrap(); // deepest block
        let doms = vec![a, x, b];
        let build = |m: &mut BddManager, n: usize, seed: u64, concl: DomainId| {
            // Uniform rows over the full 0..dom range so the premise is not
            // accidentally contained in the conclusion set.
            let mut rng = SplitMix64::seed_from_u64(seed);
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(0..dom)).collect())
                .collect();
            let r = m.relation_from_rows(&doms, &rows).unwrap();
            let s = m
                .value_set(concl, &(0..(dom * 9 / 10)).collect::<Vec<_>>())
                .unwrap();
            m.imp(r, s).unwrap()
        };
        let p = build(&mut m, base * step, 31 + step as u64, b);
        let q = build(&mut m, base, 3999, a);
        let p_nodes = m.size(p);
        let vs = m.domain_varset(&[x]);
        let (pushed, pushed_t) = timed(|| {
            let ap = m.forall(p, vs).unwrap();
            let aq = m.forall(q, vs).unwrap();
            m.and(ap, aq).unwrap()
        });
        m.gc(&[p, q, pushed]);
        let (fused, fused_t) = timed(|| m.app_forall(Op::And, p, q, vs).unwrap());
        assert_eq!(pushed, fused);
        t.row(&[p_nodes.to_string(), ms(pushed_t), ms(fused_t)]);
    }
    t.print();
    println!(
        "\nPaper expectation: the pushed-down form wins, because ∀x φ is much smaller\n\
         than φ, making the outer conjunction cheap (Rule 5). The advantage holds for\n\
         implication-shaped (dense) operands; for sparse relation BDDs the fused form\n\
         can win — see the `quant` group of `cargo bench -p relcheck-bench`."
    );
}

fn main() {
    let steps = arg_usize("--steps", 6);
    let base = arg_usize("--base", 20_000);
    match arg_selector().as_deref() {
        Some("a") => fig6a(steps, base),
        Some("b") => fig6b(steps, base),
        Some("c") => fig6c(steps, base),
        _ => {
            fig6a(steps, base);
            println!();
            fig6b(steps, base);
            println!();
            fig6c(steps, base);
        }
    }
}
