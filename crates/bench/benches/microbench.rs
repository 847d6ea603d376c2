//! Micro-benchmarks for the BDD engine and the rewrite-rule ablations
//! (DESIGN.md decisions D2–D4), self-timed with `std::time` so the bench
//! target builds with no external harness (the workspace is offline).
//!
//! Groups:
//! * `build`     — sorted-tuple direct construction vs OR-folding (D2);
//! * `apply`     — conjunction of two relation BDDs;
//! * `join`      — rename-based vs equality-cube equi-join (D4, Fig 6(a));
//! * `quant`     — fused `app_exists`/`app_forall` vs unfused apply-then-
//!   quantify vs quantifying each operand separately (D3, Fig 6(b,c));
//! * `maintain`  — single-tuple insert/delete on an index (Fig 4(b));
//! * `ordering`  — the two ordering heuristics' own cost.
//!
//! Run with `cargo bench -p relcheck-bench`. Each case runs a warm-up pass
//! and then `SAMPLES` timed iterations; the median is reported (robust to
//! scheduler noise on small machines).

use relcheck_bdd::{Bdd, BddManager, DomainId, Op};
use relcheck_core::ordering::{max_inf_gain, prob_converge};
use relcheck_datagen::{gen_kprod, gen_random};
use std::hint::black_box;
use std::time::{Duration, Instant};

const DOM: u64 = 100;
const SAMPLES: usize = 11;

/// Run `f` once to warm caches, then `SAMPLES` timed iterations; print the
/// median and the spread.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    black_box(f());
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    let (lo, hi) = (times[0], times[times.len() - 1]);
    println!(
        "  {name:<42} {:>12.3} ms   [{:.3} .. {:.3}]",
        median.as_secs_f64() * 1e3,
        lo.as_secs_f64() * 1e3,
        hi.as_secs_f64() * 1e3,
    );
}

fn group(name: &str) {
    println!("\n{name}");
}

fn rows_u64(rel: &relcheck_relstore::Relation) -> Vec<Vec<u64>> {
    rel.rows()
        .map(|r| r.iter().map(|&v| v as u64).collect())
        .collect()
}

fn setup(attrs: usize, tuples: usize, seed: u64) -> (BddManager, Vec<DomainId>, Vec<Vec<u64>>) {
    let g = gen_random(attrs, DOM, tuples, seed);
    let mut m = BddManager::new();
    let doms: Vec<DomainId> = (0..attrs).map(|_| m.add_domain(DOM).unwrap()).collect();
    let rows = rows_u64(&g.relation);
    (m, doms, rows)
}

fn bench_build() {
    group("build (D2: sorted-tuple construction vs OR-folding)");
    for &n in &[1_000usize, 10_000, 50_000] {
        let (mut m, doms, rows) = setup(4, n, 1);
        bench(&format!("sorted/{n}"), || {
            let r = m
                .relation_from_rows_sorted(&doms, black_box(&rows))
                .unwrap();
            m.gc(&[]);
            r
        });
        let (mut m2, doms2, rows2) = setup(4, n, 1);
        bench(&format!("or_fold/{n}"), || {
            let r = m2
                .relation_from_rows_or_fold(&doms2, black_box(&rows2))
                .unwrap();
            m2.gc(&[]);
            r
        });
    }
}

fn bench_apply() {
    group("apply (conjunction of two relation BDDs)");
    for &n in &[10_000usize, 50_000] {
        let g1 = gen_kprod(4, DOM, n, 2, 3);
        let g2 = gen_kprod(4, DOM, n, 2, 4);
        let mut m = BddManager::new();
        let doms: Vec<DomainId> = (0..4).map(|_| m.add_domain(DOM).unwrap()).collect();
        let r1 = m
            .relation_from_rows(&doms, &rows_u64(&g1.relation))
            .unwrap();
        let r2 = m
            .relation_from_rows(&doms, &rows_u64(&g2.relation))
            .unwrap();
        bench(&format!("and/{n}"), || {
            let x = m.and(black_box(r1), black_box(r2)).unwrap();
            m.gc(&[r1, r2]);
            x
        });
    }
}

fn bench_join() {
    group("join (D4: rename vs equality cubes, Fig 6(a))");
    for &n in &[10_000usize, 40_000] {
        let mut m = BddManager::new();
        let d1: Vec<DomainId> = (0..3).map(|_| m.add_domain(1000).unwrap()).collect();
        let d2: Vec<DomainId> = (0..3).map(|_| m.add_domain(1000).unwrap()).collect();
        let g1 = gen_random(3, 1000, n, 5);
        let g2 = gen_random(3, 1000, n / 2, 6);
        let r1 = m.relation_from_rows(&d1, &rows_u64(&g1.relation)).unwrap();
        let r2 = m.relation_from_rows(&d2, &rows_u64(&g2.relation)).unwrap();
        bench(&format!("rename/{n}"), || {
            let moved = m.replace_domains(r2, &[(d2[0], d1[1])]).unwrap();
            let x = m.and(r1, moved).unwrap();
            m.gc(&[r1, r2]);
            x
        });
        bench(&format!("equality_cube/{n}"), || {
            let eq = m.domain_eq(d2[0], d1[1]).unwrap();
            let t = m.and(r1, r2).unwrap();
            let t = m.and(t, eq).unwrap();
            let vs = m.domain_varset(&[d2[0]]);
            let x = m.exists(t, vs).unwrap();
            m.gc(&[r1, r2]);
            x
        });
    }
}

fn bench_quant() {
    group("quant (D3: fused appex/appall vs unfused vs separate, Fig 6(b,c))");
    let n = 40_000usize;
    let mut m = BddManager::new();
    let x = m.add_domain(1000).unwrap();
    let build = |m: &mut BddManager, seed: u64, x: DomainId| -> Bdd {
        let g = gen_random(3, 1000, n, seed);
        let o1 = m.add_domain(1000).unwrap();
        let o2 = m.add_domain(1000).unwrap();
        m.relation_from_rows(&[x, o1, o2], &rows_u64(&g.relation))
            .unwrap()
    };
    let p = build(&mut m, 7, x);
    let q = build(&mut m, 8, x);
    let vs = m.domain_varset(&[x]);
    bench("exists_fused_appex", || {
        let r = m.app_exists(Op::Or, p, q, vs).unwrap();
        m.gc(&[p, q]);
        r
    });
    bench("exists_unfused", || {
        let pq = m.or(p, q).unwrap();
        let r = m.exists(pq, vs).unwrap();
        m.gc(&[p, q]);
        r
    });
    bench("exists_separate", || {
        let ep = m.exists(p, vs).unwrap();
        let eq = m.exists(q, vs).unwrap();
        let r = m.or(ep, eq).unwrap();
        m.gc(&[p, q]);
        r
    });
    bench("forall_fused_appall", || {
        let r = m.app_forall(Op::And, p, q, vs).unwrap();
        m.gc(&[p, q]);
        r
    });
    bench("forall_unfused", || {
        let pq = m.and(p, q).unwrap();
        let r = m.forall(pq, vs).unwrap();
        m.gc(&[p, q]);
        r
    });
    bench("forall_pushed_down", || {
        let ap = m.forall(p, vs).unwrap();
        let aq = m.forall(q, vs).unwrap();
        let r = m.and(ap, aq).unwrap();
        m.gc(&[p, q]);
        r
    });
}

fn bench_maintain() {
    group("maintain (single-tuple insert/delete, Fig 4(b))");
    let (mut m, doms, rows) = setup(5, 50_000, 9);
    let root = m.relation_from_rows(&doms, &rows).unwrap();
    let tuple: Vec<u64> = vec![7, 7, 7, 7, 7];
    bench("insert_delete_pair", || {
        let r = m.insert_row(root, &doms, black_box(&tuple)).unwrap();
        m.delete_row(r, &doms, &tuple).unwrap()
    });
}

fn bench_ordering() {
    group("ordering (heuristic cost)");
    let g = gen_kprod(5, DOM, 50_000, 2, 10);
    bench("max_inf_gain", || max_inf_gain(black_box(&g.relation)));
    bench("prob_converge", || {
        prob_converge(black_box(&g.relation), &g.dom_sizes)
    });
}

fn main() {
    println!("relcheck micro-benchmarks ({SAMPLES} samples/case, median [min .. max])");
    bench_build();
    bench_apply();
    bench_join();
    bench_quant();
    bench_maintain();
    bench_ordering();
}
