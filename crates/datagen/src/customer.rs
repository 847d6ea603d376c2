//! Synthetic customer database — stand-in for the paper's AT&T data.
//!
//! The paper's real dataset: 406,769 customers with schema
//! `(areacode, number, city, state, zipcode)` and active-domain sizes
//! `(281, 889, 10894, 50, 17557)`. That data is proprietary, so we generate
//! a synthetic population with the same schema, the same active-domain
//! sizes, and the correlation structure such phone data actually has:
//!
//! * every city belongs to one state (`city → state`, modulo injected
//!   violations);
//! * every area code belongs to one state (`areacode → state`);
//! * every zipcode belongs to one city (`zipcode → city`);
//! * city populations follow a heavy-tailed (zipf-like) distribution;
//! * phone `number` prefixes are uniform.
//!
//! The BDD experiments (Figures 4 and 5) depend only on these domain sizes
//! and correlations, which is why the substitution preserves the paper's
//! behaviour (see DESIGN.md).

use crate::rng::SplitMix64;
use relcheck_relstore::{Relation, Schema};

/// Generator configuration. Defaults mirror the paper.
#[derive(Debug, Clone)]
pub struct CustomerConfig {
    /// Number of customer rows to generate (pre-dedup).
    pub rows: usize,
    /// Active-domain sizes, in schema order
    /// `(areacode, number, city, state, zipcode)`.
    pub dom_sizes: [u64; 5],
    /// Fraction of rows whose `state` is scrambled (breaks `city → state`
    /// and `areacode → state`). 0.0 = clean data.
    pub violation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CustomerConfig {
    fn default() -> Self {
        CustomerConfig {
            rows: 406_769,
            dom_sizes: [281, 889, 10894, 50, 17557],
            violation_rate: 0.0,
            seed: 0xC0FFEE,
        }
    }
}

/// The generated customer database plus its generating model (needed to
/// derive *satisfied* constraints for the Figure 5 experiments).
#[derive(Debug, Clone)]
pub struct CustomerData {
    /// The customer relation `(areacode, number, city, state, zipcode)`;
    /// column classes are `areacode`, `number`, `city`, `state`, `zipcode`.
    pub relation: Relation,
    /// Active-domain sizes in schema order.
    pub dom_sizes: [u64; 5],
    /// `state(city)` from the generating model.
    pub city_state: Vec<u32>,
    /// `state(areacode)` from the generating model.
    pub areacode_state: Vec<u32>,
    /// `city(zipcode)` from the generating model.
    pub zipcode_city: Vec<u32>,
    /// Area codes serving each state.
    pub state_areacodes: Vec<Vec<u32>>,
}

/// Column indices of the customer schema.
pub mod col {
    /// areacode
    pub const AREACODE: usize = 0;
    /// number (prefix)
    pub const NUMBER: usize = 1;
    /// city
    pub const CITY: usize = 2;
    /// state
    pub const STATE: usize = 3;
    /// zipcode
    pub const ZIPCODE: usize = 4;
}

/// Generate the synthetic customer database.
pub fn generate(cfg: &CustomerConfig) -> CustomerData {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let [n_area, n_number, n_city, n_state, n_zip] = cfg.dom_sizes;

    // Model: assign each city and each area code to a state; each zipcode
    // to a city. Round-robin with shuffle-free random assignment keeps all
    // domains fully active.
    let city_state: Vec<u32> = (0..n_city)
        .map(|_| rng.gen_range(0..n_state) as u32)
        .collect();
    let areacode_state: Vec<u32> = (0..n_area)
        .map(|_| rng.gen_range(0..n_state) as u32)
        .collect();
    // Give every city at least one zipcode (when there are enough zips) so
    // the model FD `zipcode → city` holds with every city active; remaining
    // zips spread randomly.
    let zipcode_city: Vec<u32> = (0..n_zip)
        .map(|z| {
            if z < n_city {
                z as u32
            } else {
                rng.gen_range(0..n_city) as u32
            }
        })
        .collect();

    let mut state_areacodes: Vec<Vec<u32>> = vec![Vec::new(); n_state as usize];
    for (ac, &st) in areacode_state.iter().enumerate() {
        state_areacodes[st as usize].push(ac as u32);
    }
    // Guarantee every state has at least one area code.
    for acs in state_areacodes.iter_mut() {
        if acs.is_empty() {
            acs.push(rng.gen_range(0..n_area) as u32);
        }
    }
    let mut city_zips: Vec<Vec<u32>> = vec![Vec::new(); n_city as usize];
    for (z, &c) in zipcode_city.iter().enumerate() {
        city_zips[c as usize].push(z as u32);
    }

    // Zipf-ish city weights: weight(rank) ∝ 1/(rank+1).
    let weights: Vec<f64> = (0..n_city).map(|i| 1.0 / (i + 1) as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    // Cumulative distribution for sampling.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_weight;
        cdf.push(acc);
    }

    let mut rows = Vec::with_capacity(cfg.rows);
    for _ in 0..cfg.rows {
        let u: f64 = rng.gen_f64();
        let city = cdf.partition_point(|&c| c < u).min(n_city as usize - 1) as u32;
        let mut state = city_state[city as usize];
        if cfg.violation_rate > 0.0 && rng.gen_bool(cfg.violation_rate) {
            state = rng.gen_range(0..n_state) as u32;
        }
        let acs = &state_areacodes[state as usize];
        let areacode = acs[rng.gen_range(0..acs.len())];
        let zips = &city_zips[city as usize];
        let zipcode = if zips.is_empty() {
            rng.gen_range(0..n_zip) as u32
        } else {
            zips[rng.gen_range(0..zips.len())]
        };
        let number = rng.gen_range(0..n_number) as u32;
        rows.push(vec![areacode, number, city, state, zipcode]);
    }

    let schema = Schema::new(&[
        ("areacode", "areacode"),
        ("number", "number"),
        ("city", "city"),
        ("state", "state"),
        ("zipcode", "zipcode"),
    ]);
    CustomerData {
        relation: Relation::from_rows(schema, rows).expect("fixed arity"),
        dom_sizes: cfg.dom_sizes,
        city_state,
        areacode_state,
        zipcode_city,
        state_areacodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcheck_relstore::algebra;

    fn small_cfg() -> CustomerConfig {
        CustomerConfig {
            rows: 20_000,
            dom_sizes: [40, 100, 500, 20, 800],
            violation_rate: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn clean_data_satisfies_model_fds() {
        let d = generate(&small_cfg());
        // city → state holds on clean data.
        assert!(
            algebra::fd_violations(&d.relation, &[col::CITY], &[col::STATE])
                .unwrap()
                .is_empty()
        );
        // zipcode → city holds.
        assert!(
            algebra::fd_violations(&d.relation, &[col::ZIPCODE], &[col::CITY])
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn areacode_state_consistent_with_model() {
        let d = generate(&small_cfg());
        for row in d.relation.rows() {
            let ac = row[col::AREACODE] as usize;
            let st = row[col::STATE];
            assert!(
                d.state_areacodes[st as usize].contains(&(ac as u32)),
                "area code {ac} not registered for state {st}"
            );
        }
    }

    #[test]
    fn violations_injected_at_requested_rate() {
        let mut cfg = small_cfg();
        cfg.violation_rate = 0.10;
        let d = generate(&cfg);
        let v = algebra::fd_violations(&d.relation, &[col::CITY], &[col::STATE]).unwrap();
        assert!(!v.is_empty(), "10% scrambling must break city → state");
    }

    #[test]
    fn domains_within_bounds() {
        let d = generate(&small_cfg());
        for (c, &size) in d.dom_sizes.iter().enumerate() {
            assert!(
                d.relation.col(c).iter().all(|&v| (v as u64) < size),
                "column {c}"
            );
        }
    }

    #[test]
    fn city_distribution_is_heavy_tailed() {
        let d = generate(&small_cfg());
        let counts = {
            let mut c = vec![0usize; 500];
            for &city in d.relation.col(col::CITY) {
                c[city as usize] += 1;
            }
            c
        };
        let max = *counts.iter().max().unwrap();
        let avg = d.relation.len() / 500;
        assert!(
            max > 10 * avg,
            "top city should dominate: max={max}, avg={avg}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.relation.len(), b.relation.len());
        assert_eq!(a.city_state, b.city_state);
    }
}
