//! Weighted max-min fair sharing of worker slots.
//!
//! The multilevel sample allocation `N_l ∝ √(V_l / C_l)` (Giles 2008)
//! is not here: a run takes its `N_l` from its configuration, and the
//! τ-aware rule comes together with its one caller (ROADMAP 14).

/// Weighted max-min fair split of an integer capacity across tenants.
///
/// Awards `capacity` indivisible units (worker slots) one at a time,
/// each to the tenant with the smallest `granted / weight` ratio among
/// those still below their demand — the unit-granularity water-filling
/// allocation. Properties (pinned by tests):
///
/// * conserves capacity: `Σ share = min(capacity, Σ demand)`;
/// * never over-allocates: `share_i ≤ demand_i`;
/// * fair: with ample demand, shares are proportional to weights;
/// * deterministic: ties break toward the lower index.
///
/// The multi-tenant service (`uq_parallel::service`) uses this to split
/// its worker budget across concurrently running jobs, with the
/// tenants' priorities as weights; each job's share is the width of the
/// `Runtime` it runs on.
///
/// # Panics
/// Panics on mismatched lengths or non-positive/non-finite weights.
pub fn fair_share_split(capacity: usize, demands: &[usize], weights: &[f64]) -> Vec<usize> {
    assert_eq!(
        demands.len(),
        weights.len(),
        "fair_share_split: length mismatch"
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "fair_share_split: weights must be positive and finite"
    );
    let mut share = vec![0usize; demands.len()];
    for _ in 0..capacity {
        let next = (0..demands.len())
            .filter(|&i| share[i] < demands[i])
            .min_by(|&a, &b| {
                let fa = (share[a] + 1) as f64 / weights[a];
                let fb = (share[b] + 1) as f64 / weights[b];
                fa.partial_cmp(&fb).expect("finite ratios").then(a.cmp(&b))
            });
        match next {
            Some(i) => share[i] += 1,
            None => break,
        }
    }
    share
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_conserves_capacity_and_caps_at_demand() {
        let share = fair_share_split(8, &[3, 10, 2], &[1.0, 1.0, 1.0]);
        assert_eq!(share.iter().sum::<usize>(), 8);
        assert!(share.iter().zip([3, 10, 2]).all(|(&s, d)| s <= d));
        // spare capacity flows to the unsaturated tenant
        assert_eq!(share, vec![3, 3, 2]);
        // demand-bound: capacity beyond total demand is left unspent
        let share = fair_share_split(100, &[3, 4], &[1.0, 5.0]);
        assert_eq!(share, vec![3, 4]);
    }

    #[test]
    fn fair_share_follows_weights() {
        // ample demand: a 2:1 priority gets a 2:1 worker split
        assert_eq!(fair_share_split(9, &[100, 100], &[2.0, 1.0]), vec![6, 3]);
        // equal weights split evenly, ties toward the lower index
        assert_eq!(fair_share_split(5, &[9, 9], &[1.0, 1.0]), vec![3, 2]);
    }

    #[test]
    fn fair_share_degenerate_inputs() {
        assert_eq!(fair_share_split(4, &[], &[]), Vec::<usize>::new());
        assert_eq!(fair_share_split(0, &[5, 5], &[1.0, 1.0]), vec![0, 0]);
        assert_eq!(fair_share_split(3, &[0, 7], &[9.0, 1.0]), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn fair_share_rejects_zero_weight() {
        fair_share_split(1, &[1], &[0.0]);
    }
}
