//! The open-loop arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival offsets in seconds from the window start for a Poisson process
/// of `rate` per second over `seconds`, conditioned on its expected count:
/// `round(rate * seconds)` instants uniform on the window, sorted (a
/// homogeneous Poisson process given its count is exactly that). Fixing the
/// count keeps the offered load identical across seeds while inter-arrival
/// gaps stay exponential-like and bursty. A pure function of the seed.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let count = (rate * seconds).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..seconds)).collect();
    at.sort_by(f64::total_cmp);
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(1, 300.0, 2.0);
        assert_eq!(a, poisson_schedule(1, 300.0, 2.0));
        assert_ne!(a, poisson_schedule(2, 300.0, 2.0));
        assert_eq!(a.len(), 600);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn gaps_look_exponential() {
        // Mean gap 1/rate; an exponential's coefficient of variation is 1
        // (a fixed-rate schedule would have 0).
        let a = poisson_schedule(5, 300.0, 20.0);
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 300.0 - 1.0).abs() < 0.05, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "cv {}",
            var.sqrt() / mean
        );
    }
}
