//! Execution-time measurement helpers (Table IV, top rows).

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the wall-clock duration.
///
/// # Example
///
/// ```
/// use mosaic_metrics::timing::time_it;
/// let (sum, elapsed) = time_it(|| (0..1000u64).sum::<u64>());
/// assert_eq!(sum, 499500);
/// assert!(elapsed.as_nanos() > 0 || elapsed.is_zero());
/// ```
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_value() {
        let (v, d) = time_it(|| 42);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}
