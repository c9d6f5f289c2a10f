//! Order statistics over small samples of host timings.

/// Median, extremes and inter-quartile range of one host-timed quantity
/// over the repeats of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr: f64,
}

/// Summarises `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        min: v[0],
        max: v[v.len() - 1],
        iqr: quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25),
    })
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// The ⌊n/8⌋-th smallest value (0 when empty): the minimum of up to
/// seven samples, the second smallest of eight to fifteen, and so on.
/// Interference on a shared host only ever adds time, so a low order
/// statistic estimates the undisturbed cost far more steadily than the
/// median does, while a large sample still discards a freak fast value.
pub fn quiet(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 8).copied().unwrap_or(0.0)
}

/// Host seconds of a window run as the same slices in every repeat: the
/// sum, slice by slice, of the [`quiet`] value across repeats. A slow
/// spell must cover the same slice in nearly every repeat to show.
pub fn quiet_total(repeats: &[&[f64]]) -> f64 {
    let slices = repeats.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..slices)
        .map(|i| quiet(&repeats.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// Linearly interpolated quantile of an ascending slice: `q = 0.5` of
/// `[1, 2, 3, 4]` is 2.5.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        assert_eq!(s.iqr, 1.0);
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.iqr, 3.25 - 1.75);
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_total_takes_each_slice_from_its_quiet_repeats() {
        assert_eq!(quiet(&[]), 0.0);
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
        let nine: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(quiet(&nine), 2.0);
        // Each repeat is disturbed in a different slice.
        let repeats: [&[f64]; 3] = [&[1.0, 2.0, 9.0], &[1.0, 8.0, 3.0], &[7.0, 2.0, 3.0]];
        assert_eq!(quiet_total(&repeats), 6.0);
        assert_eq!(quiet_total(&[]), 0.0);
    }
}
