//! Intensity windowing and histograms.

use als_tomo::Image;
use serde::{Deserialize, Serialize};

/// A linear intensity window mapping `[lo, hi]` to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Window {
    pub lo: f32,
    pub hi: f32,
}

impl Window {
    /// Window covering the image's full range.
    pub fn full_range(img: &Image) -> Window {
        let (lo, hi) = img.min_max();
        if lo == hi {
            Window { lo, hi: lo + 1.0 }
        } else {
            Window { lo, hi }
        }
    }

    /// Robust window at the given percentiles (e.g. 1/99) — what viewers
    /// use so a single hot pixel doesn't flatten the display.
    pub fn percentile(img: &Image, p_lo: f64, p_hi: f64) -> Window {
        if img.data.is_empty() {
            return Window { lo: 0.0, hi: 1.0 };
        }
        let mut sorted: Vec<f32> = img.data.clone();
        sorted.sort_by(f32::total_cmp);
        let pick = |p: f64| -> f32 {
            let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        let lo = pick(p_lo);
        let hi = pick(p_hi);
        if lo == hi {
            Window { lo, hi: lo + 1.0 }
        } else {
            Window { lo, hi }
        }
    }

    /// Apply to one value, clamped to `[0, 1]`.
    pub fn apply(&self, v: f32) -> f32 {
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// Intensity histogram with `bins` equal-width bins over `[lo, hi]`.
/// Out-of-range values clamp to the end bins.
pub fn histogram(img: &Image, lo: f32, hi: f32, bins: usize) -> Vec<u64> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let mut out = vec![0u64; bins];
    let scale = bins as f32 / (hi - lo);
    for &v in &img.data {
        let idx = (((v - lo) * scale) as isize).clamp(0, bins as isize - 1) as usize;
        out[idx] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Image {
        let mut img = Image::square(n);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = i as f32;
        }
        img
    }

    #[test]
    fn full_range_window_maps_extremes() {
        let img = ramp(4);
        let w = Window::full_range(&img);
        assert_eq!(w.apply(0.0), 0.0);
        assert_eq!(w.apply(15.0), 1.0);
        assert!((w.apply(7.5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn window_clamps_out_of_range() {
        let w = Window { lo: 0.0, hi: 1.0 };
        assert_eq!(w.apply(-5.0), 0.0);
        assert_eq!(w.apply(5.0), 1.0);
    }

    #[test]
    fn percentile_window_ignores_outliers() {
        let mut img = ramp(10);
        img.data[0] = -1e9;
        img.data[1] = 1e9;
        let w = Window::percentile(&img, 5.0, 95.0);
        assert!(
            w.lo > -1e8 && w.hi < 1e8,
            "window {w:?} should exclude outliers"
        );
    }

    #[test]
    fn constant_image_gets_nonzero_window() {
        let img = Image::square(4); // all zeros
        let w = Window::full_range(&img);
        assert!(w.hi > w.lo);
        let p = Window::percentile(&img, 1.0, 99.0);
        assert!(p.hi > p.lo);
    }

    #[test]
    fn histogram_counts_everything_once() {
        let img = ramp(8); // values 0..63
        let h = histogram(&img, 0.0, 64.0, 8);
        assert_eq!(h.iter().sum::<u64>(), 64);
        assert!(h.iter().all(|&c| c == 8), "{h:?}");
    }

    #[test]
    fn histogram_clamps_outliers_to_edge_bins() {
        let mut img = Image::square(2);
        img.data = vec![-100.0, 0.5, 0.5, 100.0];
        let h = histogram(&img, 0.0, 1.0, 2);
        // -100 clamps into bin 0; 0.5 sits on the boundary and lands in
        // bin 1; +100 clamps into bin 1
        assert_eq!(h, vec![1, 3]);
    }

    #[test]
    fn histogram_boundary_behaviour_is_defined() {
        let mut img = Image::square(2);
        img.data = vec![-100.0, 0.25, 0.75, 100.0];
        let h = histogram(&img, 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        histogram(&ramp(2), 0.0, 1.0, 0);
    }
}
