//! Histograms with commutative, associative merge.
//!
//! HEP analyses end in histograms, and the paper's DAGs end in histogram
//! *accumulation*. Because addition of bin contents is commutative and
//! associative, the accumulation "can often be done hierarchically" (§II-A)
//! — the algebraic fact that justifies the Fig 11 tree-reduction rewrite.
//! The property tests pin this down: merging in any order or grouping
//! yields identical results.

use std::collections::BTreeMap;

/// A fixed-binning 1-D histogram with under/overflow and weight tracking.
#[derive(Clone, Debug, PartialEq)]
pub struct Hist1D {
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
    underflow: f64,
    overflow: f64,
    sum_w: f64,
    sum_wx: f64,
}

impl Hist1D {
    /// A histogram with `bins` regular bins on `[lo, hi)`.
    ///
    /// # Panics
    /// If `bins == 0` or `hi <= lo`.
    pub fn new(bins: usize, lo: f64, hi: f64) -> Self {
        assert!(bins > 0 && hi > lo, "invalid histogram axis");
        Hist1D {
            lo,
            hi,
            counts: vec![0.0; bins],
            underflow: 0.0,
            overflow: 0.0,
            sum_w: 0.0,
            sum_wx: 0.0,
        }
    }

    /// Number of regular bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Axis bounds `(lo, hi)`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Fill with unit weight.
    pub fn fill(&mut self, x: f64) {
        self.fill_weighted(x, 1.0);
    }

    /// Fill with the given weight.
    pub fn fill_weighted(&mut self, x: f64, w: f64) {
        if x < self.lo {
            self.underflow += w;
        } else if x >= self.hi {
            self.overflow += w;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            // Guard the pathological x == hi-epsilon rounding to len().
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += w;
        }
        self.sum_w += w;
        self.sum_wx += w * x;
    }

    /// Fill from a slice.
    pub fn fill_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.fill(x);
        }
    }

    /// Bin contents (regular bins only).
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Underflow weight.
    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    /// Overflow weight.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Total filled weight (including under/overflow).
    pub fn total(&self) -> f64 {
        self.sum_w
    }

    /// Weighted mean of fills, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.sum_w != 0.0).then(|| self.sum_wx / self.sum_w)
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.counts.len() as f64
    }

    /// Merge another histogram into this one.
    ///
    /// # Panics
    /// If the binnings differ.
    pub fn merge(&mut self, other: &Hist1D) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "cannot merge histograms with different binnings"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.sum_w += other.sum_w;
        self.sum_wx += other.sum_wx;
    }

    /// Approximate serialized size in bytes (for transfer cost modeling).
    pub fn byte_size(&self) -> u64 {
        (self.counts.len() * 8 + 48) as u64
    }

    /// The raw weighted sum of fill positions (Σ w·x) — exposed for exact
    /// serialization.
    pub fn sum_wx(&self) -> f64 {
        self.sum_wx
    }

    /// Rebuild a histogram from its exact raw state (the codec's inverse).
    ///
    /// # Panics
    /// If `counts` is empty or `hi <= lo`.
    pub fn from_raw_parts(
        lo: f64,
        hi: f64,
        counts: Vec<f64>,
        underflow: f64,
        overflow: f64,
        sum_w: f64,
        sum_wx: f64,
    ) -> Self {
        assert!(!counts.is_empty() && hi > lo, "invalid histogram axis");
        Hist1D {
            lo,
            hi,
            counts,
            underflow,
            overflow,
            sum_w,
            sum_wx,
        }
    }
}

/// A fixed-binning 2-D histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct Hist2D {
    x_bins: usize,
    y_bins: usize,
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    counts: Vec<f64>,
    outside: f64,
    sum_w: f64,
}

impl Hist2D {
    /// A 2-D histogram with regular binning on both axes.
    pub fn new(x_bins: usize, x_lo: f64, x_hi: f64, y_bins: usize, y_lo: f64, y_hi: f64) -> Self {
        assert!(x_bins > 0 && y_bins > 0 && x_hi > x_lo && y_hi > y_lo);
        Hist2D {
            x_bins,
            y_bins,
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            counts: vec![0.0; x_bins * y_bins],
            outside: 0.0,
            sum_w: 0.0,
        }
    }

    /// Fill with the given weight.
    pub fn fill_weighted(&mut self, x: f64, y: f64, w: f64) {
        self.sum_w += w;
        if x < self.x_lo || x >= self.x_hi || y < self.y_lo || y >= self.y_hi {
            self.outside += w;
            return;
        }
        let xi = (((x - self.x_lo) / (self.x_hi - self.x_lo) * self.x_bins as f64) as usize)
            .min(self.x_bins - 1);
        let yi = (((y - self.y_lo) / (self.y_hi - self.y_lo) * self.y_bins as f64) as usize)
            .min(self.y_bins - 1);
        self.counts[yi * self.x_bins + xi] += w;
    }

    /// Fill with unit weight.
    pub fn fill(&mut self, x: f64, y: f64) {
        self.fill_weighted(x, y, 1.0);
    }

    /// Bin content at `(xi, yi)`.
    pub fn get(&self, xi: usize, yi: usize) -> f64 {
        self.counts[yi * self.x_bins + xi]
    }

    /// Total filled weight.
    pub fn total(&self) -> f64 {
        self.sum_w
    }

    /// Weight that fell outside both axes' ranges.
    pub fn outside(&self) -> f64 {
        self.outside
    }

    /// Merge another 2-D histogram into this one.
    ///
    /// # Panics
    /// If the binnings differ.
    pub fn merge(&mut self, other: &Hist2D) {
        assert!(
            self.x_bins == other.x_bins
                && self.y_bins == other.y_bins
                && self.x_lo == other.x_lo
                && self.x_hi == other.x_hi
                && self.y_lo == other.y_lo
                && self.y_hi == other.y_hi,
            "cannot merge 2-D histograms with different binnings"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.outside += other.outside;
        self.sum_w += other.sum_w;
    }

    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        (self.counts.len() * 8 + 64) as u64
    }

    /// Borrow the exact raw state (the codec's view).
    pub fn raw_parts(&self) -> Hist2DRaw<'_> {
        Hist2DRaw {
            x_bins: self.x_bins,
            y_bins: self.y_bins,
            x_lo: self.x_lo,
            x_hi: self.x_hi,
            y_lo: self.y_lo,
            y_hi: self.y_hi,
            counts: &self.counts,
            outside: self.outside,
            sum_w: self.sum_w,
        }
    }

    /// Rebuild a 2-D histogram from its exact raw state.
    ///
    /// # Panics
    /// If the shape is inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        x_bins: usize,
        y_bins: usize,
        x_lo: f64,
        x_hi: f64,
        y_lo: f64,
        y_hi: f64,
        counts: Vec<f64>,
        outside: f64,
        sum_w: f64,
    ) -> Self {
        assert!(x_bins > 0 && y_bins > 0 && counts.len() == x_bins * y_bins);
        assert!(x_hi > x_lo && y_hi > y_lo);
        Hist2D {
            x_bins,
            y_bins,
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            counts,
            outside,
            sum_w,
        }
    }
}

/// A borrowed view of a [`Hist2D`]'s exact state, for serialization.
#[derive(Clone, Copy, Debug)]
pub struct Hist2DRaw<'a> {
    /// X-axis bin count.
    pub x_bins: usize,
    /// Y-axis bin count.
    pub y_bins: usize,
    /// X-axis lower bound.
    pub x_lo: f64,
    /// X-axis upper bound.
    pub x_hi: f64,
    /// Y-axis lower bound.
    pub y_lo: f64,
    /// Y-axis upper bound.
    pub y_hi: f64,
    /// Row-major bin contents.
    pub counts: &'a [f64],
    /// Weight outside both ranges.
    pub outside: f64,
    /// Total filled weight.
    pub sum_w: f64,
}

/// A named collection of histograms — what one analysis task emits and
/// what accumulation tasks merge.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSet {
    h1: BTreeMap<String, Hist1D>,
    h2: BTreeMap<String, Hist2D>,
    /// Number of events processed into this set (additive on merge).
    pub events_processed: u64,
}

impl HistogramSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert/replace a 1-D histogram.
    pub fn set_h1(&mut self, name: impl Into<String>, h: Hist1D) {
        self.h1.insert(name.into(), h);
    }

    /// Insert/replace a 2-D histogram.
    pub fn set_h2(&mut self, name: impl Into<String>, h: Hist2D) {
        self.h2.insert(name.into(), h);
    }

    /// Borrow a 1-D histogram.
    pub fn h1(&self, name: &str) -> Option<&Hist1D> {
        self.h1.get(name)
    }

    /// Borrow a 2-D histogram.
    pub fn h2(&self, name: &str) -> Option<&Hist2D> {
        self.h2.get(name)
    }

    /// Names of all 1-D histograms, sorted.
    pub fn h1_names(&self) -> impl Iterator<Item = &str> {
        self.h1.keys().map(|s| s.as_str())
    }

    /// Names of all 2-D histograms, sorted.
    pub fn h2_names(&self) -> impl Iterator<Item = &str> {
        self.h2.keys().map(|s| s.as_str())
    }

    /// Merge another set into this one. Histograms present in only one set
    /// are carried over; shared names must have identical binnings.
    pub fn merge(&mut self, other: &HistogramSet) {
        for (name, h) in &other.h1 {
            match self.h1.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.h1.insert(name.clone(), h.clone());
                }
            }
        }
        for (name, h) in &other.h2 {
            match self.h2.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.h2.insert(name.clone(), h.clone());
                }
            }
        }
        self.events_processed += other.events_processed;
    }

    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.h1.values().map(|h| h.byte_size()).sum::<u64>()
            + self.h2.values().map(|h| h.byte_size()).sum::<u64>()
            + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_places_values_in_bins() {
        let mut h = Hist1D::new(10, 0.0, 100.0);
        h.fill(5.0);
        h.fill(95.0);
        h.fill(95.0);
        assert_eq!(h.counts()[0], 1.0);
        assert_eq!(h.counts()[9], 2.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Hist1D::new(4, 0.0, 1.0);
        h.fill(-0.5);
        h.fill(1.0); // hi is exclusive
        h.fill(2.0);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 2.0);
        assert_eq!(h.counts().iter().sum::<f64>(), 0.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn weighted_fill_and_mean() {
        let mut h = Hist1D::new(2, 0.0, 10.0);
        h.fill_weighted(2.0, 3.0);
        h.fill_weighted(8.0, 1.0);
        assert_eq!(h.total(), 4.0);
        assert!((h.mean().unwrap() - (2.0 * 3.0 + 8.0) / 4.0).abs() < 1e-12);
        assert_eq!(Hist1D::new(2, 0.0, 1.0).mean(), None);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Hist1D::new(4, 0.0, 4.0);
        let mut b = Hist1D::new(4, 0.0, 4.0);
        a.fill(0.5);
        b.fill(0.5);
        b.fill(3.5);
        b.fill(-1.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.underflow(), 1.0);
        assert_eq!(a.total(), 4.0);
    }

    #[test]
    #[should_panic(expected = "different binnings")]
    fn merge_rejects_mismatched_axes() {
        let mut a = Hist1D::new(4, 0.0, 4.0);
        let b = Hist1D::new(5, 0.0, 4.0);
        a.merge(&b);
    }

    #[test]
    fn bin_lo_edges() {
        let h = Hist1D::new(4, 0.0, 8.0);
        assert_eq!(h.bin_lo(0), 0.0);
        assert_eq!(h.bin_lo(2), 4.0);
    }

    #[test]
    fn hist2d_fill_and_get() {
        let mut h = Hist2D::new(2, 0.0, 2.0, 2, 0.0, 2.0);
        h.fill(0.5, 1.5);
        h.fill(1.5, 1.5);
        h.fill(5.0, 0.0); // outside
        assert_eq!(h.get(0, 1), 1.0);
        assert_eq!(h.get(1, 1), 1.0);
        assert_eq!(h.outside(), 1.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn hist2d_merge() {
        let mut a = Hist2D::new(2, 0.0, 2.0, 2, 0.0, 2.0);
        let mut b = a.clone();
        a.fill(0.5, 0.5);
        b.fill(0.5, 0.5);
        a.merge(&b);
        assert_eq!(a.get(0, 0), 2.0);
    }

    #[test]
    fn set_merge_is_union_with_addition() {
        let mut a = HistogramSet::new();
        let mut h = Hist1D::new(2, 0.0, 2.0);
        h.fill(0.5);
        a.set_h1("met", h.clone());
        a.events_processed = 10;

        let mut b = HistogramSet::new();
        b.set_h1("met", h);
        let mut other = Hist1D::new(3, 0.0, 3.0);
        other.fill(1.0);
        b.set_h1("mass", other);
        b.events_processed = 5;

        a.merge(&b);
        assert_eq!(a.h1("met").unwrap().total(), 2.0);
        assert_eq!(a.h1("mass").unwrap().total(), 1.0);
        assert_eq!(a.events_processed, 15);
    }

    #[test]
    fn byte_sizes_are_positive_and_scale() {
        let small = Hist1D::new(10, 0.0, 1.0);
        let large = Hist1D::new(1000, 0.0, 1.0);
        assert!(large.byte_size() > small.byte_size());
        let set = HistogramSet::new();
        assert!(set.byte_size() > 0);
    }
}
