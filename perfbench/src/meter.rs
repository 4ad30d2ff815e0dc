//! Process-wide heap accounting and the order statistics every metric
//! is reported with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest value `LIVE` reached.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with live-byte, peak and call counters. The
/// counters are statistics that publish no other data, so `Relaxed`
/// suffices.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout contract is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout contract is passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Allocation calls made by the whole process so far.
pub fn alloc_calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Peak live heap of the process so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Median of `v` (mean of the middle pair for even counts); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 if empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

/// A tail order statistic: the value, which percentile it is, and how
/// many samples it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples above it (nearest rank). Fewer than 20 samples fall back to
/// the median. The fixed ladder keeps the chosen percentile the same
/// across runs whose sample counts differ a little.
pub fn tail(v: &[f64]) -> Tail {
    // Percentiles in tenths of a percent, so the rank arithmetic is exact.
    const LADDER: [usize; 7] = [999, 995, 990, 950, 900, 750, 500];
    let n = v.len();
    let rank = |p: usize| (p * n).div_ceil(1000);
    let p = LADDER
        .iter()
        .copied()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(500);
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Tail {
        value: s.get(rank(p).saturating_sub(1)).copied().unwrap_or(0.0),
        percentile: p as f64 / 10.0,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        let t = tail(&v[..100]);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(tail(&v[..5]).percentile, 50.0);
    }
}
