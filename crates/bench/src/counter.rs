//! A counting global allocator: tracks live bytes and the high-water mark.
//!
//! This is how the harness reproduces the paper's "main memory usage"
//! columns without an external profiler: peak allocated bytes over a
//! measured region approximates the resident-set behaviour of a
//! DOM-building query processor, which is exactly the quantity the
//! paper's Figure 5 is about.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator with live/peak byte accounting.
pub struct CountingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAllocator {
    /// A fresh counter.
    pub const fn new() -> Self {
        CountingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Currently live bytes.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark since the last [`Self::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live count and returns
    /// that baseline.
    pub fn reset_peak(&self) -> usize {
        let now = self.live();
        self.peak.store(now, Ordering::Relaxed);
        now
    }

    /// Runs `f`, returning its result and the peak *additional* bytes
    /// allocated while it ran.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
        let baseline = self.reset_peak();
        let out = f();
        let peak = self.peak().saturating_sub(baseline);
        (out, peak)
    }

    fn add(&self, n: usize) {
        let live = self.live.fetch_add(n, Ordering::Relaxed) + n;
        // racy max is fine for a measurement tool
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self
                .peak
                .compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    fn sub(&self, n: usize) {
        self.live.fetch_sub(n, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation to `System`, only adding counters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    /// One test, not two: the allocator is process-global, so a region
    /// measured on one test thread sees what another allocates meanwhile.
    #[test]
    fn measures_the_peak_of_a_region_and_resets_it() {
        let (len, peak) = crate::ALLOCATOR.measure(|| {
            let v: Vec<u8> = vec![0u8; 1 << 20];
            v.len()
        });
        assert_eq!(len, 1 << 20);
        assert!(peak >= 1 << 20, "peak {peak}");

        let (_, peak) = crate::ALLOCATOR.measure(|| 0u8);
        assert!(peak < 1 << 16, "peak {peak} survived the previous region");
    }
}
