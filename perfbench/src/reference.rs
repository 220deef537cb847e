//! Reference normalization of host time.
//!
//! On a shared host, memory-heavy code runs up to ~1.8× slower for
//! seconds at a time while a pure arithmetic loop does not slow at all,
//! so raw wall-clock medians of two runs of the same code can differ by
//! 30%. The reference kernel below is a fixed piece of the benchmark's own
//! work with the same character as the operations: small string
//! allocations, hashing into a map, a sort, frees. It runs on the same
//! thread just before each operation. Its time follows the slow periods
//! closely: over 40 s of a 10k-triple parse-and-load loop on a 2-vCPU
//! Firecracker guest, the loop's time swung from 11.0 to 20.1 ms while
//! the loop's time divided by the kernel's stayed between 5.62 and 6.02.
//!
//! A normalized time is `raw × REFERENCE_NS / reference`, where
//! `reference` is the median of the latest kernel timings. It reads as
//! host milliseconds on a machine where the kernel takes 2 ms. The
//! kernel belongs to the benchmark, so a change to the program moves the
//! normalized figures exactly as much as the raw ones.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Kernel time the normalized figures are expressed against.
pub const REFERENCE_NS: f64 = 2.0e6;
/// Kernel timings the running median covers.
const WINDOW: usize = 5;

/// The kernel: intern 8000 keys drawn from 6000 distinct strings, build
/// and sort the records, and free everything.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut ids: HashMap<Box<str>, u32> = HashMap::with_capacity(1024);
    let mut recs: Vec<(u32, u32, u32)> = Vec::new();
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    for i in 0..8000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("<http://example.org/resource/{}>", x % 6000);
        let next = ids.len() as u32;
        let id = *ids.entry(key.into_boxed_str()).or_insert(next);
        recs.push((id, i % 37, (x >> 40) as u32));
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&x.to_le_bytes());
        bufs.push(buf);
    }
    recs.sort_unstable();
    recs.iter().map(|r| u64::from(r.0) + u64::from(r.2)).sum::<u64>()
        + bufs.iter().map(|b| u64::from(b[0])).sum::<u64>()
}

/// Time one run of the kernel.
pub fn time_ns() -> u64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    u64::try_from(t.elapsed().as_nanos()).expect("kernel shorter than 584 years")
}

/// Running median of the latest kernel timings.
#[derive(Default)]
pub struct Scale {
    recent: VecDeque<u64>,
}

impl Scale {
    /// Record a kernel timing.
    pub fn push(&mut self, ns: u64) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ns);
    }

    /// Factor that converts raw host time to normalized time.
    pub fn factor(&self) -> f64 {
        let v: Vec<f64> = self.recent.iter().map(|&ns| ns as f64).collect();
        assert!(!v.is_empty(), "a kernel timing precedes every normalization");
        REFERENCE_NS / crate::stats::median(&v)
    }
}
