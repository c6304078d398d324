//! Host calibration: what this machine's memory system sustains, so a
//! word-parallel layer's throughput can be read against a bound.
//!
//! Two kernels over `u64` buffers, the word type of `PackedBits`: a
//! STREAM-style triad (`a = b + 3c`, three streams) and the XOR +
//! popcount sweep the syndrome layer's `xor_weight` does (two streams).
//! Each runs on a 256 KiB working set (cache-resident) and a 64 MiB one
//! (memory-bound); the best pass counts, as in STREAM.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Metric;

const CACHE_WORDS: usize = 256 * 1024 / 8;
const DRAM_WORDS: usize = 64 * 1024 * 1024 / 8;

/// Best-of-`passes` seconds for one pass of `kernel`.
fn best_pass(passes: usize, mut kernel: impl FnMut()) -> f64 {
    (0..passes)
        .map(|_| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn triad_gb_s(words: usize, passes: usize) -> f64 {
    let b: Vec<u64> = (0..words as u64).collect();
    let c: Vec<u64> = (0..words as u64).map(|i| i.rotate_left(17)).collect();
    let mut a = vec![0u64; words];
    let secs = best_pass(passes, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b.wrapping_add(c.wrapping_mul(3));
        }
        black_box(&mut a);
    });
    (3 * 8 * words) as f64 / secs * 1e-9
}

fn xor_popcount_gwords_s(words: usize, passes: usize) -> f64 {
    let a: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let b: Vec<u64> = (0..words as u64).map(|i| i.rotate_left(29)).collect();
    let secs = best_pass(passes, || {
        let weight: u32 = a.iter().zip(&b).map(|(a, b)| (a ^ b).count_ones()).sum();
        black_box(weight);
    });
    words as f64 / secs * 1e-9
}

/// Measures the four `host.*` metrics (about 0.3 s).
pub fn host(out: &mut Vec<Metric>) {
    out.push(Metric::new("host.triad_cache_gb_s", triad_gb_s(CACHE_WORDS, 2000), "GB/s"));
    out.push(Metric::new("host.triad_dram_gb_s", triad_gb_s(DRAM_WORDS, 5), "GB/s"));
    out.push(Metric::new(
        "host.xor_popcount_cache_gwords_s",
        xor_popcount_gwords_s(CACHE_WORDS, 2000),
        "Gwords/s",
    ));
    out.push(Metric::new(
        "host.xor_popcount_dram_gwords_s",
        xor_popcount_gwords_s(DRAM_WORDS, 5),
        "Gwords/s",
    ));
}
