//! A fixed CPU workload of the benchmark's own, timed beside a
//! compute-bound workload so that its figures can be scaled to one
//! machine speed.
//!
//! On a shared host the speed one core delivers drifts over minutes, by
//! a fifth and more (other tenants, clock frequency, shared caches), and
//! a closed-loop compute-bound figure follows that drift one for one.
//! The probe calls no program code, so a change to the program cannot
//! move it; only the machine does. It does on one core what the engine's
//! stages do: it splits text, hashes character trigrams into rows of a
//! 4 MiB weight table, sums those rows (a sparse projection), and takes
//! dense dot products over part of the table.

use std::hint::black_box;
use std::time::Instant;

/// A probe pass on the machine this benchmark was tuned on. A scaled
/// timing is multiplied by this over the median pass timed beside it,
/// so it reads as that machine would have taken it.
pub const REF_NS: f64 = 2.1e6;

const DIM: usize = 128;
/// Rows of the weight table: 8,192 × 128 × 4 bytes = 4 MiB.
const ROWS: usize = 8192;
const TEXTS: usize = 32;
const WORDS: [&str; 12] = [
    "revenue", "fund", "net", "asset", "quarter", "share", "price", "2021", "bond", "yield",
    "total", "growth",
];

pub struct Probe {
    weights: Vec<f32>,
    texts: Vec<String>,
}

impl Probe {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let weights = (0..ROWS * DIM)
            .map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect();
        let texts = (0..TEXTS)
            .map(|_| {
                (0..16)
                    .map(|_| WORDS[(next() % WORDS.len() as u64) as usize])
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        Probe { weights, texts }
    }

    /// Nanoseconds one pass takes.
    pub fn time_ns(&self) -> u64 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for (i, text) in self.texts.iter().enumerate() {
            let mut h = [0.0f32; DIM];
            for word in black_box(text).split(' ') {
                for gram in word.as_bytes().windows(3) {
                    let hash = gram.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                    });
                    let row = &self.weights[(hash as usize % ROWS) * DIM..][..DIM];
                    h.iter_mut().zip(row).for_each(|(a, w)| *a += w);
                }
            }
            for row in self.weights.chunks_exact(DIM).skip(i % 16).step_by(16) {
                acc += row.iter().zip(&h).map(|(a, b)| a * b).sum::<f32>();
            }
        }
        black_box(acc);
        t.elapsed().as_nanos() as u64
    }
}
