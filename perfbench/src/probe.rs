//! A fixed reference kernel that reads how fast the host runs
//! memory-bound code at the moment.
//!
//! The measuring host (2 vCPUs under KVM) slows down by up to 2x for
//! minutes at a time under co-tenant load, without steal time. Algorithm
//! 1's reduced-order evaluations slow down with it in proportion: over 24
//! 2-second windows in which the median Table 2 pass varied by 19 %
//! (coefficient of variation; 42 ms to 75 ms), its ratio to this kernel
//! varied by 6.6 %, uncorrelated with the slowdown (r = 0.11). Larger
//! probe matrices (200 to 450 points a side) tracked worse: they slow
//! down less than Algorithm 1 does. The kernel is the benchmark's own
//! code, which no change to the program can speed up or slow down, so
//! scaling by it removes the host's drift and nothing else. The `alg1`
//! and `fleet` timings are scaled by it; `serve` latency, which is
//! mostly wake-ups and system calls, is not.

use std::hint::black_box;

/// Probe time, in ms, of the host that timings are scaled to (about
/// what the probe takes on this host when it is not disturbed).
pub const REFERENCE_MS: f64 = 2.5;

/// Grid side of the probe's matrix: a periodic 5-point Laplacian on
/// 100 × 100 points (10,000 rows, about 600 kB of matrix).
const SIDE: usize = 100;
/// Power-iteration steps per probe.
const STEPS: usize = 40;

/// The probe's matrix (fixed five entries per row) and vectors.
pub struct HostProbe {
    values: Vec<f64>,
    columns: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl HostProbe {
    pub fn new() -> Self {
        let n = SIDE * SIDE;
        let mut values = Vec::with_capacity(5 * n);
        let mut columns = Vec::with_capacity(5 * n);
        for row in 0..n {
            let (r, c) = (row / SIDE, row % SIDE);
            let neighbours = [
                (row, 4.0),
                (r * SIDE + (c + SIDE - 1) % SIDE, -1.0),
                (r * SIDE + (c + 1) % SIDE, -1.0),
                (((r + SIDE - 1) % SIDE) * SIDE + c, -1.0),
                (((r + 1) % SIDE) * SIDE + c, -1.0),
            ];
            for (col, v) in neighbours {
                columns.push(col as u32);
                values.push(v);
            }
        }
        Self {
            values,
            columns,
            x: vec![1.0; n],
            y: vec![0.0; n],
        }
    }

    /// Wall time (ms) of one probe: `STEPS` normalized matrix-vector
    /// products from a fixed start.
    pub fn time_ms(&mut self) -> f64 {
        self.x.fill(1.0);
        let t0 = crate::now();
        for _ in 0..STEPS {
            for (row, y) in self.y.iter_mut().enumerate() {
                let span = 5 * row..5 * row + 5;
                *y = self.values[span.clone()]
                    .iter()
                    .zip(&self.columns[span])
                    .map(|(v, &c)| v * self.x[c as usize])
                    .sum();
            }
            let norm = self.y.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = y / norm;
            }
        }
        black_box(&self.x);
        t0.elapsed().as_secs_f64() * 1e3
    }
}
