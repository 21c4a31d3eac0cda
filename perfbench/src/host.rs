//! Host-speed reference for the real path: a fixed piece of work, frozen
//! in the benchmark, timed between requests.
//!
//! On a shared host, other tenants slow the real path by up to 1.5× for
//! minutes at a time, longer than a run. The probe is decode-shaped f32
//! work, so it slows with the real path, and it runs no code of the
//! repository, so no change to the repository moves it. Multiplying a
//! wall time by [`scale`] of the probe's time measured alongside it gives
//! the time the work takes while the probe takes [`REFERENCE_PROBE_S`].

use std::time::Instant;

/// The probe's typical time on the 2-vCPU Xeon host the bounds were set
/// on (s). It only sets the unit: a scaled time is the wall time the work
/// takes while the probe takes this long.
pub const REFERENCE_PROBE_S: f64 = 70e-6;

/// Rows and columns of the probe's f32 matrix (128 KiB: it stays in L2
/// next to the model's weights and evicts little of them).
const ROWS: usize = 128;
const COLS: usize = 256;
/// Matrix-vector products per probe.
const MATVECS: usize = 16;

/// The frozen probe work: decode-shaped f32 matrix-vector products.
pub struct HostProbe {
    w: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Default for HostProbe {
    fn default() -> Self {
        let w = (0..ROWS * COLS).map(|i| ((i * 7919) % 1009) as f32 * 1e-3).collect();
        let x = (0..COLS).map(|i| (i % 17) as f32 * 0.1).collect();
        HostProbe { w, x, y: vec![0.0; ROWS] }
    }
}

impl HostProbe {
    /// Run the probe twice, to bring its data into cache, and return the
    /// wall time of the second run (s).
    pub fn time(&mut self) -> f64 {
        self.run();
        let t0 = Instant::now();
        self.run();
        t0.elapsed().as_secs_f64()
    }

    /// The median of `n` [`HostProbe::time`]s (s).
    pub fn median_time(&mut self, n: usize) -> f64 {
        let ts: Vec<f64> = (0..n).map(|_| self.time()).collect();
        crate::report::median(&ts)
    }

    fn run(&mut self) {
        for _ in 0..MATVECS {
            matvec(&self.w, std::hint::black_box(&self.x), &mut self.y);
        }
        std::hint::black_box(&self.y);
    }
}

fn matvec(w: &[f32], x: &[f32], y: &mut [f32]) {
    for (row, out) in w.chunks_exact(COLS).zip(y.iter_mut()) {
        let mut acc = [0.0f32; 8];
        for (r, v) in row.chunks_exact(8).zip(x.chunks_exact(8)) {
            for l in 0..8 {
                acc[l] += r[l] * v[l];
            }
        }
        *out = acc.iter().sum();
    }
}

/// The factor that turns a wall time measured while the probe took
/// `probe_s` into a time at the reference speed.
pub fn scale(probe_s: f64) -> f64 {
    REFERENCE_PROBE_S / probe_s
}
