//! Per-layer measurement for the traced run: phase attribution of the
//! tensor kernel counters, and the host roofline probe.
//!
//! The kernel counters (`kernel.<variant>.{calls,macs,ns}`) exist only
//! when `edgellm-tensor` is built with its `trace` feature, which this
//! package's own `trace` feature turns on. [`PhaseProbe::measure`]
//! snapshots them around each `prefill` and `forward_step` call; in the
//! untraced build it only calls through.

use std::time::Instant;

/// Decoder phases the real path attributes kernel work to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `TinyCausalLm::prefill` over the whole prompt (m = T).
    Prefill,
    /// `TinyCausalLm::forward_step` (m = 1).
    Decode,
}

impl Phase {
    /// Every phase, in metric order.
    pub const ALL: [Phase; 2] = [Phase::Prefill, Phase::Decode];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
        }
    }
}

/// Kernel-counter totals over all variants.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTotals {
    /// Kernel invocations.
    pub calls: u64,
    /// Invocations dispatched row- or column-parallel.
    pub parallel_calls: u64,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Wall nanoseconds inside kernels.
    pub ns: u64,
}

impl KernelTotals {
    /// Read the process-wide registry (all zero in an untraced build).
    pub fn now() -> Self {
        let mut t = KernelTotals::default();
        for (name, v) in edgellm_trace::registry().snapshot().counters {
            let Some(rest) = name.strip_prefix("kernel.") else { continue };
            let parallel = rest.contains(".rows.") || rest.contains(".cols.");
            if rest.ends_with(".calls") {
                t.calls += v;
                if parallel {
                    t.parallel_calls += v;
                }
            } else if rest.ends_with(".macs") {
                t.macs += v;
            } else if rest.ends_with(".ns") {
                t.ns += v;
            }
        }
        t
    }

    fn since(self, before: KernelTotals) -> KernelTotals {
        KernelTotals {
            calls: self.calls - before.calls,
            parallel_calls: self.parallel_calls - before.parallel_calls,
            macs: self.macs - before.macs,
            ns: self.ns - before.ns,
        }
    }

    fn add(&mut self, o: KernelTotals) {
        self.calls += o.calls;
        self.parallel_calls += o.parallel_calls;
        self.macs += o.macs;
        self.ns += o.ns;
    }
}

/// Accumulated cost of one (phase, precision) cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCell {
    /// Calls of the phase function.
    pub calls: u64,
    /// Token rows the calls processed.
    pub rows: u64,
    /// Wall nanoseconds inside the phase function.
    pub wall_ns: u64,
    /// Kernel work inside those calls.
    pub kernels: KernelTotals,
}

/// Phase × precision accounting for the real path.
#[derive(Debug, Default)]
pub struct PhaseProbe {
    /// `cells[precision][phase]`.
    pub cells: [[PhaseCell; 2]; 4],
}

impl PhaseProbe {
    /// Run `f` — one call of `phase` at precision index `prec` over `rows`
    /// token rows — and, in the traced build, charge its wall time and
    /// kernel work to that cell.
    #[inline]
    pub fn measure<R>(
        &mut self,
        phase: Phase,
        prec: usize,
        rows: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !cfg!(feature = "trace") {
            return f();
        }
        let k0 = KernelTotals::now();
        let t0 = Instant::now();
        let out = f();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let k = KernelTotals::now().since(k0);
        let cell = &mut self.cells[prec][phase as usize];
        cell.calls += 1;
        cell.rows += rows as u64;
        cell.wall_ns += wall_ns;
        cell.kernels.add(k);
        out
    }

    /// Kernel totals over every phase at one precision.
    pub fn precision_kernels(&self, prec: usize) -> KernelTotals {
        let mut t = KernelTotals::default();
        for c in &self.cells[prec] {
            t.add(c.kernels);
        }
        t
    }
}

/// Host ceilings the kernel rates are read against.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// STREAM-style read bandwidth over a buffer of `bytes` (GB/s).
    pub stream_gb_s: f64,
    /// Multiply-add throughput (GFLOP/s, 2 flops per multiply-add).
    pub fma_gflop_s: f64,
}

/// Measure the host ceilings with `threads` threads: a sum-reduction read
/// over `bytes` bytes of f32 (the model's f32 projection weights, so it
/// runs in the cache level the decode kernels read them from), and a loop of
/// independent multiply-add chains. Each is the median of several passes.
pub fn roofline(bytes: usize, threads: usize) -> Roofline {
    let threads = threads.max(1);
    let buf: Vec<f32> = (0..bytes / 4).map(|i| (i % 251) as f32 * 1e-3).collect();
    let chunk = buf.len().div_ceil(threads);
    // Each timed pass reads the buffer often enough (about 64 MiB in all)
    // that spawning the threads is a small part of it.
    let reps = (64usize << 20).div_ceil(bytes.max(1));
    let mut stream = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        let total: f32 = std::thread::scope(|s| {
            let hs: Vec<_> = buf
                .chunks(chunk)
                .map(|c| {
                    s.spawn(move || {
                        (0..reps).map(|_| read_sum(std::hint::black_box(c))).sum::<f32>()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("stream thread panicked")).sum::<f32>()
        });
        std::hint::black_box(total);
        stream.push((bytes * reps) as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    const ITERS: u64 = 4_000_000;
    let mut fma = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let total: f32 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..threads).map(|_| s.spawn(|| mul_add_chains(ITERS))).collect();
            hs.into_iter().map(|h| h.join().expect("fma thread panicked")).sum()
        });
        std::hint::black_box(total);
        let flops = 2.0 * LANES as f64 * ITERS as f64 * threads as f64;
        fma.push(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    Roofline {
        stream_gb_s: crate::report::median(&stream),
        fma_gflop_s: crate::report::median(&fma),
    }
}

fn read_sum(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    let mut it = xs.chunks_exact(16);
    for c in &mut it {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    acc.iter().sum::<f32>() + it.remainder().iter().sum::<f32>()
}

/// Independent multiply-add lanes per chain step (enough to cover FP
/// latency on a wide core).
const LANES: usize = 64;

fn mul_add_chains(iters: u64) -> f32 {
    let mut acc = [0.5f32; LANES];
    let m = std::hint::black_box(0.999_999f32);
    let a = std::hint::black_box(1e-7f32);
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * m + a;
        }
    }
    acc.iter().sum()
}
