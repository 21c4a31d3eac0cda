//! The real-model path (`tensor` → `quant` → `nn`) as one edge user sees
//! it: a closed loop with one client, round-robin over the f32, f16, int8
//! and int4 copies of one `TinyCausalLm`.

use std::time::Instant;

use edgellm_nn::WeightPrecision;
use edgellm_nn::{Linear, TinyCausalLm, TinyConfig};
use edgellm_tensor::sampling::argmax;

use crate::host::{scale, HostProbe};
use crate::inputs::{RealRequest, VOCAB};
use crate::layer::{Phase, PhaseProbe};
use crate::report::{median, ratio, windowed_quantile, Digest, Metrics, Outcome};

/// Precisions in rotation order, with their metric-name component.
pub const PRECISIONS: [(WeightPrecision, &str); 4] = [
    (WeightPrecision::Fp32, "f32"),
    (WeightPrecision::Fp16, "f16"),
    (WeightPrecision::Int8, "int8"),
    (WeightPrecision::Int4, "int4"),
];

/// The benchmark model: d_model 128, 2 layers, 8 query / 2 KV heads,
/// SwiGLU FFN 512, vocab 2048 — about 2.9 MB of f32 projections, so every
/// precision's weights fit in one core's 4 MiB L2. A model several times
/// the L2 streams its weights from the shared L3 instead, where other
/// tenants of a shared host move its speed by more than a benchmark bound.
pub const MODEL: TinyConfig = TinyConfig {
    vocab: VOCAB,
    d_model: 128,
    layers: 2,
    heads: 8,
    kv_heads: 2,
    head_dim: 16,
    ffn: 512,
    seed: 0x5eed_2025,
};

/// Model set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Host-speed probes timed before each model set-up.
pub const SETUP_PROBES: usize = 9;
/// Fewest passes over the request set a timed run makes.
pub const MIN_PASSES: usize = 3;

/// Bytes of projection weights one forward pass reads at `prec`, computed
/// from the weight-tensor sizes of same-shaped layers.
pub fn weight_bytes(prec: WeightPrecision) -> u64 {
    let c = MODEL;
    let (q, kv) = (c.heads * c.head_dim, c.kv_heads * c.head_dim);
    let shapes = [
        (c.d_model, q),
        (c.d_model, kv),
        (c.d_model, kv),
        (q, c.d_model),
        (c.d_model, c.ffn),
        (c.d_model, c.ffn),
        (c.ffn, c.d_model),
    ];
    let bytes =
        |(i, o): (usize, usize)| Linear::new(i, o, 1).to_precision(prec).weight_bytes() as u64;
    let block: u64 = shapes.into_iter().map(bytes).sum();
    block * c.layers as u64 + bytes((c.d_model, c.vocab))
}

struct Models {
    by_precision: Vec<TinyCausalLm>,
    setup_s: Vec<f64>,
    /// Host-speed scale of each set-up.
    setup_scale: Vec<f64>,
    new_ms: Vec<f64>,
    to_precision_ms: [Vec<f64>; 4],
}

/// Build the model and its four precision copies `SETUP_REPS` times,
/// timing each and probing the host speed before each; keep the last set.
fn set_up(host: &mut HostProbe) -> Models {
    let mut m = Models {
        by_precision: Vec::new(),
        setup_s: Vec::new(),
        setup_scale: Vec::new(),
        new_ms: Vec::new(),
        to_precision_ms: Default::default(),
    };
    for _ in 0..SETUP_REPS {
        m.by_precision.clear();
        m.setup_scale.push(scale(host.median_time(SETUP_PROBES)));
        let t0 = Instant::now();
        let base = TinyCausalLm::new(MODEL);
        m.new_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for (i, (prec, _)) in PRECISIONS.iter().enumerate() {
            let t = Instant::now();
            m.by_precision.push(base.to_precision(*prec));
            m.to_precision_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
        }
        drop(base);
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    m
}

/// One served request: output tokens, time to first token and total time.
struct Served {
    tokens: Vec<u32>,
    ttft_s: f64,
    total_s: f64,
}

fn serve_one(m: &TinyCausalLm, prec: usize, req: &RealRequest, probe: &mut PhaseProbe) -> Served {
    let t0 = Instant::now();
    let n = req.output_tokens;
    let mut cache = m.new_cache();
    let prompt = &req.prompt;
    let logits = probe.measure(Phase::Prefill, prec, prompt.len(), || {
        let lg = m.prefill(prompt, &mut cache);
        lg.row(lg.rows - 1).to_vec()
    });
    let mut out = Vec::with_capacity(n);
    out.push(argmax(&logits) as u32);
    let ttft_s = t0.elapsed().as_secs_f64();
    while out.len() < n {
        let t = *out.last().expect("first token committed");
        let logits = probe.measure(Phase::Decode, prec, 1, || m.forward_step(t, &mut cache));
        out.push(argmax(&logits) as u32);
    }
    Served { tokens: out, ttft_s, total_s: t0.elapsed().as_secs_f64() }
}

/// Run one real-path workload.
///
/// Before any clock starts, the first rotation (one request per
/// precision) is decoded with the library's own `generate_greedy`; that
/// warms caches and gives the reference the timed outputs of those
/// requests must equal. Then the whole request set is served in a closed
/// loop, request `i` at precision `i mod 4`, pass after pass until
/// `seconds` have passed, after at least [`MIN_PASSES`] whole passes
/// (the last pass may stop part-way). Every pass must reproduce the first
/// pass's tokens, which make up the digest. `fixed` stops after the first
/// pass (the untraced half of a traced comparison).
///
/// The host probe is timed before every request. Each pass's wall times
/// are scaled by the probe's median in that pass (see [`crate::host`]),
/// and each set-up's by the probes just before it. Each request's TTFT,
/// TPOT and total time is then the median over its servings, and every
/// end-to-end figure is taken from those medians: a burst of contention
/// from another tenant slows a request in one pass, not its median. The
/// same figures unscaled go to [`Outcome::raw`].
pub fn run(reqs: &[RealRequest], seconds: f64, fixed: bool) -> Outcome {
    let mut o = Outcome::default();
    let mut host = HostProbe::default();
    let models = set_up(&mut host);
    let np = PRECISIONS.len();
    let reference: Vec<Vec<u32>> = (0..np)
        .map(|i| models.by_precision[i].generate_greedy(&reqs[i].prompt, reqs[i].output_tokens))
        .collect();

    let mut probe = PhaseProbe::default();
    let mut first_pass: Vec<Vec<u32>> = Vec::new();
    // `[request] -> one sample per pass`.
    let mut ttft = vec![Vec::new(); reqs.len()];
    let mut tpot = vec![Vec::new(); reqs.len()];
    let mut total = vec![Vec::new(); reqs.len()];
    // `[pass] -> probe time before each request`.
    let mut probes: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    'passes: for pass in 0.. {
        let t0 = Instant::now();
        for (i, req) in reqs.iter().enumerate() {
            if pass >= MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            if probes.len() == pass {
                probes.push(Vec::new());
            }
            probes[pass].push(host.time());
            let prec = i % np;
            let s = serve_one(&models.by_precision[prec], prec, req, &mut probe);
            o.attempted += 1;
            let n = s.tokens.len();
            let ok = if pass == 0 {
                n == req.output_tokens && s.tokens.iter().all(|&t| (t as usize) < VOCAB)
            } else {
                s.tokens == first_pass[i]
            };
            if ok {
                o.completed += 1;
            } else {
                o.fail(format!("pass {pass} request {i}: wrong output ({n} tokens)"));
            }
            if pass == 0 && i < np && s.tokens != reference[i] {
                let p = PRECISIONS[i].1;
                o.fail(format!("request {i} ({p}): output differs from generate_greedy"));
            }
            ttft[i].push(s.ttft_s * 1e3);
            tpot[i].push((s.total_s - s.ttft_s) * 1e3 / (n.max(2) - 1) as f64);
            total[i].push(s.total_s);
            if pass == 0 {
                first_pass.push(s.tokens);
            }
        }
        if pass == 0 {
            let mut d = Digest::default();
            for (i, toks) in first_pass.iter().enumerate() {
                d.word(i as u64);
                toks.iter().for_each(|&t| d.word(t as u64));
            }
            o.digest = d.value();
            o.digest_wall_s = t0.elapsed().as_secs_f64();
            if fixed {
                break;
            }
        }
    }

    let tokens: usize = reqs.iter().map(|r| r.output_tokens).sum();
    o.raw.put("setup_s", median(&models.setup_s), "s");
    latency_metrics(&mut o.raw, &ttft, &tpot, &total, tokens);
    let pass_scale: Vec<f64> = probes.iter().map(|p| scale(median(p))).collect();
    for samples in [&mut ttft, &mut tpot, &mut total] {
        for per_pass in samples.iter_mut() {
            per_pass.iter_mut().zip(&pass_scale).for_each(|(x, f)| *x *= f);
        }
    }
    let setup: Vec<f64> =
        models.setup_s.iter().zip(&models.setup_scale).map(|(s, f)| s * f).collect();
    o.e2e.put("setup_s", median(&setup), "s");
    latency_metrics(&mut o.e2e, &ttft, &tpot, &total, tokens);
    o.host_scale = median(&pass_scale);
    layer_metrics(&mut o, &models, &probe);
    o
}

/// Throughput and latency quantiles from per-request samples (one per
/// pass, ms for TTFT and TPOT, s for the total): each request counts once,
/// by its median.
fn latency_metrics(
    e: &mut Metrics,
    ttft: &[Vec<f64>],
    tpot: &[Vec<f64>],
    total: &[Vec<f64>],
    tokens: usize,
) {
    let per_request = |xs: &[Vec<f64>]| -> Vec<f64> { xs.iter().map(|x| median(x)).collect() };
    let (ttft, tpot) = (per_request(ttft), per_request(tpot));
    let busy_s: f64 = per_request(total).iter().sum();
    e.put("tok_per_s", tokens as f64 / busy_s, "tok/s");
    e.put("req_per_s", total.len() as f64 / busy_s, "req/s");
    e.put("ttft_p50_ms", windowed_quantile(&ttft, 0.5), "ms");
    e.put("ttft_p90_ms", windowed_quantile(&ttft, 0.9), "ms");
    e.put("tpot_p50_ms", windowed_quantile(&tpot, 0.5), "ms");
    e.put("tpot_p90_ms", windowed_quantile(&tpot, 0.9), "ms");
}

fn layer_metrics(o: &mut Outcome, models: &Models, probe: &PhaseProbe) {
    let l = &mut o.layer;
    l.put("nn.model_new_ms", median(&models.new_ms), "ms");
    for (pi, (prec, p)) in PRECISIONS.iter().enumerate() {
        l.put(format!("quant.to_precision_ms.{p}"), median(&models.to_precision_ms[pi]), "ms");
        let bytes = weight_bytes(*prec) as f64;
        for ph in Phase::ALL {
            let c = probe.cells[pi][ph as usize];
            let k = c.kernels;
            let ph_name = ph.name();
            l.put(
                format!("tensor.gmac_s.{ph_name}.{p}"),
                ratio(k.macs as f64, k.ns as f64),
                "GMAC/s",
            );
            l.put(
                format!("tensor.weight_gb_s.{ph_name}.{p}"),
                ratio(bytes * c.calls as f64, k.ns as f64),
                "GB/s",
            );
            l.put(
                format!("nn.kernel_share.{ph_name}.{p}"),
                ratio(k.ns as f64, c.wall_ns as f64),
                "ratio",
            );
            match ph {
                Phase::Prefill => l.put(
                    format!("nn.prefill_us_per_tok.{p}"),
                    ratio(c.wall_ns as f64, c.rows as f64) / 1e3,
                    "us",
                ),
                Phase::Decode => l.put(
                    format!("nn.decode_ms.{p}"),
                    ratio(c.wall_ns as f64, c.calls as f64) / 1e6,
                    "ms",
                ),
            }
        }
        let k = probe.precision_kernels(pi);
        l.put(
            format!("tensor.parallel_share.{p}"),
            ratio(k.parallel_calls as f64, k.calls as f64),
            "ratio",
        );
    }
}
