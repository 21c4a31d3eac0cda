//! `perfbench` — one workload run of the edgellm wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--fixed]
//! ```
//!
//! Prints one JSON line: requests attempted/completed/failed, correctness
//! errors, the output digest and its wall time, and the metrics. An
//! untraced build reports the end-to-end metrics; a build with the
//! `trace` feature reports the per-layer metrics. `--fixed` runs only the
//! digest work (the untraced half of a traced comparison). `run.py` at
//! the package root builds both variants and drives them; see README.md.

mod host;
mod inputs;
mod layer;
mod real;
mod report;
mod sims;

use report::{num, Metrics, Outcome};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["chat_decode", "sim_backlog", "fleet_prefix"];

/// Every per-layer metric a traced run prints, with its unit; layers a
/// workload does not exercise read 0.
fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for (_, p) in real::PRECISIONS {
        v.push((format!("nn.prefill_us_per_tok.{p}"), "us"));
        v.push((format!("nn.decode_ms.{p}"), "ms"));
        for ph in layer::Phase::ALL {
            let ph = ph.name();
            v.push((format!("tensor.gmac_s.{ph}.{p}"), "GMAC/s"));
            v.push((format!("tensor.weight_gb_s.{ph}.{p}"), "GB/s"));
            v.push((format!("nn.kernel_share.{ph}.{p}"), "ratio"));
        }
        v.push((format!("tensor.parallel_share.{p}"), "ratio"));
        v.push((format!("quant.to_precision_ms.{p}"), "ms"));
    }
    let fixed: [(&str, &'static str); 24] = [
        ("nn.model_new_ms", "ms"),
        ("serve.new_ms", "ms"),
        ("serve.observe_us_p50", "us"),
        ("serve.observe_us_p90", "us"),
        ("governor.decide_us_p50", "us"),
        ("governor.mode_changes", "count"),
        ("serve.queue_depth_p50", "count"),
        ("serve.queue_depth_max", "count"),
        ("serve.step_us_p50", "us"),
        ("serve.step_us_p90", "us"),
        ("serve.finish_ms", "ms"),
        ("serve.iterations", "count"),
        ("serve.mean_occupancy", "seqs"),
        ("serve.preemptions", "count"),
        ("mem.kv_blocks_allocated", "count"),
        ("fleet.route_us_p50", "us"),
        ("fleet.route_us_p90", "us"),
        ("fleet.affinity_share", "ratio"),
        ("fleet.reroutes", "count"),
        ("mem.prefix_hit_share", "ratio"),
        ("mem.cow_blocks", "count"),
        ("host.stream_gb_s", "GB/s"),
        ("host.fma_gflop_s", "GFLOP/s"),
        ("trace.overhead", "ratio"),
    ];
    v.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    fixed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut fixed) = (None, None, None, false);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--fixed" => fixed = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, fixed })
}

fn run(a: &Args) -> Outcome {
    match a.workload.as_str() {
        "chat_decode" => real::run(&inputs::chat(a.seed), a.seconds, a.fixed),
        "sim_backlog" => sims::backlog(&inputs::backlog(a.seed), a.seconds, a.fixed),
        "fleet_prefix" => {
            let (reqs, prompts) = inputs::fleet(a.seed);
            sims::fleet(&reqs, &prompts, a.seconds, a.fixed)
        }
        other => unreachable!("workload {other} validated by parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let traced = cfg!(feature = "trace");
    let mut o = run(&args);
    let threads = rayon::current_num_threads();

    let metrics = if args.fixed {
        Metrics::default()
    } else if traced {
        let ceiling = layer::roofline(
            real::weight_bytes(edgellm_nn::WeightPrecision::Fp32) as usize,
            threads,
        );
        o.layer.put("host.stream_gb_s", ceiling.stream_gb_s, "GB/s");
        o.layer.put("host.fma_gflop_s", ceiling.fma_gflop_s, "GFLOP/s");
        let mut m = Metrics::default();
        for (name, unit) in layer_metric_names() {
            m.put(name.as_str(), o.layer.get(&name).unwrap_or(0.0), unit);
        }
        m
    } else {
        if o.e2e.get("peak_rss_mib").is_none() {
            o.record_peak_rss();
        }
        o.e2e.clone()
    };
    for (name, v) in metrics.iter() {
        if !v.is_finite() {
            o.fail(format!("metric {name} is not finite"));
        }
    }
    let failed = o.attempted - o.completed;
    let errors: Vec<String> = o
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"traced\": {traced}, \
         \"attempted\": {}, \"completed\": {}, \"failed\": {failed}, \"errors\": [{}], \
         \"digest\": \"{:016x}\", \"digest_wall_s\": {}, \"host_scale\": {}, \"raw\": {}, \
         \"metrics\": {}}}",
        args.workload,
        args.seed,
        o.attempted,
        o.completed,
        errors.join(", "),
        o.digest,
        num(o.digest_wall_s),
        num(o.host_scale),
        o.raw.to_json(),
        metrics.to_json()
    );
}
