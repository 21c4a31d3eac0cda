//! The simulator path as the wall cost of a study: `core::serve` with
//! `mem` and `governor` under a deep backlog (`sim_backlog`), and `fleet`
//! routing over prefix-caching members (`fleet_prefix`).
//!
//! A run replays its fixed trace on a fresh simulator until the time is
//! up (at least [`MIN_REPLAYS`] times). Every replay of one trace is
//! deterministic, so each must reproduce the first replay's digest; the
//! first replay is also checked by the `edgellm-check` oracles. Peak RSS
//! is read right after the first replay: later replays only add heap
//! fragmentation, and how many of them fit in a run depends on host
//! speed.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use edgellm_check::oracles;
use edgellm_core::serve::{Completion, GovernorHook, ServeConfig, ServeSim};
use edgellm_core::{Request, RunConfig, RunError};
use edgellm_fleet::routing::PrefixAffinity;
use edgellm_fleet::{
    Decision, DeviceView, FleetAudit, FleetConfig, FleetDevice, FleetSim, RoutingPolicy,
};
use edgellm_governor::{Governor, HystereticLadder, SloSpec};
use edgellm_hw::{DeviceSpec, PowerMode};
use edgellm_models::{Llm, Precision};

use crate::report::{median, quantile, ratio, Digest, Metrics, Outcome};

/// Fewest replays a timed run makes.
pub const MIN_REPLAYS: usize = 3;

/// The governor `sim_backlog` steps under.
pub fn backlog_governor(device: &DeviceSpec, run_cfg: &RunConfig) -> Governor {
    let slo = SloSpec { ttft_s: 10.0, tbt_s: 0.5 };
    Governor::new(
        Box::new(HystereticLadder::new(slo)),
        device,
        run_cfg.llm,
        run_cfg.precision,
        &run_cfg.power_mode,
    )
}

/// `sim_backlog`'s device and model: Orin AGX 64GB, Llama-3.1-8B fp16 at
/// MAXN.
pub fn backlog_setup() -> (DeviceSpec, RunConfig) {
    let dev = DeviceSpec::orin_agx_64gb();
    let run_cfg =
        RunConfig::new(Llm::Llama31_8b, Precision::Fp16).power_mode(PowerMode::maxn_for(&dev));
    (dev, run_cfg)
}

/// Timings from the decomposed governed loop (traced runs only).
#[derive(Debug, Default)]
pub struct StepTimes {
    /// `ServeSim::step` wall per call (µs).
    pub step_us: Vec<f64>,
    /// `ServeSim::observe` wall per governed boundary (µs).
    pub observe_us: Vec<f64>,
    /// Governor hook wall per boundary (µs).
    pub decide_us: Vec<f64>,
    /// Queue depth the governor saw at each boundary.
    pub depth: Vec<f64>,
}

/// `ServeSim::step_governed` taken apart into its public pieces — `step`,
/// `observe`, the hook and `set_power_mode` — with each piece timed. It
/// must behave exactly like the real call; a test and every traced run's
/// digest check that it does.
pub fn step_governed_timed(
    sim: &mut ServeSim,
    now: f64,
    hook: &mut dyn GovernorHook,
    times: &mut StepTimes,
) -> Result<(), RunError> {
    let mark = sim.trace().len();
    let t0 = Instant::now();
    sim.step(now)?;
    times.step_us.push(t0.elapsed().as_secs_f64() * 1e6);
    if sim.trace().len() == mark {
        return Ok(());
    }
    let t1 = Instant::now();
    let obs = sim.observe(mark, None);
    times.observe_us.push(t1.elapsed().as_secs_f64() * 1e6);
    times.depth.push(obs.queue_depth as f64);
    let t2 = Instant::now();
    let decision = hook.on_iteration(&obs);
    times.decide_us.push(t2.elapsed().as_secs_f64() * 1e6);
    if let Some(pm) = decision {
        sim.set_power_mode(&pm)?;
    }
    Ok(())
}

fn digest_completions<'a>(cs: impl IntoIterator<Item = &'a Completion>, energy_j: f64) -> u64 {
    let mut sorted: Vec<&Completion> = cs.into_iter().collect();
    sorted.sort_by_key(|c| c.rid);
    let mut d = Digest::default();
    for c in sorted {
        d.word(c.rid);
        d.float(c.ttft_s);
        d.float(c.latency_s);
        d.word(c.output_tokens);
    }
    d.float(energy_j);
    d.value()
}

/// Simulated-clock TTFT and TPOT quantiles (ms) of one replay's
/// completions: deterministic for a seed, they measure no host cost.
fn simulated_latency(e: &mut Metrics, cs: &[&Completion]) {
    let ttft: Vec<f64> = cs.iter().map(|c| c.ttft_s * 1e3).collect();
    let tpot: Vec<f64> = cs
        .iter()
        .map(|c| (c.latency_s - c.ttft_s) * 1e3 / (c.output_tokens.max(2) - 1) as f64)
        .collect();
    e.put("ttft_p50_ms", quantile(&ttft, 0.5), "ms");
    e.put("ttft_p90_ms", quantile(&ttft, 0.9), "ms");
    e.put("tpot_p50_ms", quantile(&tpot, 0.5), "ms");
    e.put("tpot_p90_ms", quantile(&tpot, 0.9), "ms");
}

/// Check that every request completed exactly once with the output it
/// asked for.
fn check_completions<'a>(
    o: &mut Outcome,
    reqs: &[Request],
    cs: impl IntoIterator<Item = &'a Completion>,
) {
    let mut seen = vec![false; reqs.len()];
    for c in cs {
        match reqs.get(c.rid as usize) {
            Some(r) if r.id == c.rid && !seen[c.rid as usize] => {
                seen[c.rid as usize] = true;
                if c.output_tokens != r.output_tokens {
                    o.fail(format!(
                        "rid {}: {} of {} tokens",
                        c.rid, c.output_tokens, r.output_tokens
                    ));
                }
            }
            _ => o.fail(format!("rid {}: unknown or completed twice", c.rid)),
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    if missing > 0 {
        o.fail(format!("{missing} requests never completed"));
    }
}

/// Per-replay wall costs.
#[derive(Debug, Default)]
struct Walls {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    finish_s: Vec<f64>,
    served_tokens: u64,
    completed: u64,
}

/// Run `sim_backlog`: `ServeSim::new` pre-loads the trace, then the run
/// is stepped under a `HystereticLadder` governor. Untraced builds call
/// `step_governed`; traced builds call [`step_governed_timed`].
pub fn backlog(reqs: &[Request], seconds: f64, fixed: bool) -> Outcome {
    let traced = cfg!(feature = "trace");
    let (dev, run_cfg) = backlog_setup();
    let mut o = Outcome::default();
    let mut w = Walls::default();
    let mut times = StepTimes::default();
    let (mut iterations, mut decode_iters, mut occupancy) = (0u64, 0u64, 0u64);
    let (mut preemptions, mut kv_allocated, mut mode_changes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &run_cfg, reqs)
            .expect("Llama-3.1-8B fp16 loads on the Orin AGX 64GB");
        let mut gov = backlog_governor(&dev, &run_cfg);
        w.setup_s.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        while let Some(t) = sim.next_event_s() {
            let stepped = if traced {
                step_governed_timed(&mut sim, t, &mut gov, &mut times)
            } else {
                sim.step_governed(t, &mut gov)
            };
            stepped.expect("stock ladder modes validate");
        }
        let run_s = t1.elapsed().as_secs_f64();
        o.attempted += reqs.len() as u64;

        let digest = digest_completions(sim.completions(), sim.energy_j());
        let first = w.run_s.is_empty();
        if first {
            o.digest = digest;
            let audit = sim.audit();
            check_completions(&mut o, reqs, &audit.completions);
            let mut v = oracles::check_serve(&audit, reqs);
            oracles::check_governor(&gov.audit(), &audit.trace, &mut v);
            for x in v {
                o.fail(x.to_string());
            }
            for x in &audit.kv_integrity {
                o.fail(format!("kv integrity: {x}"));
            }
            let cs: Vec<&Completion> = audit.completions.iter().collect();
            simulated_latency(&mut o.e2e, &cs);
            for it in &audit.trace {
                if it.tokens > 0 {
                    iterations += 1;
                }
                if it.decoding > 0 {
                    decode_iters += 1;
                    occupancy += it.decoding as u64;
                }
            }
            preemptions = audit.preemptions as u64;
            kv_allocated = audit.kv_blocks_allocated;
            mode_changes = gov.decisions().len() as u64;
        } else if digest != o.digest {
            o.fail("replay digest differs from the first replay's");
        }
        let (served, done) = (sim.served_output_tokens(), sim.completions().len() as u64);

        let t2 = Instant::now();
        let run = sim.finish();
        w.finish_s.push(t2.elapsed().as_secs_f64());
        w.run_s.push(run_s);
        std::hint::black_box(run);
        w.served_tokens += served;
        w.completed += done;
        if first {
            o.digest_wall_s = w.setup_s[0] + run_s + w.finish_s[0];
            o.record_peak_rss();
            if fixed {
                break;
            }
        }
        if w.run_s.len() >= MIN_REPLAYS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    o.completed = w.completed;
    throughput(&mut o.e2e, &w);

    let l = &mut o.layer;
    l.put("serve.new_ms", median(&w.setup_s) * 1e3, "ms");
    l.put("serve.observe_us_p50", quantile(&times.observe_us, 0.5), "us");
    l.put("serve.observe_us_p90", quantile(&times.observe_us, 0.9), "us");
    l.put("governor.decide_us_p50", quantile(&times.decide_us, 0.5), "us");
    l.put("governor.mode_changes", mode_changes as f64, "count");
    l.put("serve.queue_depth_p50", quantile(&times.depth, 0.5), "count");
    l.put("serve.queue_depth_max", times.depth.iter().copied().fold(0.0, f64::max), "count");
    l.put("serve.step_us_p50", quantile(&times.step_us, 0.5), "us");
    l.put("serve.step_us_p90", quantile(&times.step_us, 0.9), "us");
    l.put("serve.finish_ms", median(&w.finish_s) * 1e3, "ms");
    l.put("serve.iterations", iterations as f64, "count");
    l.put("serve.mean_occupancy", ratio(occupancy as f64, decode_iters as f64), "seqs");
    l.put("serve.preemptions", preemptions as f64, "count");
    l.put("mem.kv_blocks_allocated", kv_allocated as f64, "count");
    o
}

/// Throughput of the median replay. Every replay does the same work, so
/// the median of their wall times leaves out the replays a burst of
/// contention from other tenants slowed, where a total over the run
/// would not.
fn throughput(e: &mut Metrics, w: &Walls) {
    let replays = w.run_s.len() as f64;
    let busy: Vec<f64> = w
        .run_s
        .iter()
        .enumerate()
        .map(|(i, run)| run + w.finish_s.get(i).copied().unwrap_or(0.0))
        .collect();
    let busy = median(&busy);
    e.put("setup_s", median(&w.setup_s), "s");
    e.put("req_per_s", w.completed as f64 / replays / busy, "req/s");
    e.put("tok_per_s", w.served_tokens as f64 / replays / busy, "tok/s");
}

/// What the timing router delegate saw.
#[derive(Debug, Default)]
pub struct RouteLog {
    /// Inner policy wall per routing decision (µs).
    pub route_us: Vec<f64>,
    /// Decisions that went to a device already holding a prefix of the
    /// prompt.
    pub affinity: u64,
    /// Queue depth of the chosen device at each decision.
    pub depth: Vec<f64>,
}

/// A routing-policy delegate that times the inner policy (traced runs).
pub struct TimedRouter<P> {
    inner: P,
    log: Rc<RefCell<RouteLog>>,
}

impl<P: RoutingPolicy> RoutingPolicy for TimedRouter<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, devices: &[DeviceView]) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.route(req, devices);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let mut log = self.log.borrow_mut();
        log.route_us.push(us);
        if let Decision::Device(i) = d {
            if let Some(v) = devices.get(i) {
                log.affinity += u64::from(v.prefix_hit_tokens > 0);
                log.depth.push(v.queue_depth as f64);
            }
        }
        d
    }
}

/// `fleet_prefix`'s members: the four Jetson family boards, each serving
/// Llama-3.1-8B int4 at its own MAXN with the radix prefix cache on.
pub fn fleet_members() -> Vec<FleetDevice> {
    DeviceSpec::jetson_family()
        .into_iter()
        .map(|dev| {
            let run_cfg = RunConfig::new(Llm::Llama31_8b, Precision::Int4)
                .power_mode(PowerMode::maxn_for(&dev));
            FleetDevice::new(dev, run_cfg).serve(ServeConfig::chunked(16).with_prefix_cache())
        })
        .collect()
}

/// Run `fleet_prefix`: `FleetSim` with `PrefixAffinity` routing, driven
/// to completion by `run_audited`. Traced builds wrap the router in a
/// [`TimedRouter`].
pub fn fleet(reqs: &[Request], prompts: &[(u64, Vec<u32>)], seconds: f64, fixed: bool) -> Outcome {
    let traced = cfg!(feature = "trace");
    let mut o = Outcome::default();
    let mut w = Walls::default();
    let log = Rc::new(RefCell::new(RouteLog::default()));
    let mut step_us = Vec::new();
    let start = Instant::now();
    loop {
        let handed_over = prompts.to_vec();
        let routes_before = log.borrow().route_us.iter().sum::<f64>();
        let t0 = Instant::now();
        let policy: Box<dyn RoutingPolicy> = if traced {
            Box::new(TimedRouter { inner: PrefixAffinity, log: Rc::clone(&log) })
        } else {
            Box::new(PrefixAffinity)
        };
        let sim = FleetSim::new(fleet_members(), policy, FleetConfig::default(), reqs)
            .expect("Llama-3.1-8B int4 loads on every Jetson")
            .with_prompts(handed_over);
        w.setup_s.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let audit = sim.run_audited().expect("fleet run completes");
        let run_s = t1.elapsed().as_secs_f64();
        w.run_s.push(run_s);
        o.attempted += reqs.len() as u64;

        let energy = audit.report.energy_j;
        let digest = digest_completions(audit.devices.iter().flat_map(|d| &d.completions), energy);
        let iterations: u64 = audit
            .devices
            .iter()
            .map(|d| d.trace.iter().filter(|it| it.tokens > 0).count() as u64)
            .sum();
        let routed_us = log.borrow().route_us.iter().sum::<f64>() - routes_before;
        step_us.push(ratio(run_s * 1e6 - routed_us, iterations as f64));
        w.served_tokens += audit.report.output_tokens;
        w.completed += audit.report.completed as u64;
        if w.run_s.len() == 1 {
            o.digest = digest;
            o.digest_wall_s = w.setup_s[0] + run_s;
            check_completions(&mut o, reqs, audit.devices.iter().flat_map(|d| &d.completions));
            for x in oracles::check_fleet(&audit, reqs) {
                o.fail(x.to_string());
            }
            for (i, d) in audit.devices.iter().enumerate() {
                for x in &d.kv_integrity {
                    o.fail(format!("device {i} kv integrity: {x}"));
                }
            }
            let cs: Vec<&Completion> = audit.devices.iter().flat_map(|d| &d.completions).collect();
            simulated_latency(&mut o.e2e, &cs);
            o.record_peak_rss();
            fleet_audit_metrics(&mut o.layer, &audit, reqs, iterations);
            if fixed {
                break;
            }
        } else if digest != o.digest {
            o.fail("replay digest differs from the first replay's");
        }
        if w.run_s.len() >= MIN_REPLAYS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    o.completed = w.completed;
    throughput(&mut o.e2e, &w);

    let log = log.borrow();
    let l = &mut o.layer;
    l.put("serve.new_ms", median(&w.setup_s) * 1e3, "ms");
    l.put("serve.queue_depth_p50", quantile(&log.depth, 0.5), "count");
    l.put("serve.queue_depth_max", log.depth.iter().copied().fold(0.0, f64::max), "count");
    l.put("serve.step_us_p50", quantile(&step_us, 0.5), "us");
    l.put("serve.step_us_p90", quantile(&step_us, 0.9), "us");
    l.put("fleet.route_us_p50", quantile(&log.route_us, 0.5), "us");
    l.put("fleet.route_us_p90", quantile(&log.route_us, 0.9), "us");
    l.put("fleet.affinity_share", ratio(log.affinity as f64, log.route_us.len() as f64), "ratio");
    o
}

/// Per-layer counts from one fleet replay's audit (identical on every
/// replay).
fn fleet_audit_metrics(l: &mut Metrics, audit: &FleetAudit, reqs: &[Request], iterations: u64) {
    let (mut decode_iters, mut occupancy, mut hits, mut cow, mut kv_allocated) =
        (0u64, 0u64, 0, 0, 0);
    for d in &audit.devices {
        for it in d.trace.iter().filter(|it| it.decoding > 0) {
            decode_iters += 1;
            occupancy += it.decoding as u64;
        }
        hits += d.kv_cache_hit_tokens;
        cow += d.kv_blocks_cow;
        kv_allocated += d.kv_blocks_allocated;
    }
    let prompt_tokens: u64 = reqs.iter().map(|r| r.input_tokens).sum();
    l.put("serve.iterations", iterations as f64, "count");
    l.put("serve.mean_occupancy", ratio(occupancy as f64, decode_iters as f64), "seqs");
    l.put("serve.preemptions", audit.report.preemptions as f64, "count");
    l.put("mem.kv_blocks_allocated", kv_allocated as f64, "count");
    l.put("fleet.reroutes", audit.report.reroutes as f64, "count");
    l.put("mem.prefix_hit_share", ratio(hits as f64, prompt_tokens as f64), "ratio");
    l.put("mem.cow_blocks", cow as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm_core::PoissonArrivals;

    #[test]
    fn decomposed_step_governed_matches_the_real_call() {
        let (dev, run_cfg) = backlog_setup();
        let reqs = PoissonArrivals::paper_shape(crate::inputs::BACKLOG_RATE).generate(300, 5);
        let run = |decomposed: bool| {
            let mut sim = ServeSim::new(ServeConfig::chunked(16), &dev, &run_cfg, &reqs).unwrap();
            let mut gov = backlog_governor(&dev, &run_cfg);
            let mut times = StepTimes::default();
            while let Some(t) = sim.next_event_s() {
                if decomposed {
                    step_governed_timed(&mut sim, t, &mut gov, &mut times).unwrap();
                } else {
                    sim.step_governed(t, &mut gov).unwrap();
                }
            }
            (sim.completions().to_vec(), sim.energy_j().to_bits(), gov.decisions().to_vec(), times)
        };
        let (real, decomposed) = (run(false), run(true));
        assert_eq!(real.0.len(), reqs.len());
        assert_eq!(real.0, decomposed.0, "same completions");
        assert_eq!(real.1, decomposed.1, "same energy, bit for bit");
        assert_eq!(real.2, decomposed.2, "same governor decisions");
        assert!(!real.2.is_empty(), "the trace exercises the governor");
        assert!(!decomposed.3.observe_us.is_empty());
    }
}
