//! Seeded input generation for every workload.
//!
//! Everything here is the benchmark's own work: corpora, BPE training,
//! prompt sampling and Poisson traces are built before any clock starts
//! and are left out of every timed number. The same seed always gives the
//! same inputs.

use edgellm_core::{PoissonArrivals, Request};
use edgellm_corpus::{BpeTokenizer, CorpusKind, PromptPool, SyntheticCorpus};

/// Model vocabulary; the BPE tokenizer is trained to at most this size so
/// every prompt id is a valid model token.
pub const VOCAB: usize = 2048;

/// `chat_decode`: prompt tokens per request.
pub const CHAT_PROMPT_TOKENS: usize = 32;
/// `chat_decode`: base greedy output tokens (jittered ±25%).
pub const CHAT_OUTPUT_TOKENS: usize = 64;
/// Requests in the real-path set a run serves pass after pass: 25 per
/// precision, enough for a p90 over at least 100 requests.
pub const REAL_REQUESTS: usize = 100;

/// `sim_backlog`: requests pre-loaded into the simulator. At about 4.1
/// iterations per request the iteration trace stays clear of 65536
/// entries, where its buffer doubling would make peak RSS bimodal
/// across seeds (as 16000 requests do).
pub const BACKLOG_REQUESTS: usize = 14_000;
/// `sim_backlog`: arrival rate (req/s), about 10× what Llama-3.1-8B fp16
/// at MAXN with a batch of 16 completes on the Orin AGX 64GB (2.08 req/s
/// of the paper shape).
pub const BACKLOG_RATE: f64 = 20.8;

/// `fleet_prefix`: requests routed over the fleet.
pub const FLEET_REQUESTS: usize = 20_000;
/// `fleet_prefix`: arrival rate (req/s). Each member gets a quarter of it,
/// about 78% of what the slowest member (Xavier AGX, 0.32 req/s)
/// completes, so every member's queue stays bounded.
pub const FLEET_RATE: f64 = 1.0;
/// `fleet_prefix`: distinct shared system prompts.
pub const FLEET_SYSTEM_PROMPTS: usize = 4;
/// `fleet_prefix`: quiet gap (s) after the opening burst, long enough for
/// every member to prefill and cache its system prompt.
pub const FLEET_WARM_GAP_S: f64 = 10.0;
/// `fleet_prefix`: tokens per shared system prompt.
pub const FLEET_SYSTEM_TOKENS: usize = 192;

/// SplitMix64: a tiny deterministic generator for the few draws the
/// corpus and arrival generators do not already make from the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One real-path request: prompt ids and the output length asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealRequest {
    /// Prompt token ids (all `< VOCAB`).
    pub prompt: Vec<u32>,
    /// Output tokens to generate.
    pub output_tokens: usize,
}

/// `chat_decode` requests: 32-token prompts cut from WikiText2-like
/// paragraphs, 64 output tokens ±25%.
pub fn chat(seed: u64) -> Vec<RealRequest> {
    let corpus = SyntheticCorpus::generate(CorpusKind::WikiText2Like, 20_000, seed);
    let tok = BpeTokenizer::train(&corpus.text, VOCAB);
    let pool = PromptPool::build(&corpus, &tok, CHAT_PROMPT_TOKENS);
    let mut rng = SplitMix::new(seed ^ 0xc4a7);
    let (lo, hi) = (CHAT_OUTPUT_TOKENS * 3 / 4, CHAT_OUTPUT_TOKENS * 5 / 4);
    pool.sample_batch(REAL_REQUESTS, CHAT_PROMPT_TOKENS, seed ^ 0x5a3c)
        .into_iter()
        .map(|prompt| RealRequest {
            prompt,
            output_tokens: rng.range(lo as u64, hi as u64) as usize,
        })
        .collect()
}

/// `sim_backlog` trace: the paper shape (32+64 tokens ±25%) arriving at
/// about 10× device capacity.
pub fn backlog(seed: u64) -> Vec<Request> {
    PoissonArrivals::paper_shape(BACKLOG_RATE).generate(BACKLOG_REQUESTS, seed)
}

/// `fleet_prefix` trace and prompts: the paper shape behind one of a few
/// shared 192-token system prompts (so every prompt is system prompt plus
/// a 32±25%-token user turn), arriving below fleet capacity.
pub fn fleet(seed: u64) -> (Vec<Request>, Vec<(u64, Vec<u32>)>) {
    let mut reqs = PoissonArrivals::paper_shape(FLEET_RATE).generate(FLEET_REQUESTS, seed);
    let mut rng = SplitMix::new(seed ^ 0xf1ee7);
    let systems: Vec<Vec<u32>> = (0..FLEET_SYSTEM_PROMPTS)
        .map(|_| (0..FLEET_SYSTEM_TOKENS).map(|_| rng.range(0, VOCAB as u64 - 1) as u32).collect())
        .collect();
    // The first request of each system prompt arrives in one burst at the
    // start, and the rest of the trace only after every member has cached
    // its prompt. `PrefixAffinity` therefore places each prompt on its own
    // member (the burst breaks the tie between cold members by queue
    // depth), whatever the seed; without this, a prompt first seen while
    // another member was idle and cold could end up cached on two members,
    // and the lowest index would win it for the rest of the run.
    let t0 = reqs[0].arrival_s;
    let prompts = reqs
        .iter_mut()
        .enumerate()
        .map(|(i, r)| {
            r.input_tokens += FLEET_SYSTEM_TOKENS as u64;
            let which = if i < FLEET_SYSTEM_PROMPTS {
                r.arrival_s = t0;
                i
            } else {
                r.arrival_s += FLEET_WARM_GAP_S;
                rng.range(0, FLEET_SYSTEM_PROMPTS as u64 - 1) as usize
            };
            (r.id, systems[which].clone())
        })
        .collect();
    (reqs, prompts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_new_seed_new_inputs() {
        assert_eq!(chat(3), chat(3));
        assert_ne!(chat(3), chat(4));
        assert_eq!(backlog(3), backlog(3));
        assert_ne!(backlog(3), backlog(4));
        assert_eq!(fleet(3), fleet(3));
        assert_ne!(fleet(3), fleet(4));
    }

    #[test]
    fn real_request_shapes() {
        let c = chat(11);
        assert_eq!(c.len(), REAL_REQUESTS);
        for r in &c {
            assert_eq!(r.prompt.len(), CHAT_PROMPT_TOKENS);
            assert!((48..=80).contains(&r.output_tokens), "{}", r.output_tokens);
            assert!(r.prompt.iter().all(|&t| (t as usize) < VOCAB));
        }
        let lens: std::collections::BTreeSet<usize> = c.iter().map(|r| r.output_tokens).collect();
        assert!(lens.len() > 10, "output lengths are jittered");
    }

    #[test]
    fn trace_shapes() {
        let b = backlog(11);
        assert_eq!(b.len(), BACKLOG_REQUESTS);
        let span = b.last().expect("non-empty").arrival_s;
        let rate = b.len() as f64 / span;
        assert!((rate / BACKLOG_RATE - 1.0).abs() < 0.05, "rate {rate}");
        assert!(b.iter().all(|r| (24..=40).contains(&r.input_tokens)));
        assert!(b.iter().all(|r| (48..=80).contains(&r.output_tokens)));

        let (f, prompts) = fleet(11);
        assert_eq!(f.len(), FLEET_REQUESTS);
        assert_eq!(prompts.len(), FLEET_REQUESTS);
        let rate = f.len() as f64 / f.last().expect("non-empty").arrival_s;
        assert!((rate / FLEET_RATE - 1.0).abs() < 0.05, "rate {rate}");
        assert!(f.iter().all(|r| (192 + 24..=192 + 40).contains(&r.input_tokens)));
        let distinct: std::collections::BTreeSet<&Vec<u32>> =
            prompts.iter().map(|p| &p.1).collect();
        assert_eq!(distinct.len(), FLEET_SYSTEM_PROMPTS);
        assert!(prompts.iter().all(|(_, p)| p.len() == FLEET_SYSTEM_TOKENS));
    }
}
