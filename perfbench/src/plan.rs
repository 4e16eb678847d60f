//! Seeded inputs: configuration variants, edit sessions, and the
//! shuffled schedule each workload runs.
//!
//! The program under test only ever sees the requests built here.
//! Every configuration is generated from the workload seed and passes
//! the c1–c7 screen before it is submitted, so by Theorem 1 its leased
//! arm must be `Safe` and its lease-stripped arm must be `Unsafe`.

use pte_core::pattern::{check_conditions, LeaseConfig};
use pte_core::rules::PairSpec;
use pte_hybrid::Time;
use pte_tracheotomy::registry;
use std::collections::HashSet;

/// SplitMix64: a tiny, dependency-free, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4D0A_11CE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Mono,
    Fleet,
    Service,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mono" => Some(Workload::Mono),
            "fleet" => Some(Workload::Fleet),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mono => "mono",
            Workload::Fleet => "fleet",
            Workload::Service => "service",
        }
    }
}

/// The request classes every workload reports on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cold proof of the session's configuration (leased arm).
    Proof,
    /// Repeat of the cold proof, answered from the report cache.
    Hit,
    /// Safeguard-relaxed edit, re-verified warm from the cold proof.
    Warm,
    /// Lease-stripped arm: a falsification with its witness.
    Falsify,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Proof => "proof",
            Kind::Hit => "hit",
            Kind::Warm => "warm",
            Kind::Falsify => "falsify",
        }
    }
}

/// One line of a workload's mix: a base model and the steps each of its
/// sessions runs.
struct MixEntry {
    base: &'static str,
    steps: &'static [Kind],
}

const fn entry(base: &'static str, steps: &'static [Kind]) -> MixEntry {
    MixEntry { base, steps }
}

use Kind::{Falsify, Hit, Proof, Warm};

/// Cold proof, repeats of it, the relaxed edit, the lease-stripped arm.
const FULL: &[Kind] = &[Proof, Hit, Hit, Warm, Falsify];
const FULL_SERVICE: &[Kind] = &[Proof, Hit, Hit, Hit, Warm, Falsify];
const FALSIFY_ONLY: &[Kind] = &[Falsify];

/// Sessions per pass: one of every model, so every model sees the same
/// mix of host speeds. Every class is cheap (at most ~60 ms on a 2-vCPU
/// Xeon at its faster speed), so a 40 s run holds over a hundred
/// samples of each, spread through the whole run, and every proof's
/// passed list stays within a core's 2 MB L2. chain-5 to chain-8 run
/// their lease-stripped arms only: their proofs take 0.16-2.8 s and
/// their passed lists outgrow the L2.
const MONO_MIX: &[MixEntry] = &[
    entry("case-study", FULL),
    entry("stress-lossy", FULL),
    entry("chain-2", FULL),
    entry("chain-3", FULL),
    entry("factory-cell", FULL),
    entry("chain-4", FULL),
    entry("chain-5", FALSIFY_ONLY),
    entry("chain-6", FALSIFY_ONLY),
    entry("chain-7", FALSIFY_ONLY),
    entry("chain-8", FALSIFY_ONLY),
];

/// Chain fleets through the compositional route, one of each size per
/// pass: N - 1 pair searches of 16 ms (N = 4) to 45 ms (N = 6) a proof.
/// The fastest proof of a run moved twice as much between runs at N = 7
/// (77 ms) as at N = 5.
const FLEET_MIX: &[MixEntry] = &[
    entry("chain-4", FULL),
    entry("chain-5", FULL),
    entry("chain-6", FULL),
];

/// Edit sessions against the daemon, one of every model per pass.
const SERVICE_MIX: &[MixEntry] = &[
    entry("case-study", FULL_SERVICE),
    entry("chain-2", FULL_SERVICE),
    entry("stress-lossy", FULL_SERVICE),
    entry("chain-3", FULL_SERVICE),
    entry("chain-4", FULL_SERVICE),
];

fn mix(w: Workload) -> &'static [MixEntry] {
    match w {
        Workload::Mono => MONO_MIX,
        Workload::Fleet => FLEET_MIX,
        Workload::Service => SERVICE_MIX,
    }
}

/// Wall time of one pass on a 2-vCPU Xeon at its faster speed; the
/// schedule holds twice the passes a run needs at that speed.
fn pass_seconds(w: Workload) -> f64 {
    match w {
        Workload::Mono => 0.22,
        Workload::Fleet => 0.2,
        Workload::Service => 0.08,
    }
}

/// One edit session: a configuration, its safeguard-relaxed edit, and
/// the steps to run against them in order.
#[derive(Clone, Debug)]
pub struct Session {
    /// Base model the configuration derives from.
    pub base: &'static str,
    pub n: usize,
    pub config: LeaseConfig,
    pub relaxed: LeaseConfig,
    /// Symbolic state budget (the registry's recommendation for `n`).
    pub budget: usize,
    pub steps: &'static [Kind],
}

/// The base model's configuration and recommended budget.
fn base_model(name: &str) -> (LeaseConfig, usize) {
    if let Some(s) = registry::by_name(name) {
        return (s.config, s.recommended_budget);
    }
    let n: usize = name
        .strip_prefix("chain-")
        .and_then(|n| n.parse().ok())
        .expect("mix bases are registry scenarios or chain-N");
    (
        LeaseConfig::chain(n),
        registry::by_name("chain-12").map_or(40_000, |s| s.recommended_budget),
    )
}

/// Scale factors are `(SCALE_DEN + k) / SCALE_DEN` for `k` in
/// `1..SCALE_DEN`.
const SCALE_DEN: u64 = 10_000;

/// `t` scaled by `(SCALE_DEN + k) / SCALE_DEN`, exactly: every base
/// constant is a multiple of 0.5 s, so the result (and half of it, for
/// the relaxed edit) is a whole number of microseconds.
fn scale(t: Time, k: u64) -> Time {
    let us = (t.as_secs_f64() * 1e6).round() as u64;
    assert_eq!(
        us % (50 * SCALE_DEN),
        0,
        "base constants are multiples of 0.5 s"
    );
    Time::seconds((us / SCALE_DEN * (SCALE_DEN + k)) as f64 / 1e6)
}

/// Every time constant of `cfg` scaled by the same factor. Uniform
/// scaling maps the zone graph onto an isomorphic one, so a variant
/// costs what its base model costs while being a fresh request.
fn scaled(cfg: &LeaseConfig, k: u64) -> LeaseConfig {
    let s = |t: Time| scale(t, k);
    LeaseConfig {
        n: cfg.n,
        t_fb0_min: s(cfg.t_fb0_min),
        t_wait_max: s(cfg.t_wait_max),
        t_req_max: s(cfg.t_req_max),
        t_enter: cfg.t_enter.iter().copied().map(s).collect(),
        t_run: cfg.t_run.iter().copied().map(s).collect(),
        t_exit: cfg.t_exit.iter().copied().map(s).collect(),
        safeguards: cfg
            .safeguards
            .iter()
            .map(|p| PairSpec::new(s(p.t_min_risky), s(p.t_min_safe)))
            .collect(),
    }
}

/// The safeguard-relaxed edit: every safeguard interval halved. Only the
/// property weakens (the lowered network is unchanged), so a prior proof
/// of `cfg` transfers to it.
fn relaxed(cfg: &LeaseConfig) -> LeaseConfig {
    let half = |t: Time| Time::seconds(t.as_secs_f64() / 2.0);
    LeaseConfig {
        safeguards: cfg
            .safeguards
            .iter()
            .map(|p| PairSpec::new(half(p.t_min_risky), half(p.t_min_safe)))
            .collect(),
        ..cfg.clone()
    }
}

/// c1–c7 plus microsecond exactness of every constant (the zone
/// engine's lowering rejects anything else).
fn screen(cfg: &LeaseConfig) -> bool {
    let exact = |t: &Time| pte_zones::try_to_ticks(t.as_secs_f64()).is_some();
    let all_exact = [cfg.t_fb0_min, cfg.t_wait_max, cfg.t_req_max]
        .iter()
        .chain(&cfg.t_enter)
        .chain(&cfg.t_run)
        .chain(&cfg.t_exit)
        .all(exact)
        && cfg
            .safeguards
            .iter()
            .all(|p| exact(&p.t_min_risky) && exact(&p.t_min_safe));
    all_exact && check_conditions(cfg).is_satisfied()
}

/// The whole seeded schedule of a run.
pub struct Plan {
    /// Sessions in pass order.
    pub sessions: Vec<Session>,
    /// Configurations that failed the screen and were replaced.
    pub rejected: usize,
}

/// Builds the seeded schedule for `seconds` of measurement.
pub fn build(w: Workload, seed: u64, seconds: u64) -> Plan {
    let mut g = Generator {
        rng: Rng::new(seed.wrapping_mul(3).wrapping_add(w as u64)),
        used: HashSet::new(),
        rejected: 0,
    };
    let passes = (2.0 * seconds as f64 / pass_seconds(w)).ceil() as usize + 1;
    let mut sessions = Vec::new();
    for _ in 0..passes {
        let mut pass: Vec<Session> = mix(w).iter().map(|e| g.session(e)).collect();
        g.rng.shuffle(&mut pass);
        sessions.extend(pass);
    }
    Plan {
        sessions,
        rejected: g.rejected,
    }
}

/// Seeded session generation state.
struct Generator {
    rng: Rng,
    /// Distinct scale factors per base model keep every variant a fresh
    /// request (fresh cache key) for the whole run.
    used: HashSet<(&'static str, u64)>,
    rejected: usize,
}

impl Generator {
    /// A session of a fresh seeded variant of `e.base`. Registry
    /// scenarios by name are left to the witness audit: a variant is
    /// always a fresh request, so a repeat can only be a hit of its own
    /// session.
    fn session(&mut self, e: &MixEntry) -> Session {
        let (base_cfg, budget) = base_model(e.base);
        let config = loop {
            let k = 1 + self.rng.below(SCALE_DEN as usize - 1) as u64;
            if !self.used.insert((e.base, k)) {
                continue;
            }
            let v = scaled(&base_cfg, k);
            if screen(&v) && screen(&relaxed(&v)) {
                break v;
            }
            self.rejected += 1;
        };
        Session {
            base: e.base,
            n: config.n,
            relaxed: relaxed(&config),
            config,
            budget,
            steps: e.steps,
        }
    }
}
