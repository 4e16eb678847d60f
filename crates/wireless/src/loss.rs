//! Packet-loss models.
//!
//! Theorem 1 holds under *arbitrary* loss, so any loss process is a valid
//! test load; the models here span the useful space:
//!
//! * [`BernoulliLoss`] — i.i.d. loss with probability `p`;
//! * [`GilbertElliott`] — two-state Markov bursty loss (the classic
//!   wireless channel abstraction);
//! * [`Interferer`] — a duty-cycled broadband interferer: alternating
//!   exponential busy/idle periods, with distinct collision probabilities,
//!   reproducing the "802.11g interferer 2 m from the supervisor"
//!   arrangement of the paper's emulation (Fig. 7(b));
//! * [`BitError`] — flips bits with a given BER in the encoded frame and
//!   lets the CRC discard corrupted packets (the receiver-side discard
//!   path of the fault model);
//! * [`ScriptedLoss`] — deterministic drop/deliver decisions for
//!   scripted runs and tests.
//!
//! All models are seedable and own their RNG, keeping runs reproducible.

use crate::packet::Packet;
use pte_hybrid::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A loss decision process: decides whether the packet sent at `now`
/// survives.
pub trait LossModel: Send {
    /// `true` if the packet is lost.
    fn is_lost(&mut self, now: Time) -> bool;

    /// Short description for reports.
    fn describe(&self) -> String;
}

/// Independent (i.i.d.) loss with fixed probability.
#[derive(Clone, Debug)]
pub struct BernoulliLoss {
    /// Loss probability in `[0, 1]`.
    pub p: f64,
    rng: StdRng,
}

impl BernoulliLoss {
    /// Creates a Bernoulli loss process with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> BernoulliLoss {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        BernoulliLoss {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl LossModel for BernoulliLoss {
    fn is_lost(&mut self, _now: Time) -> bool {
        self.rng.random::<f64>() < self.p
    }

    fn describe(&self) -> String {
        format!("bernoulli(p={})", self.p)
    }
}

/// Two-state Markov (Gilbert–Elliott) bursty loss.
///
/// The channel alternates between a Good and a Bad state with per-packet
/// transition probabilities; each state has its own loss rate.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    /// P(Good → Bad) per packet.
    pub p_gb: f64,
    /// P(Bad → Good) per packet.
    pub p_bg: f64,
    /// Loss probability in the Good state.
    pub loss_good: f64,
    /// Loss probability in the Bad state.
    pub loss_bad: f64,
    in_bad: bool,
    rng: StdRng,
}

impl GilbertElliott {
    /// Creates a Gilbert–Elliott channel starting in the Good state.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, seed: u64) -> GilbertElliott {
        for p in [p_gb, p_bg, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            in_bad: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The long-run average loss rate of the chain.
    pub fn steady_state_loss(&self) -> f64 {
        let denom = self.p_gb + self.p_bg;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_gb / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

impl LossModel for GilbertElliott {
    fn is_lost(&mut self, _now: Time) -> bool {
        // State transition first, then loss draw in the new state.
        let flip: f64 = self.rng.random();
        if self.in_bad {
            if flip < self.p_bg {
                self.in_bad = false;
            }
        } else if flip < self.p_gb {
            self.in_bad = true;
        }
        let p = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        self.rng.random::<f64>() < p
    }

    fn describe(&self) -> String {
        format!(
            "gilbert-elliott(p_gb={}, p_bg={}, loss={}/{})",
            self.p_gb, self.p_bg, self.loss_good, self.loss_bad
        )
    }
}

/// A duty-cycled broadband interferer.
///
/// The interferer alternates busy (transmitting) and idle periods with
/// exponential durations; a packet sent during a busy period collides with
/// probability `p_collision`, and with `p_background` otherwise. With the
/// defaults this approximates a WiFi broadcaster at ~3 Mbps overlapping a
/// ZigBee band (the paper's interference source).
#[derive(Clone, Debug)]
pub struct Interferer {
    /// Mean busy-period duration.
    pub mean_busy: Time,
    /// Mean idle-period duration.
    pub mean_idle: Time,
    /// Loss probability while the interferer is busy.
    pub p_collision: f64,
    /// Loss probability while the interferer is idle.
    pub p_background: f64,
    /// Time at which the current period ends.
    period_end: Time,
    busy: bool,
    rng: StdRng,
}

impl Interferer {
    /// Creates an interferer with the given duty-cycle parameters.
    pub fn new(
        mean_busy: Time,
        mean_idle: Time,
        p_collision: f64,
        p_background: f64,
        seed: u64,
    ) -> Interferer {
        assert!((0.0..=1.0).contains(&p_collision));
        assert!((0.0..=1.0).contains(&p_background));
        Interferer {
            mean_busy,
            mean_idle,
            p_collision,
            p_background,
            period_end: Time::ZERO,
            busy: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The paper's emulation conditions: a constant nearby WiFi source
    /// overlapping the ZigBee band. Busy ~40 ms / idle ~260 ms bursts with
    /// an 80% collision probability inside a burst yield ≈12% average
    /// *event* loss — the effective per-event loss after the motes'
    /// MAC-layer retransmissions, not the raw per-frame collision rate.
    pub fn paper_conditions(seed: u64) -> Interferer {
        Interferer::new(Time::millis(40.0), Time::millis(260.0), 0.80, 0.01, seed)
    }

    fn exp_sample(&mut self, mean: Time) -> Time {
        let u: f64 = self.rng.random();
        Time::seconds(-mean.as_secs_f64() * (1.0 - u).ln())
    }

    /// Advances the busy/idle alternation up to `now`.
    fn advance_to(&mut self, now: Time) {
        while self.period_end <= now {
            self.busy = !self.busy;
            let mean = if self.busy {
                self.mean_busy
            } else {
                self.mean_idle
            };
            let span = self.exp_sample(mean);
            self.period_end += span;
        }
    }

    /// Expected long-run loss rate (duty-cycle weighted).
    pub fn expected_loss(&self) -> f64 {
        let b = self.mean_busy.as_secs_f64();
        let i = self.mean_idle.as_secs_f64();
        let duty = b / (b + i);
        duty * self.p_collision + (1.0 - duty) * self.p_background
    }
}

impl LossModel for Interferer {
    fn is_lost(&mut self, now: Time) -> bool {
        self.advance_to(now);
        let p = if self.busy {
            self.p_collision
        } else {
            self.p_background
        };
        self.rng.random::<f64>() < p
    }

    fn describe(&self) -> String {
        format!(
            "interferer(busy={}, idle={}, p={}/{})",
            self.mean_busy, self.mean_idle, self.p_collision, self.p_background
        )
    }
}

/// Bit-error loss: flips each bit of the encoded frame independently with
/// probability `ber`; the packet is lost iff the CRC then fails
/// (which, for CRC-32 at these frame sizes, is whenever ≥1 bit flipped).
#[derive(Clone, Debug)]
pub struct BitError {
    /// Per-bit error probability.
    pub ber: f64,
    frame_bits: usize,
    rng: StdRng,
}

impl BitError {
    /// Creates a bit-error process for frames of `frame_bytes` bytes.
    pub fn new(ber: f64, frame_bytes: usize, seed: u64) -> BitError {
        assert!((0.0..=1.0).contains(&ber));
        BitError {
            ber,
            frame_bits: frame_bytes * 8,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Simulates corruption of a concrete packet frame and the receiver's
    /// CRC check. Returns `true` if the frame is *discarded*.
    pub fn corrupts(&mut self, packet: &Packet) -> bool {
        let frame = packet.encode();
        let mut data = frame.to_vec();
        let mut flipped = false;
        for byte in data.iter_mut() {
            for bit in 0..8 {
                if self.rng.random::<f64>() < self.ber {
                    *byte ^= 1 << bit;
                    flipped = true;
                }
            }
        }
        if !flipped {
            return false;
        }
        !Packet::verify(&data)
    }
}

impl LossModel for BitError {
    fn is_lost(&mut self, _now: Time) -> bool {
        // P(any bit flips) = 1 - (1-ber)^bits; CRC catches all such frames.
        let p_clean = (1.0 - self.ber).powi(self.frame_bits as i32);
        self.rng.random::<f64>() >= p_clean
    }

    fn describe(&self) -> String {
        format!("bit-error(ber={}, bits={})", self.ber, self.frame_bits)
    }
}

/// Deterministic, scripted loss: a sequence of drop decisions consumed one
/// per packet (then a default).
#[derive(Clone, Debug)]
pub struct ScriptedLoss {
    decisions: Vec<bool>,
    cursor: usize,
    /// Decision applied once the script is exhausted.
    pub default_lost: bool,
}

impl ScriptedLoss {
    /// Creates a scripted loss process (`true` = drop).
    pub fn new(decisions: Vec<bool>, default_lost: bool) -> ScriptedLoss {
        ScriptedLoss {
            decisions,
            cursor: 0,
            default_lost,
        }
    }

    /// A process that drops everything.
    pub fn drop_all() -> ScriptedLoss {
        ScriptedLoss::new(Vec::new(), true)
    }

    /// A process that delivers everything.
    pub fn deliver_all() -> ScriptedLoss {
        ScriptedLoss::new(Vec::new(), false)
    }
}

impl LossModel for ScriptedLoss {
    fn is_lost(&mut self, _now: Time) -> bool {
        let d = self
            .decisions
            .get(self.cursor)
            .copied()
            .unwrap_or(self.default_lost);
        self.cursor += 1;
        d
    }

    fn describe(&self) -> String {
        format!(
            "scripted({} decisions, default_lost={})",
            self.decisions.len(),
            self.default_lost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate<L: LossModel>(model: &mut L, n: usize) -> f64 {
        let mut lost = 0usize;
        for k in 0..n {
            if model.is_lost(Time::seconds(k as f64 * 0.01)) {
                lost += 1;
            }
        }
        lost as f64 / n as f64
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut m = BernoulliLoss::new(0.3, 7);
        let r = rate(&mut m, 100_000);
        assert!((r - 0.3).abs() < 0.01, "empirical {r}");
    }

    #[test]
    fn bernoulli_extremes() {
        assert!(!BernoulliLoss::new(0.0, 1).is_lost(Time::ZERO));
        assert!(BernoulliLoss::new(1.0, 1).is_lost(Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_probability() {
        let _ = BernoulliLoss::new(1.5, 0);
    }

    #[test]
    fn gilbert_elliott_matches_steady_state() {
        let mut m = GilbertElliott::new(0.1, 0.3, 0.02, 0.7, 11);
        let expected = m.steady_state_loss();
        let r = rate(&mut m, 200_000);
        assert!((r - expected).abs() < 0.02, "empirical {r} vs {expected}");
    }

    #[test]
    fn gilbert_elliott_bursty() {
        // Bad state sticky => losses cluster. Measure burst lengths.
        let mut m = GilbertElliott::new(0.05, 0.2, 0.0, 1.0, 5);
        let mut bursts = Vec::new();
        let mut run = 0usize;
        for k in 0..50_000 {
            if m.is_lost(Time::seconds(k as f64 * 0.01)) {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        let mean_burst: f64 = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        assert!(mean_burst > 2.0, "bursty channel mean burst {mean_burst}");
    }

    #[test]
    fn interferer_duty_cycle_loss() {
        let mut m = Interferer::paper_conditions(42);
        let expected = m.expected_loss();
        let r = rate(&mut m, 200_000);
        assert!(
            (r - expected).abs() < 0.05,
            "empirical {r} vs expected {expected}"
        );
        assert!(r > 0.05 && r < 0.3, "paper-conditions loss plausible: {r}");
    }

    #[test]
    fn interferer_time_dependence() {
        // Packets within one busy burst share fate more often than not:
        // measure correlation of adjacent sends (1 ms apart) vs far sends.
        let mut m = Interferer::new(Time::millis(50.0), Time::millis(50.0), 1.0, 0.0, 3);
        let mut same = 0;
        let mut total = 0;
        let mut prev = m.is_lost(Time::ZERO);
        for k in 1..20_000 {
            let cur = m.is_lost(Time::millis(k as f64));
            if cur == prev {
                same += 1;
            }
            total += 1;
            prev = cur;
        }
        let corr = same as f64 / total as f64;
        assert!(corr > 0.8, "adjacent packets correlated: {corr}");
    }

    #[test]
    fn bit_error_rate_consistent_with_crc() {
        let frame_bytes = Packet::event(0, 1, 0, "evtReq").encode().len();
        let mut m = BitError::new(1e-3, frame_bytes, 9);
        let expected = 1.0 - (1.0f64 - 1e-3).powi((frame_bytes * 8) as i32);
        let r = rate(&mut m, 100_000);
        assert!((r - expected).abs() < 0.01, "empirical {r} vs {expected}");
    }

    #[test]
    fn bit_error_corrupts_concrete_frames() {
        let mut m = BitError::new(0.01, 0, 13);
        let p = Packet::event(0, 1, 5, "evtAbort");
        let mut discarded = 0;
        for _ in 0..1000 {
            if m.corrupts(&p) {
                discarded += 1;
            }
        }
        // Frame ~20 bytes => ~80% chance of >=1 flip at BER 1e-2.
        assert!(
            discarded > 500,
            "CRC discards corrupted frames: {discarded}"
        );
    }

    #[test]
    fn scripted_sequence_consumed_in_order() {
        let mut m = ScriptedLoss::new(vec![true, false, true], false);
        assert!(m.is_lost(Time::ZERO));
        assert!(!m.is_lost(Time::ZERO));
        assert!(m.is_lost(Time::ZERO));
        assert!(!m.is_lost(Time::ZERO), "default after script");
    }

    #[test]
    fn scripted_extremes() {
        assert!(ScriptedLoss::drop_all().is_lost(Time::ZERO));
        assert!(!ScriptedLoss::deliver_all().is_lost(Time::ZERO));
    }

    #[test]
    fn determinism_same_seed_same_sequence() {
        let mut a = BernoulliLoss::new(0.5, 123);
        let mut b = BernoulliLoss::new(0.5, 123);
        for k in 0..1000 {
            let t = Time::seconds(k as f64);
            assert_eq!(a.is_lost(t), b.is_lost(t));
        }
    }
}
