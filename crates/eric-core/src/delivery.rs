//! Resilient delivery over a lossy, adversarial wire.
//!
//! The paper's threat model (§II-C) covers deterministic tampering and
//! soft errors; [`Attacker`](crate::channel::Attacker) models a *single* such fault precisely. A
//! fleet-scale rollout additionally faces *stochastic* transit damage
//! — frames dropped, bit-flipped, truncated, duplicated, and delayed
//! at some rate — and a delivery layer that fails fast on the first
//! damaged frame permanently loses devices. This module makes delivery
//! degrade gracefully instead:
//!
//! * [`FaultPlan`] — a **seeded** stochastic fault model over the wire
//!   path: per-frame drop / bit-flip / truncate / duplicate
//!   probabilities plus bounded transit latency. Every draw is a pure
//!   function of `(seed, frame key, attempt)`, so a chaos run is
//!   byte-reproducible from its seed regardless of thread scheduling
//!   or host speed.
//! * [`LossyChannel`] — composes a `FaultPlan` with the existing
//!   deterministic [`Attacker`](crate::channel::Attacker), so targeted tampering and background
//!   noise can be modeled together.
//! * [`DeliveryPolicy`] — bounded retries with exponential backoff and
//!   deterministic jitter, a per-device attempt budget, and a
//!   deadline. Retries are gated on [`EricError::fault_class`]: only
//!   [`FaultClass::Retryable`] transit damage is retried; a fatal
//!   error (stale epoch, config rejection) terminates delivery on the
//!   spot so retries never mask real failures.
//! * [`ResilientDelivery`] — the attempt loop. Time (transit latency,
//!   backoff) is accounted on a **virtual clock**, never slept, so a
//!   20%-fault-rate soak over a thousand devices still runs in
//!   milliseconds and two runs of the same seed agree exactly.
//!
//! The attempt loop and the lossy hop are written once over [`Frame`],
//! so a full [`Package`] and an `ERIC2D` [`DeltaPackage`] share a path.
//!
//! Every delivery ends in exactly one terminal [`DeliveryStatus`]:
//! `Delivered` (the parsed frame, which callers verify through the
//! `SecureLoader` byte-for-byte), `Exhausted` (the retry budget or
//! deadline ran out; the last retryable error rides along), or `Fatal`
//! (a non-retryable error, reported after exactly one occurrence).
//!
//! # Examples
//!
//! ```
//! use eric_core::{
//!     Channel, DeliveryPolicy, DeliveryStatus, Device, EncryptionConfig, FaultPlan,
//!     LossyChannel, Package, ResilientDelivery, SoftwareSource,
//! };
//!
//! let mut device = Device::with_seed(9, "node");
//! let cred = device.enroll();
//! let source = SoftwareSource::new("vendor");
//! let package = source
//!     .build("main:\n li a0, 3\n li a7, 93\n ecall\n", &cred, &EncryptionConfig::full())
//!     .unwrap();
//! let wire = package.to_wire();
//!
//! // 10% of frames dropped, flipped, or truncated — seeded, so the
//! // whole run replays identically from seed 7.
//! let delivery = ResilientDelivery::new(
//!     LossyChannel::new(Channel::trusted_free(), FaultPlan::uniform(7, 0.10)),
//!     DeliveryPolicy::default(),
//! );
//! let report = delivery.deliver_verified(0, &wire, |_: &Package| Ok(()));
//! match &report.status {
//!     DeliveryStatus::Delivered(received) => {
//!         // Byte-identical delivery, verified end to end.
//!         assert_eq!(received.to_wire(), wire);
//!         assert_eq!(device.install_and_run(received).unwrap().exit_code, 3);
//!     }
//!     other => panic!("10% faults exhausted the default budget: {other:?}"),
//! }
//! ```

use crate::channel::Channel;
use crate::delta::DeltaPackage;
use crate::error::{EricError, FaultClass, TransportFault};
use crate::package::{Frame, Package};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Mix three words into one RNG seed (SplitMix64 finalizer rounds).
///
/// Each `(seed, key, attempt)` triple gets an independent, stable
/// stream: fault draws for one frame never depend on how many other
/// frames were transmitted before it, which is what makes chaos runs
/// order-independent and therefore reproducible under work stealing.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.rotate_left(25) ^ c.rotate_left(47);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stochastic fault model for the wire path.
///
/// Probabilities are evaluated **per attempt** in a fixed order (drop,
/// then bit-flip, then truncate, then duplicate); transit latency is
/// drawn uniformly in `[0, max_latency]` for every attempt, delivered
/// or not. All draws come from an RNG keyed by `(seed, frame key,
/// attempt)` — see [`FaultPlan::events`].
///
/// An all-zero plan ([`FaultPlan::none`]) is *bit-passive*: the frame
/// bytes are never touched, so the zero-fault-rate path is
/// byte-identical to a plain [`Channel::transmit_wire`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed every stochastic draw derives from.
    pub seed: u64,
    /// Probability the frame is lost entirely.
    pub drop: f64,
    /// Probability one uniformly-chosen bit is flipped.
    pub bit_flip: f64,
    /// Probability the frame is truncated to a uniformly-chosen prefix.
    pub truncate: f64,
    /// Probability the frame is delivered twice (wasted bandwidth; the
    /// receiver's parse is idempotent).
    pub duplicate: f64,
    /// Upper bound on the simulated per-attempt transit latency.
    pub max_latency: Duration,
}

impl FaultPlan {
    /// The fault-free plan: passive on bytes, zero latency.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            bit_flip: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            max_latency: Duration::ZERO,
        }
    }

    /// A plan applying `rate` to every fault kind (drop, bit-flip,
    /// truncate, duplicate), with a 2 ms latency bound — the knob the
    /// chaos sweep turns.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            drop: rate,
            bit_flip: rate,
            truncate: rate,
            duplicate: rate,
            max_latency: Duration::from_millis(2),
        }
    }

    /// Whether this plan can ever disturb a frame.
    pub fn is_passive(&self) -> bool {
        self.drop <= 0.0 && self.bit_flip <= 0.0 && self.truncate <= 0.0 && self.duplicate <= 0.0
    }

    /// Sample the transit events for one attempt and apply any byte
    /// damage to `wire` in place.
    ///
    /// Deterministic: the same `(seed, key, attempt)` always yields
    /// the same events on the same input length. `key` identifies the
    /// frame (the chaos harness uses the device index or nonce);
    /// `attempt` is 1-based so retransmissions of one frame see
    /// independent draws.
    pub fn events(&self, key: u64, attempt: u32, wire: &mut Vec<u8>) -> TransitEvents {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, key, attempt as u64));
        let latency = if self.max_latency.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos(rng.gen_range(0..=self.max_latency.as_nanos() as u64))
        };
        let mut events = TransitEvents {
            latency,
            ..TransitEvents::default()
        };
        if self.is_passive() {
            return events;
        }
        if rng.gen::<f64>() < self.drop {
            events.dropped = true;
            return events; // a lost frame suffers no further damage
        }
        if rng.gen::<f64>() < self.bit_flip && !wire.is_empty() {
            let bit = rng.gen_range(0..wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            events.bit_flipped = true;
        }
        if rng.gen::<f64>() < self.truncate && !wire.is_empty() {
            wire.truncate(rng.gen_range(0..wire.len()));
            events.truncated = true;
        }
        if rng.gen::<f64>() < self.duplicate {
            events.duplicated = true;
        }
        events
    }
}

/// What one transit attempt did to the frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransitEvents {
    /// Frame lost entirely (no bytes arrived).
    pub dropped: bool,
    /// One bit flipped somewhere in the frame.
    pub bit_flipped: bool,
    /// Frame cut to a shorter prefix.
    pub truncated: bool,
    /// Frame delivered twice (bandwidth waste, not corruption).
    pub duplicated: bool,
    /// Simulated transit latency for this attempt.
    pub latency: Duration,
}

/// An untrusted channel with both a deterministic [`Attacker`](crate::channel::Attacker) and a
/// stochastic [`FaultPlan`] acting on every frame.
///
/// The stochastic damage is applied first (transit noise), then the
/// deterministic attacker (a man-in-the-middle downstream of the lossy
/// hop), then the receiver parses — the same composition order every
/// attempt, so the two models never race.
#[derive(Clone, Debug)]
pub struct LossyChannel {
    channel: Channel,
    plan: FaultPlan,
}

impl LossyChannel {
    /// Compose a deterministic channel with a stochastic fault plan.
    pub fn new(channel: Channel, plan: FaultPlan) -> Self {
        LossyChannel { channel, plan }
    }

    /// A clean channel with only the stochastic plan acting.
    pub fn with_plan(plan: FaultPlan) -> Self {
        LossyChannel {
            channel: Channel::trusted_free(),
            plan,
        }
    }

    /// The stochastic fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Transmit one attempt of `wire` identified by `key`.
    ///
    /// Returns the parsed frame (or why it failed) plus the transit
    /// events that occurred. A dropped frame reports
    /// [`EricError::Transport`]; damaged frames report whatever the
    /// framing parser says — both classify as retryable. The channel
    /// damages and parses the attempt's own copy: one copy per attempt.
    pub(crate) fn transmit_attempt<F: Frame>(
        &self,
        key: u64,
        attempt: u32,
        wire: &[u8],
    ) -> (Result<F, EricError>, TransitEvents) {
        let mut frame = wire.to_vec();
        let events = self.plan.events(key, attempt, &mut frame);
        if events.dropped {
            return (Err(EricError::Transport(TransportFault::Dropped)), events);
        }
        (self.channel.receive(frame), events)
    }
}

/// Bounded-retry policy: attempts, exponential backoff with
/// deterministic jitter, and a per-device deadline.
///
/// Backoff time is **virtual** — the delivery loop accounts it against
/// the deadline without sleeping, so policies with second-scale
/// deadlines still evaluate in microseconds and deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryPolicy {
    /// Maximum transmission attempts per frame (≥ 1; the first send
    /// counts as attempt 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff interval.
    pub max_backoff: Duration,
    /// Jitter as a percent of the backoff interval (0–100): each
    /// interval is scaled by a deterministic factor in
    /// `[1 − j, 1 + j]`.
    pub jitter_pct: u8,
    /// Total budget (transit latency + backoff, virtual clock) before
    /// delivery is abandoned.
    pub deadline: Duration,
}

impl Default for DeliveryPolicy {
    /// 5 attempts, 2 ms base backoff doubling to a 64 ms cap, ±25%
    /// jitter, 1 s deadline.
    fn default() -> Self {
        DeliveryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(64),
            jitter_pct: 25,
            deadline: Duration::from_secs(1),
        }
    }
}

impl DeliveryPolicy {
    /// A policy that never retries (attempt budget of one) — the
    /// fail-fast behavior of the bare channel, expressed in the same
    /// vocabulary.
    pub fn fail_fast() -> Self {
        DeliveryPolicy {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The backoff interval charged before retry number
    /// `next_attempt` (2-based: the wait before the second attempt is
    /// `backoff_before(seed, key, 2)`).
    ///
    /// Deterministic: exponential in the attempt number, capped at
    /// [`DeliveryPolicy::max_backoff`], scaled by a jitter factor
    /// drawn from `(seed, key, next_attempt)` — the same triple always
    /// waits the same time, and two devices with different keys
    /// desynchronize instead of thundering in lockstep.
    pub fn backoff_before(&self, seed: u64, key: u64, next_attempt: u32) -> Duration {
        let doublings = next_attempt.saturating_sub(2).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        if self.jitter_pct == 0 || raw.is_zero() {
            return raw;
        }
        let jitter = u64::from(self.jitter_pct.min(100));
        // Deterministic factor in [100 − j, 100 + j] percent.
        let span = 2 * jitter + 1;
        let offset = mix(seed ^ 0x6A09_E667_F3BC_C908, key, next_attempt as u64) % span;
        let pct = 100 - jitter + offset;
        Duration::from_nanos((raw.as_nanos() as u64 / 100).saturating_mul(pct))
    }
}

/// Why an exhausted delivery gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// Every attempt in the budget failed with a retryable fault.
    Attempts,
    /// The virtual clock (transit + backoff) passed the deadline.
    Deadline,
}

/// The single terminal state every delivery reaches.
///
/// Generic over the parsed frame type: full-image deliveries carry a
/// [`Package`] (the default), delta deliveries a [`DeltaPackage`].
#[derive(Debug)]
pub enum DeliveryStatus<T = Package> {
    /// The frame arrived and parsed; callers verify it through the
    /// `SecureLoader` (and, for byte-identity, against the sent wire).
    Delivered(T),
    /// The retry budget or deadline ran out; the last retryable error
    /// explains what transit kept doing to the frame.
    Exhausted {
        /// Which budget ran out.
        reason: ExhaustReason,
        /// The retryable error from the final attempt.
        last_error: EricError,
    },
    /// A fatal (non-retryable) error was observed; delivery stopped
    /// immediately so the error is reported, not masked by retries.
    Fatal(EricError),
}

impl<T> DeliveryStatus<T> {
    /// `true` for [`DeliveryStatus::Delivered`].
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryStatus::Delivered(_))
    }

    /// The terminal error, for the two failure states.
    pub fn error(&self) -> Option<&EricError> {
        match self {
            DeliveryStatus::Delivered(_) => None,
            DeliveryStatus::Exhausted { last_error, .. } => Some(last_error),
            DeliveryStatus::Fatal(e) => Some(e),
        }
    }
}

/// Full accounting of one frame's delivery.
///
/// Generic over the parsed frame type, like [`DeliveryStatus`].
#[derive(Debug)]
pub struct DeliveryReport<T = Package> {
    /// The frame key the caller supplied (device index or nonce).
    pub key: u64,
    /// Transmission attempts made (≥ 1).
    pub attempts: u32,
    /// Attempts beyond the first (`attempts − 1`).
    pub retries: u32,
    /// Attempts lost to a drop.
    pub dropped: u32,
    /// Attempts that arrived damaged (bit-flip and/or truncation).
    pub corrupted: u32,
    /// Attempts duplicated in transit (bandwidth waste).
    pub duplicated: u32,
    /// Bytes put on the wire across all attempts (duplicates counted
    /// twice) — the denominator of goodput.
    pub wire_bytes: u64,
    /// Simulated transit latency, summed over attempts.
    pub transit: Duration,
    /// Simulated backoff, summed over retries.
    pub backoff: Duration,
    /// The terminal outcome.
    pub status: DeliveryStatus<T>,
}

impl<T> DeliveryReport<T> {
    /// Virtual wall clock this delivery consumed (transit + backoff).
    pub fn elapsed(&self) -> Duration {
        self.transit + self.backoff
    }
}

/// The retrying delivery engine: a [`LossyChannel`] driven under a
/// [`DeliveryPolicy`].
#[derive(Clone, Debug)]
pub struct ResilientDelivery {
    channel: LossyChannel,
    policy: DeliveryPolicy,
}

impl ResilientDelivery {
    /// Drive `channel` under `policy`.
    pub fn new(channel: LossyChannel, policy: DeliveryPolicy) -> Self {
        ResilientDelivery { channel, policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> &DeliveryPolicy {
        &self.policy
    }

    /// The underlying lossy channel.
    pub fn channel(&self) -> &LossyChannel {
        &self.channel
    }

    /// Deliver `wire` as an `F` (a full [`Package`] or an `ERIC2D`
    /// [`DeltaPackage`]), retrying retryable faults within the policy's
    /// budget and running `verify` on every parsed frame before
    /// declaring success.
    ///
    /// `verify` is the receiver's acceptance check (typically
    /// `SecureLoader` validation via `Device::install_and_run` or
    /// [`Device::apply_delta`](crate::Device::apply_delta), a
    /// byte-identity check against the sent frame, or `|_: &Package|
    /// Ok(())` to accept any frame that parses). Its error is
    /// classified exactly like a transmission error: a retryable
    /// verification failure (HDE rejection of a corrupted-but-parseable
    /// frame) is retried; a fatal one (stale epoch) terminates
    /// delivery immediately, so an interrupted delta push retries
    /// instead of leaving a device half-patched.
    pub fn deliver_verified<F: Frame>(
        &self,
        key: u64,
        wire: &[u8],
        mut verify: impl FnMut(&F) -> Result<(), EricError>,
    ) -> DeliveryReport<F> {
        let seed = self.channel.plan().seed;
        let mut report = DeliveryReport {
            key,
            attempts: 0,
            retries: 0,
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
            wire_bytes: 0,
            transit: Duration::ZERO,
            backoff: Duration::ZERO,
            status: DeliveryStatus::Exhausted {
                reason: ExhaustReason::Attempts,
                last_error: EricError::Transport(TransportFault::Dropped),
            },
        };
        let max_attempts = self.policy.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            report.attempts = attempt;
            report.retries = attempt - 1;
            let (result, events) = self.channel.transmit_attempt(key, attempt, wire);
            report.transit += events.latency;
            report.wire_bytes += wire.len() as u64 * if events.duplicated { 2 } else { 1 };
            report.dropped += u32::from(events.dropped);
            report.corrupted += u32::from(events.bit_flipped || events.truncated);
            report.duplicated += u32::from(events.duplicated);
            let error = match result.and_then(|frame| {
                verify(&frame)?;
                Ok(frame)
            }) {
                Ok(frame) => {
                    report.status = DeliveryStatus::Delivered(frame);
                    return report;
                }
                Err(e) => e,
            };
            if error.fault_class() == FaultClass::Fatal {
                report.status = DeliveryStatus::Fatal(error);
                return report;
            }
            if attempt == max_attempts {
                report.status = DeliveryStatus::Exhausted {
                    reason: ExhaustReason::Attempts,
                    last_error: error,
                };
                return report;
            }
            // Charge the backoff against the virtual clock before the
            // next attempt; a blown deadline terminates here.
            report.backoff += self.policy.backoff_before(seed, key, attempt + 1);
            if report.elapsed() >= self.policy.deadline {
                report.status = DeliveryStatus::Exhausted {
                    reason: ExhaustReason::Deadline,
                    last_error: error,
                };
                return report;
            }
        }
        unreachable!("every attempt path returns a terminal status");
    }

    /// [`ResilientDelivery::deliver_verified`] over an `ERIC2D`
    /// [`DeltaPackage`]. It stays under its own name because the
    /// `perfbench` `ota` workload calls it by that name.
    pub fn deliver_delta_verified(
        &self,
        key: u64,
        wire: &[u8],
        verify: impl FnMut(&DeltaPackage) -> Result<(), EricError>,
    ) -> DeliveryReport<DeltaPackage> {
        self.deliver_verified(key, wire, verify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Attacker;
    use crate::config::EncryptionConfig;
    use crate::device::Device;
    use crate::source::SoftwareSource;

    const PROGRAM: &str = "main:\n li a0, 7\n li a7, 93\n ecall\n";

    fn wire_for(device: &mut Device) -> Vec<u8> {
        let cred = device.enroll();
        SoftwareSource::new("vendor")
            .build(PROGRAM, &cred, &EncryptionConfig::full())
            .unwrap()
            .to_wire()
    }

    #[test]
    fn passive_plan_is_byte_passive_and_instant() {
        let mut device = Device::with_seed(50, "node");
        let wire = wire_for(&mut device);
        let mut frame = wire.clone();
        let events = FaultPlan::none().events(3, 1, &mut frame);
        assert_eq!(frame, wire, "passive plan touched bytes");
        assert_eq!(events, TransitEvents::default());
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed_key_attempt() {
        let plan = FaultPlan::uniform(42, 0.5);
        let base = vec![0xAB; 300];
        for key in 0..8u64 {
            for attempt in 1..=4u32 {
                let (mut a, mut b) = (base.clone(), base.clone());
                let ea = plan.events(key, attempt, &mut a);
                let eb = plan.events(key, attempt, &mut b);
                assert_eq!(ea, eb);
                assert_eq!(a, b, "same triple must damage identically");
            }
        }
        // Different attempts of one frame see independent draws: with
        // 50% rates, 16 (key, attempt) cells cannot all agree.
        let distinct: std::collections::HashSet<_> = (0..8u64)
            .flat_map(|k| (1..=4u32).map(move |a| (k, a)))
            .map(|(k, a)| {
                let mut w = base.clone();
                let e = plan.events(k, a, &mut w);
                (e.dropped, e.bit_flipped, e.truncated, w)
            })
            .collect();
        assert!(distinct.len() > 1, "all fault draws identical");
    }

    #[test]
    fn dropped_frames_classify_as_retryable_transport_faults() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::uniform(1, 0.0)
        };
        let channel = LossyChannel::with_plan(plan);
        let (result, events) = channel.transmit_attempt::<Package>(0, 1, &[1, 2, 3]);
        assert!(events.dropped);
        let err = result.unwrap_err();
        assert!(matches!(err, EricError::Transport(TransportFault::Dropped)));
        assert!(err.is_retryable());
    }

    #[test]
    fn backoff_is_exponential_capped_and_jitter_deterministic() {
        let policy = DeliveryPolicy {
            jitter_pct: 0,
            ..DeliveryPolicy::default()
        };
        assert_eq!(policy.backoff_before(0, 0, 2), Duration::from_millis(2));
        assert_eq!(policy.backoff_before(0, 0, 3), Duration::from_millis(4));
        assert_eq!(policy.backoff_before(0, 0, 4), Duration::from_millis(8));
        assert_eq!(policy.backoff_before(0, 0, 12), Duration::from_millis(64));

        let jittered = DeliveryPolicy::default();
        let a = jittered.backoff_before(7, 3, 2);
        assert_eq!(a, jittered.backoff_before(7, 3, 2), "jitter not stable");
        // Bounded by ±25%.
        let base = Duration::from_millis(2);
        assert!(a >= base.mul_f64(0.74) && a <= base.mul_f64(1.26), "{a:?}");
        // Different keys desynchronize (some pair must differ).
        assert!(
            (0..16).any(|k| jittered.backoff_before(7, k, 2) != a),
            "every key drew identical jitter"
        );
    }

    #[test]
    fn clean_channel_delivers_first_try_byte_identical() {
        let mut device = Device::with_seed(51, "node");
        let wire = wire_for(&mut device);
        let delivery = ResilientDelivery::new(
            LossyChannel::with_plan(FaultPlan::none()),
            DeliveryPolicy::default(),
        );
        let report = delivery.deliver_verified(9, &wire, |_: &Package| Ok(()));
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries, 0);
        assert_eq!(report.wire_bytes, wire.len() as u64);
        let DeliveryStatus::Delivered(package) = &report.status else {
            panic!("clean channel failed: {:?}", report.status);
        };
        assert_eq!(package.to_wire(), wire);
        assert_eq!(device.install_and_run(package).unwrap().exit_code, 7);
    }

    #[test]
    fn always_drop_exhausts_the_attempt_budget() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::uniform(1, 0.0)
        };
        let delivery =
            ResilientDelivery::new(LossyChannel::with_plan(plan), DeliveryPolicy::default());
        let report = delivery.deliver_verified(4, &[0u8; 64], |_: &Package| Ok(()));
        assert_eq!(report.attempts, 5);
        assert_eq!(report.dropped, 5);
        let DeliveryStatus::Exhausted { reason, last_error } = &report.status else {
            panic!("expected exhaustion: {:?}", report.status);
        };
        assert_eq!(*reason, ExhaustReason::Attempts);
        assert!(last_error.is_retryable());
        assert!(report.backoff > Duration::ZERO);
    }

    #[test]
    fn deadline_bounds_the_virtual_clock() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::uniform(1, 0.0)
        };
        let policy = DeliveryPolicy {
            max_attempts: 1000,
            deadline: Duration::from_millis(10),
            ..DeliveryPolicy::default()
        };
        let delivery = ResilientDelivery::new(LossyChannel::with_plan(plan), policy);
        let report = delivery.deliver_verified(4, &[0u8; 64], |_: &Package| Ok(()));
        assert!(report.attempts < 1000, "deadline never fired");
        assert!(matches!(
            report.status,
            DeliveryStatus::Exhausted {
                reason: ExhaustReason::Deadline,
                ..
            }
        ));
        assert!(report.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn fatal_verification_errors_are_never_retried() {
        let mut device = Device::with_seed(52, "node");
        let wire = wire_for(&mut device);
        let delivery = ResilientDelivery::new(
            LossyChannel::with_plan(FaultPlan::none()),
            DeliveryPolicy::default(),
        );
        let mut calls = 0u32;
        let report = delivery.deliver_verified(0, &wire, |_: &Package| {
            calls += 1;
            Err(EricError::Config("stale epoch".into()))
        });
        assert_eq!(calls, 1, "fatal error was retried");
        assert_eq!(report.attempts, 1);
        assert!(matches!(
            report.status,
            DeliveryStatus::Fatal(EricError::Config(_))
        ));
    }

    #[test]
    fn retryable_verification_errors_do_retry() {
        let mut device = Device::with_seed(53, "node");
        let wire = wire_for(&mut device);
        let delivery = ResilientDelivery::new(
            LossyChannel::with_plan(FaultPlan::none()),
            DeliveryPolicy::default(),
        );
        let mut calls = 0u32;
        let report = delivery.deliver_verified(0, &wire, |_: &Package| {
            calls += 1;
            if calls < 3 {
                Err(EricError::Package("transient".into()))
            } else {
                Ok(())
            }
        });
        assert_eq!(calls, 3);
        assert_eq!(report.attempts, 3);
        assert!(report.status.is_delivered());
    }

    #[test]
    fn composes_with_a_deterministic_attacker() {
        let mut device = Device::with_seed(54, "node");
        let wire = wire_for(&mut device);
        // No stochastic faults, but a deterministic truncating MITM:
        // every attempt fails the same way, so the budget exhausts.
        let channel = LossyChannel::new(
            Channel::with_attacker(Attacker::Truncate { keep: 3 }),
            FaultPlan::none(),
        );
        let report = ResilientDelivery::new(channel, DeliveryPolicy::default()).deliver_verified(
            0,
            &wire,
            |_: &Package| Ok(()),
        );
        assert_eq!(report.attempts, 5);
        assert!(matches!(
            report.status,
            DeliveryStatus::Exhausted {
                reason: ExhaustReason::Attempts,
                last_error: EricError::Package(_),
            }
        ));
    }

    #[test]
    fn delta_frames_survive_a_lossy_wire_and_apply_verified() {
        let cfg = EncryptionConfig::full().with_segments(8);
        let mut device = Device::with_seed(60, "node");
        let cred = device.enroll();
        let source = SoftwareSource::new("vendor");
        let base = source
            .prepare_image(&source.compile(PROGRAM, false).unwrap(), &cfg)
            .unwrap();
        let next_img = source
            .compile("main:\n li a0, 11\n li a7, 93\n ecall\n", false)
            .unwrap();
        let next = source.prepare_image(&next_img, &cfg).unwrap();
        let full = source.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&full).unwrap();
        let delta = source
            .package_delta(&source.prepare_delta(&base, &next).unwrap(), &cred)
            .unwrap();
        let wire = delta.to_wire();

        // A lossy wire at 15% per-fault rate: the budget absorbs the
        // damage and the frame that finally lands applies cleanly.
        let delivery = ResilientDelivery::new(
            LossyChannel::with_plan(FaultPlan::uniform(11, 0.15)),
            DeliveryPolicy {
                max_attempts: 12,
                ..DeliveryPolicy::default()
            },
        );
        let mut patched = None;
        let report = delivery.deliver_delta_verified(3, &wire, |frame| {
            patched = Some(device.apply_delta(&installed, frame)?);
            Ok(())
        });
        let DeliveryStatus::Delivered(received) = &report.status else {
            panic!("lossy delta delivery failed: {:?}", report.status);
        };
        assert_eq!(
            received.to_wire(),
            wire,
            "delivered frame not byte-identical"
        );
        let patched = patched.expect("verifier ran");
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 11);
    }

    #[test]
    fn fatal_delta_errors_are_never_retried() {
        let delivery = ResilientDelivery::new(
            LossyChannel::with_plan(FaultPlan::none()),
            DeliveryPolicy::default(),
        );
        // A garbage frame parses to a retryable Package error on every
        // attempt; the budget exhausts rather than misreporting fatal.
        let report = delivery.deliver_verified(0, &[0u8; 16], |_: &DeltaPackage| Ok(()));
        assert!(matches!(
            report.status,
            DeliveryStatus::Exhausted {
                reason: ExhaustReason::Attempts,
                last_error: EricError::Package(_),
            }
        ));
    }

    #[test]
    fn fail_fast_policy_matches_bare_channel_semantics() {
        let plan = FaultPlan {
            drop: 1.0,
            ..FaultPlan::uniform(1, 0.0)
        };
        let delivery =
            ResilientDelivery::new(LossyChannel::with_plan(plan), DeliveryPolicy::fail_fast());
        let report = delivery.deliver_verified(0, &[0u8; 8], |_: &Package| Ok(()));
        assert_eq!(report.attempts, 1);
        assert!(matches!(
            report.status,
            DeliveryStatus::Exhausted {
                reason: ExhaustReason::Attempts,
                ..
            }
        ));
    }
}
