//! Supervision: the policy types of the one restart contract.
//!
//! A monitoring deployment wants the detector to be the component *least*
//! allowed to disappear, precisely because it is the thing watching
//! everything else. The restart contract itself — catch the panic, back
//! off, rebuild at the restart base, silently replay what was retained
//! since, retry; checkpoint on a cadence; resume from the checkpoint at
//! start-up; narrate every step — lives in one place, the detect stage
//! ([`crate::engine::DetectStage`]), and every runtime gets it by setting
//! [`Supervision`] on its [`EngineConfig`](crate::engine::EngineConfig).
//! This module holds what that contract is configured with
//! ([`Supervision`]: [`RestartPolicy`], [`CheckpointPolicy`], a fault
//! plan), and what it announces ([`LifecycleEvent`]). A streaming detector
//! is supervised the same way: [`crate::streaming::spawn`] with
//! supervision set on its engine.

use scd_traffic::FaultPlan;
use std::path::PathBuf;
use std::sync::mpsc::SyncSender;
use std::time::Duration;

/// What the supervisor announces on its event channel.
///
/// Events are delivered best-effort (`try_send`): an undrained event
/// channel is allowed to lose events, never to stall detection.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// The supervised stage is up (fresh or resumed).
    Started,
    /// A checkpoint was persisted after this many flushed intervals.
    CheckpointWritten {
        /// Total intervals flushed at write time.
        intervals: u64,
    },
    /// The detector panicked and was restarted.
    Restarted {
        /// Restart attempt number (1-based).
        attempt: u32,
        /// Interval count of the restart base the detector was rebuilt at
        /// (0 when there was none yet); the intervals since were replayed.
        resumed_intervals: u64,
        /// The panic message that triggered the restart.
        panic: String,
    },
    /// Something non-fatal went wrong (checkpoint unwritable or
    /// unloadable); the detector keeps running with reduced guarantees.
    Degraded {
        /// Human-readable description.
        reason: String,
    },
    /// The restart budget is exhausted; the detector is down for good.
    GaveUp {
        /// Panics absorbed before giving up.
        attempts: u32,
    },
}

/// Restart budget and backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPolicy {
    /// Panics tolerated before [`LifecycleEvent::GaveUp`].
    pub max_restarts: u32,
    /// Backoff before restart attempt `n` is `base · 2^(n−1)`, capped.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_ms: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy { max_restarts: 3, backoff_base_ms: 10, backoff_cap_ms: 1_000 }
    }
}

impl RestartPolicy {
    /// The sleep before restart attempt `attempt` (1-based):
    /// `base · 2^(attempt−1)`, with the exponent clamped at 20 (so the
    /// factor never overflows a shift even for absurd attempt counts) and
    /// the product capped at [`backoff_cap_ms`](RestartPolicy::backoff_cap_ms).
    /// Attempt 0 never happens in the restart loop; it maps to the same
    /// sleep as attempt 1. Public so operators can print the schedule a
    /// policy implies before deploying it.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u64 << attempt.saturating_sub(1).min(20);
        Duration::from_millis(self.backoff_base_ms.saturating_mul(factor).min(self.backoff_cap_ms))
    }

    /// [`backoff`](RestartPolicy::backoff) plus deterministic jitter, so a
    /// fleet of restarting components seeded differently does not
    /// thunder back in lockstep. The jitter is a seed-and-attempt-derived
    /// fraction in `[0, base/4)` added on top of the exponential sleep,
    /// and the sum still respects
    /// [`backoff_cap_ms`](RestartPolicy::backoff_cap_ms). Same `(attempt,
    /// seed)` always yields the same sleep — schedules stay printable and
    /// tests stay exact — while different seeds decorrelate.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.backoff(attempt).as_millis() as u64;
        let mixed = scd_hash::mix64(seed ^ u64::from(attempt) ^ 0x9E37_79B9_7F4A_7C15);
        // Multiply the top 32 bits of the hash (uniform in [0, 2³²)) by
        // the jitter span and take the high word: an exact scaled draw in
        // [0, base/4) without floats or modulo bias.
        let jitter = ((base / 4).saturating_mul(mixed >> 32)) >> 32;
        Duration::from_millis(base.saturating_add(jitter).min(self.backoff_cap_ms))
    }
}

/// When and where a supervised detect stage persists checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file; written atomically (temp + rename).
    pub path: PathBuf,
    /// Write once this many intervals have gone through since the last
    /// checkpoint (or the one resumed from); zero counts as one.
    pub every: u64,
}

/// Supervision of a detect stage: set on an
/// [`EngineConfig`](crate::engine::EngineConfig) through
/// [`with_supervision`](crate::engine::EngineConfig::with_supervision).
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Restart budget and backoff.
    pub restart: RestartPolicy,
    /// The checkpoint file a new process resumes from, and the cadence
    /// the restart base is renewed on. Without one a new process starts
    /// from interval 0.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Test-only fault injection, consulted once per interval inside the
    /// supervised region, at the driver's stream position. `None` in
    /// production.
    pub fault: Option<FaultPlan>,
    /// Where [`LifecycleEvent`]s go, best-effort. Left unset on a
    /// streaming engine, [`crate::streaming::spawn`] points it at
    /// [`StreamingHandle::events`](crate::streaming::StreamingHandle::events).
    pub events: Option<SyncSender<LifecycleEvent>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_doubles_from_base() {
        let p = RestartPolicy { max_restarts: 3, backoff_base_ms: 10, backoff_cap_ms: 1_000 };
        // Attempt 0 cannot occur in the restart loop (attempts is
        // incremented before the first backoff), but the saturating_sub
        // maps it onto attempt 1's sleep rather than shifting by −1.
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
    }

    #[test]
    fn backoff_caps_at_configured_ceiling() {
        let p = RestartPolicy { max_restarts: 10, backoff_base_ms: 10, backoff_cap_ms: 1_000 };
        // 10 · 2⁶ = 640 < 1000 < 10 · 2⁷ = 1280: the cap lands between
        // attempts 7 and 8 and holds from there on.
        assert_eq!(p.backoff(7), Duration::from_millis(640));
        assert_eq!(p.backoff(8), Duration::from_millis(1_000));
        assert_eq!(p.backoff(100), Duration::from_millis(1_000));
    }

    #[test]
    fn backoff_shift_clamps_at_twenty_doublings() {
        // With the cap out of the way, the exponent itself clamps at 20:
        // attempts beyond 21 all sleep base · 2²⁰. Without the clamp,
        // attempt 65 would shift by 64 — undefined behavior on u64.
        let p =
            RestartPolicy { max_restarts: u32::MAX, backoff_base_ms: 1, backoff_cap_ms: u64::MAX };
        assert_eq!(p.backoff(21), Duration::from_millis(1 << 20));
        assert_eq!(p.backoff(22), Duration::from_millis(1 << 20));
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(1 << 20));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let p = RestartPolicy { max_restarts: 10, backoff_base_ms: 40, backoff_cap_ms: 10_000 };
        for attempt in 0..=10u32 {
            for seed in [0u64, 1, 42, u64::MAX] {
                let base = p.backoff(attempt).as_millis() as u64;
                let jittered = p.backoff_jittered(attempt, seed).as_millis() as u64;
                // Same inputs, same sleep: a printed schedule is the real one.
                assert_eq!(p.backoff_jittered(attempt, seed), p.backoff_jittered(attempt, seed));
                // Jitter only ever adds, and adds less than a quarter of
                // the exponential base.
                assert!(jittered >= base, "attempt {attempt} seed {seed}: {jittered} < {base}");
                assert!(
                    jittered < base + base / 4 + 1,
                    "attempt {attempt} seed {seed}: {jittered} vs base {base}"
                );
            }
        }
    }

    #[test]
    fn jittered_backoff_respects_cap() {
        // The un-jittered schedule already sits on the cap from attempt 8;
        // jitter must not push the sleep past it.
        let p = RestartPolicy { max_restarts: 20, backoff_base_ms: 10, backoff_cap_ms: 1_000 };
        for attempt in 8..40u32 {
            for seed in [3u64, 0xDEAD_BEEF, u64::MAX / 3] {
                assert!(p.backoff_jittered(attempt, seed) <= Duration::from_millis(1_000));
            }
        }
    }

    #[test]
    fn jittered_backoff_decorrelates_across_seeds() {
        // Different seeds should not produce identical schedules: across
        // ten attempts, at least one sleep must differ between two seeds.
        let p = RestartPolicy { max_restarts: 10, backoff_base_ms: 100, backoff_cap_ms: 1 << 40 };
        let schedule = |seed: u64| -> Vec<Duration> {
            (1..=10).map(|a| p.backoff_jittered(a, seed)).collect()
        };
        assert_ne!(schedule(1), schedule(2));
        assert_ne!(schedule(2), schedule(3));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // base near u64::MAX with an uncapped policy: the multiply
        // saturates, then the cap (also u64::MAX) passes it through.
        let p = RestartPolicy {
            max_restarts: 5,
            backoff_base_ms: u64::MAX / 2,
            backoff_cap_ms: u64::MAX,
        };
        assert_eq!(p.backoff(3), Duration::from_millis(u64::MAX));
    }
}
