//! Admission control for the delivery service: the bounded accept
//! queue's arithmetic and per-peer token-bucket rate limiting.
//!
//! Overload policy in one sentence: **shed at the edge, never
//! mid-session** — a connection is either turned away at accept time
//! with a deterministic `503 + Retry-After` (before any request byte is
//! read, so nothing the learner did is half-applied), or it is admitted
//! and its requests run to completion under the usual WAL-first
//! journaling.
//!
//! The token bucket is pure arithmetic over an injected clock (a
//! monotonic microsecond counter), so refill behaviour is unit-testable
//! without wall time and the acceptor can drive every bucket from one
//! `Instant` read per accept.

use std::collections::HashMap;
use std::net::IpAddr;

/// One million micro-tokens per token: refill math stays in integers.
const MICRO: u64 = 1_000_000;

/// Per-peer token-bucket parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained admissions per second per peer IP.
    pub per_second: u64,
    /// Burst size: how many admissions a quiet peer can make at once.
    pub burst: u64,
}

impl RateLimit {
    /// A limit of `per_second` with a burst of the same size (minimum 1
    /// each).
    #[must_use]
    pub fn per_second(per_second: u64) -> Self {
        Self {
            per_second: per_second.max(1),
            burst: per_second.max(1),
        }
    }

    /// Parses `RPS` or `RPS:BURST` (both positive integers).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (rps, burst) = match text.split_once(':') {
            Some((rps, burst)) => (rps, Some(burst)),
            None => (text, None),
        };
        let per_second: u64 = rps
            .parse()
            .map_err(|_| format!("rate limit needs a positive integer RPS, got {rps:?}"))?;
        if per_second == 0 {
            return Err("rate limit RPS must be at least 1".to_string());
        }
        let burst = match burst {
            None => per_second,
            Some(burst) => {
                let burst: u64 = burst
                    .parse()
                    .map_err(|_| format!("rate limit burst must be an integer, got {burst:?}"))?;
                if burst == 0 {
                    return Err("rate limit burst must be at least 1".to_string());
                }
                burst
            }
        };
        Ok(Self { per_second, burst })
    }
}

/// A classic token bucket over an injected microsecond clock.
///
/// The bucket holds up to `burst` tokens (scaled to micro-tokens
/// internally) and refills at `per_second` tokens per second. Every
/// admission costs one token; an empty bucket reports how long until
/// the next token exists, which becomes the `Retry-After` the shed
/// response advertises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    limit: RateLimit,
    /// Available micro-tokens.
    available: u64,
    /// Clock reading at the last refill, in microseconds.
    refilled_at: u64,
}

impl TokenBucket {
    /// A full bucket observed at clock reading `now_micros`.
    #[must_use]
    pub fn new(limit: RateLimit, now_micros: u64) -> Self {
        Self {
            limit,
            available: limit.burst.saturating_mul(MICRO),
            refilled_at: now_micros,
        }
    }

    /// Credits tokens for the time elapsed since the last refill. The
    /// clock is monotonic by contract; a reading that goes backwards
    /// credits nothing.
    fn refill(&mut self, now_micros: u64) {
        let elapsed = now_micros.saturating_sub(self.refilled_at);
        self.refilled_at = now_micros;
        // elapsed µs × tokens/s = micro-tokens; widen to avoid overflow.
        let credit = u64::try_from(
            (u128::from(elapsed) * u128::from(self.limit.per_second)).min(u128::from(u64::MAX)),
        )
        .unwrap_or(u64::MAX);
        self.available = self
            .available
            .saturating_add(credit)
            .min(self.limit.burst.saturating_mul(MICRO));
    }

    /// Takes one token, or reports how many microseconds until one will
    /// have accumulated.
    ///
    /// # Errors
    ///
    /// Returns `Err(wait_micros)` when the bucket is empty.
    pub fn try_take(&mut self, now_micros: u64) -> Result<(), u64> {
        self.refill(now_micros);
        if self.available >= MICRO {
            self.available -= MICRO;
            return Ok(());
        }
        let deficit = MICRO - self.available;
        // deficit micro-tokens ÷ tokens/s = microseconds, rounded up so
        // a client honoring the wait is never early.
        let wait = u128::from(deficit).div_ceil(u128::from(self.limit.per_second));
        Err(u64::try_from(wait).unwrap_or(u64::MAX))
    }

    /// Whether the bucket is back at full burst (used to prune idle
    /// peers).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.available >= self.limit.burst.saturating_mul(MICRO)
    }

    /// Tokens currently available (floor).
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.available / MICRO
    }
}

/// How often (in admissions) the limiter sweeps idle peers out of its
/// map, bounding memory under address churn.
const PRUNE_EVERY: u64 = 1024;

/// Per-peer-IP admission limiting: one [`TokenBucket`] per source
/// address, pruned when idle.
///
/// The acceptor is single-threaded, so this needs no interior locking —
/// it is owned by the accept loop and driven with one clock reading per
/// connection.
#[derive(Debug)]
pub struct PeerLimiter {
    limit: RateLimit,
    buckets: HashMap<IpAddr, TokenBucket>,
    admissions: u64,
}

impl PeerLimiter {
    /// A limiter applying `limit` to every peer independently.
    #[must_use]
    pub fn new(limit: RateLimit) -> Self {
        Self {
            limit,
            buckets: HashMap::new(),
            admissions: 0,
        }
    }

    /// Admits or sheds one connection from `peer` at clock reading
    /// `now_micros`.
    ///
    /// # Errors
    ///
    /// Returns `Err(wait_micros)` when the peer's bucket is empty.
    pub fn admit(&mut self, peer: IpAddr, now_micros: u64) -> Result<(), u64> {
        self.admissions = self.admissions.wrapping_add(1);
        if self.admissions.is_multiple_of(PRUNE_EVERY) {
            // A full bucket means the peer has been idle long enough to
            // have fully recovered; dropping it loses no state (a fresh
            // bucket starts full).
            self.buckets.retain(|_, bucket| {
                bucket.refill(now_micros);
                !bucket.is_full()
            });
        }
        self.buckets
            .entry(peer)
            .or_insert_with(|| TokenBucket::new(self.limit, now_micros))
            .try_take(now_micros)
    }

    /// Number of peers currently tracked.
    #[must_use]
    pub fn tracked_peers(&self) -> usize {
        self.buckets.len()
    }
}

/// Rounds a microsecond wait up to the whole seconds a `Retry-After`
/// header can carry (minimum 1 — zero would invite an immediate retry
/// of a request that was just shed).
#[must_use]
pub fn retry_after_secs(wait_micros: u64) -> u64 {
    wait_micros.div_ceil(MICRO).max(1)
}

/// Admission-control knobs for [`crate::ServeOptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadOptions {
    /// Maximum connections waiting for a worker before new ones are
    /// shed with `503 + Retry-After`.
    pub queue_depth: usize,
    /// Per-peer-IP token-bucket limit; `None` disables rate limiting.
    pub rate_limit: Option<RateLimit>,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        Self {
            queue_depth: 1024,
            rate_limit: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: RateLimit = RateLimit {
        per_second: 10,
        burst: 3,
    };

    #[test]
    fn bucket_spends_burst_then_sheds_with_exact_wait() {
        let mut bucket = TokenBucket::new(LIMIT, 0);
        assert_eq!(bucket.tokens(), 3);
        for _ in 0..3 {
            bucket.try_take(0).unwrap();
        }
        // Empty at t=0: the next token exists after 1/10 s.
        let wait = bucket.try_take(0).unwrap_err();
        assert_eq!(wait, 100_000);
        // 40 ms later 0.4 tokens have accrued; 60 ms to go.
        let wait = bucket.try_take(40_000).unwrap_err();
        assert_eq!(wait, 60_000);
        // At exactly 100 ms the token is there.
        bucket.try_take(100_000).unwrap();
    }

    #[test]
    fn bucket_refills_at_rate_and_caps_at_burst() {
        let mut bucket = TokenBucket::new(LIMIT, 0);
        for _ in 0..3 {
            bucket.try_take(0).unwrap();
        }
        // 250 ms → 2.5 tokens accrued.
        bucket.refill(250_000);
        assert_eq!(bucket.tokens(), 2);
        // A long idle period caps at burst, not beyond.
        bucket.refill(10 * MICRO);
        assert_eq!(bucket.tokens(), 3);
        assert!(bucket.is_full());
    }

    #[test]
    fn bucket_tolerates_clock_stalls_and_huge_gaps() {
        let mut bucket = TokenBucket::new(LIMIT, 500);
        bucket.try_take(500).unwrap();
        // A stalled (or backwards) clock credits nothing and must not
        // underflow.
        bucket.try_take(400).unwrap();
        bucket.try_take(400).unwrap();
        assert!(bucket.try_take(400).is_err());
        // An absurd gap saturates instead of overflowing.
        bucket.try_take(u64::MAX).unwrap();
    }

    #[test]
    fn refill_granularity_is_sub_token() {
        // 1 token/s, burst 1: after 999 999 µs still empty, at 1 s full.
        let mut bucket = TokenBucket::new(RateLimit::per_second(1), 0);
        bucket.try_take(0).unwrap();
        assert_eq!(bucket.try_take(999_999).unwrap_err(), 1);
        bucket.try_take(1_000_000).unwrap();
    }

    #[test]
    fn limiter_isolates_peers_and_prunes_idle_ones() {
        let mut limiter = PeerLimiter::new(RateLimit {
            per_second: 1_000,
            burst: 1,
        });
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        let b: IpAddr = "10.0.0.2".parse().unwrap();
        limiter.admit(a, 0).unwrap();
        // Peer a is exhausted; peer b is untouched.
        assert!(limiter.admit(a, 0).is_err());
        limiter.admit(b, 0).unwrap();
        assert_eq!(limiter.tracked_peers(), 2);
        // Drive enough admissions (well past each bucket's refill
        // horizon) to cross a prune boundary: idle full buckets go.
        let c: IpAddr = "10.0.0.3".parse().unwrap();
        let mut now = 10 * MICRO;
        for _ in 0..PRUNE_EVERY {
            now += 10 * MICRO;
            let _ = limiter.admit(c, now);
        }
        assert!(limiter.tracked_peers() <= 2, "{}", limiter.tracked_peers());
    }

    #[test]
    fn retry_after_rounds_up_and_never_advertises_zero() {
        assert_eq!(retry_after_secs(1), 1);
        assert_eq!(retry_after_secs(999_999), 1);
        assert_eq!(retry_after_secs(1_000_000), 1);
        assert_eq!(retry_after_secs(1_000_001), 2);
        assert_eq!(retry_after_secs(0), 1);
    }

    #[test]
    fn rate_limit_parses_rps_and_burst() {
        assert_eq!(
            RateLimit::parse("50").unwrap(),
            RateLimit {
                per_second: 50,
                burst: 50
            }
        );
        assert_eq!(
            RateLimit::parse("50:200").unwrap(),
            RateLimit {
                per_second: 50,
                burst: 200
            }
        );
        assert!(RateLimit::parse("0").is_err());
        assert!(RateLimit::parse("50:0").is_err());
        assert!(RateLimit::parse("fast").is_err());
        assert!(RateLimit::parse("50:many").is_err());
    }
}
