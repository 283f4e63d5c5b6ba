//! Retry policies with exponential backoff and decorrelated jitter.
//!
//! A [`RetryPolicy`] tells the runtime how hard to fight for a result when
//! the QRMI boundary misbehaves: how long to back off between attempts and,
//! per [`PriorityClass`], how many attempts and how much cumulative backoff
//! a run is allowed to spend ([`AttemptBudget`]). Production runs get a
//! deeper budget than interactive development runs — a developer at a
//! terminal would rather see the error than wait out a two-minute outage,
//! while a batch production workflow should ride through it.
//!
//! Delays follow the *decorrelated jitter* scheme
//! (`delay = min(cap, uniform(base, prev · 3))`): the expected delay grows
//! roughly exponentially, but independent clients desynchronise instead of
//! retry-stampeding the resource in lockstep. Against the simulated
//! backends delays are simulated time — the runtime accounts them instead of
//! sleeping, so tests with thousands of retries finish in milliseconds while
//! telemetry still reports the backoff a real deployment would have paid.
//! Against a middleware daemon, a live service, the runtime sleeps them.

use hpcqc_middleware::PriorityClass;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Per-priority-class retry allowance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttemptBudget {
    /// Total attempts (first try included). 1 = no retries.
    pub max_attempts: u32,
    /// Cap on cumulative backoff seconds across the whole run.
    pub max_backoff_secs: f64,
}

impl AttemptBudget {
    /// A single attempt, no retries.
    pub fn single() -> Self {
        AttemptBudget {
            max_attempts: 1,
            max_backoff_secs: 0.0,
        }
    }
}

/// Backoff parameters plus per-class budgets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Smallest delay between attempts.
    pub base_delay_secs: f64,
    /// Largest single delay (the jitter cap).
    pub max_delay_secs: f64,
    /// Budget for production-class runs.
    pub production: AttemptBudget,
    /// Budget for test-class runs.
    pub test: AttemptBudget,
    /// Budget for development-class runs.
    pub development: AttemptBudget,
    /// Seed for the jitter stream (deterministic backoff sequences).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// The standard recovery posture: production rides out long outages,
    /// development fails fast.
    fn default() -> Self {
        RetryPolicy {
            base_delay_secs: 1.0,
            max_delay_secs: 30.0,
            production: AttemptBudget {
                max_attempts: 8,
                max_backoff_secs: 180.0,
            },
            test: AttemptBudget {
                max_attempts: 5,
                max_backoff_secs: 60.0,
            },
            development: AttemptBudget {
                max_attempts: 3,
                max_backoff_secs: 15.0,
            },
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries for any class (the runtime's default: opt in explicitly).
    pub fn none() -> Self {
        RetryPolicy {
            base_delay_secs: 0.0,
            max_delay_secs: 0.0,
            production: AttemptBudget::single(),
            test: AttemptBudget::single(),
            development: AttemptBudget::single(),
            seed: 0,
        }
    }

    /// Override the budget for one class.
    pub fn with_budget(mut self, class: PriorityClass, budget: AttemptBudget) -> Self {
        match class {
            PriorityClass::Production => self.production = budget,
            PriorityClass::Test => self.test = budget,
            PriorityClass::Development => self.development = budget,
        }
        self
    }

    /// Re-seed the jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The budget in effect for `class`.
    pub fn budget(&self, class: PriorityClass) -> AttemptBudget {
        match class {
            PriorityClass::Production => self.production,
            PriorityClass::Test => self.test,
            PriorityClass::Development => self.development,
        }
    }

    /// A fresh backoff sequence under this policy for `class`.
    pub fn backoff(&self, class: PriorityClass) -> Backoff {
        Backoff {
            base: self.base_delay_secs,
            cap: self.max_delay_secs,
            budget: self.budget(class),
            prev: self.base_delay_secs,
            attempts: 1,
            total_backoff: 0.0,
            rng: ChaCha8Rng::seed_from_u64(self.seed),
        }
    }
}

/// One run's backoff state: attempt counting, jittered delays, budget checks.
#[derive(Debug)]
pub struct Backoff {
    base: f64,
    cap: f64,
    budget: AttemptBudget,
    prev: f64,
    attempts: u32,
    total_backoff: f64,
    rng: ChaCha8Rng,
}

impl Backoff {
    /// Attempts made so far (the initial try counts as 1).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Cumulative simulated backoff seconds paid so far.
    pub fn total_backoff(&self) -> f64 {
        self.total_backoff
    }

    /// Ask permission for one more attempt after a transient failure.
    /// `Some(delay)` grants it and charges the (decorrelated-jitter) delay
    /// against the budget; `None` means the budget is exhausted.
    pub fn next_delay(&mut self) -> Option<f64> {
        if self.attempts >= self.budget.max_attempts {
            return None;
        }
        let delay = if self.cap <= 0.0 || self.base >= self.cap {
            self.base.min(self.cap.max(0.0))
        } else {
            // decorrelated jitter: uniform(base, prev·3), clamped to the cap
            let hi = (self.prev * 3.0).clamp(self.base, self.cap);
            if hi > self.base {
                self.rng.gen_range(self.base..hi)
            } else {
                self.base
            }
        };
        if self.total_backoff + delay > self.budget.max_backoff_secs {
            return None;
        }
        self.attempts += 1;
        self.prev = delay;
        self.total_backoff += delay;
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_permits_single_attempt() {
        let mut b = RetryPolicy::none().backoff(PriorityClass::Production);
        assert_eq!(b.attempts(), 1);
        assert_eq!(b.next_delay(), None, "no retries allowed");
    }

    #[test]
    fn delays_grow_jittered_and_capped() {
        let policy = RetryPolicy {
            production: AttemptBudget {
                max_attempts: 100,
                max_backoff_secs: 1e9,
            },
            ..RetryPolicy::default()
        };
        let mut b = policy.backoff(PriorityClass::Production);
        let mut prev = policy.base_delay_secs;
        let mut delays = Vec::new();
        while delays.len() < 50 {
            let d = b.next_delay().unwrap();
            assert!(d >= policy.base_delay_secs, "never below base: {d}");
            assert!(d <= policy.max_delay_secs, "never above cap: {d}");
            assert!(d <= (prev * 3.0).max(policy.base_delay_secs) + 1e-12);
            prev = d;
            delays.push(d);
        }
        // jitter actually jitters
        assert!(delays.iter().any(|d| (d - delays[0]).abs() > 1e-9));
        // and growth reaches the cap region
        assert!(delays.iter().any(|&d| d > policy.max_delay_secs / 2.0));
    }

    #[test]
    fn attempt_budget_enforced_per_class() {
        let policy = RetryPolicy::default();
        for class in [
            PriorityClass::Production,
            PriorityClass::Test,
            PriorityClass::Development,
        ] {
            let budget = policy.budget(class);
            let mut b = policy.backoff(class);
            let mut grants = 0;
            while b.next_delay().is_some() {
                grants += 1;
            }
            assert!(grants < budget.max_attempts);
            assert!(b.total_backoff() <= budget.max_backoff_secs);
        }
        // deeper budget for production than development
        assert!(
            policy.budget(PriorityClass::Production).max_attempts
                > policy.budget(PriorityClass::Development).max_attempts
        );
    }

    #[test]
    fn backoff_time_budget_cuts_off_attempts() {
        let policy = RetryPolicy {
            base_delay_secs: 10.0,
            max_delay_secs: 10.0,
            production: AttemptBudget {
                max_attempts: 1000,
                max_backoff_secs: 25.0,
            },
            ..RetryPolicy::default()
        };
        let mut b = policy.backoff(PriorityClass::Production);
        assert_eq!(b.next_delay(), Some(10.0));
        assert_eq!(b.next_delay(), Some(10.0));
        assert_eq!(b.next_delay(), None, "third delay would exceed 25s budget");
        assert_eq!(b.attempts(), 3);
    }

    #[test]
    fn same_seed_same_sequence() {
        let policy = RetryPolicy::default().with_seed(7);
        let seq = |p: &RetryPolicy| {
            let mut b = p.backoff(PriorityClass::Production);
            std::iter::from_fn(|| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(seq(&policy), seq(&policy.clone()));
        assert_ne!(seq(&policy), seq(&RetryPolicy::default().with_seed(8)));
    }

    #[test]
    fn with_budget_overrides_one_class() {
        let policy =
            RetryPolicy::default().with_budget(PriorityClass::Development, AttemptBudget::single());
        assert_eq!(policy.budget(PriorityClass::Development).max_attempts, 1);
        assert_eq!(
            policy.budget(PriorityClass::Production),
            RetryPolicy::default().production
        );
    }
}
