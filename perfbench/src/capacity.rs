//! Deterministic capacity search: linear bisection between a fixed floor
//! and cap for the highest offered rate whose probe passes.

/// Outcome of one probe at one offered rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The latency limit held, nothing failed and no backlog grew.
    pub pass: bool,
    /// The pacer fell behind its schedule by more than its bound, so the
    /// probe says nothing about the server.
    pub pacer_late: bool,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Capacity {
    /// Highest offered rate that passed (the floor when none did).
    pub rps: f64,
    /// Every probe passed, including one at the cap itself.
    pub at_cap: bool,
    /// The floor itself failed.
    pub below_floor: bool,
    /// A probe failed because the pacer, not the server, fell behind.
    pub pacer_limited: bool,
    /// `(rate, pass)` of every probe in the order run.
    pub probes: Vec<(f64, bool)>,
}

/// Attempts at one rate before it counts as failed: a single transient
/// stall must not end the search below the knee.
pub const ATTEMPTS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Floor,
    Halving,
    Cap,
    Done,
}

/// Linear bisection of `[floor, cap]` in `steps` halvings, driven one
/// probe at a time so probes can be spread over a run. The floor is probed
/// first; the cap only when every probe below it passed. A rate passes
/// when any of [`ATTEMPTS`] probes at it passes.
#[derive(Debug, Clone)]
pub struct Bisection {
    floor: f64,
    cap: f64,
    steps: u32,
    lo: f64,
    hi: f64,
    done_steps: u32,
    phase: Phase,
    attempt: usize,
    late: bool,
    all_passed: bool,
    result: Capacity,
}

impl Bisection {
    pub fn new(floor: f64, cap: f64, steps: u32) -> Self {
        Self {
            floor,
            cap,
            steps,
            lo: floor,
            hi: cap,
            done_steps: 0,
            phase: Phase::Floor,
            attempt: 0,
            late: false,
            all_passed: true,
            result: Capacity {
                rps: floor,
                ..Capacity::default()
            },
        }
    }

    /// The rate to probe next, or `None` once the search is over.
    pub fn next_rate(&self) -> Option<f64> {
        match self.phase {
            Phase::Floor => Some(self.floor),
            Phase::Halving => Some((self.lo + self.hi) / 2.0),
            Phase::Cap => Some(self.cap),
            Phase::Done => None,
        }
    }

    /// Records the outcome of a probe at [`Bisection::next_rate`].
    pub fn record(&mut self, probe: Probe) {
        let Some(rate) = self.next_rate() else {
            return;
        };
        self.result.probes.push((rate, probe.pass));
        if !probe.pass {
            self.attempt += 1;
            self.late |= probe.pacer_late;
            if self.attempt < ATTEMPTS {
                return;
            }
            self.result.pacer_limited |= self.late;
        }
        let pass = probe.pass;
        self.attempt = 0;
        self.late = false;
        match self.phase {
            Phase::Floor if pass => self.phase = Phase::Halving,
            Phase::Floor => {
                self.result.below_floor = true;
                self.phase = Phase::Done;
            }
            Phase::Halving => {
                if pass {
                    self.lo = rate;
                } else {
                    self.hi = rate;
                    self.all_passed = false;
                }
                self.result.rps = self.lo;
                self.done_steps += 1;
                if self.done_steps == self.steps {
                    self.phase = if self.all_passed {
                        Phase::Cap
                    } else {
                        Phase::Done
                    };
                }
            }
            Phase::Cap => {
                if pass {
                    self.result.at_cap = true;
                    self.result.rps = self.cap;
                }
                self.phase = Phase::Done;
            }
            Phase::Done => {}
        }
    }

    /// The highest rate that passed so far (the floor before any did).
    pub fn result(&self) -> &Capacity {
        &self.result
    }
}

/// Resolution of a [`Bisection`]: the width of its final bracket.
pub fn resolution(floor: f64, cap: f64, steps: u32) -> f64 {
    (cap - floor) / f64::from(1u32 << steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a whole [`Bisection`] with `probe`.
    fn bisect(floor: f64, cap: f64, steps: u32, mut probe: impl FnMut(f64) -> Probe) -> Capacity {
        let mut search = Bisection::new(floor, cap, steps);
        while let Some(rate) = search.next_rate() {
            search.record(probe(rate));
        }
        search.result().clone()
    }

    /// A synthetic server: an M/D/1-style queue whose p99 latency grows
    /// without bound as the offered rate nears its service rate.
    fn synthetic(service_rps: f64, limit_ms: f64) -> impl FnMut(f64) -> Probe {
        move |rate| {
            let rho = rate / service_rps;
            let p99_ms = if rho >= 1.0 {
                f64::INFINITY
            } else {
                (1000.0 / service_rps) * (1.0 + 4.6 * rho / (2.0 * (1.0 - rho)))
            };
            Probe {
                pass: p99_ms <= limit_ms,
                pacer_late: false,
            }
        }
    }

    #[test]
    fn finds_the_knee_within_resolution() {
        let (floor, cap, steps) = (500.0, 6000.0, 6);
        let got = bisect(floor, cap, steps, synthetic(3000.0, 20.0));
        // The true knee: the largest rate whose modelled p99 is <= 20 ms.
        let mut truth = floor;
        while synthetic(3000.0, 20.0)(truth + 1.0).pass {
            truth += 1.0;
        }
        assert!(got.rps <= truth, "{} above the knee {truth}", got.rps);
        assert!(truth - got.rps <= resolution(floor, cap, steps));
        assert!(!got.at_cap && !got.below_floor && !got.pacer_limited);
        let failures = got.probes.iter().filter(|(_, pass)| !pass).count();
        // Every failing rate was probed ATTEMPTS times.
        assert_eq!(failures % ATTEMPTS, 0);
        let repeats = failures / ATTEMPTS * (ATTEMPTS - 1);
        assert_eq!(got.probes.len(), 1 + steps as usize + repeats);
    }

    #[test]
    fn a_failed_rate_is_probed_again() {
        let mut calls = 0;
        // Everything below 700 passes, except that the first probe at any
        // rate fails once.
        let got = bisect(100.0, 1000.0, 3, |rate| {
            calls += 1;
            Probe {
                pass: rate < 700.0 && calls != 2,
                pacer_late: false,
            }
        });
        assert_eq!(got.probes[1], (550.0, false));
        assert_eq!(got.probes[2], (550.0, true));
        assert!(got.rps >= 550.0 && got.rps < 700.0);
    }

    #[test]
    fn is_deterministic() {
        let a = bisect(500.0, 6000.0, 6, synthetic(2500.0, 30.0));
        let b = bisect(500.0, 6000.0, 6, synthetic(2500.0, 30.0));
        assert_eq!(a, b);
    }

    #[test]
    fn reports_the_cap_when_everything_passes() {
        let got = bisect(100.0, 800.0, 4, synthetic(1e9, 20.0));
        assert!(got.at_cap);
        assert_eq!(got.rps, 800.0);
        assert_eq!(got.probes.last(), Some(&(800.0, true)));
    }

    #[test]
    fn flags_a_failing_floor() {
        let got = bisect(1000.0, 2000.0, 4, synthetic(500.0, 20.0));
        assert!(got.below_floor);
        assert_eq!(got.rps, 1000.0);
        assert_eq!(got.probes.len(), ATTEMPTS);
    }

    #[test]
    fn flags_a_late_pacer() {
        let got = bisect(100.0, 1000.0, 3, |rate| Probe {
            pass: rate < 700.0,
            pacer_late: rate >= 700.0,
        });
        assert!(got.pacer_limited);
        assert!(got.rps < 700.0);
    }
}
