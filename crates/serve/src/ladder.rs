//! The Simplex-style degradation ladder.
//!
//! The paper's §VI defense keeps a hardened fallback behind a switcher;
//! this module is the serving-time analogue. Under deadline pressure or
//! detector alarm the service sheds *capability* instead of correctness,
//! descending one rung at a time:
//!
//! 1. [`Rung::Full`] — detector + learned policy (the whole pipeline).
//! 2. [`Rung::NoDetector`] — learned policy only; the detector's cost is
//!    shed to claw back deadline headroom.
//! 3. [`Rung::Fallback`] — the verified PID safety controller
//!    (`drive_agents::fallback`): cheap, bounded, and trustworthy even
//!    when observations are corrupt.
//!
//! A detector alarm jumps straight to the fallback (the learned policy is
//! exactly what an action-space attacker subverts). Recovery climbs back
//! **one rung at a time** after a configured calm period — hysteresis, so
//! an oscillating load cannot flap the ladder every batch. Every
//! transition is logged with its virtual/real timestamp and reason.

/// A capability level of the serving pipeline, ordered from most to least
/// capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Detector + learned policy.
    Full,
    /// Learned policy only (detector shed).
    NoDetector,
    /// PID safety controller only.
    Fallback,
}

impl Rung {
    /// One rung less capable (saturates at [`Rung::Fallback`]).
    pub fn descend(self) -> Rung {
        match self {
            Rung::Full => Rung::NoDetector,
            _ => Rung::Fallback,
        }
    }

    /// One rung more capable (saturates at [`Rung::Full`]).
    pub fn ascend(self) -> Rung {
        match self {
            Rung::Fallback => Rung::NoDetector,
            _ => Rung::Full,
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::Full => write!(f, "full"),
            Rung::NoDetector => write!(f, "no-detector"),
            Rung::Fallback => write!(f, "fallback"),
        }
    }
}

/// Why the ladder moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionReason {
    /// Queue depth crossed the high-water fraction.
    QueuePressure,
    /// Too many deadline expiries in one observation window.
    DeadlineMisses,
    /// The perturbation detector alarmed (or observations went
    /// non-finite): straight to the fallback.
    DetectorAlarm,
    /// A full calm period elapsed; one rung regained.
    Recovered,
}

impl std::fmt::Display for TransitionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionReason::QueuePressure => write!(f, "queue-pressure"),
            TransitionReason::DeadlineMisses => write!(f, "deadline-misses"),
            TransitionReason::DetectorAlarm => write!(f, "detector-alarm"),
            TransitionReason::Recovered => write!(f, "recovered"),
        }
    }
}

/// One logged ladder movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When, µs on the owning clock.
    pub at_us: u64,
    /// Rung before.
    pub from: Rung,
    /// Rung after.
    pub to: Rung,
    /// Why.
    pub reason: TransitionReason,
}

impl std::fmt::Display for Transition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={}us {} -> {} ({})",
            self.at_us, self.from, self.to, self.reason
        )
    }
}

/// Thresholds governing descent and recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderConfig {
    /// Queue depth fraction (of capacity) that forces a descent.
    pub high_depth_frac: f64,
    /// Queue depth fraction below which the system counts as calm.
    pub low_depth_frac: f64,
    /// Deadline misses in a single observation that force a descent.
    pub miss_descend: u32,
    /// Calm microseconds required before ascending one rung.
    pub recover_after_us: u64,
    /// Detector budget estimate above which the ladder jumps to
    /// [`Rung::Fallback`].
    pub alarm_budget: f64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            high_depth_frac: 0.75,
            low_depth_frac: 0.25,
            miss_descend: 1,
            recover_after_us: 50_000,
            alarm_budget: 0.2,
        }
    }
}

/// One observation of serving pressure, fed to [`Ladder::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pressure {
    /// Queue depth after the batch was taken.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Requests that expired in this batch.
    pub deadline_misses: u32,
    /// Whether the detector (or an obs-sanity check) alarmed.
    pub alarm: bool,
}

/// The ladder state machine. Deterministic: rung trajectories depend only
/// on the sequence of `(now_us, Pressure)` observations.
#[derive(Debug, Clone)]
pub struct Ladder {
    config: LadderConfig,
    rung: Rung,
    calm_since: Option<u64>,
    transitions: Vec<Transition>,
}

impl Ladder {
    /// Starts at [`Rung::Full`].
    pub fn new(config: LadderConfig) -> Self {
        Ladder {
            config,
            rung: Rung::Full,
            calm_since: None,
            transitions: Vec::new(),
        }
    }

    /// The current rung.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// Every movement so far, in order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    fn shift(&mut self, at_us: u64, to: Rung, reason: TransitionReason) {
        if to == self.rung {
            return;
        }
        self.transitions.push(Transition {
            at_us,
            from: self.rung,
            to,
            reason,
        });
        self.rung = to;
    }

    /// Feeds one pressure observation at time `now_us`, returning the rung
    /// to use for the *next* batch.
    pub fn observe(&mut self, now_us: u64, p: Pressure) -> Rung {
        if p.alarm {
            self.calm_since = None;
            self.shift(now_us, Rung::Fallback, TransitionReason::DetectorAlarm);
            return self.rung;
        }
        let depth_frac = if p.queue_capacity == 0 {
            0.0
        } else {
            p.queue_depth as f64 / p.queue_capacity as f64
        };
        let missed = self.config.miss_descend > 0 && p.deadline_misses >= self.config.miss_descend;
        if depth_frac >= self.config.high_depth_frac || missed {
            self.calm_since = None;
            let reason = if missed {
                TransitionReason::DeadlineMisses
            } else {
                TransitionReason::QueuePressure
            };
            self.shift(now_us, self.rung.descend(), reason);
            return self.rung;
        }
        if depth_frac <= self.config.low_depth_frac && p.deadline_misses == 0 {
            match self.calm_since {
                None => self.calm_since = Some(now_us),
                Some(since) if now_us.saturating_sub(since) >= self.config.recover_after_us => {
                    // Restart the calm clock: each regained rung needs its
                    // own full calm period.
                    self.calm_since = Some(now_us);
                    self.shift(now_us, self.rung.ascend(), TransitionReason::Recovered);
                }
                Some(_) => {}
            }
        } else {
            // Mid-band pressure: neither descend nor accumulate calm.
            self.calm_since = None;
        }
        self.rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm(depth: usize) -> Pressure {
        Pressure {
            queue_depth: depth,
            queue_capacity: 100,
            deadline_misses: 0,
            alarm: false,
        }
    }

    #[test]
    fn descends_one_rung_per_pressure_event_in_order() {
        let mut l = Ladder::new(LadderConfig::default());
        assert_eq!(l.rung(), Rung::Full);
        assert_eq!(l.observe(1, calm(80)), Rung::NoDetector);
        assert_eq!(l.observe(2, calm(90)), Rung::Fallback);
        // Saturates at the bottom.
        assert_eq!(l.observe(3, calm(95)), Rung::Fallback);
        let rungs: Vec<(Rung, Rung)> = l.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            rungs,
            vec![
                (Rung::Full, Rung::NoDetector),
                (Rung::NoDetector, Rung::Fallback)
            ]
        );
    }

    #[test]
    fn deadline_misses_descend() {
        let mut l = Ladder::new(LadderConfig::default());
        let p = Pressure {
            deadline_misses: 2,
            ..calm(0)
        };
        assert_eq!(l.observe(1, p), Rung::NoDetector);
        assert_eq!(l.transitions()[0].reason, TransitionReason::DeadlineMisses);
    }

    #[test]
    fn alarm_jumps_straight_to_fallback() {
        let mut l = Ladder::new(LadderConfig::default());
        let p = Pressure {
            alarm: true,
            ..calm(0)
        };
        assert_eq!(l.observe(5, p), Rung::Fallback);
        assert_eq!(l.transitions().len(), 1);
        assert_eq!(l.transitions()[0].reason, TransitionReason::DetectorAlarm);
    }

    #[test]
    fn recovery_needs_a_full_calm_period_per_rung() {
        let cfg = LadderConfig {
            recover_after_us: 1_000,
            ..LadderConfig::default()
        };
        let mut l = Ladder::new(cfg);
        l.observe(
            0,
            Pressure {
                alarm: true,
                ..calm(0)
            },
        );
        assert_eq!(l.rung(), Rung::Fallback);
        // Calm starts at t=10; not yet recovered at t=500.
        assert_eq!(l.observe(10, calm(0)), Rung::Fallback);
        assert_eq!(l.observe(500, calm(0)), Rung::Fallback);
        // Full period elapsed: one rung only.
        assert_eq!(l.observe(1_200, calm(0)), Rung::NoDetector);
        // The next rung needs its own full period.
        assert_eq!(l.observe(1_300, calm(0)), Rung::NoDetector);
        assert_eq!(l.observe(2_400, calm(0)), Rung::Full);
        let reasons: Vec<TransitionReason> = l.transitions().iter().map(|t| t.reason).collect();
        assert_eq!(
            &reasons[1..],
            &[TransitionReason::Recovered, TransitionReason::Recovered]
        );
    }

    #[test]
    fn mid_band_pressure_resets_the_calm_clock() {
        let cfg = LadderConfig {
            recover_after_us: 1_000,
            ..LadderConfig::default()
        };
        let mut l = Ladder::new(cfg);
        l.observe(
            0,
            Pressure {
                alarm: true,
                ..calm(0)
            },
        );
        l.observe(10, calm(0)); // calm starts
        l.observe(600, calm(50)); // mid-band: resets calm
        assert_eq!(l.observe(1_100, calm(0)), Rung::Fallback, "calm restarted");
        assert_eq!(l.observe(2_200, calm(0)), Rung::NoDetector);
    }

    #[test]
    fn deterministic_trajectories() {
        let feed = |l: &mut Ladder| {
            let mut rungs = Vec::new();
            for t in 0..200u64 {
                let p = Pressure {
                    queue_depth: ((t * 13) % 101) as usize,
                    queue_capacity: 100,
                    deadline_misses: u32::from(t % 37 == 0),
                    alarm: t % 83 == 0 && t > 0,
                };
                rungs.push(l.observe(t * 100, p));
            }
            rungs
        };
        let mut a = Ladder::new(LadderConfig::default());
        let mut b = Ladder::new(LadderConfig::default());
        assert_eq!(feed(&mut a), feed(&mut b));
        assert_eq!(a.transitions(), b.transitions());
    }
}
