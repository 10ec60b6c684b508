//! The chaos axis: deterministic fault schedules lowered to fleet events.

use super::mix_seed;
use hierdrl_sim::events::FleetOp;
use hierdrl_sim::job::ServerId;
use serde::{Deserialize, Serialize};

/// One injected fault shape. Every time and duration is a
/// *fraction of the evaluation span* (the segment's last arrival time), so
/// one spec scales unchanged from smoke runs to paper-length traces; the
/// schedule is lowered to absolute event times per segment by
/// [`FaultSpec::lower`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultShape {
    /// Crash one explicit server at `at`, recovering after `outage`.
    Crash {
        /// Server index within the (shard's) cluster.
        server: usize,
        /// Crash time as a fraction of the span.
        at: f64,
        /// Outage length as a fraction of the span.
        outage: f64,
    },
    /// Crash `fraction` of the fleet — seed-drawn distinct servers — one
    /// every `stagger`, starting at `start`, each out for `outage`.
    CrashStorm {
        /// Fraction of the fleet to crash, in `(0, 1)`.
        fraction: f64,
        /// First crash time as a fraction of the span.
        start: f64,
        /// Gap between consecutive crashes as a fraction of the span.
        stagger: f64,
        /// Per-server outage length as a fraction of the span.
        outage: f64,
    },
    /// Degrade `fraction` of the fleet (seed-drawn distinct servers) to
    /// `scale`x capacity over `[start, start + duration)` — transient
    /// stragglers, not crashes: degraded servers keep running.
    StragglerWave {
        /// Fraction of the fleet to degrade, in `(0, 1]`.
        fraction: f64,
        /// Degraded capacity multiplier, in `(0, 1)`.
        scale: f64,
        /// Window start as a fraction of the span.
        start: f64,
        /// Window length as a fraction of the span.
        duration: f64,
    },
    /// Power-cap the *whole* fleet to `scale`x capacity over a window.
    CapWindow {
        /// Capped capacity multiplier, in `(0, 1)`.
        scale: f64,
        /// Window start as a fraction of the span.
        start: f64,
        /// Window length as a fraction of the span.
        duration: f64,
    },
}

impl FaultShape {
    /// Validates one shape's parameters (server ids are range-checked at
    /// lowering time, when the fleet size is known).
    fn validate(&self) -> Result<(), String> {
        let time_ok = |t: f64| t.is_finite() && (0.0..=1.0).contains(&t);
        let check_time = |label: &str, t: f64| {
            if time_ok(t) {
                Ok(())
            } else {
                Err(format!("{label} fault time must be in [0, 1], got {t}"))
            }
        };
        let check_len = |label: &str, d: f64| {
            if d.is_finite() && d > 0.0 {
                Ok(())
            } else {
                Err(format!("{label} must be positive and finite, got {d}"))
            }
        };
        let check_fraction = |f: f64| {
            if f.is_finite() && f > 0.0 && f <= 1.0 {
                Ok(())
            } else {
                Err(format!("fault fraction must be in (0, 1], got {f}"))
            }
        };
        let check_scale = |s: f64| {
            if s.is_finite() && s > 0.0 && s < 1.0 {
                Ok(())
            } else {
                Err(format!("degraded scale must be in (0, 1), got {s}"))
            }
        };
        match *self {
            FaultShape::Crash { at, outage, .. } => {
                check_time("crash", at)?;
                check_len("crash outage", outage)
            }
            FaultShape::CrashStorm {
                fraction,
                start,
                stagger,
                outage,
            } => {
                check_fraction(fraction)?;
                if fraction >= 1.0 {
                    return Err(format!(
                        "crash-storm fraction must leave a healthy remainder, got {fraction}"
                    ));
                }
                check_time("crash-storm start", start)?;
                if !(stagger.is_finite() && stagger >= 0.0) {
                    return Err(format!(
                        "crash-storm stagger must be non-negative, got {stagger}"
                    ));
                }
                check_len("crash-storm outage", outage)
            }
            FaultShape::StragglerWave {
                fraction,
                scale,
                start,
                duration,
            } => {
                check_fraction(fraction)?;
                check_scale(scale)?;
                check_time("straggler-wave start", start)?;
                check_len("straggler-wave duration", duration)
            }
            FaultShape::CapWindow {
                scale,
                start,
                duration,
            } => {
                check_scale(scale)?;
                check_time("cap-window start", start)?;
                check_len("cap-window duration", duration)
            }
        }
    }
}

/// Draws `count` distinct server indices from `0..n` with a SplitMix64
/// partial Fisher–Yates shuffle — the one deterministic selection every
/// seed-drawn fault shape uses.
fn draw_distinct_servers(seed: u64, count: usize, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut picked = Vec::with_capacity(count);
    for i in 0..count.min(n) {
        let draw = mix_seed(seed, 1 + i as u64);
        picked.push(pool.swap_remove(draw as usize % pool.len()));
    }
    picked
}

/// The chaos axis of a scenario: a named, deterministic, seed-derived
/// schedule of injected faults, lowered to event-level [`FleetOp`]s per
/// execution unit and evaluation segment, after routing. Everything about
/// the schedule — which servers crash, when, for how long — derives from
/// the unit's fault seed (`mix(u, 4)` over the unit seed `u`), so fault
/// cells are exactly as reproducible and mutually independent as every
/// other axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Display name (joined into the scenario id as `workload%fault`).
    pub name: String,
    /// The fault shapes, all active on every evaluation segment.
    pub shapes: Vec<FaultShape>,
}

impl FaultSpec {
    /// A named fault schedule from explicit shapes.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty, any shape's parameters are out of
    /// range (negative or >1 fractional times, non-positive durations,
    /// fractions outside `(0, 1]`, scales outside `(0, 1)`), or two
    /// [`FaultShape::CapWindow`]s overlap in time.
    pub fn new(name: impl Into<String>, shapes: Vec<FaultShape>) -> Self {
        assert!(!shapes.is_empty(), "fault spec needs >= 1 shape");
        for (i, shape) in shapes.iter().enumerate() {
            shape
                .validate()
                .unwrap_or_else(|e| panic!("fault shape {i}: {e}"));
        }
        let windows: Vec<(usize, f64, f64)> = shapes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match *s {
                FaultShape::CapWindow {
                    start, duration, ..
                } => Some((i, start, start + duration)),
                _ => None,
            })
            .collect();
        for (a, &(i, ai, af)) in windows.iter().enumerate() {
            for &(j, bi, bf) in &windows[a + 1..] {
                assert!(
                    af <= bi || bf <= ai,
                    "cap windows {i} and {j} overlap ([{ai}, {af}) vs [{bi}, {bf}))"
                );
            }
        }
        Self {
            name: name.into(),
            shapes,
        }
    }

    /// The canonical crash storm: just over a third of the fleet crashes,
    /// staggered, each server out for almost half the evaluation span.
    pub fn crash_storm() -> Self {
        Self::new(
            "crash-storm",
            vec![FaultShape::CrashStorm {
                fraction: 0.35,
                start: 0.15,
                stagger: 0.04,
                outage: 0.45,
            }],
        )
    }

    /// The canonical straggler wave: 40% of the fleet at 0.35x capacity
    /// for half the span.
    pub fn straggler_wave() -> Self {
        Self::new(
            "straggler-wave",
            vec![FaultShape::StragglerWave {
                fraction: 0.4,
                scale: 0.35,
                start: 0.2,
                duration: 0.5,
            }],
        )
    }

    /// The canonical power-cap window: the whole fleet at 0.6x capacity
    /// for a third of the span.
    pub fn cap_window() -> Self {
        Self::new(
            "cap-window",
            vec![FaultShape::CapWindow {
                scale: 0.6,
                start: 0.3,
                duration: 0.3,
            }],
        )
    }

    /// Lowers the schedule to absolute-time [`FleetOp`] events for one
    /// evaluation segment of `num_servers` servers spanning `span_s`
    /// seconds of arrivals, sorted by time (ties keep shape order). Every
    /// seed-drawn choice derives from `fault_seed` via per-shape SplitMix64
    /// sub-streams.
    ///
    /// # Errors
    ///
    /// Returns the offending shape when an explicit [`FaultShape::Crash`]
    /// names a server outside `0..num_servers`, or a crash storm targets a
    /// fleet too small to leave a healthy remainder.
    ///
    /// # Panics
    ///
    /// Panics if `num_servers == 0`.
    pub fn lower(
        &self,
        fault_seed: u64,
        num_servers: usize,
        span_s: f64,
    ) -> Result<Vec<(f64, FleetOp)>, String> {
        assert!(num_servers > 0, "fault lowering needs >= 1 server");
        let mut events: Vec<(f64, FleetOp)> = Vec::new();
        for (i, shape) in self.shapes.iter().enumerate() {
            let shape_seed = mix_seed(fault_seed, i as u64);
            match *shape {
                FaultShape::Crash { server, at, outage } => {
                    if server >= num_servers {
                        return Err(format!(
                            "fault shape {i} crashes server {server} out of {num_servers} servers"
                        ));
                    }
                    events.push((at * span_s, FleetOp::Crash(ServerId(server))));
                    events.push(((at + outage) * span_s, FleetOp::Recover(ServerId(server))));
                }
                FaultShape::CrashStorm {
                    fraction,
                    start,
                    stagger,
                    outage,
                } => {
                    if num_servers < 2 {
                        return Err(format!(
                            "fault shape {i}: a crash storm needs >= 2 servers to leave one healthy"
                        ));
                    }
                    let count = ((fraction * num_servers as f64).round() as usize)
                        .clamp(1, num_servers - 1);
                    for (k, sid) in draw_distinct_servers(shape_seed, count, num_servers)
                        .into_iter()
                        .enumerate()
                    {
                        let t = (start + k as f64 * stagger) * span_s;
                        events.push((t, FleetOp::Crash(ServerId(sid))));
                        events.push((t + outage * span_s, FleetOp::Recover(ServerId(sid))));
                    }
                }
                FaultShape::StragglerWave {
                    fraction,
                    scale,
                    start,
                    duration,
                } => {
                    let count =
                        ((fraction * num_servers as f64).round() as usize).clamp(1, num_servers);
                    for sid in draw_distinct_servers(shape_seed, count, num_servers) {
                        let server = ServerId(sid);
                        events.push((start * span_s, FleetOp::SetScale { server, scale }));
                        events.push((
                            (start + duration) * span_s,
                            FleetOp::SetScale { server, scale: 1.0 },
                        ));
                    }
                }
                FaultShape::CapWindow {
                    scale,
                    start,
                    duration,
                } => {
                    for sid in 0..num_servers {
                        let server = ServerId(sid);
                        events.push((start * span_s, FleetOp::SetScale { server, scale }));
                        events.push((
                            (start + duration) * span_s,
                            FleetOp::SetScale { server, scale: 1.0 },
                        ));
                    }
                }
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("fault times are finite"));
        Ok(events)
    }
}
