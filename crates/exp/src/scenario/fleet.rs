//! One fleet schedule per execution unit and evaluation segment, built
//! from both fleet axes. The elastic axis lowers each unit's membership
//! from the cell stream *before* routing, at the unit's capacity share, so
//! the front-end router re-weighs units at membership boundaries without
//! observing live simulation state. The chaos axis lowers each unit's
//! faults *after* routing, against the unit's routed span and size. One
//! union timeline per segment feeds both the router's epoch weights and
//! the cell's `fleet_size` columns.

use super::{Scenario, SeedStream};
use crate::report::FleetSize;
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::FleetOp;
use hierdrl_trace::trace::Trace;
use std::sync::Arc;

/// The scheduled fleet trajectory of one execution unit over one
/// evaluation segment: the event-level [`FleetOp`]s of both fleet axes
/// plus the piecewise-constant membership timeline behind them. A fixed
/// fleet is a schedule with no events and one size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSchedule {
    /// Scheduled fleet changes, sorted by time; at equal times fault ops
    /// stay ahead of membership ops.
    pub events: Vec<(f64, FleetOp)>,
    /// Piecewise-constant scheduled live-server count: `(start_s, live)`,
    /// first entry at `0.0` with the initial size.
    pub sizes: Vec<(f64, usize)>,
}

impl FleetSchedule {
    /// A schedule that never changes the fleet.
    pub fn fixed(num_servers: usize) -> Self {
        Self {
            events: Vec::new(),
            sizes: vec![(0.0, num_servers)],
        }
    }

    /// The scheduled live count at time `t`.
    pub fn size_at(&self, t: f64) -> usize {
        self.sizes
            .iter()
            .take_while(|(start, _)| *start <= t)
            .last()
            .map_or(0, |&(_, n)| n)
    }
}

/// Every execution unit's fleet schedules for one cell.
pub(crate) struct CellFleet {
    /// `[unit][segment]`.
    schedules: Vec<Vec<FleetSchedule>>,
    /// Each segment's arrival span: the cell stream's last arrival (0 when
    /// empty).
    spans: Vec<f64>,
}

impl CellFleet {
    /// Lowers every unit's membership for every segment of the cell
    /// stream, before routing: the elastic axis from the whole stream at
    /// the unit's capacity share, a fixed schedule without it.
    pub(crate) fn lower_membership(scenario: &Scenario, segments: &[Arc<Trace>]) -> Self {
        let spans: Vec<f64> = segments
            .iter()
            .map(|trace| trace.jobs().last().map_or(0.0, |j| j.arrival.as_secs()))
            .collect();
        let total = scenario.topology.total_capacity();
        let clusters = scenario.topology.clusters().iter().enumerate();
        let schedules = clusters
            .map(|(k, cluster)| {
                let lower = |(trace, &span): (&Arc<Trace>, &f64)| match &scenario.elastic {
                    None => FleetSchedule::fixed(cluster.num_servers),
                    Some(spec) => spec.lower(
                        scenario.unit_seed(k, SeedStream::Elastic),
                        cluster.num_servers,
                        cluster.resource_dims,
                        trace.jobs(),
                        span,
                        cluster.routing_weight() / total,
                    ),
                };
                segments.iter().zip(&spans).map(lower).collect()
            })
            .collect();
        Self { schedules, spans }
    }

    /// The union of every unit's scheduled membership over segment
    /// `segment`: `(start_s, live count per unit)` at `0.0` and at every
    /// unit's membership change. The router epochs and the `fleet_size`
    /// columns both read it.
    fn timeline(&self, segment: usize) -> Vec<(f64, Vec<usize>)> {
        let units: Vec<&FleetSchedule> = self.schedules.iter().map(|u| &u[segment]).collect();
        let mut times: Vec<f64> = vec![0.0];
        for unit in &units {
            times.extend(unit.sizes.iter().skip(1).map(|&(t, _)| t));
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("schedule times are finite"));
        times.dedup();
        let live = |t| units.iter().map(|u| u.size_at(t)).collect();
        times.into_iter().map(|t| (t, live(t))).collect()
    }

    /// The front-end router's capacity epochs over segment `segment`: at
    /// every membership change, each unit weighs its aggregate capacity
    /// ([`ClusterConfig::routing_weight`], so two 2x servers outweigh three
    /// little ones) scaled by its live share of its servers.
    pub(crate) fn router_epochs(
        &self,
        segment: usize,
        clusters: &[ClusterConfig],
    ) -> Vec<(f64, Vec<f64>)> {
        let weight = |(&n, c): (&usize, &ClusterConfig)| {
            n as f64 * c.routing_weight() / c.num_servers as f64
        };
        let timeline = self.timeline(segment).into_iter();
        timeline
            .map(|(t, live)| (t, live.iter().zip(clusters).map(weight).collect()))
            .collect()
    }

    /// The cell's scheduled fleet-size envelope: units sum on their shared
    /// clock within a segment, segments weigh by their spans. Cells without
    /// the elastic axis report the constant topology size.
    pub(crate) fn fleet_size(&self, scenario: &Scenario) -> FleetSize {
        let total_span: f64 = self.spans.iter().map(|span| span.max(0.0)).sum();
        if scenario.elastic.is_none() || total_span <= 0.0 {
            return FleetSize::fixed(scenario.topology.servers());
        }
        let (mut min, mut max, mut weighted) = (usize::MAX, 0usize, 0.0f64);
        for (i, &span) in self.spans.iter().enumerate() {
            let timeline = self.timeline(i);
            // An empty segment holds its initial size for no time.
            let steps = timeline.iter().take_while(|(t, _)| *t < span).count();
            let mut segment = 0.0f64;
            for (j, (t, live)) in timeline[..steps.max(1)].iter().enumerate() {
                let n: usize = live.iter().sum();
                let next = timeline[..steps].get(j + 1).map_or(span, |(t, _)| *t);
                (min, max) = (min.min(n), max.max(n));
                segment += n as f64 * (next - t);
            }
            if span > 0.0 {
                // The segment's time-weighted mean, weighted by its span.
                weighted += segment / span * span;
            }
        }
        FleetSize {
            min,
            max,
            mean: weighted / total_span,
        }
    }

    /// Merges each unit's faults into its membership schedules, after
    /// routing, and returns the schedules `[unit][segment]`. Faults lower
    /// per segment against the unit's routed span and size, from the
    /// unit's own fault seed; an empty routed segment has no span to
    /// schedule against and runs fault-free. A stable sort keeps fault ops
    /// ahead of membership ops at equal times.
    ///
    /// # Errors
    ///
    /// Names the unit and segment whose fault spec does not fit.
    pub(crate) fn merge_faults(
        self,
        scenario: &Scenario,
        routed: &[Vec<Arc<Trace>>],
    ) -> Result<Vec<Vec<FleetSchedule>>, String> {
        let mut schedules = self.schedules;
        let Some(fault) = &scenario.fault else {
            return Ok(schedules);
        };
        for (k, (unit, segments)) in schedules.iter_mut().zip(routed).enumerate() {
            let seed = scenario.unit_seed(k, SeedStream::Fault);
            let servers = scenario.topology.clusters()[k].num_servers;
            for (i, (schedule, trace)) in unit.iter_mut().zip(segments).enumerate() {
                if let Some(last) = trace.jobs().last() {
                    let faults = fault
                        .lower(seed, servers, last.arrival.as_secs())
                        .map_err(|e| format!("unit {k} segment {i}: {e}"))?;
                    let events = &mut schedule.events;
                    events.splice(0..0, faults);
                    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("event times are finite"));
                }
            }
        }
        Ok(schedules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ElasticSpec, FaultShape, FaultSpec, PolicySpec, Topology, WorkloadSpec};
    use hierdrl_sim::events::ServerSpec;
    use hierdrl_sim::job::{Job, JobId, ServerId};
    use hierdrl_sim::resources::ResourceVec;
    use hierdrl_sim::router::{Router, RouterPolicy};
    use hierdrl_sim::time::SimTime;

    #[test]
    fn unit_schedules_compose_membership_before_routing_and_faults_after() {
        let scenario = Scenario::new(
            Topology::sharded_big_little(2, 8, 0.25, 2.0, RouterPolicy::LeastLoaded),
            WorkloadSpec::paper().with_total_jobs(600),
            PolicySpec::round_robin(),
            5,
            None,
        )
        .with_fault(FaultSpec::crash_storm())
        .with_elastic(ElasticSpec::Threshold);
        let (fault, elastic) = (scenario.fault.clone().unwrap(), scenario.elastic.unwrap());
        let stream = Arc::new(scenario.trace_spec().materialize().unwrap());
        let (cell_jobs, clusters) = (stream.jobs(), scenario.topology.clusters());
        let cell_span = cell_jobs.last().unwrap().arrival.as_secs();

        let fleet = CellFleet::lower_membership(&scenario, std::slice::from_ref(&stream));
        let epochs = fleet.router_epochs(0, clusters);
        let fleet_size = fleet.fleet_size(&scenario);
        let routed: Vec<Vec<Arc<Trace>>> =
            Router::split(RouterPolicy::LeastLoaded, &epochs, cell_jobs)
                .into_iter()
                .map(|jobs| vec![Arc::new(Trace::new(jobs).unwrap())])
                .collect();
        let schedules = fleet.merge_faults(&scenario, &routed).unwrap();

        // 1. Each unit's schedule is its membership, lowered from the cell
        // stream at its capacity share, merged behind its faults, lowered
        // on its routed span and size.
        let (mut acted, mut spans_differ) = (false, false);
        for (k, cluster) in clusters.iter().enumerate() {
            let membership = elastic.lower(
                scenario.unit_seed(k, SeedStream::Elastic),
                cluster.num_servers,
                cluster.resource_dims,
                cell_jobs,
                cell_span,
                cluster.routing_weight() / scenario.topology.total_capacity(),
            );
            let routed_span = routed[k][0].jobs().last().unwrap().arrival.as_secs();
            let mut expected = fault
                .lower(
                    scenario.unit_seed(k, SeedStream::Fault),
                    cluster.num_servers,
                    routed_span,
                )
                .unwrap();
            expected.extend(membership.events.iter().cloned());
            expected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            assert_eq!(schedules[k][0].events, expected, "unit {k} events");
            assert_eq!(schedules[k][0].sizes, membership.sizes, "unit {k} sizes");
            acted |= !membership.events.is_empty();
            spans_differ |= routed_span != cell_span;
        }
        assert!(
            acted,
            "the autoscaler never acted, so membership went untested"
        );
        assert!(spans_differ, "every routed span equals the cell span");

        // 2. A fault op and a membership op at the same instant: the fault
        // stays first.
        let join = FleetOp::Join(ServerSpec::unit(3, true));
        let tied = CellFleet {
            schedules: vec![vec![FleetSchedule {
                events: vec![(300.0, join.clone())],
                sizes: vec![(0.0, 4), (300.0, 5)],
            }]],
            spans: Vec::new(),
        };
        let crash = Scenario::new(
            Topology::paper(4),
            WorkloadSpec::paper(),
            PolicySpec::round_robin(),
            1,
            None,
        )
        .with_fault(FaultSpec::new(
            "crash",
            vec![FaultShape::Crash {
                server: 1,
                at: 0.25,
                outage: 0.5,
            }],
        ));
        let jobs = [0.0, 600.0, 1200.0]
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let demand = ResourceVec::cpu_mem_disk(0.1, 0.1, 0.1);
                Job::new(JobId(i as u64), SimTime::from_secs(t), 60.0, demand)
            })
            .collect();
        let merged = tied
            .merge_faults(&crash, &[vec![Arc::new(Trace::new(jobs).unwrap())]])
            .unwrap();
        assert_eq!(
            merged[0][0].events,
            vec![
                (300.0, FleetOp::Crash(ServerId(1))),
                (300.0, join),
                (900.0, FleetOp::Recover(ServerId(1))),
            ]
        );

        // 3. The router epochs and `fleet_size` read the same timeline: the
        // live counts behind the epoch weights are the units' scheduled
        // sizes, and they aggregate to the fleet-size columns.
        assert!(epochs.len() > 1, "membership never changed the weights");
        let live: Vec<(f64, usize)> = epochs
            .iter()
            .map(|(t, weights)| {
                let n = weights
                    .iter()
                    .zip(clusters)
                    .map(|(w, c)| (w * c.num_servers as f64 / c.routing_weight()).round() as usize)
                    .sum();
                (*t, n)
            })
            .collect();
        for &(t, n) in &live {
            let scheduled: usize = schedules.iter().map(|unit| unit[0].size_at(t)).sum();
            assert_eq!(n, scheduled, "live count at {t}");
        }
        let in_span: Vec<(f64, usize)> = live.into_iter().filter(|&(t, _)| t < cell_span).collect();
        let weighted: f64 = in_span
            .iter()
            .enumerate()
            .map(|(i, &(t, n))| {
                let next = in_span.get(i + 1).map_or(cell_span, |&(t, _)| t);
                n as f64 * (next - t)
            })
            .sum();
        assert_eq!(
            fleet_size.min,
            in_span.iter().map(|&(_, n)| n).min().unwrap()
        );
        assert_eq!(
            fleet_size.max,
            in_span.iter().map(|&(_, n)| n).max().unwrap()
        );
        assert!((fleet_size.mean - weighted / cell_span).abs() < 1e-9);
    }

    #[test]
    fn timeline_live_counts_are_time_weighted() {
        let schedule = |sizes: Vec<(f64, usize)>| FleetSchedule {
            events: Vec::new(),
            sizes,
        };
        let a = schedule(vec![(0.0, 4), (100.0, 5), (300.0, 3)]);
        assert_eq!(a.size_at(0.0), 4);
        assert_eq!(a.size_at(150.0), 5);
        assert_eq!(a.size_at(1000.0), 3);
        // Two units over a 400 s segment, then an empty segment.
        let fleet = CellFleet {
            schedules: vec![
                vec![a, schedule(vec![(0.0, 4)])],
                vec![
                    schedule(vec![(0.0, 2), (200.0, 3), (500.0, 1)]),
                    FleetSchedule::fixed(1),
                ],
            ],
            spans: vec![400.0, 0.0],
        };
        let starts: Vec<f64> = fleet.timeline(0).iter().map(|&(t, _)| t).collect();
        assert_eq!(starts, vec![0.0, 100.0, 200.0, 300.0, 500.0]);
        let scenario = Scenario::new(
            Topology::paper(6),
            WorkloadSpec::paper(),
            PolicySpec::round_robin(),
            1,
            None,
        );
        // 100 s each at 6, 7, 8 and 6 live; the change at 500 s lies past
        // the span, and the empty segment's 5 servers hold for no time.
        assert_eq!(
            fleet.fleet_size(&scenario.clone().with_elastic(ElasticSpec::Threshold)),
            FleetSize {
                min: 5,
                max: 8,
                mean: (6.0 + 7.0 + 8.0 + 6.0) * 100.0 / 400.0,
            }
        );
        // Without the elastic axis the topology size stands.
        assert_eq!(fleet.fleet_size(&scenario), FleetSize::fixed(6));
    }
}
