//! The temporal-domain simulation driver (§3, §6.2.1–6.2.2).
//!
//! Each object is polled on its own schedule — strictly every Δ for the
//! baseline, or LIMD-adapted — and an optional Mt coordinator reacts to
//! observed updates by triggering immediate polls of related objects.
//! Triggered polls are *additional* polls (§3.2): they refresh the cache
//! and inform the coordinator, but the object's regular LIMD schedule and
//! TTR state are left untouched — exactly the incremental cost the paper
//! measures in Figure 5(a).
//!
//! All of that is [`crate::schedule`], which the live proxy's reactor 0
//! steps too. This driver adds simulated time and an origin
//! model that answers each poll as it is handed out, so one poll is out
//! at a time, well inside the schedule's width; each object's validator
//! and its logs are all it keeps.

use std::collections::BTreeMap;

use mutcon_core::limd::LimdConfig;
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::object::ObjectId;
use mutcon_core::time::{Duration, Timestamp};

use crate::log::{PollLog, PollOutcome, PollRecord};
use crate::origin::{HostedObject, OriginServer};
use crate::schedule::{PollKind, Schedule};

/// How each object maintains its individual Δt guarantee.
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalPolicy {
    /// Poll strictly every Δ (the paper's baseline; perfect fidelity by
    /// construction).
    Periodic(Duration),
    /// The adaptive LIMD algorithm of §3.1.
    Limd(LimdConfig),
}

/// Mutual-consistency coordination settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutualSetup {
    /// The Mt tolerance δ.
    pub delta: Duration,
    /// Baseline / triggered polls / rate heuristic.
    pub policy: MtPolicy,
}

/// Full driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSimConfig {
    /// The per-object individual policy (same for every object).
    pub policy: TemporalPolicy,
    /// Optional Mt coordination over all simulated objects (treated as
    /// one related group, as in §6.2.2).
    pub mutual: Option<MutualSetup>,
    /// Observation window end; no polls happen after this instant.
    pub until: Timestamp,
}

/// Everything a run produces.
#[derive(Debug, Clone, Default)]
pub struct TemporalSimOutput {
    /// Per-object poll logs.
    pub logs: BTreeMap<ObjectId, PollLog>,
    /// Per-object `(poll time, TTR chosen)` timeline (Figure 4(b)).
    pub ttr_timeline: BTreeMap<ObjectId, Vec<(Timestamp, Duration)>>,
    /// Instants at which the coordinator triggered extra polls
    /// (Figure 6(b)).
    pub triggered_instants: Vec<Timestamp>,
}

impl TemporalSimOutput {
    /// Total polls across all objects.
    pub fn total_polls(&self) -> u64 {
        self.logs.values().map(PollLog::poll_count).sum()
    }

    /// Total coordinator-triggered polls.
    pub fn total_triggered(&self) -> u64 {
        self.logs.values().map(PollLog::triggered_count).sum()
    }
}

/// Runs the temporal driver over `objects` (all hosted by `origin`):
/// steps the shared [`Schedule`] from one due instant to the next,
/// answering each job from the object's trace at zero latency. Objects
/// are dense `u32` handles until the output maps are assembled.
///
/// # Panics
///
/// Panics if an object is not hosted by the origin, its trace starts
/// after [`Timestamp::ZERO`] or the periodic policy's period is zero —
/// experiment setup errors, not runtime conditions.
pub fn run_temporal(
    origin: &OriginServer,
    objects: &[ObjectId],
    config: &TemporalSimConfig,
) -> TemporalSimOutput {
    let hosted: Vec<HostedObject<'_>> = objects
        .iter()
        .map(|id| origin.object(id).expect("object hosted by origin"))
        .collect();
    // Polling strictly every Δ is LIMD with nowhere to adapt to.
    let (limd, adaptive) = match config.policy {
        TemporalPolicy::Limd(limd) => (limd, true),
        TemporalPolicy::Periodic(every) => {
            let fixed = LimdConfig::builder(every).ttr_min(every).ttr_max(every);
            (fixed.build().expect("a positive polling period"), false)
        }
    };
    let mut schedule: Schedule<u32, Timestamp> = Schedule::default();
    let members = (0..hosted.len() as u32).map(|obj| (obj, limd));
    schedule.reconcile(
        members,
        config.mutual.map(|m| (m.delta, m.policy)),
        Timestamp::ZERO,
    );

    let mut validators: Vec<Option<Timestamp>> = vec![None; hosted.len()];
    let mut logs = vec![PollLog::new(); hosted.len()];
    let mut ttr_timelines = vec![Vec::new(); hosted.len()];
    let mut out = TemporalSimOutput::default();
    while let Some(now) = schedule.next_wake().filter(|&at| at <= config.until) {
        while let Some(job) = schedule.next_job(now, now) {
            let i = job.key as usize;
            let resp = hosted[i]
                .poll(now, validators[i])
                .expect("object hosted by origin for the whole window");
            let triggered = job.kind == PollKind::Triggered;
            let outcome = if resp.not_modified {
                PollOutcome::NotModified
            } else {
                validators[i] = Some(resp.last_modified);
                PollOutcome::Refreshed {
                    version_index: resp.version_index,
                }
            };
            logs[i].push(PollRecord {
                at: now,
                outcome,
                triggered,
            });
            if triggered {
                out.triggered_instants.push(now);
            }
            let done = schedule.complete(&job.key, Some(resp.as_view()), now);
            if let (true, Some(ttr)) = (adaptive, done.ttr) {
                ttr_timelines[i].push((now, ttr));
            }
        }
    }

    for ((id, log), timeline) in objects.iter().zip(logs).zip(ttr_timelines) {
        out.logs.insert(id.clone(), log);
        out.ttr_timeline.insert(id.clone(), timeline);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use mutcon_sim::rng::SimRng;
    use mutcon_traces::generator::NewsTraceBuilder;
    use mutcon_traces::model::TraceError;
    use mutcon_traces::{UpdateEvent, UpdateTrace};

    fn mins(m: u64) -> Timestamp {
        Timestamp::from_mins(m)
    }

    /// An object updated every 30 minutes for 10 hours.
    fn regular_origin(id: &str, period_min: u64) -> (OriginServer, ObjectId) {
        let oid = ObjectId::new(id);
        let mut events = vec![UpdateEvent::temporal(Timestamp::ZERO)];
        let mut t = period_min;
        while t <= 600 {
            events.push(UpdateEvent::temporal(mins(t)));
            t += period_min;
        }
        let trace = UpdateTrace::new(id, Timestamp::ZERO, mins(600), events).unwrap();
        let mut origin = OriginServer::new();
        origin.host(oid.clone(), trace);
        (origin, oid)
    }

    fn limd_config(delta_min: u64) -> LimdConfig {
        LimdConfig::builder(Duration::from_mins(delta_min))
            .ttr_max(Duration::from_mins(60))
            .build()
            .unwrap()
    }

    #[test]
    fn periodic_polls_exactly_every_delta() {
        let (origin, id) = regular_origin("x", 30);
        let config = TemporalSimConfig {
            policy: TemporalPolicy::Periodic(Duration::from_mins(10)),
            mutual: None,
            until: mins(600),
        };
        let out = run_temporal(&origin, std::slice::from_ref(&id), &config);
        // Polls at 0, 10, 20, …, 600 → 61 polls.
        assert_eq!(out.logs[&id].poll_count(), 61);
        let records = out.logs[&id].records();
        assert_eq!(records[1].at, mins(10));
        assert_eq!(records[2].at, mins(20));
    }

    #[test]
    fn limd_backs_off_on_static_object() {
        let oid = ObjectId::new("static");
        let trace = UpdateTrace::new(
            "static",
            Timestamp::ZERO,
            mins(600),
            vec![UpdateEvent::temporal(Timestamp::ZERO)],
        )
        .unwrap();
        let mut origin = OriginServer::new();
        origin.host(oid.clone(), trace);

        let config = TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(10)),
            mutual: None,
            until: mins(600),
        };
        let out = run_temporal(&origin, std::slice::from_ref(&oid), &config);
        let baseline_polls = 61;
        assert!(
            out.logs[&oid].poll_count() < baseline_polls / 2,
            "LIMD should back off on a static object: {} polls",
            out.logs[&oid].poll_count()
        );
        // TTR grows towards the max.
        let ttrs = &out.ttr_timeline[&oid];
        assert!(ttrs.last().unwrap().1 > Duration::from_mins(30));
    }

    #[test]
    fn limd_tracks_fast_object_like_baseline() {
        // Object changes every 5 min, Δ = 10 min: optimal is ~every Δ.
        let (origin, id) = regular_origin("fast", 5);
        let config = TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(10)),
            mutual: None,
            until: mins(600),
        };
        let out = run_temporal(&origin, std::slice::from_ref(&id), &config);
        let polls = out.logs[&id].poll_count();
        // Baseline would be 61; LIMD should be in the same ballpark.
        assert!(
            (40..=75).contains(&polls),
            "expected near-baseline poll count, got {polls}"
        );
    }

    #[test]
    fn triggered_polls_follow_updates() {
        let (mut origin, a) = regular_origin("a", 30);
        // b is almost static.
        let b = ObjectId::new("b");
        let trace_b = UpdateTrace::new(
            "b",
            Timestamp::ZERO,
            mins(600),
            vec![UpdateEvent::temporal(Timestamp::ZERO)],
        )
        .unwrap();
        origin.host(b.clone(), trace_b);

        let config = TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(10)),
            mutual: Some(MutualSetup {
                delta: Duration::from_mins(2),
                policy: MtPolicy::TriggeredPolls,
            }),
            until: mins(600),
        };
        let out = run_temporal(&origin, &[a.clone(), b.clone()], &config);
        assert!(
            out.total_triggered() > 0,
            "updates to a must trigger polls of b"
        );
        assert!(!out.triggered_instants.is_empty());
        // Triggered records are flagged.
        assert!(out.logs[&b].records().iter().any(|r| r.triggered));
    }

    /// Three objects that change together every half hour, at rates that
    /// stagger their schedules: a's poll triggers b and c, and b's
    /// triggered poll (b changed too) raises a trigger for c that is
    /// already queued. One poll per object per instant, of either kind,
    /// is all §3.2 asks. (On identical schedules every member is due
    /// whenever one finds an update, and nothing is triggered at all:
    /// each trigger is coalesced into the target's own poll.)
    #[test]
    fn a_cascade_triggers_each_group_member_once_per_instant() {
        let (mut origin, a) = regular_origin("a", 30);
        let mut ids = vec![a];
        for (name, period_min) in [("b", 15), ("c", 10)] {
            let (hosting, id) = regular_origin(name, period_min);
            origin.host(id.clone(), hosting.trace(&id).unwrap().clone());
            ids.push(id);
        }
        let config = TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(10)),
            mutual: Some(MutualSetup {
                delta: Duration::from_mins(2),
                policy: MtPolicy::TriggeredPolls,
            }),
            until: mins(600),
        };
        let out = run_temporal(&origin, &ids, &config);
        assert!(out.total_triggered() > 0);
        for id in &ids {
            for pair in out.logs[id].records().windows(2) {
                assert!(
                    pair[0].at < pair[1].at,
                    "{id} polled twice at {}",
                    pair[1].at
                );
            }
        }
    }

    #[test]
    fn baseline_mutual_policy_triggers_nothing() {
        let (mut origin, a) = regular_origin("a", 30);
        let (origin_b, b) = regular_origin("b", 45);
        origin.host(b.clone(), origin_b.trace(&b).unwrap().clone());
        let config = TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(10)),
            mutual: Some(MutualSetup {
                delta: Duration::from_mins(5),
                policy: MtPolicy::Baseline,
            }),
            until: mins(600),
        };
        let out = run_temporal(&origin, &[a, b], &config);
        assert_eq!(out.total_triggered(), 0);
    }

    #[test]
    fn no_polls_beyond_until() {
        let (origin, id) = regular_origin("x", 30);
        let config = TemporalSimConfig {
            policy: TemporalPolicy::Periodic(Duration::from_mins(10)),
            mutual: None,
            until: mins(100),
        };
        let out = run_temporal(&origin, std::slice::from_ref(&id), &config);
        for r in out.logs[&id].records() {
            assert!(r.at <= mins(100));
        }
    }

    #[test]
    fn deterministic_runs() {
        let (origin, id) = regular_origin("x", 15);
        let config = TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd_config(10)),
            mutual: None,
            until: mins(600),
        };
        let a = run_temporal(&origin, std::slice::from_ref(&id), &config);
        let b = run_temporal(&origin, std::slice::from_ref(&id), &config);
        assert_eq!(a.logs, b.logs);
    }

    /// An eight-hour news trace of `updates` updates drawn from `rng`,
    /// hosted alone under `id`.
    fn random_origin(
        rng: &mut SimRng,
        id: &str,
        updates: usize,
    ) -> Result<(OriginServer, ObjectId, UpdateTrace), TraceError> {
        let trace = NewsTraceBuilder::new(id, Duration::from_hours(8), updates)
            .seed(rng.uniform_u64(0, u64::MAX))
            .build()?;
        let oid = ObjectId::new(id);
        let mut origin = OriginServer::new();
        origin.host(oid.clone(), trace.clone());
        Ok((origin, oid, trace))
    }

    /// LIMD on random workloads: fidelities in `[0, 1]`, out-of-sync time
    /// inside the window, at most one poll per `ttr_min` (plus the first),
    /// none after `until`, and the same log on a second run.
    #[test]
    fn limd_pipeline_invariants_on_random_workloads() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let updates = rng.uniform_u64(0, 150) as usize;
            let (origin, id, trace) = random_origin(&mut rng, "obj", updates)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let delta = Duration::from_mins(rng.uniform_u64(1, 40));
            let config = TemporalSimConfig {
                policy: TemporalPolicy::Limd(
                    LimdConfig::builder(delta)
                        .ttr_max(Duration::from_mins(60).max(delta))
                        .build()
                        .unwrap_or_else(|e| panic!("seed {seed}: {e}")),
                ),
                mutual: None,
                until: trace.end(),
            };
            let out = run_temporal(&origin, std::slice::from_ref(&id), &config);
            let log = &out.logs[&id];
            let max_polls = 2 + trace.duration().as_millis() / delta.as_millis();
            assert!(
                log.poll_count() <= max_polls,
                "seed {seed}: {} polls > {max_polls}",
                log.poll_count()
            );
            assert!(
                log.records().iter().all(|r| r.at <= trace.end()),
                "seed {seed}: poll after until"
            );
            let stats = metrics::individual_temporal(&trace, log, delta, trace.end());
            assert!(
                (0.0..=1.0).contains(&stats.fidelity_by_violations()),
                "seed {seed}: {stats:?}"
            );
            assert!(
                (0.0..=1.0).contains(&stats.fidelity_by_time()),
                "seed {seed}: {stats:?}"
            );
            assert!(
                stats.out_of_sync() <= stats.observed(),
                "seed {seed}: {stats:?}"
            );
            assert!(
                stats.violations() <= stats.polls(),
                "seed {seed}: {stats:?}"
            );
            let again = run_temporal(&origin, std::slice::from_ref(&id), &config);
            assert_eq!(&again.logs[&id], log, "seed {seed}: second run differs");
        }
    }

    /// The paper's headline claim (§3.2, §6.2.2): LIMD plus triggered
    /// polls keeps any pair of workloads within any Mt bound δ.
    #[test]
    fn triggered_polls_keep_any_pair_within_mt() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (updates_a, updates_b) = (rng.uniform_u64(1, 120), rng.uniform_u64(1, 120));
            let (mut origin, a, trace_a) = random_origin(&mut rng, "a", updates_a as usize)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let (_, b, trace_b) = random_origin(&mut rng, "b", updates_b as usize)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            origin.host(b.clone(), trace_b.clone());
            let delta = Duration::from_mins(rng.uniform_u64(0, 30));
            let until = trace_a.end().min(trace_b.end());
            let config = TemporalSimConfig {
                policy: TemporalPolicy::Limd(limd_config(10)),
                mutual: Some(MutualSetup {
                    delta,
                    policy: MtPolicy::TriggeredPolls,
                }),
                until,
            };
            let out = run_temporal(&origin, &[a.clone(), b.clone()], &config);
            let stats = metrics::mutual_temporal(
                &trace_a,
                &out.logs[&a],
                &trace_b,
                &out.logs[&b],
                delta,
                until,
            );
            assert_eq!(
                stats.violations(),
                0,
                "seed {seed}: Mt violated at δ = {delta}: {stats:?}"
            );
        }
    }

    /// Polling strictly every Δ never serves a copy older than Δ.
    #[test]
    fn periodic_baseline_is_perfect_on_random_workloads() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let updates = rng.uniform_u64(0, 150) as usize;
            let (origin, id, trace) = random_origin(&mut rng, "obj", updates)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let delta = Duration::from_mins(rng.uniform_u64(1, 30));
            let config = TemporalSimConfig {
                policy: TemporalPolicy::Periodic(delta),
                mutual: None,
                until: trace.end(),
            };
            let out = run_temporal(&origin, std::slice::from_ref(&id), &config);
            let stats = metrics::individual_temporal(&trace, &out.logs[&id], delta, trace.end());
            assert_eq!(stats.violations(), 0, "seed {seed}: Δ = {delta}: {stats:?}");
            assert_eq!(
                stats.out_of_sync(),
                Duration::ZERO,
                "seed {seed}: Δ = {delta}: {stats:?}"
            );
        }
    }
}
