//! The temporal-domain simulation driver (§3, §6.2.1–6.2.2).
//!
//! Each object is polled on its own schedule — strictly every Δ for the
//! baseline, or LIMD-adapted — and an optional [`MtCoordinator`] reacts
//! to observed updates by triggering immediate polls of related objects.
//! Triggered polls are *additional* polls (§3.2): they refresh the cache
//! and inform the coordinator, but the object's regular LIMD schedule and
//! TTR state are left untouched — exactly the incremental cost the paper
//! measures in Figure 5(a).

use std::collections::BTreeMap;

use mutcon_core::limd::{Limd, LimdConfig};
use mutcon_core::mutual::temporal::{MtCoordinator, MtPolicy};
use mutcon_core::object::ObjectId;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_sim::queue::{EventId, EventQueue};

use crate::log::{PollLog, PollOutcome, PollRecord};
use crate::origin::{HostedObject, OriginServer};

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

struct ObjectState {
    limd: Option<Limd>,
    validator: Option<Timestamp>,
    pending: Option<EventId>,
}

/// The driver's internal state, keyed by dense object handles.
///
/// Object ids are interned to `u32` indices at run start: the event
/// queue, the per-object state table and the Mt coordinator all work on
/// indices, so the per-poll path never hashes, compares or clones an
/// `ObjectId`. The string ids reappear only when the final
/// [`TemporalSimOutput`] maps are assembled.
struct Sim<'a> {
    objects: Vec<HostedObject<'a>>,
    config: &'a TemporalSimConfig,
    states: Vec<ObjectState>,
    coordinator: Option<MtCoordinator<u32>>,
    queue: EventQueue<u32>,
    logs: Vec<PollLog>,
    ttr_timelines: Vec<Vec<(Timestamp, Duration)>>,
    triggered_instants: Vec<Timestamp>,
}

/// Runs the temporal driver over `objects` (all hosted by `origin`).
///
/// # Panics
///
/// Panics if an object is not hosted by the origin or its trace starts
/// after [`Timestamp::ZERO`] — experiment setup errors, not runtime
/// conditions.
pub fn run_temporal(
    origin: &OriginServer,
    objects: &[ObjectId],
    config: &TemporalSimConfig,
) -> TemporalSimOutput {
    let handles: Vec<HostedObject<'_>> = objects
        .iter()
        .map(|id| origin.object(id).expect("object hosted by origin"))
        .collect();
    let n = handles.len();
    let mut sim = Sim {
        objects: handles,
        config,
        states: (0..n)
            .map(|_| ObjectState {
                limd: match &config.policy {
                    TemporalPolicy::Periodic(_) => None,
                    TemporalPolicy::Limd(cfg) => Some(Limd::new(*cfg)),
                },
                validator: None,
                pending: None,
            })
            .collect(),
        coordinator: config
            .mutual
            .map(|m| MtCoordinator::new(m.delta, m.policy, 0..n as u32)),
        queue: EventQueue::new(),
        logs: vec![PollLog::new(); n],
        ttr_timelines: vec![Vec::new(); n],
        triggered_instants: Vec::new(),
    };
    for idx in 0..n as u32 {
        let ev = sim.queue.schedule_at(Timestamp::ZERO, idx);
        sim.states[idx as usize].pending = Some(ev);
    }

    while let Some(at) = sim.queue.peek_time() {
        if at > config.until {
            break;
        }
        let (now, obj) = sim.queue.pop().expect("peeked event exists");
        sim.states[obj as usize].pending = None;
        sim.poll(obj, now, false);
    }

    let mut out = TemporalSimOutput {
        triggered_instants: sim.triggered_instants,
        ..TemporalSimOutput::default()
    };
    for (idx, id) in objects.iter().enumerate() {
        out.logs
            .insert(id.clone(), std::mem::take(&mut sim.logs[idx]));
        out.ttr_timeline
            .insert(id.clone(), std::mem::take(&mut sim.ttr_timelines[idx]));
    }
    out
}

impl Sim<'_> {
    /// Performs one poll (regular or triggered) of `obj` at `now`,
    /// reschedules its next regular poll, and cascades coordinator
    /// triggers at the same instant.
    fn poll(&mut self, obj: u32, now: Timestamp, triggered: bool) {
        let i = obj as usize;
        let validator = self.states[i].validator;
        let resp = self.objects[i]
            .poll(now, validator)
            .expect("object hosted by origin for the whole window");

        let outcome = if resp.not_modified {
            PollOutcome::NotModified
        } else {
            PollOutcome::Refreshed {
                version_index: resp.version_index,
            }
        };
        self.logs[i].push(PollRecord {
            at: now,
            outcome,
            triggered,
        });

        let view = resp.as_view();
        let state = &mut self.states[i];
        if !resp.not_modified {
            state.validator = Some(resp.last_modified);
        }

        // Only regular polls drive the TTR state and the schedule;
        // triggered polls are additional requests on top of it.
        let mut next_at = None;
        if !triggered {
            let ttr = match (&self.config.policy, state.limd.as_mut()) {
                (TemporalPolicy::Periodic(d), _) => *d,
                (TemporalPolicy::Limd(_), Some(limd)) => {
                    let decision = limd.observe(now, view);
                    self.ttr_timelines[i].push((now, decision.ttr));
                    decision.ttr
                }
                (TemporalPolicy::Limd(_), None) => {
                    unreachable!("LIMD state exists for LIMD policy")
                }
            };
            let state = &mut self.states[i];
            if let Some(ev) = state.pending.take() {
                self.queue.cancel(ev);
            }
            let at = now + ttr;
            if at <= self.config.until {
                state.pending = Some(self.queue.schedule_at(at, obj));
            }
            next_at = Some(at);
        }

        // Mutual-consistency coordination.
        let triggers = match self.coordinator.as_mut() {
            Some(coord) => {
                let triggers = coord.observe(&obj, now, view);
                if let Some(at) = next_at {
                    coord.record_scheduled_poll(&obj, at);
                }
                triggers
            }
            None => Vec::new(),
        };
        for target in triggers {
            // This list was taken before the recursion below ran: with
            // three or more members, an earlier target's own cascade may
            // already have polled this one at `now`.
            if self.logs[target as usize].records().last().is_some_and(|r| r.at == now) {
                continue;
            }
            self.triggered_instants.push(now);
            // Same-instant recursion terminates: once polled at `now`, an
            // object's last-poll suppresses any further trigger at `now`.
            self.poll(target, now, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(out.total_triggered() > 0, "updates to a must trigger polls of b");
        assert!(!out.triggered_instants.is_empty());
        // Triggered records are flagged.
        assert!(out.logs[&b].records().iter().any(|r| r.triggered));
    }

    /// Three objects that change together: a's poll triggers b and c, and
    /// b's triggered poll (b changed too) cascades to c before the outer
    /// loop reaches it. One triggered poll per object per instant is all
    /// §3.2 asks. (A regular poll may still share the instant: the three
    /// schedules here are identical.)
    #[test]
    fn a_cascade_triggers_each_group_member_once_per_instant() {
        let (mut origin, a) = regular_origin("a", 30);
        let mut ids = vec![a.clone()];
        for name in ["b", "c"] {
            let id = ObjectId::new(name);
            origin.host(id.clone(), origin.trace(&a).unwrap().clone());
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
            let triggered: Vec<Timestamp> =
                out.logs[id].records().iter().filter(|r| r.triggered).map(|r| r.at).collect();
            for pair in triggered.windows(2) {
                assert!(pair[0] < pair[1], "{id} triggered twice at {}", pair[1]);
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
}
