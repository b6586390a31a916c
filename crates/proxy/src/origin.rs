//! The trace-driven origin server.
//!
//! An [`OriginServer`] hosts a set of objects, each backed by an
//! [`UpdateTrace`] (its complete update history). Polling it behaves like
//! an `If-Modified-Since` request against a real HTTP origin: the
//! response reflects the object's state *at the poll instant*, reports
//! `Not Modified` when nothing changed since the validator, and — when
//! the §5.1 extension is enabled — attaches the modification history the
//! proxy needs for exact violation detection.

use std::collections::BTreeMap;
use std::fmt;

use mutcon_core::limd::PollView;
use mutcon_core::object::ObjectId;
use mutcon_core::time::Timestamp;
use mutcon_core::value::Value;
use mutcon_traces::UpdateTrace;

/// Whether the origin implements the §5.1 modification-history extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistorySupport {
    /// Plain HTTP/1.1: only `Last-Modified` is reported.
    #[default]
    None,
    /// The origin attaches all update instants since the request's
    /// validator (`X-Modification-History`).
    Full,
}

/// What a poll returned.
///
/// The modification history is a slice *borrowed from the hosted trace*
/// (valid for as long as the origin lives): servicing a poll allocates
/// nothing, which matters when the experiment engine simulates hundreds
/// of thousands of polls per sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OriginResponse<'a> {
    /// `true` for a `304 Not Modified` (nothing newer than the validator).
    pub not_modified: bool,
    /// Index of the version current at the poll instant.
    pub version_index: usize,
    /// That version's creation time (`Last-Modified`).
    pub last_modified: Timestamp,
    /// That version's value, for value-bearing objects.
    pub value: Option<Value>,
    /// Update instants since the validator (oldest first), when the
    /// history extension is on and the response is a full one.
    pub history: Option<&'a [Timestamp]>,
}

impl OriginResponse<'_> {
    /// This response's outcome as a borrowed [`PollView`] for the
    /// consistency algorithms.
    pub fn as_view(&self) -> PollView<'_> {
        if self.not_modified {
            PollView::NotModified
        } else {
            PollView::Modified {
                last_modified: self.last_modified,
                history: self.history,
            }
        }
    }
}

/// A pre-resolved handle to one hosted object.
///
/// Simulation drivers look objects up **once** per run via
/// [`OriginServer::object`] and then poll through the handle, so the
/// per-poll path involves no id hashing, comparison or cloning.
#[derive(Debug, Clone, Copy)]
pub struct HostedObject<'a> {
    id: &'a ObjectId,
    trace: &'a UpdateTrace,
    history: HistorySupport,
}

impl<'a> HostedObject<'a> {
    /// The ground-truth trace behind the object.
    pub fn trace(&self) -> &'a UpdateTrace {
        self.trace
    }

    /// Services an `If-Modified-Since` poll at `now` (see
    /// [`OriginServer::poll`]); the hot, allocation-free path.
    ///
    /// # Errors
    ///
    /// Returns [`OriginError::NotYetCreated`] when `now` precedes the
    /// object's first version.
    pub fn poll(
        &self,
        now: Timestamp,
        validator: Option<Timestamp>,
    ) -> Result<OriginResponse<'a>, OriginError> {
        let version_index = self
            .trace
            .version_index_at(now)
            .ok_or_else(|| OriginError::NotYetCreated(self.id.clone()))?;
        let event = &self.trace.events()[version_index];

        let not_modified = match validator {
            Some(v) => event.at <= v,
            None => false,
        };
        let history = match (self.history, not_modified, validator) {
            (HistorySupport::Full, false, Some(v)) => Some(self.trace.times_between(v, now)),
            (HistorySupport::Full, false, None) => {
                Some(&self.trace.times()[version_index..=version_index])
            }
            _ => None,
        };
        Ok(OriginResponse {
            not_modified,
            version_index,
            last_modified: event.at,
            value: event.value,
            history,
        })
    }
}

/// Error returned when polling an object the origin does not host, or
/// polling before the object exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OriginError {
    /// No trace is registered under this id.
    UnknownObject(ObjectId),
    /// The poll instant precedes the object's first version.
    NotYetCreated(ObjectId),
}

impl fmt::Display for OriginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OriginError::UnknownObject(id) => write!(f, "unknown object: {id}"),
            OriginError::NotYetCreated(id) => write!(f, "object not yet created: {id}"),
        }
    }
}

impl std::error::Error for OriginError {}

/// A simulated origin server hosting trace-driven objects.
#[derive(Debug, Clone, Default)]
pub struct OriginServer {
    objects: BTreeMap<ObjectId, UpdateTrace>,
    history: HistorySupport,
}

impl OriginServer {
    /// Creates an empty origin with plain-HTTP behaviour.
    pub fn new() -> Self {
        OriginServer::default()
    }

    /// Enables/disables the modification-history extension.
    pub fn with_history(mut self, history: HistorySupport) -> Self {
        self.history = history;
        self
    }

    /// Hosts `trace` under `id` (replacing any previous trace).
    pub fn host(&mut self, id: ObjectId, trace: UpdateTrace) {
        self.objects.insert(id, trace);
    }

    /// The trace behind an object — the *ground truth* used by metrics.
    pub fn trace(&self, id: &ObjectId) -> Option<&UpdateTrace> {
        self.objects.get(id)
    }

    /// Ids of all hosted objects.
    pub fn object_ids(&self) -> impl Iterator<Item = &ObjectId> + '_ {
        self.objects.keys()
    }

    /// Resolves `id` to a poll handle (see [`HostedObject`]).
    ///
    /// # Errors
    ///
    /// Returns [`OriginError::UnknownObject`] when no trace is hosted
    /// under `id`.
    pub fn object(&self, id: &ObjectId) -> Result<HostedObject<'_>, OriginError> {
        let (id, trace) = self
            .objects
            .get_key_value(id)
            .ok_or_else(|| OriginError::UnknownObject(id.clone()))?;
        Ok(HostedObject {
            id,
            trace,
            history: self.history,
        })
    }

    /// Services an `If-Modified-Since` poll of `id` at `now`.
    ///
    /// `validator` is the creation time of the copy the client holds
    /// (`None` for an unconditional fetch). The response reflects the
    /// object's state at `now`.
    ///
    /// Loops that poll repeatedly should resolve the object once with
    /// [`OriginServer::object`] and poll the handle instead; this method
    /// repeats the id lookup on every call.
    ///
    /// # Errors
    ///
    /// Returns [`OriginError`] for unknown objects or polls before the
    /// object's first version.
    pub fn poll(
        &self,
        id: &ObjectId,
        now: Timestamp,
        validator: Option<Timestamp>,
    ) -> Result<OriginResponse<'_>, OriginError> {
        self.object(id)?.poll(now, validator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_traces::UpdateEvent;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn origin(history: HistorySupport) -> (OriginServer, ObjectId) {
        let id = ObjectId::new("news");
        let trace = UpdateTrace::new(
            "news",
            secs(0),
            secs(1_000),
            vec![
                UpdateEvent::valued(secs(0), Value::new(1.0)),
                UpdateEvent::valued(secs(100), Value::new(2.0)),
                UpdateEvent::valued(secs(300), Value::new(3.0)),
            ],
        )
        .unwrap();
        let mut o = OriginServer::new().with_history(history);
        o.host(id.clone(), trace);
        (o, id)
    }

    #[test]
    fn unconditional_fetch_returns_current_version() {
        let (o, id) = origin(HistorySupport::None);
        let r = o.poll(&id, secs(150), None).unwrap();
        assert!(!r.not_modified);
        assert_eq!(r.version_index, 1);
        assert_eq!(r.last_modified, secs(100));
        assert_eq!(r.value, Some(Value::new(2.0)));
        assert_eq!(r.history, None);
    }

    #[test]
    fn conditional_fetch_304() {
        let (o, id) = origin(HistorySupport::None);
        // Holding version created at 100; no update by t=250.
        let r = o.poll(&id, secs(250), Some(secs(100))).unwrap();
        assert!(r.not_modified);
        assert_eq!(r.version_index, 1);
    }

    #[test]
    fn conditional_fetch_200_on_update() {
        let (o, id) = origin(HistorySupport::None);
        let r = o.poll(&id, secs(350), Some(secs(100))).unwrap();
        assert!(!r.not_modified);
        assert_eq!(r.version_index, 2);
        assert_eq!(r.last_modified, secs(300));
    }

    #[test]
    fn history_extension_lists_missed_updates() {
        let (o, id) = origin(HistorySupport::Full);
        // Validator from t=0; by 350 two updates happened.
        let r = o.poll(&id, secs(350), Some(secs(0))).unwrap();
        assert_eq!(r.history, Some(&[secs(100), secs(300)][..]));
        // 304s carry no history.
        let r = o.poll(&id, secs(250), Some(secs(100))).unwrap();
        assert!(r.not_modified);
        assert_eq!(r.history, None);
        // Unconditional fetches report just the current version.
        let r = o.poll(&id, secs(350), None).unwrap();
        assert_eq!(r.history, Some(&[secs(300)][..]));
    }

    #[test]
    fn errors() {
        let (o, id) = origin(HistorySupport::None);
        let missing = ObjectId::new("nope");
        assert_eq!(
            o.poll(&missing, secs(10), None).unwrap_err(),
            OriginError::UnknownObject(missing.clone())
        );
        // A trace starting later than the poll instant.
        let mut o2 = OriginServer::new();
        let late = UpdateTrace::new(
            "late",
            secs(0),
            secs(100),
            vec![UpdateEvent::temporal(secs(50))],
        )
        .unwrap();
        o2.host(ObjectId::new("late"), late);
        assert!(matches!(
            o2.poll(&ObjectId::new("late"), secs(10), None),
            Err(OriginError::NotYetCreated(_))
        ));
        assert!(!OriginError::UnknownObject(id).to_string().is_empty());
    }

    #[test]
    fn accessors() {
        let (o, id) = origin(HistorySupport::Full);
        assert!(o.trace(&id).is_some());
        assert_eq!(o.object_ids().count(), 1);
    }
}
