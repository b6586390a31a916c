//! Poll logs: the complete record of a simulation run.
//!
//! Every poll a driver performs is appended to a [`PollLog`]; the metrics
//! module replays logs against the ground-truth traces to compute exact
//! poll counts, violations and out-of-sync time.

use mutcon_core::time::Timestamp;

/// What one poll did to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// `304 Not Modified`: the cached copy stayed.
    NotModified,
    /// `200 OK`: the cache now holds the version with this index in the
    /// object's trace.
    Refreshed {
        /// Index into the trace's event list.
        version_index: usize,
    },
}

/// One poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRecord {
    /// When the poll hit the origin.
    pub at: Timestamp,
    /// What it returned.
    pub outcome: PollOutcome,
    /// `true` when the poll was triggered by the mutual-consistency
    /// coordinator rather than the object's own schedule.
    pub triggered: bool,
}

/// The time-ordered polls of one object across a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PollLog {
    records: Vec<PollRecord>,
}

impl PollLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        PollLog::default()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if `record` is earlier than the latest record (drivers feed
    /// polls in event order).
    pub fn push(&mut self, record: PollRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                record.at >= last.at,
                "poll log must be time-ordered: {} < {}",
                record.at,
                last.at
            );
        }
        self.records.push(record);
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[PollRecord] {
        &self.records
    }

    /// Total polls (every record is one `If-Modified-Since` request).
    pub fn poll_count(&self) -> u64 {
        self.records.len() as u64
    }

    /// Polls initiated by the mutual-consistency coordinator.
    pub(crate) fn triggered_count(&self) -> u64 {
        self.records.iter().filter(|r| r.triggered).count() as u64
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the held-version timeline: `(held_from, version_index)`
    /// for every refresh, in order.
    pub(crate) fn refresh_timeline(&self) -> impl Iterator<Item = (Timestamp, usize)> + '_ {
        self.records.iter().filter_map(|r| match r.outcome {
            PollOutcome::Refreshed { version_index } => Some((r.at, version_index)),
            PollOutcome::NotModified => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(s: u64, outcome: PollOutcome) -> PollRecord {
        PollRecord {
            at: Timestamp::from_secs(s),
            outcome,
            triggered: false,
        }
    }

    #[test]
    fn counting() {
        let mut log = PollLog::new();
        assert!(log.is_empty());
        log.push(rec(0, PollOutcome::Refreshed { version_index: 0 }));
        log.push(rec(10, PollOutcome::NotModified));
        log.push(PollRecord {
            at: Timestamp::from_secs(20),
            outcome: PollOutcome::Refreshed { version_index: 1 },
            triggered: true,
        });
        assert_eq!(log.poll_count(), 3);
        assert_eq!(log.triggered_count(), 1);
        assert_eq!(log.records().len(), 3);
    }

    #[test]
    fn refresh_timeline_skips_304s() {
        let mut log = PollLog::new();
        log.push(rec(0, PollOutcome::Refreshed { version_index: 0 }));
        log.push(rec(10, PollOutcome::NotModified));
        log.push(rec(20, PollOutcome::Refreshed { version_index: 2 }));
        let timeline: Vec<_> = log.refresh_timeline().collect();
        assert_eq!(
            timeline,
            vec![(Timestamp::from_secs(0), 0), (Timestamp::from_secs(20), 2)]
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut log = PollLog::new();
        log.push(rec(10, PollOutcome::NotModified));
        log.push(rec(5, PollOutcome::NotModified));
    }

    #[test]
    fn same_instant_records_allowed() {
        // Triggered polls share the trigger's instant.
        let mut log = PollLog::new();
        log.push(rec(10, PollOutcome::NotModified));
        log.push(rec(10, PollOutcome::Refreshed { version_index: 1 }));
        assert_eq!(log.poll_count(), 2);
    }
}
