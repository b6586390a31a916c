//! Cross-crate pipeline tests: persistence round-trips feeding identical
//! experiments, and the HTTP extension header carrying what the
//! algorithms need.

use mutcon::core::limd::LimdConfig;
use mutcon::core::object::ObjectId;
use mutcon::core::time::{Duration, Timestamp};
use mutcon::http::extensions::modification_history;
use mutcon::http::headers::HeaderMap;
use mutcon::proxy::drivers::{run_temporal, TemporalPolicy, TemporalSimConfig};
use mutcon::proxy::metrics;
use mutcon::proxy::origin::{HistorySupport, OriginServer};
use mutcon::traces::io::{from_tsv, to_tsv};
use mutcon::traces::NamedTrace;

/// Persisted traces drive byte-identical experiments.
#[test]
fn persistence_preserves_experiment_results() {
    let trace = NamedTrace::NytReuters.generate();
    let via_tsv = from_tsv(&to_tsv(&trace)).expect("tsv round-trip");

    let run = |t: &mutcon::traces::UpdateTrace| {
        let id = ObjectId::new("x");
        let mut origin = OriginServer::new();
        origin.host(id.clone(), t.clone());
        let out = run_temporal(
            &origin,
            std::slice::from_ref(&id),
            &TemporalSimConfig {
                policy: TemporalPolicy::Limd(
                    LimdConfig::builder(Duration::from_mins(10))
                        .build()
                        .unwrap(),
                ),
                mutual: None,
                until: t.end(),
            },
        );
        out.logs[&id].clone()
    };
    let original = run(&trace);
    assert_eq!(run(&via_tsv), original);
}

/// The §5.1 history extension changes what the proxy can detect: with
/// history, LIMD sees the Figure 1(b) violations and backs off harder,
/// never producing *worse* ground-truth fidelity.
#[test]
fn history_extension_improves_detection() {
    let trace = NamedTrace::Guardian.generate();
    let id = ObjectId::new("g");
    let delta = Duration::from_mins(10);
    let run = |support: HistorySupport| {
        let mut origin = OriginServer::new().with_history(support);
        origin.host(id.clone(), trace.clone());
        let out = run_temporal(
            &origin,
            std::slice::from_ref(&id),
            &TemporalSimConfig {
                policy: TemporalPolicy::Limd(LimdConfig::builder(delta).build().unwrap()),
                mutual: None,
                until: trace.end(),
            },
        );
        metrics::individual_temporal(&trace, &out.logs[&id], delta, trace.end())
    };
    let plain = run(HistorySupport::None);
    let with_history = run(HistorySupport::Full);
    assert!(
        with_history.fidelity_by_violations() >= plain.fidelity_by_violations() - 1e-9,
        "history made fidelity worse: {} vs {}",
        with_history.fidelity_by_violations(),
        plain.fidelity_by_violations()
    );
}

/// The history header round-trips through a real header map, so a §5.1
/// server↔proxy exchange can carry modification histories.
#[test]
fn extension_headers_carry_consistency_metadata() {
    let mut headers = HeaderMap::new();
    mutcon::http::extensions::set_modification_history(
        &mut headers,
        &[Timestamp::from_millis(100), Timestamp::from_millis(2_500)],
    );
    assert_eq!(
        modification_history(&headers),
        Some(vec![
            Timestamp::from_millis(100),
            Timestamp::from_millis(2_500)
        ])
    );
}

/// Whole-pipeline determinism: the same named workload and configuration
/// produce identical poll logs and metrics across runs.
#[test]
fn experiments_are_reproducible() {
    let run = || {
        let trace = NamedTrace::CnnFn.generate();
        let id = ObjectId::new("cnn");
        let mut origin = OriginServer::new();
        origin.host(id.clone(), trace.clone());
        let out = run_temporal(
            &origin,
            std::slice::from_ref(&id),
            &TemporalSimConfig {
                policy: TemporalPolicy::Limd(
                    LimdConfig::builder(Duration::from_mins(5)).build().unwrap(),
                ),
                mutual: None,
                until: trace.end(),
            },
        );
        let stats = metrics::individual_temporal(
            &trace,
            &out.logs[&id],
            Duration::from_mins(5),
            trace.end(),
        );
        (out.logs[&id].clone(), stats.polls(), stats.violations())
    };
    assert_eq!(run(), run());
}
