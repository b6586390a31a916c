//! A financial ticker comparing two stock prices — the value-domain
//! scenario of §4: keep the *difference* of the cached prices within δ of
//! the difference at the server (Mv-consistency).
//!
//! Runs both §4.2 approaches (virtual object vs partitioned tolerance)
//! on the paper's calibrated AT&T/Yahoo workloads.
//!
//! ```sh
//! cargo run --example stock_ticker
//! ```

use mutcon::core::adaptive_ttr::AdaptiveTtrConfig;
use mutcon::core::functions::ValueFunction;
use mutcon::core::mutual::value::{PartitionedConfig, VirtualObjectConfig};
use mutcon::core::object::ObjectId;
use mutcon::core::time::{Duration, Timestamp};
use mutcon::core::value::Value;
use mutcon::proxy::drivers::{run_value_pair, ValuePairPolicy};
use mutcon::proxy::metrics;
use mutcon::proxy::origin::OriginServer;
use mutcon::traces::NamedTrace;

fn main() {
    // Yahoo first so f = Yahoo − AT&T is positive, as plotted in Fig 8.
    let yahoo = NamedTrace::Yahoo.generate();
    let att = NamedTrace::Att.generate();
    println!(
        "workloads: {} ({} ticks), {} ({} ticks) over {:.1} h",
        yahoo.name(),
        yahoo.update_count(),
        att.name(),
        att.update_count(),
        att.duration().as_secs_f64() / 3_600.0
    );

    let ids = [ObjectId::new(yahoo.name()), ObjectId::new(att.name())];
    let mut origin = OriginServer::new();
    origin.host(ids[0].clone(), yahoo.clone());
    origin.host(ids[1].clone(), att.clone());
    let until = Timestamp::ZERO + att.duration();

    let delta = Value::new(0.6); // the paper's Figure 8 tolerance
    let f = ValueFunction::Difference;
    println!("requirement: |f(S) − f(P)| < δ = ${delta} for f = difference\n");
    println!(
        "{:<22} {:>7} {:>14} {:>14}",
        "approach", "polls", "Mv fidelity", "out-of-sync"
    );

    // The §4.1 adaptive TTR both approaches run, its Δ being δ.
    let ttr = AdaptiveTtrConfig::builder(delta)
        .ttr_bounds(Duration::from_secs(10), Duration::from_mins(10))
        .build()
        .expect("valid policy parameters");

    let virtual_cfg = VirtualObjectConfig::builder(f, ttr)
        .build()
        .expect("valid policy parameters");
    let partitioned_cfg = PartitionedConfig::builder(f, ttr)
        .build()
        .expect("valid policy parameters");

    for (label, policy) in [
        (
            "adaptive (virtual f)",
            ValuePairPolicy::Virtual(virtual_cfg),
        ),
        (
            "partitioned (δa+δb=δ)",
            ValuePairPolicy::Partitioned(partitioned_cfg),
        ),
    ] {
        let out = run_value_pair(&origin, &ids[0], &ids[1], &policy, until);
        let stats = metrics::mutual_value(&yahoo, &out.log_a, &att, &out.log_b, f, delta, until);
        println!(
            "{label:<22} {:>7} {:>14.3} {:>11.1} s",
            stats.polls(),
            stats.fidelity_by_violations(),
            stats.out_of_sync().as_secs_f64()
        );
    }

    println!(
        "\nThe partitioned approach tracks the server difference more tightly\n\
         (higher fidelity) at the cost of more polls — the Figure 7 trade-off.\n\
         It is only available because the difference function decomposes\n\
         per-object (ValueFunction::supports_partitioning)."
    );
}
