//! A breaking-news site: a story page with its embedded chart, portrait
//! and stylesheet, kept *mutually* consistent (§1's motivating example).
//!
//! The related-object group is declared (§5.2 lets the user specify it),
//! then the three Mt approaches of §3.2 are compared on the same
//! workload.
//!
//! ```sh
//! cargo run --example news_site
//! ```

use mutcon::core::limd::LimdConfig;
use mutcon::core::mutual::temporal::MtPolicy;
use mutcon::core::object::ObjectId;
use mutcon::core::time::Duration;
use mutcon::proxy::drivers::{run_temporal, MutualSetup, TemporalPolicy, TemporalSimConfig};
use mutcon::proxy::metrics;
use mutcon::proxy::origin::OriginServer;
use mutcon::traces::generator::NewsTraceBuilder;

fn main() {
    // 1. The related-object group: the story page and what it embeds.
    let members: Vec<ObjectId> = [
        "/news/story.html",
        "/news/chart.png",
        "/news/reporter.jpg",
        "/style/news.css",
    ]
    .map(ObjectId::new)
    .into();
    let story = members[0].clone();
    println!("group:");
    for m in &members {
        println!("  {m}");
    }

    // 2. Give every member an update stream: the story changes fast, the
    //    chart almost as fast, the stylesheet and portrait rarely.
    let mut origin = OriginServer::new();
    let updates_for = |path: &str| match path {
        "/news/story.html" => 120,
        "/news/chart.png" => 90,
        "/news/reporter.jpg" => 6,
        _ => 3,
    };
    for (i, m) in members.iter().enumerate() {
        let trace = NewsTraceBuilder::new(m.as_str(), Duration::from_hours(24), updates_for(m.as_str()))
            .seed(42 + i as u64)
            .build()
            .expect("valid generator parameters");
        origin.host(m.clone(), trace);
    }
    let until = mutcon::core::time::Timestamp::ZERO + Duration::from_hours(24);

    // 3. Compare the three §3.2 approaches at Δ = 10 min, δ = 5 min.
    let delta = Duration::from_mins(10);
    let mutual_delta = Duration::from_mins(5);
    let limd = LimdConfig::builder(delta)
        .ttr_max(Duration::from_mins(60))
        .build()
        .expect("valid LIMD parameters");
    println!("\nΔ = {delta}, δ = {mutual_delta}; pairwise fidelity vs the story page:\n");
    println!(
        "{:<22} {:>11} {:>9} {:>26}",
        "policy", "total polls", "extra", "min pairwise Mt fidelity"
    );

    for (label, policy) in [
        ("baseline LIMD", None),
        ("triggered polls", Some(MtPolicy::TriggeredPolls)),
        ("rate heuristic", Some(MtPolicy::HEURISTIC)),
    ] {
        let out = run_temporal(
            &origin,
            &members,
            &TemporalSimConfig {
                policy: TemporalPolicy::Limd(limd),
                mutual: policy.map(|p| MutualSetup {
                    delta: mutual_delta,
                    policy: p,
                }),
                until,
            },
        );
        let min_fidelity = members[1..]
            .iter()
            .map(|m| {
                metrics::mutual_temporal(
                    origin.trace(&story).expect("hosted"),
                    &out.logs[&story],
                    origin.trace(m).expect("hosted"),
                    &out.logs[m],
                    mutual_delta,
                    until,
                )
                .fidelity_by_violations()
            })
            .fold(1.0f64, f64::min);
        println!(
            "{label:<22} {:>11} {:>9} {:>26.3}",
            out.total_polls(),
            out.total_triggered(),
            min_fidelity
        );
    }

    println!(
        "\nTriggered polls buy perfect mutual consistency with extra polls;\n\
         the heuristic skips slow-changing objects (the portrait photo) and\n\
         keeps most of the fidelity at a fraction of the extra cost (§6.2.2)."
    );
}
