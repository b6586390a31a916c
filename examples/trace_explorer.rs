//! Explore the calibrated workloads: regenerate Tables 2 and 3, show the
//! diurnal structure of a news trace (Figure 4(a)'s raw material), and
//! round-trip a trace through the TSV codec.
//!
//! ```sh
//! cargo run --example trace_explorer
//! ```

use mutcon::core::time::Duration;
use mutcon::traces::io::{from_tsv, to_tsv};
use mutcon::traces::stats::{summarize, updates_per_window};
use mutcon::traces::NamedTrace;

fn main() {
    println!("Table 2 workloads (temporal):");
    for nt in NamedTrace::TEMPORAL {
        let s = summarize(&nt.generate());
        println!(
            "  {:<18} {:>6.1} h {:>5} updates  mean gap {:>5.1} min",
            s.name,
            s.duration.as_secs_f64() / 3_600.0,
            s.updates,
            s.mean_update_gap.map_or(0.0, |g| g.as_mins_f64())
        );
    }

    println!("\nTable 3 workloads (value):");
    for nt in NamedTrace::VALUE {
        let s = summarize(&nt.generate());
        let (lo, hi) = s.value_range.expect("stock traces carry values");
        println!(
            "  {:<8} {:>6.1} h {:>5} ticks  ${:.2} – ${:.2}",
            s.name,
            s.duration.as_secs_f64() / 3_600.0,
            s.updates,
            lo.as_f64(),
            hi.as_f64()
        );
    }

    // The diurnal fingerprint: updates per 2-hour window of CNN/FN.
    let trace = NamedTrace::CnnFn.generate();
    println!(
        "\n{} updates per 2-hour window (note the nightly lulls):",
        trace.name()
    );
    for w in updates_per_window(&trace, Duration::from_hours(2)) {
        let hour = 13.07 + w.start.as_secs_f64() / 3_600.0; // trace starts 13:04
        println!(
            "  {:>5.1} h (≈{:02}:00 wall) {:>4} {}",
            w.start.as_secs_f64() / 3_600.0,
            (hour % 24.0) as u32,
            w.count,
            "#".repeat(w.count as usize)
        );
    }

    // Persistence round-trip.
    let tsv = to_tsv(&trace);
    let restored = from_tsv(&tsv).expect("codec round-trips");
    assert_eq!(restored.update_count(), trace.update_count());
    println!(
        "\nTSV round-trip OK: {} bytes encode {} events",
        tsv.len(),
        trace.events().len()
    );
}
