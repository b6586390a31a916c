//! The paper's rows, pinned: Figures 3–8, ablations A–D and every
//! robustness grid's poll total. `determinism.rs` compares two runs with
//! each other, so a change that moves a figure passes it; here it shows
//! up as a diff of this file, to be reviewed with its cause. (`repro`
//! prints the same numbers.)

use mutcon_bench::{
    fig3_deltas, fig4_window, fig7_deltas, fig8_delta, fig8_window, fixed_delta, paper_fig3_config,
    paper_fig7_config, robustness, FIG3_TRACE, FIG5_PAIR, FIG6_PAIR, VALUE_PAIR,
};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_proxy::experiment::{
    heuristic_timeline, individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep,
    ttr_timeline, value_timeline,
};
use mutcon_proxy::{ablation, report};
use mutcon_traces::NamedTrace;

/// The 64-bit FNV-1a digest of a rendered section.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Figure 3 on CNN/FN, as `repro fig3` prints it: polls of the every-Δ
/// baseline and of LIMD, and LIMD's fidelity by violations and by time.
const FIG3: &str = "
delta_min  baseline  limd  fid(v)  fid(t)
        1      2971   541   0.880   0.904
        2      1486   414   0.855   0.906
        5       595   242   0.818   0.921
       10       298   166   0.837   0.951
       15       199   118   0.720   0.924
       20       149   100   0.770   0.944
       30       100    78   0.859   0.987
       45        67    60   0.900   0.995
       60        50    50   1.000   1.000
";

#[test]
fn fig3_rows_are_the_committed_ones() {
    let rows =
        individual_temporal_sweep(&FIG3_TRACE.generate(), &fig3_deltas(), &paper_fig3_config());
    let mut table = String::from("\ndelta_min  baseline  limd  fid(v)  fid(t)\n");
    for r in &rows {
        table += &format!(
            "{:>9}  {:>8}  {:>4}  {:>6.3}  {:>6.3}\n",
            r.delta.as_millis() / 60_000,
            r.baseline_polls,
            r.limd_polls,
            r.limd_fidelity_violations,
            r.limd_fidelity_time,
        );
    }
    assert_eq!(table, FIG3);
}

/// Figure 4's two series on CNN/FN at Δ = 10 min, every line of
/// `report::fig4`, pinned as the series lengths and the text's digest.
#[test]
fn fig4_series_is_the_committed_one() {
    let out = ttr_timeline(
        &FIG3_TRACE.generate(),
        fixed_delta(),
        fig4_window(),
        &paper_fig3_config(),
    );
    let digest = fnv1a(&report::fig4(&out));
    assert_eq!(
        (out.update_counts.len(), out.ttr.len(), digest),
        (25, 166, 0x88bc_eff3_39f1_6815)
    );
}

/// Ablations A–C, as `repro ablation` prints them: each setting's polls
/// and fidelity by violations and by time.
const ABLATIONS_A_TO_C: &str = "
A  optimistic   l=0.5, adaptive m     124  0.726  0.856
A  paper        l=0.2, adaptive m     166  0.837  0.951
A  conservative l=0.05, adaptive m    217  0.889  0.982
A  harsh        l=0.2, fixed m=0.2    169  0.828  0.946
B  last-modified only (plain HTTP)    236  0.419  0.798
B  modification history (§5.1)        335  0.779  0.962
C  threshold = 0.25                   356  0.989  0.990
C  threshold = 0.50                   350  0.969  0.991
C  threshold = 0.75                   345  0.968  0.991
C  threshold = 1.00                   334  0.979  0.988
C  threshold = 1.50                   326  0.972  0.988
";

#[test]
fn ablation_a_to_c_rows_are_the_committed_ones() {
    let cnn = FIG3_TRACE.generate();
    let (a, b) = FIG5_PAIR;
    let sections = [
        ablation::limd_aggressiveness(&cnn, fixed_delta()),
        ablation::violation_detection(&NamedTrace::Guardian.generate(), fixed_delta()),
        ablation::heuristic_threshold(
            &a.generate(),
            &b.generate(),
            fixed_delta(),
            Duration::from_mins(5),
        ),
    ];
    let mut table = String::from("\n");
    for (name, rows) in ["A", "B", "C"].iter().zip(&sections) {
        for r in rows {
            table += &format!(
                "{name}  {:<32}  {:>4}  {:.3}  {:.3}\n",
                r.setting, r.polls, r.fidelity_violations, r.fidelity_time
            );
        }
    }
    assert_eq!(table, ABLATIONS_A_TO_C);
}

/// Figure 5 at Δ = 10 min: polls and fidelity of plain LIMD, triggered
/// polls and the rate heuristic.
const FIG5: &str = "
delta_min  baseline   triggered  heuristic
        1  315 0.924  389 1.000  351 0.949
        5  315 0.971  373 1.000  345 0.968
       15  315 0.997  325 1.000  318 0.997
       30  315 0.997  310 1.000  315 0.997
";

#[test]
fn fig5_rows_are_the_committed_ones() {
    let (a, b) = FIG5_PAIR;
    let deltas = [1, 5, 15, 30].map(Duration::from_mins);
    let rows = mutual_temporal_sweep(
        &a.generate(),
        &b.generate(),
        fixed_delta(),
        &deltas,
        &paper_fig3_config(),
    );
    let mut table = String::from("\ndelta_min  baseline   triggered  heuristic\n");
    for row in &rows {
        // The paper's claim is exact, not "rounds to": §3.2's triggered
        // polls leave no Mt violation.
        assert_eq!(row.triggered.fidelity, 1.0, "δ = {}", row.mutual_delta);
        let cell =
            |r: &mutcon_proxy::experiment::PolicyResult| format!("{} {:.3}", r.polls, r.fidelity);
        table += &format!(
            "{:>9}  {}  {}  {}\n",
            row.mutual_delta.as_millis() / 60_000,
            cell(&row.baseline),
            cell(&row.triggered),
            cell(&row.heuristic),
        );
    }
    assert_eq!(table, FIG5);
}

/// `repro bench`'s four Table 2 traces as one triggered Mt group, ten
/// seed-shifted collections: 9,170 polls (11,030 before PR 20's cascade
/// fix, 9,222 before the simulator and the live proxy shared a scheduler).
/// Every other grid's poll total is pinned beside it (the mean column of
/// `repro bench` times ten).
#[test]
fn multi4_polls_are_the_committed_ones() {
    let grid = robustness::robustness_grid(10);
    let multi4 = grid
        .iter()
        .find(|row| row.grid == "multi4")
        .expect("the n = 4 group");
    assert_eq!(multi4.polls_total, 9_170);
    assert_eq!((multi4.fidelity_min, multi4.claim_held), (1.0, 10));
    assert!(
        grid.iter().all(|row| row.claim_held == row.runs),
        "{grid:?}"
    );
    let totals: Vec<(&str, u64)> = grid.iter().map(|row| (row.grid, row.polls_total)).collect();
    assert_eq!(
        totals,
        [
            ("fig3", 17_872),
            ("fig5", 24_936),
            ("fig7", 19_872),
            ("ablA", 6_692),
            ("ablB", 5_682),
            ("ablC", 16_174),
            ("ablD", 27_266),
            ("multi4", 9_170),
        ]
    );
}

/// Figure 7, as `repro fig7` prints it: polls and Mv fidelity of the
/// virtual-object (adaptive) and partitioned approaches per δ.
const FIG7: &str = "
delta  adaptive    partitioned
 0.25  1264 0.877   837 0.773
 0.50   346 0.890   949 0.980
 0.60   314 0.898   734 0.975
 1.00   102 0.892   441 0.991
 2.00    46 1.000   394 0.997
 3.00    42 1.000   194 1.000
 4.00    42 1.000    56 1.000
 5.00    42 1.000   143 1.000
";

#[test]
fn fig7_rows_are_the_committed_ones() {
    let (a, b) = VALUE_PAIR;
    let rows = mutual_value_sweep(
        &a.generate(),
        &b.generate(),
        &fig7_deltas(),
        &paper_fig7_config(),
    );
    let mut table = String::from("\ndelta  adaptive    partitioned\n");
    for r in &rows {
        table += &format!(
            "{:>5.2}  {:>4} {:.3}  {:>4} {:.3}\n",
            r.delta.as_f64(),
            r.adaptive_polls,
            r.adaptive_fidelity,
            r.partitioned_polls,
            r.partitioned_fidelity,
        );
    }
    assert_eq!(table, FIG7);
}

/// Ablation D (the Equation 10 α-blend at δ = $0.6), as `repro ablation`
/// prints it.
const ABLATION_D: &str = "
alpha  polls  fid(violations)  fid(time)
 1.00    240            0.887      0.720
 0.75    262            0.889      0.693
 0.50    314            0.898      0.755
 0.25    268            0.925      0.776
 0.00   2046            0.996      0.996
";

#[test]
fn ablation_d_rows_are_the_committed_ones() {
    let (a, b) = VALUE_PAIR;
    let rows = ablation::alpha_blend(&a.generate(), &b.generate(), fig8_delta());
    let mut table = String::from("\nalpha  polls  fid(violations)  fid(time)\n");
    for (alpha, r) in [1.0, 0.75, 0.5, 0.25, 0.0].iter().zip(&rows) {
        assert_eq!(r.setting, format!("alpha = {alpha:.2}"));
        table += &format!(
            "{alpha:>5.2}  {:>5}  {:>15.3}  {:>9.3}\n",
            r.polls, r.fidelity_violations, r.fidelity_time
        );
    }
    assert_eq!(table, ABLATION_D);
}

/// Figure 6(b): the heuristic's extra (triggered) polls per two-hour
/// window, as `repro fig6` prints them.
const FIG6_EXTRA_POLLS: [u32; 23] = [
    0, 4, 2, 6, 3, 2, 0, 0, 0, 0, 6, 3, 5, 2, 4, 4, 3, 1, 0, 0, 0, 0, 0,
];

#[test]
fn fig6_extra_polls_are_the_committed_ones() {
    let (a, b) = FIG6_PAIR;
    let out = heuristic_timeline(
        &a.generate(),
        &b.generate(),
        fixed_delta(),
        Duration::from_mins(5),
        fig4_window(),
        &paper_fig3_config(),
    );
    let extra: Vec<u32> = out.extra_polls.iter().map(|w| w.count).collect();
    assert_eq!(extra, FIG6_EXTRA_POLLS);
}

/// Figure 8's `f` series at δ = $0.6, every point of both approaches
/// rendered by `report::fig8`, pinned as its row count and the 64-bit
/// FNV-1a digest of the text.
#[test]
fn fig8_series_is_the_committed_one() {
    let (a, b) = VALUE_PAIR;
    let (from, to) = fig8_window();
    let out = value_timeline(
        &a.generate(),
        &b.generate(),
        fig8_delta(),
        Timestamp::ZERO + from,
        Timestamp::ZERO + to,
        &paper_fig7_config(),
    );
    let digest = fnv1a(&report::fig8(&out, usize::MAX));
    assert_eq!(
        (out.adaptive.len(), out.partitioned.len(), digest),
        (685, 830, 0xf631_7f7f_d41f_fb0c)
    );
}
