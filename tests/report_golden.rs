//! Golden snapshot tests for the observability plane (satellite 2):
//!
//! * the Table-1 report artifact for a small seeded panel is pinned by
//!   checksum and must regenerate byte-identically across two runs in
//!   the same process;
//! * the per-phase span fingerprint of `Merging-Fragments` (the
//!   randomized algorithm) on the Figure-2 walkthrough graph
//!   (`examples/merging_trace.rs`: `path(8, 5)`, seed 3) is pinned span
//!   by span. Any drift here means either the execution schedule or the
//!   phase labeler moved.

use bench::report::{generate, ReportSpec};
use sleeping_mst::graphlib::generators;
use sleeping_mst::mst_core::{registry, ExecOptions, MstScratch};

fn small_panel() -> ReportSpec {
    ReportSpec {
        sizes: vec![6, 8],
        seeds: vec![0],
        ..ReportSpec::default()
    }
}

/// FNV-1a 64 over the artifact bytes — enough to pin the whole JSON
/// without inlining 20 kB of it.
fn fnv64(bytes: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned checksum of the small-panel report JSON. If an intentional
/// change moves the artifact (new column, changed panel, algorithm
/// change), regenerate with `sleeping-mst report --sizes 6,8 --seeds 0
/// --json` and re-pin — but never because of run order or re-running.
const REPORT_JSON_FNV: u64 = 0xc8d7_3477_f46b_5adf;

/// `ReportSpec` names no time driver: the pinned bytes are the calendar
/// driver's. Registry runs with metrics on, like the report's, are
/// checked against the naive oracle in `tests/metrics_conservation.rs`.
#[test]
fn report_json_is_pinned_and_executor_independent() {
    let first = generate(&small_panel()).unwrap().to_json();
    let again = generate(&small_panel()).unwrap().to_json();
    assert_eq!(first, again, "report must regenerate byte-identically");
    assert_eq!(fnv64(&first), REPORT_JSON_FNV, "report JSON drifted");
}

#[test]
fn report_markdown_is_byte_stable() {
    let spec = small_panel();
    let a = generate(&spec).unwrap().to_markdown();
    let b = generate(&spec).unwrap().to_markdown();
    assert_eq!(a, b);
    assert!(a.starts_with("# Table 1, measured"));
    for spec in registry::ALGORITHMS {
        assert!(a.contains(spec.name), "markdown is missing {}", spec.name);
    }
}

/// Each entry is `label:first_round-last_round:active_rounds:awake_node_rounds`.
const MERGING_FRAGMENTS_SPANS: &[&str] = &[
    "fragment-id-exchange:9-9:1:8",
    "bcast-moe:35-35:1:8",
    "coin-bcast:52-52:1:8",
    "coin-exchange:77-77:1:8",
    "bcast-validity:103-103:1:8",
    "merge-info:128-128:1:8",
    "fragment-id-exchange:179-179:1:8",
    "upcast-moe:204-204:1:4",
    "bcast-moe:205-205:1:8",
    "coin-bcast:222-222:1:8",
    "coin-exchange:247-247:1:8",
    "upcast-validity:272-272:1:4",
    "bcast-validity:273-273:1:8",
    "merge-info:298-298:1:8",
    "fragment-id-exchange:349-349:1:8",
    "upcast-moe:374-374:1:4",
    "bcast-moe:375-375:1:8",
    "coin-bcast:392-392:1:8",
    "coin-exchange:417-417:1:8",
    "upcast-validity:442-442:1:4",
    "bcast-validity:443-443:1:8",
    "merge-info:468-468:1:8",
    "fragment-id-exchange:519-519:1:8",
    "upcast-moe:544-544:1:6",
    "bcast-moe:545-545:1:8",
    "coin-bcast:562-562:1:8",
    "coin-exchange:587-587:1:8",
    "upcast-validity:612-612:1:6",
    "bcast-validity:613-613:1:8",
    "merge-info:638-638:1:8",
    "merge-up:663-663:1:2",
    "merge-down:664-664:1:2",
    "fragment-id-exchange:689-689:1:8",
    "upcast-moe:712-714:3:10",
    "bcast-moe:715-717:3:10",
    "coin-bcast:732-734:3:10",
    "coin-exchange:757-757:1:8",
    "upcast-validity:780-782:3:10",
    "bcast-validity:783-785:3:10",
    "merge-info:808-808:1:8",
    "merge-up:833-833:1:2",
    "merge-down:834-834:1:2",
    "fragment-id-exchange:859-859:1:8",
    "upcast-moe:882-884:3:11",
    "bcast-moe:885-887:3:11",
    "coin-bcast:902-904:3:11",
    "coin-exchange:927-927:1:8",
    "upcast-validity:950-952:3:11",
    "bcast-validity:953-955:3:11",
    "merge-info:978-978:1:8",
    "merge-up:1001-1003:3:6",
    "merge-down:1004-1006:3:6",
    "fragment-id-exchange:1029-1029:1:8",
    "upcast-moe:1050-1054:5:13",
    "bcast-moe:1055-1059:5:13",
];

#[test]
fn merging_fragments_phase_spans_are_pinned_on_the_figure2_graph() {
    let g = generators::path(8, 5).unwrap();
    let alg = registry::find("randomized").unwrap();
    let out = alg
        .run_with_options(
            &g,
            &ExecOptions::seeded(3).with_metrics(),
            &mut MstScratch::new(),
        )
        .unwrap();
    let got: Vec<String> = alg
        .phase_spans(&g, &out.metrics)
        .iter()
        .map(|s| {
            format!(
                "{}:{}-{}:{}:{}",
                s.label, s.first_round, s.last_round, s.active_rounds, s.awake_node_rounds
            )
        })
        .collect();
    assert_eq!(
        got.len(),
        MERGING_FRAGMENTS_SPANS.len(),
        "span count drifted"
    );
    for (i, (g, want)) in got.iter().zip(MERGING_FRAGMENTS_SPANS).enumerate() {
        assert_eq!(g, want, "span {i} drifted");
    }
}
