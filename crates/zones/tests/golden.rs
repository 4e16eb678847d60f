//! Golden counters: every registry scenario, both arms, searched at its
//! recommended budget at 1 and 4 workers, must reproduce the pinned
//! verdict, search counters, passed-list bytes, DBM clock count, PTEA
//! artifact digest and witness digest.
//!
//! Every field but `stutters` was recorded from the engine before
//! silent self-loops were counted instead of expanded, so the table
//! also pins that this cover settles, subsumes and renders exactly
//! what the full expansion did. `stutters` (one per expanded entry on
//! every registry arm: the supervisor's environment-approval
//! self-loop) was recorded with the cover.
//!
//! The leased arms with at most five devices run in the debug suite;
//! the rest run in release:
//!
//! ```sh
//! cargo test --release -p pte-zones --test golden -- --ignored
//! ```
//!
//! A mismatch prints every observed row of the failing test in the
//! table's own syntax.

use pte_tracheotomy::registry::{self, Scenario};
use pte_zones::artifact::{new_sink, Digest};
use pte_zones::{Limits, LoweredPattern, SymbolicVerdict};

/// What one search of one arm must reproduce. `artifact` and `witness`
/// are `(FNV-1a digest, byte length)` of the encoded PTEA artifact of a
/// `Safe` search and of the rendered counter-example of an `Unsafe`
/// one; `(0, 0)` where the verdict has none. The counters are zero for
/// an `Unsafe` verdict, which carries no statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    verdict: &'static str,
    states: usize,
    transitions: usize,
    subsumed: usize,
    stutters: usize,
    frontier: usize,
    passed_bytes: usize,
    passed_bytes_full: usize,
    dbm_clocks: usize,
    artifact: (u64, usize),
    witness: (u64, usize),
}

/// `(scenario, leased, expected)`: the debug suite's arms, then the rest.
#[rustfmt::skip]
const PINNED: &[(&str, bool, Golden)] = &[
    ("case-study", true, Golden { verdict: "safe", states: 368, transitions: 1855, subsumed: 1473, stutters: 368, frontier: 0, passed_bytes: 63248, passed_bytes_full: 238464, dbm_clocks: 8, artifact: (2115064449743438758, 49544), witness: (0, 0) }),
    ("chain-2", true, Golden { verdict: "safe", states: 361, transitions: 1828, subsumed: 1451, stutters: 361, frontier: 0, passed_bytes: 61216, passed_bytes_full: 233928, dbm_clocks: 8, artifact: (15125302846937116353, 48092), witness: (0, 0) }),
    ("chain-3", true, Golden { verdict: "safe", states: 1064, transitions: 5568, subsumed: 4441, stutters: 1064, frontier: 0, passed_bytes: 259984, passed_bytes_full: 1438528, dbm_clocks: 12, artifact: (14112068803046755175, 196112), witness: (0, 0) }),
    ("chain-4", true, Golden { verdict: "safe", states: 2471, transitions: 12920, subsumed: 10309, stutters: 2471, frontier: 0, passed_bytes: 780064, passed_bytes_full: 5712952, dbm_clocks: 16, artifact: (16361631273604421358, 577326), witness: (0, 0) }),
    ("chain-5", true, Golden { verdict: "safe", states: 4731, transitions: 24609, subsumed: 19633, stutters: 4731, frontier: 0, passed_bytes: 1831408, passed_bytes_full: 16690968, dbm_clocks: 20, artifact: (5284340651061415309, 1339623), witness: (0, 0) }),
    ("factory-cell", true, Golden { verdict: "safe", states: 2328, transitions: 12051, subsumed: 9551, stutters: 2328, frontier: 0, passed_bytes: 742624, passed_bytes_full: 5382336, dbm_clocks: 16, artifact: (18312464589894429178, 548778), witness: (0, 0) }),
    ("stress-lossy", true, Golden { verdict: "safe", states: 368, transitions: 1855, subsumed: 1473, stutters: 368, frontier: 0, passed_bytes: 63248, passed_bytes_full: 238464, dbm_clocks: 8, artifact: (16237026708893495144, 49544), witness: (0, 0) }),
    ("case-study", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (10464956015340816797, 1196) }),
    ("chain-2", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (2987441019255431471, 1194) }),
    ("chain-3", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (17454661944555231716, 1253) }),
    ("chain-4", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (15798657833854939981, 1311) }),
    ("chain-5", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (9461163188320246612, 1370) }),
    ("chain-6", true, Golden { verdict: "safe", states: 8216, transitions: 42548, subsumed: 33910, stutters: 8216, frontier: 0, passed_bytes: 3751840, passed_bytes_full: 41080000, dbm_clocks: 24, artifact: (16212451327539329256, 2724050), witness: (0, 0) }),
    ("chain-6", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (14716775194277795672, 1429) }),
    ("chain-7", true, Golden { verdict: "safe", states: 13039, transitions: 67091, subsumed: 53415, stutters: 13039, frontier: 0, passed_bytes: 6865792, passed_bytes_full: 87726392, dbm_clocks: 28, artifact: (16254981133495774748, 4957515), witness: (0, 0) }),
    ("chain-7", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (7433589774077886324, 1488) }),
    ("chain-8", true, Golden { verdict: "safe", states: 19816, transitions: 101349, subsumed: 80641, stutters: 19816, frontier: 0, passed_bytes: 11809552, passed_bytes_full: 172636992, dbm_clocks: 32, artifact: (461159597376892006, 8492264), witness: (0, 0) }),
    ("chain-8", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (1230686525216309390, 1547) }),
    ("factory-cell", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (11665995190570769882, 1311) }),
    ("chain-12", true, Golden { verdict: "inconclusive", states: 44868, transitions: 203310, subsumed: 158369, stutters: 39424, frontier: 5444, passed_bytes: 39169744, passed_bytes_full: 861824544, dbm_clocks: 48, artifact: (0, 0), witness: (0, 0) }),
    ("chain-12", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (3972265400648333605, 1792) }),
    ("chain-16", true, Golden { verdict: "inconclusive", states: 42485, transitions: 205213, subsumed: 162729, stutters: 38759, frontier: 3726, passed_bytes: 47803968, passed_bytes_full: 1435993000, dbm_clocks: 64, artifact: (0, 0), witness: (0, 0) }),
    ("chain-16", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (3996363550175171190, 2036) }),
    ("chain-20", true, Golden { verdict: "inconclusive", states: 43666, transitions: 205330, subsumed: 161665, stutters: 39898, frontier: 3768, passed_bytes: 60105248, passed_bytes_full: 2291941008, dbm_clocks: 80, artifact: (0, 0), witness: (0, 0) }),
    ("chain-20", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (9162550801867325754, 2286) }),
    ("stress-lossy", false, Golden { verdict: "unsafe", states: 0, transitions: 0, subsumed: 0, stutters: 0, frontier: 0, passed_bytes: 0, passed_bytes_full: 0, dbm_clocks: 0, artifact: (0, 0), witness: (3900233516201614883, 1196) }),
];

fn digest(bytes: &[u8]) -> (u64, usize) {
    let mut d = Digest::new();
    d.write_bytes(bytes);
    (d.finish(), bytes.len())
}

/// One search of `scenario`'s arm at its recommended budget.
fn observe(scenario: &Scenario, leased: bool, workers: usize) -> Golden {
    let p = LoweredPattern::new(&scenario.config, leased).expect("registry arm lowers");
    let sink = new_sink();
    let limits = Limits {
        max_states: scenario.recommended_budget,
        max_workers: workers,
        capture: Some(sink.clone()),
        ..Limits::default()
    };
    let verdict = p.check(&limits).expect("registry arm checks");
    let artifact = sink.lock().take().map_or((0, 0), |a| digest(&a.to_bytes()));
    let (name, witness) = match &verdict {
        SymbolicVerdict::Safe(_) => ("safe", (0, 0)),
        SymbolicVerdict::Unsafe(ce) => ("unsafe", digest(format!("{ce}").as_bytes())),
        SymbolicVerdict::OutOfBudget { .. } => ("inconclusive", (0, 0)),
    };
    let s = verdict.stats().copied().unwrap_or_default();
    Golden {
        verdict: name,
        states: s.states,
        transitions: s.transitions,
        subsumed: s.subsumed,
        stutters: s.stutters,
        frontier: s.frontier,
        passed_bytes: s.peak_passed_bytes,
        passed_bytes_full: s.peak_passed_bytes_full,
        dbm_clocks: s.dbm_clocks,
        artifact,
        witness,
    }
}

/// Searches every registry arm that `select` picks at 1 and 4 workers
/// and compares each with its pinned row.
fn check_arms(select: impl Fn(&Scenario, bool) -> bool) {
    let mut observed = Vec::new();
    let mut wrong = Vec::new();
    for scenario in registry::registry() {
        for leased in [true, false] {
            if !select(&scenario, leased) {
                continue;
            }
            let pinned = PINNED
                .iter()
                .find(|(name, arm, _)| *name == scenario.name && *arm == leased)
                .map(|(_, _, g)| *g);
            for workers in [1usize, 4] {
                let got = observe(&scenario, leased, workers);
                if workers == 1 {
                    observed.push(format!("    (\"{}\", {leased}, {got:?}),", scenario.name));
                }
                if pinned != Some(got) {
                    wrong.push(format!(
                        "{} leased={leased} workers={workers}",
                        scenario.name
                    ));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "counters differ from the pinned table: {wrong:?}\nobserved rows:\n{}",
        observed.join("\n")
    );
}

#[test]
fn leased_arms_up_to_five_devices_match_the_golden_counters() {
    check_arms(|s, leased| leased && s.n <= 5);
}

#[test]
#[ignore = "release-only: cargo test --release -p pte-zones --test golden -- --ignored"]
fn every_other_registry_arm_matches_the_golden_counters() {
    check_arms(|s, leased| !(leased && s.n <= 5));
}
