//! Bounded-exhaustive exploration of loss decisions.
//!
//! Random and targeted loss both sample the space of failure modes; this
//! module *enumerates* it, bounded: the fates of the first `k` wireless
//! transmissions (in global transmission order) are driven through all
//! `2^k` drop/deliver assignments, with both possible defaults for the
//! tail. Every assignment of a condition-satisfying, leased pattern
//! system must be PTE-safe — a small-scope model-checking complement to
//! Theorem 1's proof.

use crossbeam::thread;
use parking_lot::Mutex;
use pte_core::monitor::check_pte;
use pte_core::pattern::{build_pattern_system, LeaseConfig};
use pte_hybrid::{Root, Time};
use pte_sim::driver::ScriptedDriver;
use pte_sim::executor::{Executor, ExecutorConfig};
use pte_sim::network::{Channel, Delivery, DropReason, Message, NetworkBridge};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One counter-example (never expected for valid configurations).
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// The decision bitmask (bit `i` = drop the `i`-th transmission).
    pub mask: u64,
    /// The tail default (true = drop transmissions beyond the mask).
    pub default_drop: bool,
    /// Rendered monitor report.
    pub report: String,
}

/// Result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExplorationResult {
    /// Number of complete runs executed.
    pub runs: usize,
    /// Effective decision depth `k` (the requested depth clamped to
    /// [`MAX_DEPTH`]).
    pub depth: usize,
    /// The depth the caller asked for. When it exceeds [`MAX_DEPTH`]
    /// the exploration is *truncated*: only the first `depth`
    /// transmissions were enumerated, and claiming full enumeration at
    /// `requested_depth` would overstate the result.
    pub requested_depth: usize,
    /// Counter-examples found (must be empty for valid configurations).
    pub violations: Vec<CounterExample>,
    /// Infrastructure failures (executor construction, run execution).
    /// Any entry poisons [`ExplorationResult::all_safe`]: a run that
    /// could not execute must never count as a safe run.
    pub errors: Vec<String>,
}

impl ExplorationResult {
    /// `true` if every explored assignment executed *and* satisfied the
    /// PTE rules. Infrastructure errors make this `false` — a broken
    /// build is not a verified one.
    pub fn all_safe(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }

    /// `true` when the requested depth was clamped to [`MAX_DEPTH`] and
    /// the enumeration therefore covers fewer transmissions than asked.
    pub fn truncated(&self) -> bool {
        self.requested_depth > self.depth
    }
}

impl fmt::Display for ExplorationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs at depth {}{}: {}",
            self.runs,
            self.depth,
            if self.truncated() {
                format!(
                    " (TRUNCATED from requested depth {}; deeper fates not enumerated)",
                    self.requested_depth
                )
            } else {
                String::new()
            },
            match (self.violations.is_empty(), self.errors.is_empty()) {
                (true, true) => "all PTE-safe".to_string(),
                (false, true) => format!("{} VIOLATIONS", self.violations.len()),
                (true, false) => format!(
                    "{} EXECUTION ERRORS, exploration aborted (first: {})",
                    self.errors.len(),
                    self.errors[0]
                ),
                // Both: the falsification matters most, but the errors
                // mean coverage was incomplete — show both.
                (false, false) => format!(
                    "{} VIOLATIONS plus {} EXECUTION ERRORS (first: {})",
                    self.violations.len(),
                    self.errors.len(),
                    self.errors[0]
                ),
            }
        )
    }
}

/// A channel drawing decisions from a run-global shared script: the
/// `i`-th wireless transmission of the whole run takes decision bit `i`.
struct SharedScript {
    state: Arc<Mutex<(u64, usize)>>, // (mask, cursor)
    depth: usize,
    default_drop: bool,
}

impl Channel for SharedScript {
    fn transmit(&mut self, _msg: &Message, now: Time) -> Delivery {
        let mut guard = self.state.lock();
        let (mask, cursor) = *guard;
        let dropped = if cursor < self.depth {
            (mask >> cursor) & 1 == 1
        } else {
            self.default_drop
        };
        guard.1 = cursor + 1;
        drop(guard);
        if dropped {
            Delivery::Dropped {
                reason: DropReason::Scripted,
            }
        } else {
            Delivery::Delivered { at: now }
        }
    }

    fn describe(&self) -> String {
        format!("shared-script(depth={})", self.depth)
    }
}

/// Runs one assignment; `Ok(Some(report))` when the run violates PTE,
/// `Ok(None)` when it is safe. Infrastructure failures — the pattern
/// not building, the executor refusing the system, the run aborting —
/// are **errors**, never silently treated as safe runs: the old
/// `Executor::new(..).ok()?` here once turned a broken build into a
/// clean verification verdict.
fn run_assignment(
    cfg: &LeaseConfig,
    leased: bool,
    mask: u64,
    depth: usize,
    default_drop: bool,
    cancel_mid_emission: bool,
) -> Result<Option<String>, String> {
    let sys = build_pattern_system(cfg, leased)
        .map_err(|e| format!("pattern system failed to build: {e:?}"))?;
    execute_assignment(
        sys.automata,
        cfg,
        mask,
        depth,
        default_drop,
        cancel_mid_emission,
    )
}

/// [`run_assignment`] past the build step: drives an already-built
/// automata network through one loss assignment.
fn execute_assignment(
    automata: Vec<pte_hybrid::HybridAutomaton>,
    cfg: &LeaseConfig,
    mask: u64,
    depth: usize,
    default_drop: bool,
    cancel_mid_emission: bool,
) -> Result<Option<String>, String> {
    let mut exec = Executor::new(automata, ExecutorConfig::default())
        .map_err(|e| format!("executor construction failed: {e}"))?;

    let state = Arc::new(Mutex::new((mask, 0usize)));
    let mut bridge = NetworkBridge::perfect();
    bridge.set_default(Box::new(SharedScript {
        state,
        depth,
        default_drop,
    }));
    exec.set_bridge(bridge);

    let t_request = cfg.t_fb0_min + Time::seconds(1.0);
    let mut script = vec![(t_request, Root::new("cmd_request"))];
    if cancel_mid_emission {
        let t_cancel = t_request + cfg.t_enter[cfg.n - 1] + cfg.t_run[cfg.n - 1] * 0.5;
        script.push((t_cancel, Root::new("cmd_cancel")));
    }
    exec.add_driver(Box::new(ScriptedDriver::new("driver", script)));

    let horizon = cfg.max_risky_dwelling() * 3.0 + cfg.t_fb0_min;
    let trace = exec
        .run_until(horizon)
        .map_err(|e| format!("pattern run failed to execute: {e}"))?;
    let report = check_pte(&trace, &cfg.pte_spec());
    if report.is_safe() {
        Ok(None)
    } else {
        Ok(Some(format!("{report}")))
    }
}

/// Hard cap on the decision depth: `2^20 × 2` is already over two
/// million runs. Requests beyond it are clamped and reported as
/// truncated (see [`ExplorationResult::truncated`]).
pub const MAX_DEPTH: usize = 20;

/// Clamps a requested decision depth to [`MAX_DEPTH`].
fn clamp_depth(requested: usize) -> usize {
    requested.min(MAX_DEPTH)
}

/// Explores all `2^depth × 2 (tail defaults)` loss assignments of the
/// pattern system in parallel.
///
/// `depth` is capped at [`MAX_DEPTH`] to keep explorations tractable
/// (typical verification uses 8–12); a clamped request is surfaced via
/// [`ExplorationResult::requested_depth`] and its `Display`, so a
/// depth-25 request is never silently reported as fully enumerated.
///
/// Violations are returned in `(mask, default_drop)` order, so the
/// first entry — and hence any witness derived from it — is
/// deterministic regardless of worker scheduling.
pub fn explore(
    cfg: &LeaseConfig,
    leased: bool,
    depth: usize,
    cancel_mid_emission: bool,
) -> ExplorationResult {
    let requested_depth = depth;
    let depth = clamp_depth(requested_depth);
    let total: u64 = 1 << depth;
    let violations: Mutex<Vec<CounterExample>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let runs = AtomicUsize::new(0);

    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    thread::scope(|scope| {
        for w in 0..n_workers {
            let violations = &violations;
            let errors = &errors;
            let runs = &runs;
            scope.spawn(move |_| {
                let mut mask = w as u64;
                'masks: while mask < total {
                    for default_drop in [false, true] {
                        match run_assignment(
                            cfg,
                            leased,
                            mask,
                            depth,
                            default_drop,
                            cancel_mid_emission,
                        ) {
                            Ok(None) => {
                                runs.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Some(report)) => {
                                runs.fetch_add(1, Ordering::Relaxed);
                                violations.lock().push(CounterExample {
                                    mask,
                                    default_drop,
                                    report,
                                });
                            }
                            Err(e) => {
                                // An execution failure is systemic (it
                                // does not depend on the loss mask):
                                // record it and stop this worker rather
                                // than collect millions of copies.
                                errors.lock().push(format!(
                                    "mask {mask:#b} default_drop={default_drop}: {e}"
                                ));
                                break 'masks;
                            }
                        }
                    }
                    mask += n_workers as u64;
                }
            });
        }
    })
    .expect("worker panicked");

    let mut violations = violations.into_inner();
    violations.sort_by_key(|v| (v.mask, v.default_drop));
    ExplorationResult {
        runs: runs.into_inner(),
        depth,
        requested_depth,
        violations,
        errors: errors.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-scope Theorem 1: all 2^6 × 2 assignments of the first six
    /// transmissions are PTE-safe for the leased case-study configuration.
    #[test]
    fn depth6_exploration_all_safe() {
        let cfg = LeaseConfig::case_study();
        let result = explore(&cfg, true, 6, false);
        assert_eq!(result.runs, 2 * (1 << 6));
        assert!(result.all_safe(), "{result}");
    }

    /// Same depth with a mid-emission cancel command in the schedule.
    #[test]
    fn depth5_with_cancel_all_safe() {
        let cfg = LeaseConfig::case_study();
        let result = explore(&cfg, true, 5, true);
        assert!(result.all_safe(), "{result}");
    }

    /// The unleased system has at least one violating assignment within
    /// the same bound (losing the participant's stop commands).
    #[test]
    fn unleased_has_counterexample() {
        let cfg = LeaseConfig::case_study();
        let result = explore(&cfg, false, 6, true);
        assert!(
            !result.all_safe(),
            "exhaustive search must find the no-lease failure"
        );
        // Deterministic: the same exploration finds the same count.
        let again = explore(&cfg, false, 6, true);
        assert_eq!(result.violations.len(), again.violations.len());
    }

    #[test]
    fn depth_is_capped() {
        let cfg = LeaseConfig::case_study();
        // depth 0: only the two tail defaults.
        let result = explore(&cfg, true, 0, false);
        assert_eq!(result.runs, 2);
        assert!(result.all_safe());
    }

    /// The depth clamp is recorded, not hidden: requested and effective
    /// depths are both reported, and the `Display` of a truncated
    /// exploration says so explicitly.
    #[test]
    fn truncated_depth_is_surfaced() {
        assert_eq!(clamp_depth(25), MAX_DEPTH);
        assert_eq!(clamp_depth(MAX_DEPTH), MAX_DEPTH);
        assert_eq!(clamp_depth(3), 3);

        // An in-range request is reported as exactly what ran…
        let cfg = LeaseConfig::case_study();
        let result = explore(&cfg, true, 3, false);
        assert_eq!(result.depth, 3);
        assert_eq!(result.requested_depth, 3);
        assert!(!result.truncated());
        assert!(!format!("{result}").contains("TRUNCATED"), "{result}");

        // …while a clamped request advertises the truncation (shaped
        // result; actually running 2^20 × 2 simulations here would take
        // hours, and `explore` wires `requested_depth` through the same
        // struct path).
        let truncated = ExplorationResult {
            runs: 2 << MAX_DEPTH,
            depth: MAX_DEPTH,
            requested_depth: 25,
            ..ExplorationResult::default()
        };
        assert!(truncated.truncated());
        let text = format!("{truncated}");
        assert!(text.contains("TRUNCATED"), "{text}");
        assert!(text.contains("25"), "{text}");
    }

    /// An executor that cannot even be constructed is an error, not a
    /// safe run — the regression fixed here used to turn it into a
    /// clean verdict via `Executor::new(..).ok()?`.
    #[test]
    fn executor_construction_error_propagates() {
        let cfg = LeaseConfig::case_study();
        let err = execute_assignment(Vec::new(), &cfg, 0, 4, false, false)
            .expect_err("an empty network must not execute");
        assert!(
            err.contains("executor construction failed"),
            "unexpected error text: {err}"
        );
    }

    /// Any recorded error poisons `all_safe` and is visible in the
    /// rendered result.
    #[test]
    fn errors_poison_all_safe() {
        let result = ExplorationResult {
            runs: 8,
            depth: 2,
            requested_depth: 2,
            errors: vec!["mask 0b0 default_drop=false: executor construction failed".into()],
            ..ExplorationResult::default()
        };
        assert!(!result.all_safe());
        let text = format!("{result}");
        assert!(text.contains("EXECUTION ERRORS"), "{text}");
    }
}
