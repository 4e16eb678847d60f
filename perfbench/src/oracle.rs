//! Witness byte-identity oracle: a digest of the witness text of every
//! registry scenario's lease-stripped arm, through the symbolic backend
//! and through the compositional backend's monolithic fallback,
//! recorded once (`--record-witnesses`) and compared by every run's
//! audit.

use pte_tracheotomy::registry;
use pte_verify::api::{BackendSel, Verdict, VerificationRequest};
use std::collections::HashMap;
use std::fmt::Write as _;

const RECORDED: &str = include_str!("../witness_digests.txt");

/// The two request paths whose witnesses are pinned.
pub const PATHS: [(&str, BackendSel); 2] = [
    ("symbolic", BackendSel::Symbolic),
    ("compositional", BackendSel::Compositional),
];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recorded `(scenario, path) -> (digest, byte length)`.
pub struct Digests(HashMap<(String, String), (u64, usize)>);

impl Digests {
    pub fn load() -> Digests {
        let mut map = HashMap::new();
        for line in RECORDED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let digest = u64::from_str_radix(f[2], 16).expect("digest is hex");
            let len = f[3].parse().expect("length is a number");
            map.insert((f[0].to_string(), f[1].to_string()), (digest, len));
        }
        Digests(map)
    }

    /// Compares `witness` with the recorded digest of `scenario` on
    /// `path`.
    pub fn check(&self, scenario: &str, path: &str, witness: &str) -> Result<(), String> {
        let Some(&(digest, len)) = self.0.get(&(scenario.to_string(), path.to_string())) else {
            return Err(format!("no recorded witness for {scenario} via {path}"));
        };
        if fnv1a64(witness.as_bytes()) == digest && witness.len() == len {
            Ok(())
        } else {
            Err(format!(
                "witness of {scenario} via {path} differs from the recorded one \
                 ({} bytes, recorded {len})",
                witness.len()
            ))
        }
    }
}

/// Every registry scenario's lease-stripped arm, by name, on each pinned
/// path.
pub fn stripped_requests() -> Vec<(String, &'static str, VerificationRequest)> {
    registry::registry()
        .iter()
        .flat_map(|s| {
            PATHS.iter().map(|&(path, backend)| {
                let req = VerificationRequest::scenario(&s.name)
                    .backend(backend)
                    .leased(false);
                (s.name.clone(), path, req)
            })
        })
        .collect()
}

/// Runs every registry scenario's lease-stripped arm through both paths
/// and renders the digest file.
pub fn record() -> Result<String, String> {
    let mut out = String::from(
        "# Witness digests of every registry scenario's lease-stripped arm.\n\
         # scenario path fnv1a64(witness text) witness-bytes\n",
    );
    for (name, path, req) in stripped_requests() {
        let report = req.run().map_err(|e| format!("{name} via {path}: {e}"))?;
        let witness = match (&report.verdict, &report.witness) {
            (Verdict::Unsafe, Some(w)) if !w.is_empty() => w,
            _ => return Err(format!("{name} via {path}: {}", report.verdict)),
        };
        let _ = writeln!(
            out,
            "{name} {path} {:016x} {}",
            fnv1a64(witness.as_bytes()),
            witness.len()
        );
    }
    Ok(out)
}
