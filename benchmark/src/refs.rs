//! Committed reference forward-model outputs.
//!
//! `refs/forward.txt` holds, for every model hierarchy a workload uses,
//! each level's forward output at one fixed parameter. A run recomputes
//! its workload's outputs and compares them to a relative tolerance that
//! survives a reordering of floating-point sums (SIMD, fused
//! multiply-add) but not a changed discretisation or solver tolerance.
//! `benchmark refs` prints the file's contents for the current code.

use crate::workloads::{self, Kind};

const COMMITTED: &str = include_str!("../refs/forward.txt");

/// Relative tolerance per output component.
pub const REL_TOL: f64 = 1e-6;

/// One line per level: `<model key> <level> <value> <value> ...`.
pub fn render(key: &str, levels: &[Vec<f64>]) -> String {
    let mut out = String::new();
    for (level, values) in levels.iter().enumerate() {
        out.push_str(&format!("{key} {level}"));
        for v in values {
            // `{:?}` prints the shortest text that parses back to `v`
            out.push_str(&format!(" {v:?}"));
        }
        out.push('\n');
    }
    out
}

/// The whole reference file for the current code.
pub fn regenerate() -> String {
    let mut out = String::from(
        "# Forward-model outputs at a fixed parameter, one line per level:\n\
         # <model key> <level> <values...>. Regenerate with `benchmark refs`.\n",
    );
    let mut done: Vec<&str> = Vec::new();
    for kind in Kind::ALL {
        if !done.contains(&kind.model_key()) {
            done.push(kind.model_key());
            out.push_str(&render(
                kind.model_key(),
                &workloads::forward_at_reference(kind),
            ));
        }
    }
    out
}

fn committed_levels(key: &str) -> Result<Vec<Vec<f64>>, String> {
    let mut levels: Vec<Vec<f64>> = Vec::new();
    for line in COMMITTED.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some(key) {
            continue;
        }
        let level: usize = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("refs: bad level in line '{line}'"))?;
        if level != levels.len() {
            return Err(format!("refs: {key} levels out of order at {level}"));
        }
        levels.push(
            words
                .map(|w| w.parse::<f64>().map_err(|e| format!("refs: '{w}': {e}")))
                .collect::<Result<_, _>>()?,
        );
    }
    if levels.is_empty() {
        return Err(format!("refs: no reference for model '{key}'"));
    }
    Ok(levels)
}

/// Compare freshly computed outputs with the committed reference;
/// returns one line per mismatch.
pub fn compare(key: &str, computed: &[Vec<f64>]) -> Vec<String> {
    let committed = match committed_levels(key) {
        Ok(levels) => levels,
        Err(e) => return vec![e],
    };
    if committed.len() != computed.len() {
        return vec![format!(
            "refs: {key} has {} levels, reference has {}",
            computed.len(),
            committed.len()
        )];
    }
    let mut failures = Vec::new();
    for (level, (want, got)) in committed.iter().zip(computed).enumerate() {
        if want.len() != got.len() {
            failures.push(format!(
                "refs: {key} level {level}: {} outputs, reference has {}",
                got.len(),
                want.len()
            ));
            continue;
        }
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            let scale = w.abs().max(g.abs()).max(f64::MIN_POSITIVE);
            let error = (w - g).abs() / scale;
            if error.is_nan() || error > REL_TOL {
                failures.push(format!(
                    "refs: {key} level {level} output {i}: {g:?} vs reference {w:?}"
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_committed_reference() {
        for kind in Kind::ALL {
            let levels = committed_levels(kind.model_key()).expect("reference is committed");
            assert!(levels.len() >= 2, "{}", kind.model_key());
            assert!(levels.iter().all(|l| !l.is_empty()));
        }
    }

    #[test]
    fn compare_accepts_reordering_noise_and_rejects_real_changes() {
        let key = Kind::RanksRuntime.model_key();
        let reference = committed_levels(key).unwrap();
        assert!(compare(key, &reference).is_empty());
        let mut nudged = reference.clone();
        nudged[0][0] *= 1.0 + 1e-9;
        assert!(compare(key, &nudged).is_empty(), "1e-9 is reordering noise");
        nudged[0][0] *= 1.0 + 1e-4;
        assert_eq!(compare(key, &nudged).len(), 1, "1e-4 is a changed model");
        nudged[0][0] = f64::NAN;
        assert_eq!(compare(key, &nudged).len(), 1);
        assert_eq!(compare(key, &reference[..1]).len(), 1, "missing level");
        assert_eq!(compare("no_such_model", &reference).len(), 1);
    }

    #[test]
    fn rendered_lines_parse_back_exactly() {
        let levels = vec![vec![0.1, -2.5e-7, 3.0], vec![1.0 / 3.0]];
        let text = render("k", &levels);
        let back: Vec<Vec<f64>> = text
            .lines()
            .map(|l| {
                l.split_whitespace()
                    .skip(2)
                    .map(|w| w.parse().unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(back, levels);
    }
}
