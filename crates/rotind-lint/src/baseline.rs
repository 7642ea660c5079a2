//! The ratchet: a committed `lint-baseline.json` records how many
//! findings each (rule, file) pair is *allowed* to have. The gate fails
//! when any count rises or a new pair appears; counts may only go down,
//! and `--write-baseline` re-tightens the file after a burn-down.
//!
//! Schema v4 wraps each rule's file map in `{"total": N, "witness":
//! "<hash>", "exempted": E, "files": {…}}`: the per-rule burn-down
//! number is visible in diffs without summing by hand (the redundant
//! total is validated on read); rules whose findings carry
//! interprocedural witness paths record an FNV-1a hash over those paths
//! — so a diff shows when a taint chain *moved* even while the count
//! held still; and rules with reasoned exemption comments
//! (`witness-exempt`, `panic-exempt`, `blocking-allowed`) record how
//! many are in force, so *exemption creep* is as reviewable as finding
//! creep. Witness hash and exempted count are informational (the gate
//! stays count-based: line drift must not fail CI). Any other schema
//! version is refused; `--write-baseline` writes a fresh v4 file.

use crate::findings::{count_by_rule_and_file, Finding};
use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Baseline schema version (bumped on format changes).
pub const BASELINE_VERSION: u64 = 4;

/// Default baseline file name, committed at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// `rule → path → permitted count`.
pub type Counts = BTreeMap<String, BTreeMap<String, usize>>;

/// Outcome of comparing a fresh scan against the baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// (rule, path, baseline count, fresh count) pairs whose fresh count
    /// exceeds the baseline — these fail the gate.
    pub regressions: Vec<(String, String, usize, usize)>,
    /// (rule, path, baseline count, fresh count) pairs that *improved* —
    /// the gate prompts for a `--write-baseline` re-ratchet.
    pub improvements: Vec<(String, String, usize, usize)>,
}

impl Comparison {
    /// True when no count rose.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare fresh findings against a baseline.
pub fn compare(findings: &[Finding], baseline: &Counts) -> Comparison {
    let fresh = count_by_rule_and_file(findings);
    let mut cmp = Comparison::default();
    for (rule, files) in &fresh {
        for (path, &count) in files {
            let permitted = baseline
                .get(rule)
                .and_then(|m| m.get(path))
                .copied()
                .unwrap_or(0);
            if count > permitted {
                cmp.regressions
                    .push((rule.clone(), path.clone(), permitted, count));
            }
        }
    }
    for (rule, files) in baseline {
        for (path, &permitted) in files {
            let count = fresh
                .get(rule)
                .and_then(|m| m.get(path))
                .copied()
                .unwrap_or(0);
            if count < permitted {
                cmp.improvements
                    .push((rule.clone(), path.clone(), permitted, count));
            }
        }
    }
    cmp
}

/// Serialise counts to the canonical baseline JSON — byte-stable (sorted
/// keys, fixed indentation, trailing newline) so the committed file can
/// be compared verbatim against a fresh scan by tests and by humans.
/// `witness` maps rule ids to the witness-path hash recorded for rules
/// whose findings carry taint chains (see
/// [`crate::findings::witness_hashes`]); `exempted` maps rule ids to
/// the number of reasoned exemption comments in force (see
/// [`crate::exemption_counts`]). A rule present only in `exempted`
/// still gets an entry (`total` 0, empty `files`) — a *clean* rule's
/// exemption creep is precisely what the key exists to make
/// reviewable.
pub fn to_json(
    counts: &Counts,
    witness: &BTreeMap<String, String>,
    exempted: &BTreeMap<String, usize>,
) -> String {
    let empty = BTreeMap::new();
    let rules: std::collections::BTreeSet<&String> = counts
        .keys()
        .chain(witness.keys())
        .chain(exempted.keys())
        .collect();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {BASELINE_VERSION},");
    out.push_str("  \"rules\": {");
    if rules.is_empty() {
        out.push_str("}\n}\n");
        return out;
    }
    out.push('\n');
    let n_rules = rules.len();
    for (ri, rule) in rules.iter().enumerate() {
        let files = counts.get(*rule).unwrap_or(&empty);
        let total: usize = files.values().sum();
        let _ = write!(out, "    {}: {{", json::escape(rule));
        out.push('\n');
        let _ = writeln!(out, "      \"total\": {total},");
        if let Some(hash) = witness.get(*rule) {
            let _ = writeln!(out, "      \"witness\": {},", json::escape(hash));
        }
        if let Some(n) = exempted.get(*rule) {
            let _ = writeln!(out, "      \"exempted\": {n},");
        }
        if files.is_empty() {
            out.push_str("      \"files\": {}\n    }");
        } else {
            out.push_str("      \"files\": {\n");
            let n_files = files.len();
            for (fi, (path, count)) in files.iter().enumerate() {
                let _ = write!(out, "        {}: {}", json::escape(path), count);
                out.push_str(if fi + 1 < n_files { ",\n" } else { "\n" });
            }
            out.push_str("      }\n    }");
        }
        out.push_str(if ri + 1 < n_rules { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Parse one rule's file→count map out of a JSON object.
fn files_from_obj(
    rule: &str,
    files: &BTreeMap<String, json::Value>,
) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (path, count) in files {
        let count = count
            .as_int()
            .ok_or_else(|| format!("count for `{rule}` / `{path}` must be an integer"))?;
        out.insert(path.clone(), count as usize);
    }
    Ok(out)
}

/// Parse baseline JSON back into counts. Accepts schema v4 only
/// (per-rule `{total, witness?, exempted?, files}` with the total
/// cross-checked). Witness hash and exempted count are validated for
/// type but not returned — the gate is count-based. Unknown keys or
/// versions are an error; a corrupt ratchet must not silently pass.
pub fn from_json(src: &str) -> Result<Counts, String> {
    let v = json::parse(src)?;
    let obj = v.as_obj().ok_or("baseline root must be an object")?;
    let version = obj
        .get("version")
        .and_then(|v| v.as_int())
        .ok_or("baseline missing integer `version`")?;
    if version != BASELINE_VERSION {
        return Err(format!(
            "baseline version {version} unsupported (expected {BASELINE_VERSION}); regenerate with --write-baseline"
        ));
    }
    for key in obj.keys() {
        if key != "version" && key != "rules" {
            return Err(format!("unexpected baseline key `{key}`"));
        }
    }
    let rules = obj
        .get("rules")
        .and_then(|v| v.as_obj())
        .ok_or("baseline missing object `rules`")?;
    let mut counts: Counts = BTreeMap::new();
    for (rule, entry) in rules {
        let entry = entry
            .as_obj()
            .ok_or_else(|| format!("rule `{rule}` must be an object"))?;
        for key in entry.keys() {
            if !matches!(key.as_str(), "total" | "files" | "witness" | "exempted") {
                return Err(format!("unexpected key `{key}` under rule `{rule}`"));
            }
        }
        if let Some(w) = entry.get("witness") {
            if !matches!(w, json::Value::Str(_)) {
                return Err(format!("witness for rule `{rule}` must be a string"));
            }
        }
        if let Some(e) = entry.get("exempted") {
            if e.as_int().is_none() {
                return Err(format!("exempted for rule `{rule}` must be an integer"));
            }
        }
        let total = entry
            .get("total")
            .and_then(|v| v.as_int())
            .ok_or_else(|| format!("rule `{rule}` missing integer `total`"))?;
        let files = entry
            .get("files")
            .and_then(|v| v.as_obj())
            .ok_or_else(|| format!("rule `{rule}` missing object `files`"))?;
        let files = files_from_obj(rule, files)?;
        let sum: usize = files.values().sum();
        if sum as u64 != total {
            return Err(format!(
                "rule `{rule}`: total {total} does not match the file sum {sum}; \
                 regenerate with --write-baseline"
            ));
        }
        // Exempted-only entries (total 0, no files) carry no ratchet
        // information — the count map stays findings-only.
        if !files.is_empty() {
            counts.insert(rule.clone(), files);
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str) -> Finding {
        Finding::new(rule, path, 1, "m")
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        let mut counts: Counts = BTreeMap::new();
        counts
            .entry("no-panic".into())
            .or_default()
            .insert("crates/a/src/lib.rs".into(), 3);
        counts
            .entry("float-eq".into())
            .or_default()
            .insert("crates/b/src/x.rs".into(), 1);
        let js = to_json(&counts, &BTreeMap::new(), &BTreeMap::new());
        let parsed = from_json(&js).unwrap();
        assert_eq!(parsed, counts);
        assert_eq!(
            to_json(&parsed, &BTreeMap::new(), &BTreeMap::new()),
            js,
            "serialisation must be canonical"
        );
    }

    #[test]
    fn gate_passes_at_or_below_baseline() {
        let findings = vec![finding("no-panic", "a.rs")];
        let baseline = from_json(
            "{\n  \"version\": 4,\n  \"rules\": {\n    \"no-panic\": {\n      \"total\": 2,\n      \"files\": {\n        \"a.rs\": 2\n      }\n    }\n  }\n}\n",
        )
        .unwrap();
        let cmp = compare(&findings, &baseline);
        assert!(cmp.is_pass());
        assert_eq!(cmp.improvements.len(), 1, "1 < 2 prompts a re-ratchet");
    }

    #[test]
    fn gate_fails_on_rise_or_new_pair() {
        let findings = vec![
            finding("no-panic", "a.rs"),
            finding("no-panic", "a.rs"),
            finding("no-index", "new.rs"),
        ];
        let mut baseline: Counts = BTreeMap::new();
        baseline
            .entry("no-panic".into())
            .or_default()
            .insert("a.rs".into(), 1);
        let cmp = compare(&findings, &baseline);
        assert_eq!(cmp.regressions.len(), 2);
        assert!(!cmp.is_pass());
    }

    #[test]
    fn rejects_wrong_version_and_junk_keys() {
        assert!(from_json("{\"version\": 9, \"rules\": {}}").is_err());
        assert!(from_json("{\"version\": 4, \"rules\": {}}").is_ok());
        assert!(from_json("{\"version\": 4, \"rules\": {}, \"extra\": {}}").is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn v4_serialises_totals_witness_hashes_and_exempted_counts() {
        let mut counts: Counts = BTreeMap::new();
        let entry = counts.entry("prune-only".into()).or_default();
        entry.insert("a.rs".into(), 3);
        entry.insert("b.rs".into(), 4);
        let mut witness = BTreeMap::new();
        witness.insert("prune-only".to_string(), "00ff00ff00ff00ff".to_string());
        let mut exempted = BTreeMap::new();
        exempted.insert("prune-only".to_string(), 5usize);
        // A certified-clean rule: exemptions in force, zero findings.
        exempted.insert("no-panic-reachable".to_string(), 12usize);
        let js = to_json(&counts, &witness, &exempted);
        assert!(js.contains("\"version\": 4"), "{js}");
        assert!(js.contains("\"total\": 7"), "{js}");
        assert!(js.contains("\"witness\": \"00ff00ff00ff00ff\""), "{js}");
        assert!(js.contains("\"exempted\": 5"), "{js}");
        // The clean rule still appears, with an empty file map…
        assert!(js.contains("\"no-panic-reachable\""), "{js}");
        assert!(js.contains("\"exempted\": 12"), "{js}");
        assert!(js.contains("\"files\": {}"), "{js}");
        // …but contributes nothing to the ratchet counts.
        assert_eq!(from_json(&js).unwrap(), counts);
    }

    #[test]
    fn only_v4_baselines_parse() {
        // v4 accepts both informational keys; a non-integer exempted is rejected.
        let v4 = "{\n  \"version\": 4,\n  \"rules\": {\n    \"no-panic\": {\n      \"total\": 2,\n      \"witness\": \"x\",\n      \"exempted\": 1,\n      \"files\": {\n        \"a.rs\": 2\n      }\n    }\n  }\n}\n";
        let counts = from_json(v4).unwrap();
        assert_eq!(counts.get("no-panic").and_then(|m| m.get("a.rs")), Some(&2));
        let v4_bad = v4.replace("\"exempted\": 1,", "\"exempted\": \"one\",");
        assert!(from_json(&v4_bad).is_err());
        // An older schema is refused with the regenerate hint.
        let v3 = v4
            .replace("\"version\": 4", "\"version\": 3")
            .replace("\n      \"exempted\": 1,", "");
        let err = from_json(&v3).unwrap_err();
        assert!(
            err.contains("unsupported") && err.contains("--write-baseline"),
            "{err}"
        );
    }

    #[test]
    fn total_mismatch_is_rejected() {
        let lying = "{\n  \"version\": 4,\n  \"rules\": {\n    \"no-panic\": {\n      \"total\": 99,\n      \"files\": {\n        \"a.rs\": 2\n      }\n    }\n  }\n}\n";
        let err = from_json(lying).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn empty_baseline_means_zero_everywhere() {
        let cmp = compare(&[finding("no-panic", "a.rs")], &Counts::new());
        assert_eq!(
            cmp.regressions,
            vec![("no-panic".into(), "a.rs".into(), 0, 1)]
        );
    }
}
