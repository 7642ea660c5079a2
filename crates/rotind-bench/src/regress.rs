//! Noise-aware performance-regression gate behind `cargo run -p
//! rotind-bench --bin regress`.
//!
//! The gate compares a fresh measurement of a small deterministic
//! workload suite against a committed baseline
//! (`results/bench_baseline.json`) and exits nonzero when the current
//! build regresses. Two thresholds with very different characters:
//!
//! * **`num_steps`** — the paper's §5.3 machine-independent cost model.
//!   Step counts are exactly reproducible for a fixed workload, so any
//!   increase beyond [`STEPS_TOLERANCE`] (a 2% allowance for benign
//!   accounting drift) fails the gate *on every machine*, including CI
//!   hosts that never produced the baseline.
//! * **wall-clock** — noisy and machine-dependent, so the median-of-N
//!   latency is compared at the loose [`WALL_TOLERANCE`] and *only*
//!   when the baseline was captured on the same host (matching
//!   [`hostname`]). A baseline checked in from a developer machine
//!   never causes CI wall-clock flakes. Each repeat's time is scaled
//!   to the host's nominal speed by [`crate::yardstick`], so a shared
//!   host that runs slower for a while does not read as a regression.
//!
//! `ROTIND_REGRESS_INJECT=<factor>` multiplies the current run's
//! measurements before comparison — a self-test hook: injecting `1.2`
//! must trip the step gate, proving the gate can fail.
//!
//! The workspace vendors no JSON library, so this module carries a
//! minimal recursive-descent parser for the baseline schema (the same
//! hand-rolled-writer idiom as `bin/kernels.rs`).

use std::fmt::Write as _;

/// Maximum tolerated relative increase in `num_steps` (always enforced).
pub const STEPS_TOLERANCE: f64 = 0.02;
/// Maximum tolerated relative increase in median wall-clock (enforced
/// only when the baseline host matches the current host).
pub const WALL_TOLERANCE: f64 = 0.30;

/// One workload's measured cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Stable workload name (the join key against the baseline).
    pub name: String,
    /// Total `num_steps` over the workload's queries.
    pub steps: u64,
    /// Median wall-clock nanoseconds over the workload's repeats, each
    /// scaled to the nominal host speed by [`crate::yardstick`].
    pub wall_ns: u64,
}

/// A committed (or freshly measured) set of workload costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Free-text capture note (machine, date, repeat count).
    pub comment: String,
    /// Host the baseline was captured on — wall-clock comparisons are
    /// skipped when it differs from the current [`hostname`].
    pub host: String,
    /// Whether the baseline was captured under `ROTIND_QUICK=1`. Step
    /// totals are scale-dependent, so quick and full baselines are
    /// incomparable.
    pub quick: bool,
    /// Per-workload costs.
    pub entries: Vec<Measurement>,
}

impl Baseline {
    /// Serialise to pretty-printed JSON (schema version 1).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"comment\": {},", json_string(&self.comment));
        let _ = writeln!(out, "  \"host\": {},", json_string(&self.host));
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"steps\": {}, \"wall_ns\": {}}}{}",
                json_string(&e.name),
                e.steps,
                e.wall_ns,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a baseline from JSON text.
    ///
    /// # Errors
    /// Returns a message when the text is not valid JSON or does not
    /// follow the baseline schema.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let value = parse_json(text)?;
        let obj = value
            .as_object()
            .ok_or("baseline: top level must be an object")?;
        let comment = get_str(obj, "comment").unwrap_or_default();
        let host = get_str(obj, "host").ok_or("baseline: missing string field \"host\"")?;
        let quick = get_bool(obj, "quick").ok_or("baseline: missing bool field \"quick\"")?;
        let entries_val = find(obj, "entries").ok_or("baseline: missing field \"entries\"")?;
        let raw = entries_val
            .as_array()
            .ok_or("baseline: \"entries\" must be an array")?;
        let mut entries = Vec::with_capacity(raw.len());
        for item in raw {
            let e = item
                .as_object()
                .ok_or("baseline: entry must be an object")?;
            entries.push(Measurement {
                name: get_str(e, "name").ok_or("baseline entry: missing \"name\"")?,
                steps: get_u64(e, "steps").ok_or("baseline entry: missing \"steps\"")?,
                wall_ns: get_u64(e, "wall_ns").ok_or("baseline entry: missing \"wall_ns\"")?,
            });
        }
        Ok(Baseline {
            comment,
            host,
            quick,
            entries,
        })
    }
}

/// Best-effort machine identity: `HOSTNAME` env var, then
/// `/etc/hostname`, then `"unknown"`. Used to decide whether baseline
/// wall-clock numbers are comparable to this run's.
pub fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return h;
        }
    }
    if let Ok(h) = std::fs::read_to_string("/etc/hostname") {
        let h = h.trim().to_string();
        if !h.is_empty() {
            return h;
        }
    }
    "unknown".to_string()
}

/// The `ROTIND_REGRESS_INJECT` factor (default 1.0).
///
/// # Errors
/// Returns a message when the variable is set but not a positive float.
pub fn inject_factor() -> Result<f64, String> {
    match std::env::var("ROTIND_REGRESS_INJECT") {
        Err(_) => Ok(1.0),
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(f) if f.is_finite() && f > 0.0 => Ok(f),
            _ => Err(format!(
                "ROTIND_REGRESS_INJECT must be a positive float, got {raw:?}"
            )),
        },
    }
}

/// Multiply every measurement by `factor` (steps rounded) — the
/// synthetic-slowdown hook for gate self-tests.
pub fn apply_inject(entries: &mut [Measurement], factor: f64) {
    // 1.0 is the exact "not set" sentinel from `inject_factor`.
    // rotind-lint: allow(float-eq)
    if factor == 1.0 {
        return;
    }
    for e in entries.iter_mut() {
        e.steps = (e.steps as f64 * factor).round() as u64;
        e.wall_ns = (e.wall_ns as f64 * factor).round() as u64;
    }
}

/// Compare `current` against `baseline` and return one message per
/// regression (empty means the gate passes).
///
/// Step totals are gated at [`STEPS_TOLERANCE`] whenever the quick
/// modes match; wall-clock is gated at [`WALL_TOLERANCE`] only when the
/// hosts also match. Entries present on one side but not the other fail
/// the gate — the suite and the baseline must move together
/// (`--update-baseline`).
pub fn compare(baseline: &Baseline, current: &Baseline) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.quick != current.quick {
        failures.push(format!(
            "baseline was captured with quick={} but this run has quick={} — \
             step totals are incomparable; re-capture with --update-baseline",
            baseline.quick, current.quick
        ));
        return failures;
    }
    let same_host = baseline.host == current.host;
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|c| c.name == base.name) else {
            failures.push(format!(
                "workload {:?} is in the baseline but was not measured — \
                 update the suite and the baseline together",
                base.name
            ));
            continue;
        };
        if base.steps > 0 {
            let rel = cur.steps as f64 / base.steps as f64 - 1.0;
            if rel > STEPS_TOLERANCE {
                failures.push(format!(
                    "{}: steps regressed {} -> {} (+{:.1}% > {:.0}% tolerance)",
                    base.name,
                    base.steps,
                    cur.steps,
                    rel * 100.0,
                    STEPS_TOLERANCE * 100.0
                ));
            }
        }
        if same_host && base.wall_ns > 0 {
            let rel = cur.wall_ns as f64 / base.wall_ns as f64 - 1.0;
            if rel > WALL_TOLERANCE {
                failures.push(format!(
                    "{}: median wall-clock regressed {:.3}ms -> {:.3}ms \
                     (+{:.1}% > {:.0}% tolerance, same host {:?})",
                    base.name,
                    base.wall_ns as f64 / 1e6,
                    cur.wall_ns as f64 / 1e6,
                    rel * 100.0,
                    WALL_TOLERANCE * 100.0,
                    baseline.host
                ));
            }
        }
    }
    for cur in &current.entries {
        if !baseline.entries.iter().any(|b| b.name == cur.name) {
            failures.push(format!(
                "workload {:?} has no baseline entry — re-run with --update-baseline",
                cur.name
            ));
        }
    }
    failures
}

// ---------------------------------------------------------------------
// Minimal JSON (the workspace vendors no serializer; see module docs)
// ---------------------------------------------------------------------

/// Escape a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
}

fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(obj: &[(String, Json)], key: &str) -> Option<String> {
    match find(obj, key) {
        Some(Json::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_bool(obj: &[(String, Json)], key: &str) -> Option<bool> {
    match find(obj, key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Option<u64> {
    match find(obj, key) {
        // Counts in this schema stay far below 2^53, where f64 is exact;
        // `fract() == 0.0` is the IEEE-exact integrality test.
        // rotind-lint: allow(float-eq)
        Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("json: trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "json: expected {:?} at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        // `pos <= bytes.len()` always: it only advances past peeked bytes.
        // rotind-lint: allow(no-index)
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("json: invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("json: unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("json: expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("json: expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("json: unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "json: unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "json: truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "json: bad \\u escape".to_string())?;
                            // Surrogate pairs never appear in this
                            // schema's ASCII-comment strings; reject
                            // rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| "json: \\u escape is not a scalar".to_string())?;
                            out.push(c);
                            self.pos = end;
                        }
                        other => {
                            return Err(format!("json: unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid; `pos <= len` by peek-advance).
                    // rotind-lint: allow(no-index)
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "json: bad utf-8")?;
                    let c = s.chars().next().ok_or("json: unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // `start <= pos <= len`: both only advance past peeked bytes.
        // rotind-lint: allow(no-index)
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "json: bad number".to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("json: invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, steps: u64, wall_ns: u64) -> Measurement {
        Measurement {
            name: name.to_string(),
            steps,
            wall_ns,
        }
    }

    fn sample() -> Baseline {
        Baseline {
            comment: "captured for tests \"quoted\" ok".to_string(),
            host: "hostA".to_string(),
            quick: true,
            entries: vec![
                entry("euclid_nearest", 1_000_000, 5_000_000),
                entry("dtw_nearest", 750_000, 3_700_000),
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let b = sample();
        let text = b.to_json();
        assert_eq!(Baseline::from_json(&text).unwrap(), b);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"host\": }",
            "[1, 2,]nope",
            "{\"entries\": [{]}",
            "{\"a\": 1} trailing",
        ] {
            assert!(Baseline::from_json(bad).is_err(), "accepted {bad:?}");
        }
        // Valid JSON, wrong schema.
        assert!(Baseline::from_json("[1, 2]").is_err());
        assert!(Baseline::from_json("{\"host\": \"h\"}").is_err());
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let b = sample();
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn injected_step_slowdown_fails_the_gate() {
        let base = sample();
        let mut cur = base.clone();
        apply_inject(&mut cur.entries, 1.2);
        let fails = compare(&base, &cur);
        assert!(
            fails.iter().any(|f| f.contains("steps regressed")),
            "20% step inflation must trip the gate: {fails:?}"
        );
    }

    #[test]
    fn small_step_drift_is_tolerated() {
        let base = sample();
        let mut cur = base.clone();
        cur.entries[0].steps = 1_010_000; // +1% < 2% tolerance
        assert!(compare(&base, &cur).is_empty());
    }

    #[test]
    fn wall_clock_gated_only_on_the_same_host() {
        let base = sample();
        let mut cur = base.clone();
        for e in &mut cur.entries {
            e.wall_ns = (e.wall_ns as f64 * 1.5) as u64;
        }
        assert!(
            !compare(&base, &cur).is_empty(),
            "+50% wall on the same host must fail"
        );
        cur.host = "hostB".to_string();
        assert!(
            compare(&base, &cur).is_empty(),
            "a foreign-host baseline never gates wall-clock"
        );
    }

    #[test]
    fn quick_mode_mismatch_fails_loudly() {
        let base = sample();
        let mut cur = base.clone();
        cur.quick = false;
        let fails = compare(&base, &cur);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("incomparable"));
    }

    #[test]
    fn suite_and_baseline_must_move_together() {
        let base = sample();
        let mut cur = base.clone();
        cur.entries.remove(1);
        cur.entries.push(entry("brand_new", 1, 1));
        let fails = compare(&base, &cur);
        assert!(fails.iter().any(|f| f.contains("not measured")));
        assert!(fails.iter().any(|f| f.contains("no baseline entry")));
    }

    #[test]
    fn inject_factor_validates_the_env() {
        std::env::remove_var("ROTIND_REGRESS_INJECT");
        assert_eq!(inject_factor().unwrap(), 1.0);
        std::env::set_var("ROTIND_REGRESS_INJECT", "1.2");
        assert_eq!(inject_factor().unwrap(), 1.2);
        std::env::set_var("ROTIND_REGRESS_INJECT", "zero");
        assert!(inject_factor().is_err());
        std::env::remove_var("ROTIND_REGRESS_INJECT");
    }
}
