//! Environment-variable configuration with *loud* fallbacks.
//!
//! The runtime knobs (the `ROTIND_SERVE_*` family) used to fall back
//! to their defaults silently on unparseable or zero values — an
//! operator typo like `ROTIND_SERVE_WORKERS=fourx` would quietly run
//! the default worker count and skew every measurement taken under
//! it. [`env_positive_usize`] keeps the fallback (a bad
//! knob must never abort a serving process) but emits a one-line
//! stderr warning naming the variable and the rejected value, once
//! per variable per process.
//!
//! The parse/fallback decision lives in the pure [`resolve`] so tests
//! can assert both the fallback value and the exact warning text
//! without mutating process environment or capturing stderr.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// Variables already warned about, so a knob read in a per-query path
/// warns once instead of flooding stderr.
static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();

/// Decide the effective value for a positive-integer knob.
///
/// Returns the parsed value, or `default` plus the warning line that
/// should reach stderr. `None` (unset) is a silent fallback — absence
/// is the normal case, not an operator error. Set-but-invalid (empty,
/// unparseable, or zero) falls back loudly.
pub fn resolve(name: &str, raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    let Some(raw) = raw else {
        return (default, None);
    };
    match raw.trim().parse::<usize>() {
        Ok(v) if v >= 1 => (v, None),
        Ok(_) => (
            default,
            Some(format!(
                "rotind: ignoring {name}={raw:?} (must be >= 1); using default {default}"
            )),
        ),
        Err(_) => (
            default,
            Some(format!(
                "rotind: ignoring {name}={raw:?} (not a positive integer); using default {default}"
            )),
        ),
    }
}

/// Read the environment knob `name` as a positive integer, falling
/// back to `default` with a one-line stderr warning when the variable
/// is set to something unusable. Unset is a silent fallback.
pub fn env_positive_usize(name: &str, default: usize) -> usize {
    let raw = std::env::var(name).ok();
    let (value, warning) = resolve(name, raw.as_deref(), default);
    if let Some(warning) = warning {
        let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
        let fresh = warned
            .lock()
            .map(|mut set| set.insert(name.to_string()))
            .unwrap_or(true);
        if fresh {
            // Operator-facing diagnostic: the whole point of this
            // module is that the fallback is *not* silent.
            // rotind-lint: allow(no-print)
            eprintln!("{warning}");
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_falls_back_silently() {
        assert_eq!(resolve("ROTIND_SERVE_WORKERS", None, 4), (4, None));
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(resolve("ROTIND_SERVE_WORKERS", Some("8"), 4), (8, None));
        assert_eq!(resolve("ROTIND_SERVE_WORKERS", Some(" 2 "), 4), (2, None));
        assert_eq!(resolve("ROTIND_SERVE_WORKERS", Some("1"), 4), (1, None));
    }

    #[test]
    fn zero_falls_back_with_warning() {
        let (v, w) = resolve("ROTIND_SERVE_QUEUE", Some("0"), 4);
        assert_eq!(v, 4);
        let w = w.expect("zero must warn");
        assert!(
            w.contains("ROTIND_SERVE_QUEUE"),
            "warning names the variable"
        );
        assert!(w.contains("\"0\""), "warning names the bad value");
        assert!(w.contains("default 4"), "warning names the fallback");
    }

    #[test]
    fn garbage_falls_back_with_warning() {
        let (v, w) = resolve("ROTIND_SERVE_WORKERS", Some("fourx"), 2);
        assert_eq!(v, 2);
        let w = w.expect("garbage must warn");
        assert!(w.contains("ROTIND_SERVE_WORKERS"));
        assert!(w.contains("\"fourx\""));
        assert!(w.contains("not a positive integer"));
    }

    #[test]
    fn negative_and_empty_fall_back() {
        assert_eq!(resolve("X", Some("-3"), 7).0, 7);
        assert_eq!(resolve("X", Some(""), 7).0, 7);
        assert!(resolve("X", Some("-3"), 7).1.is_some());
        assert!(resolve("X", Some(""), 7).1.is_some());
    }

    #[test]
    fn env_reader_uses_default_for_unset() {
        // Reading a variable that is never set exercises the wrapper
        // without mutating process environment (tests run threaded).
        assert_eq!(env_positive_usize("ROTIND_TEST_NEVER_SET_KNOB", 3), 3);
    }
}
