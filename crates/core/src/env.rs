//! Strictly-validated `HPAC_*` environment variables — one helper, one
//! behavior.
//!
//! Every knob the stack reads from the environment goes through
//! [`strict_var`]: unset means "use the default", an empty or
//! whitespace-only value also means "use the default" (so `HPAC_X= cmd`
//! and `unset HPAC_X` behave the same), and a malformed value **aborts
//! with a clear error** rather than silently falling back — a typo in
//! `HPAC_THREADS` must not quietly change the batch width, and a typo in
//! `HPAC_TRACE` must not quietly drop a bench run's trace.
//!
//! The variables routed through here:
//!
//! | variable             | parser                                   | consumer |
//! |----------------------|------------------------------------------|----------|
//! | `HPAC_THREADS`       | [`crate::exec::engine::parse_hpac_threads`] | the `ExecEngine` batch width |
//! | `HPAC_TRACE`         | `hpac_obs::parse_hpac_trace` (via [`init_trace_from_env`]) | trace sink selection |
//! | `HPAC_TUNER_CACHE`   | [`parse_dir`]                            | the tuner's persistent cache directory |
//!
//! Domain parsers stay in the crate that owns the knob; this module owns
//! only the read-validate-abort glue, so a new variable gets the strict
//! behavior for free by writing one pure `&str -> Result<Option<T>, String>`
//! function.

/// Read `name` from the environment and validate it with `parse`.
///
/// * unset → `None`;
/// * non-unicode → abort (the value cannot be inspected, let alone parsed);
/// * `parse` returning `Ok(None)` (by convention: empty / whitespace-only)
///   → `None`;
/// * `parse` returning `Err(msg)` → abort with `msg`, naming the variable
///   and echoing the offending value.
pub fn strict_var<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<Option<T>, String>,
) -> Option<T> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{name} is not valid unicode: {e}"),
        Ok(raw) => match parse(&raw) {
            Ok(v) => v,
            Err(msg) => panic!("invalid {name} value {raw:?}: {msg}"),
        },
    }
}

/// Parser for directory-valued variables (`HPAC_TUNER_CACHE`): any
/// non-empty path is accepted; empty / whitespace-only means "unset".
pub fn parse_dir(raw: &str) -> Result<Option<std::path::PathBuf>, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    Ok(Some(std::path::PathBuf::from(trimmed)))
}

/// Read `HPAC_TRACE` and, when set, install the sink and enable tracing.
///
/// The strictness contract is [`strict_var`]'s: unset or empty means
/// tracing stays off; a malformed value or an unwritable path aborts (a
/// bench run that silently drops its trace is worse than one that fails
/// fast). Bins call this once at startup.
pub fn init_trace_from_env() {
    if let Some(cfg) = strict_var("HPAC_TRACE", hpac_obs::parse_hpac_trace) {
        let path = cfg.path.clone();
        hpac_obs::install_sink(cfg)
            .unwrap_or_else(|e| panic!("HPAC_TRACE: cannot open {}: {e}", path.display()));
        hpac_obs::set_enabled(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_var_unset_is_none() {
        assert_eq!(
            strict_var("HPAC_TEST_UNSET_NEVER_EXPORTED", |_| Ok(Some(1u32))),
            None
        );
    }

    #[test]
    fn strict_var_applies_parser() {
        std::env::set_var("HPAC_TEST_STRICT_OK", "17");
        let v = strict_var("HPAC_TEST_STRICT_OK", |s| {
            s.trim().parse::<u32>().map(Some).map_err(|e| e.to_string())
        });
        assert_eq!(v, Some(17));
        std::env::remove_var("HPAC_TEST_STRICT_OK");
    }

    #[test]
    #[should_panic(expected = "invalid HPAC_TEST_STRICT_BAD value")]
    fn strict_var_aborts_on_parse_error() {
        std::env::set_var("HPAC_TEST_STRICT_BAD", "nope");
        let _ = strict_var("HPAC_TEST_STRICT_BAD", |s| {
            s.parse::<u32>()
                .map(Some)
                .map_err(|_| format!("expected an integer, got {s:?}"))
        });
    }

    #[test]
    fn parse_dir_empty_is_unset() {
        assert_eq!(parse_dir("").unwrap(), None);
        assert_eq!(parse_dir("   ").unwrap(), None);
        assert_eq!(
            parse_dir("/tmp/cache").unwrap(),
            Some(std::path::PathBuf::from("/tmp/cache"))
        );
    }
}
