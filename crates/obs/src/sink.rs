//! Trace sinks: JSONL event logs and Chrome trace-event files.
//!
//! Sink selection follows the `HPAC_THREADS` pattern: a strictly-validated
//! environment variable (`HPAC_TRACE=<path>[:jsonl|chrome]`) parsed once at
//! process start; malformed values are a hard error, never silently
//! ignored. A flush drains every worker ring and writes the events under
//! the sink lock, so two flushes never interleave their lines.

use crate::event::{resolve, OwnedEvent, Payload};
use crate::ring::{all_rings, drain_events};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line; greppable, streams.
    Jsonl,
    /// Chrome trace-event JSON array, loadable in `chrome://tracing` /
    /// `ui.perfetto.dev`.
    Chrome,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkConfig {
    pub path: PathBuf,
    pub format: TraceFormat,
}

/// Parse an `HPAC_TRACE` value: `<path>[:jsonl|chrome]`.
///
/// - empty / whitespace-only → `None` (tracing stays off);
/// - a `:` suffix must name a known format — anything else is an error, so
///   typos fail loudly instead of silently writing the wrong format;
/// - without a suffix, a `.json` extension selects Chrome (the format
///   `chrome://tracing` expects of `.json` files), anything else JSONL.
pub fn parse_hpac_trace(raw: &str) -> Result<Option<SinkConfig>, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(None);
    }
    let (path, format) = match raw.rsplit_once(':') {
        Some((path, suffix)) => {
            let format = match suffix {
                "jsonl" => TraceFormat::Jsonl,
                "chrome" => TraceFormat::Chrome,
                other => {
                    return Err(format!(
                        "HPAC_TRACE format suffix must be `jsonl` or `chrome`, got `{other}` \
                         (expected `<path>[:jsonl|chrome]`)"
                    ))
                }
            };
            (path.trim(), format)
        }
        None => {
            let format = if raw.ends_with(".json") {
                TraceFormat::Chrome
            } else {
                TraceFormat::Jsonl
            };
            (raw, format)
        }
    };
    if path.is_empty() {
        return Err("HPAC_TRACE has a format suffix but an empty path".to_string());
    }
    Ok(Some(SinkConfig {
        path: PathBuf::from(path),
        format,
    }))
}

pub(crate) struct Sink {
    cfg: SinkConfig,
    file: std::fs::File,
    /// Chrome only: whether any event has been written (comma placement).
    wrote_event: bool,
    finished: bool,
}

static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();

/// The sink slot, locked. Its fields change only after the write they
/// describe succeeded, so the sink is valid at every step and a lock
/// poisoned by a panicking holder is safe to recover: a panic while tracing
/// must not end the process's tracing.
pub(crate) fn sink() -> MutexGuard<'static, Option<Sink>> {
    SINK.get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Open the trace file and install it as the process sink. A Chrome sink
/// starts its JSON array immediately: even if the process aborts before
/// [`finish`], the unterminated array is still loadable by
/// `chrome://tracing`.
pub fn install_sink(cfg: SinkConfig) -> std::io::Result<()> {
    let mut file = std::fs::File::create(&cfg.path)?;
    if cfg.format == TraceFormat::Chrome {
        file.write_all(b"[\n")?;
    }
    *sink() = Some(Sink {
        cfg,
        file,
        wrote_event: false,
        finished: false,
    });
    Ok(())
}

/// The installed sink's configuration, if any.
pub fn sink_config() -> Option<SinkConfig> {
    sink().as_ref().map(|s| s.cfg.clone())
}

fn escape_into(out: &mut String, s: &str) {
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
}

fn write_args(out: &mut String, e: &OwnedEvent) {
    let (ka, kb, a_interned) = e.payload.arg_keys();
    out.push_str("{\"");
    out.push_str(ka);
    out.push_str("\": ");
    if a_interned {
        out.push('"');
        match resolve(e.a) {
            Some(s) => escape_into(out, &s),
            None => {
                let _ = write!(out, "#{}", e.a);
            }
        }
        out.push('"');
    } else {
        let _ = write!(out, "{}", e.a);
    }
    let _ = write!(out, ", \"{}\": {}}}", kb, e.b);
}

fn render_jsonl(e: &OwnedEvent) -> String {
    let mut line = String::with_capacity(160);
    let kind = match e.payload {
        Payload::Span(_) => "span",
        Payload::Instant(_) => "instant",
    };
    let _ = write!(
        line,
        "{{\"type\": \"{kind}\", \"name\": \"{}\", \"worker\": {}, \"seq\": {}, \
         \"t0_ns\": {}, \"t1_ns\": {}, \"args\": ",
        e.payload.name(),
        e.worker,
        e.seq,
        e.t0_ns,
        e.t1_ns
    );
    write_args(&mut line, e);
    line.push('}');
    line
}

fn render_chrome(e: &OwnedEvent) -> String {
    let mut line = String::with_capacity(160);
    let ts = e.t0_ns as f64 / 1e3;
    match e.payload {
        Payload::Span(_) => {
            let dur = e.t1_ns.saturating_sub(e.t0_ns) as f64 / 1e3;
            let _ = write!(
                line,
                "{{\"name\": \"{}\", \"cat\": \"hpac\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"args\": ",
                e.payload.name(),
                e.worker
            );
        }
        Payload::Instant(_) => {
            let _ = write!(
                line,
                "{{\"name\": \"{}\", \"cat\": \"hpac\", \"ph\": \"i\", \"s\": \"t\", \
                 \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \"args\": ",
                e.payload.name(),
                e.worker
            );
        }
    }
    write_args(&mut line, e);
    line.push('}');
    line
}

/// Outcome of a [`flush`]: how many events went to the sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushStats {
    pub events: u64,
}

/// Drain all rings and append the events to the installed sink. A no-op
/// returning zero events when no sink is installed (counters and
/// [`crate::snapshot`] still work without one). Call at quiescent points —
/// between sweeps, after a tune — not from inside the hot path.
pub fn flush() -> std::io::Result<FlushStats> {
    let mut guard = sink();
    let Some(s) = guard.as_mut() else {
        return Ok(FlushStats::default());
    };
    if s.finished {
        return Ok(FlushStats::default());
    }
    let events = drain_events();
    let mut buf = String::with_capacity(events.len() * 160 + 16);
    let mut wrote_event = s.wrote_event;
    for e in &events {
        match s.cfg.format {
            TraceFormat::Jsonl => {
                buf.push_str(&render_jsonl(e));
                buf.push('\n');
            }
            TraceFormat::Chrome => {
                if wrote_event {
                    buf.push_str(",\n");
                }
                buf.push_str(&render_chrome(e));
                wrote_event = true;
            }
        }
    }
    s.file.write_all(buf.as_bytes())?;
    s.wrote_event = wrote_event;
    s.file.flush()?;
    Ok(FlushStats {
        events: events.len() as u64,
    })
}

/// Final flush, then (for Chrome) append thread-name metadata and close the
/// JSON array. The sink stays installed but ignores further flushes.
pub fn finish() -> std::io::Result<FlushStats> {
    let stats = flush()?;
    let mut guard = sink();
    let Some(s) = guard.as_mut() else {
        return Ok(stats);
    };
    if s.finished {
        return Ok(stats);
    }
    if s.cfg.format == TraceFormat::Chrome {
        let mut buf = String::new();
        let mut wrote_event = s.wrote_event;
        for r in all_rings() {
            if wrote_event {
                buf.push_str(",\n");
            }
            let name = if r.pool_worker {
                format!("hpac-pool-{}", r.worker)
            } else {
                format!("submitter-{}", r.worker)
            };
            let _ = write!(
                buf,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"{name}\"}}}}",
                r.worker
            );
            wrote_event = true;
        }
        buf.push_str("\n]\n");
        s.file.write_all(buf.as_bytes())?;
        s.wrote_event = wrote_event;
    }
    s.file.flush()?;
    s.finished = true;
    Ok(stats)
}
