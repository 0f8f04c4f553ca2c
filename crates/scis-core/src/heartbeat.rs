//! Training heartbeat: a JSONL progress stream for long runs.
//!
//! [`HeartbeatHook`] is the observability sibling of
//! [`RunDeadline`](scis_tensor::RunDeadline): a cloneable handle polled
//! cooperatively at epoch, batch, and shard boundaries. An `off` hook is a
//! single `Option` branch on the hot path; an attached hook appends one
//! JSON line per emission to its writer — machine-tailable progress
//! (`scis train --progress -`) without a terminal UI.
//!
//! **Determinism contract** — the hook only ever *reads* the wall clock
//! and process stats, and only to decide whether and what to emit; nothing
//! it computes flows back into the model, the RNG streams, or telemetry.
//! The imputed output of a run is bit-identical with the hook attached or
//! absent (enforced by `tests/heartbeat.rs`).
//!
//! Emission is gated by a wall-clock interval: `interval = 0` (the
//! default) emits at every *coarse* boundary (epoch end, shard imputed)
//! and stays silent at fine-grained batch boundaries; a positive interval
//! additionally surfaces mid-epoch progress once the interval has elapsed,
//! while coarse boundaries inside the window are skipped — long quiet
//! phases and chatty tiny epochs both stay readable.

use scis_telemetry::{json_escape, json_f64};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A progress snapshot handed to the hook at a boundary. All fields are
/// computed by the caller from state it already tracks — building one
/// never touches the clock or the RNG.
#[derive(Debug, Clone, Copy)]
pub struct Progress<'a> {
    /// Pipeline phase name (`initial`, `calibration`, `retrain`, `impute`).
    pub phase: &'a str,
    /// Completed epochs in this phase (rolled-back attempts don't count).
    pub epoch: u64,
    /// Configured epochs for this phase.
    pub epochs: u64,
    /// Shards finished (streamed impute; 0 during training).
    pub shard: u64,
    /// Total shards (streamed impute; 0 during training).
    pub shards: u64,
    /// Rows processed so far in this phase.
    pub rows_done: u64,
    /// Total rows this phase will process (0 when unknown).
    pub rows_total: u64,
    /// Guard rollbacks so far in the run.
    pub rollbacks: u64,
    /// Warm-start hit rate of the last completed epoch (0 when unknown).
    pub warm_hit_rate: f64,
}

struct HeartbeatInner {
    writer: Mutex<Box<dyn Write + Send>>,
    interval: Duration,
    start: Instant,
    /// Nanos-since-start of the last emission, `u64::MAX` = never.
    last_emit: AtomicU64,
    seq: AtomicU64,
    /// Instant + rows_done of the previous emission, for the rows/s rate.
    prev: Mutex<Option<(Instant, u64)>>,
}

/// Cloneable handle to the heartbeat stream. `off` handles are free;
/// attached handles share one writer across every clone (the pipeline, the
/// trainer, and the streamed impute loop all hold clones).
#[derive(Clone, Default)]
pub struct HeartbeatHook(Option<Arc<HeartbeatInner>>);

impl std::fmt::Debug for HeartbeatHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "HeartbeatHook::off"),
            Some(inner) => write!(f, "HeartbeatHook(interval={:?})", inner.interval),
        }
    }
}

impl HeartbeatHook {
    /// A disabled hook: polling is one `Option` branch, no allocation.
    pub fn off() -> Self {
        HeartbeatHook(None)
    }

    /// Attaches a JSONL writer. `interval` gates emission (see module
    /// docs); `Duration::ZERO` emits at every coarse boundary.
    pub fn to_writer(writer: Box<dyn Write + Send>, interval: Duration) -> Self {
        HeartbeatHook(Some(Arc::new(HeartbeatInner {
            writer: Mutex::new(writer),
            interval,
            start: Instant::now(),
            last_emit: AtomicU64::new(u64::MAX),
            seq: AtomicU64::new(0),
            prev: Mutex::new(None),
        })))
    }

    /// True when a writer is attached.
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Coarse boundary (epoch end, shard imputed): emits unless a positive
    /// interval is configured and has not elapsed since the last emission.
    pub fn poll(&self, p: &Progress<'_>) {
        let Some(inner) = &self.0 else { return };
        let now = Instant::now();
        if inner.interval > Duration::ZERO && !due(inner, now) {
            return;
        }
        emit(inner, now, p);
    }

    /// Fine boundary (batch end): emits only when a positive interval is
    /// configured *and* has elapsed — `interval = 0` keeps batch
    /// boundaries silent so tiny-epoch runs emit one line per epoch.
    pub fn poll_fine(&self, p: &Progress<'_>) {
        let Some(inner) = &self.0 else { return };
        if inner.interval.is_zero() {
            return;
        }
        let now = Instant::now();
        if due(inner, now) {
            emit(inner, now, p);
        }
    }
}

fn due(inner: &HeartbeatInner, now: Instant) -> bool {
    let last = inner.last_emit.load(Ordering::Acquire);
    if last == u64::MAX {
        return true;
    }
    let now_ns = now.duration_since(inner.start).as_nanos() as u64;
    now_ns.saturating_sub(last) >= inner.interval.as_nanos() as u64
}

fn emit(inner: &HeartbeatInner, now: Instant, p: &Progress<'_>) {
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    let elapsed = now.duration_since(inner.start).as_secs_f64();
    // rows/s over the window since the previous emission — a recent-rate
    // gauge, not a lifetime average, so stalls show up immediately
    let rows_per_sec = {
        let mut prev = inner.prev.lock().unwrap_or_else(|p| p.into_inner());
        let rate = match *prev {
            Some((t, rows)) => {
                let dt = now.duration_since(t).as_secs_f64();
                if dt > 0.0 && p.rows_done >= rows {
                    (p.rows_done - rows) as f64 / dt
                } else {
                    0.0
                }
            }
            None => {
                if elapsed > 0.0 {
                    p.rows_done as f64 / elapsed
                } else {
                    0.0
                }
            }
        };
        *prev = Some((now, p.rows_done));
        rate
    };
    let eta_secs = if p.rows_total > p.rows_done && rows_per_sec > 0.0 {
        (p.rows_total - p.rows_done) as f64 / rows_per_sec
    } else {
        0.0
    };
    let line = format!(
        concat!(
            "{{\"type\":\"heartbeat\",\"seq\":{},\"phase\":\"{}\",",
            "\"epoch\":{},\"epochs\":{},\"shard\":{},\"shards\":{},",
            "\"rows_done\":{},\"rows_total\":{},\"rows_per_sec\":{},",
            "\"eta_secs\":{},\"elapsed_secs\":{},\"peak_rss_bytes\":{},",
            "\"rollbacks\":{},\"warm_hit_rate\":{}}}\n"
        ),
        seq,
        json_escape(p.phase),
        p.epoch,
        p.epochs,
        p.shard,
        p.shards,
        p.rows_done,
        p.rows_total,
        json_f64(rows_per_sec),
        json_f64(eta_secs),
        json_f64(elapsed),
        peak_rss_bytes(),
        p.rollbacks,
        json_f64(p.warm_hit_rate),
    );
    inner.last_emit.store(
        now.duration_since(inner.start).as_nanos() as u64,
        Ordering::Release,
    );
    // a full disk or closed pipe must not kill a healthy run: drop the line
    let mut w = inner.writer.lock().unwrap_or_else(|p| p.into_inner());
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`; 0 when
/// the proc filesystem is unavailable).
pub fn peak_rss_bytes() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer pushing into a shared buffer so tests can inspect lines.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub(crate) Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn progress(epoch: u64, rows_done: u64) -> Progress<'static> {
        Progress {
            phase: "initial",
            epoch,
            epochs: 4,
            shard: 0,
            shards: 0,
            rows_done,
            rows_total: 400,
            rollbacks: 1,
            warm_hit_rate: 0.5,
        }
    }

    #[test]
    fn off_hook_is_silent_and_cheap() {
        let hook = HeartbeatHook::off();
        assert!(!hook.is_some());
        hook.poll(&progress(1, 100));
        hook.poll_fine(&progress(1, 100));
    }

    #[test]
    fn zero_interval_emits_every_coarse_boundary_only() {
        let buf = SharedBuf::default();
        let hook = HeartbeatHook::to_writer(Box::new(buf.clone()), Duration::ZERO);
        for e in 1..=3 {
            hook.poll_fine(&progress(e, e * 100)); // silent at interval 0
            hook.poll(&progress(e, e * 100));
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one line per coarse boundary:\n{text}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains(&format!("\"seq\":{}", i)));
            assert!(line.contains("\"type\":\"heartbeat\""));
            assert!(line.contains("\"phase\":\"initial\""));
            assert!(line.contains("\"epochs\":4"));
            assert!(line.contains("\"rows_total\":400"));
            assert!(line.contains("\"rollbacks\":1"));
        }
        assert!(lines[2].contains("\"epoch\":3"));
    }

    #[test]
    fn positive_interval_gates_both_granularities() {
        let buf = SharedBuf::default();
        let hook = HeartbeatHook::to_writer(
            Box::new(buf.clone()),
            Duration::from_secs(3600), // nothing after the first is due
        );
        hook.poll(&progress(1, 100)); // first poll is always due
        for e in 2..=5 {
            hook.poll(&progress(e, e * 100));
            hook.poll_fine(&progress(e, e * 100));
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1, "interval must gate:\n{text}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        // this test suite runs on Linux; a zero here means the parser broke
        assert!(peak_rss_bytes() > 0);
    }
}
