//! Per-layer metrics of the traced run, from its spans.

use crate::report::Report;
use crate::spans::{durations_ns, totals, Span};
use crate::stats::median;

/// What the traced run measured besides its spans.
pub struct Bases {
    /// Bytes and records appended to the scratch log.
    pub scratch_wal: (u64, u64),
    /// `live_instances()` and `stale_dropped()` after one day.
    pub day_end: (usize, u64),
    pub alerts_per_day: u64,
    pub open_s: f64,
    pub lens_new_s: f64,
    pub svg_bytes: f64,
    /// Median `/frame` round trip over HTTP and in-process, in ms.
    pub http_frame_ms: f64,
    pub inproc_frame_ms: f64,
    pub cpu_per_wall: f64,
    /// Median of the timing both runs share, untraced and traced, in ms,
    /// and what it is.
    pub shared: (f64, f64, &'static str),
}

/// Median span duration in µs; NaN, which the report counts as a failed
/// check, when the run recorded no such span.
fn med_us(spans: &[Span], name: &str) -> f64 {
    let d = durations_ns(spans, name);
    if d.is_empty() {
        return f64::NAN;
    }
    median(&d) / 1e3
}

/// Reports every per-layer metric. `epochs` are the spans of a replay
/// with the WAL-less and scratch-log extras; `requests` those of traced
/// dashboard sessions.
pub fn report_layers(report: &mut Report, epochs: &[Span], requests: &[Span], b: &Bases) {
    println!("per-layer metrics (traced run):");
    let (bytes, records) = b.scratch_wal;
    report.metric(
        "wal.append_us_per_epoch",
        med_us(epochs, "wal.append"),
        "us",
    );
    report.metric(
        "wal.bytes_per_record",
        bytes as f64 / records.max(1) as f64,
        "B",
    );

    let nowal = med_us(epochs, "stream.ingest_batch_nowal");
    let wal = med_us(epochs, "stream.ingest_batch");
    report.metric("stream.ingest_batch_us_per_epoch", nowal, "us");
    report.metric(
        "stream.structure_us_per_epoch",
        med_us(epochs, "stream.structure"),
        "us",
    );
    println!("  stream.wal_tax bases: WAL-attached {wal} us / WAL-less {nowal} us per epoch");
    report.metric("stream.wal_tax", wal / nowal, "ratio");
    report.note(
        "stream.alerts_fired",
        b.alerts_per_day as f64,
        "count per day",
    );
    report.note(
        "stream.live_instances",
        b.day_end.0 as f64,
        "count at the end of the day",
    );
    report.note("stream.stale_dropped", b.day_end.1 as f64, "count");

    let hits = durations_ns(requests, "app.frame_at_hit").len();
    let misses = durations_ns(requests, "app.frame_at_miss").len();
    let miss = med_us(requests, "app.frame_at_miss");
    let capture = med_us(requests, "app.frame_capture");
    report.metric(
        "app.frame_at_hit_us",
        med_us(requests, "app.frame_at_hit"),
        "us",
    );
    report.metric("app.frame_at_miss_us", miss, "us");
    report.metric("app.frame_capture_us", capture, "us");
    report.metric("app.frame_cache_wait_us", miss - capture, "us");
    println!(
        "  app.frame_cache_hit_ratio base: {hits} hits of {} classified lookups",
        hits + misses
    );
    report.metric(
        "app.frame_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric("app.lens_new_s", b.lens_new_s, "s");
    report.metric("store.open_s", b.open_s, "s");

    report.metric(
        "render.layout_ms",
        med_us(requests, "render.layout") / 1e3,
        "ms",
    );
    report.metric(
        "render.svg_emit_ms",
        med_us(requests, "render.svg_emit") / 1e3,
        "ms",
    );
    report.metric("render.svg_bytes", b.svg_bytes, "B");

    report.metric("codec.parse_us", med_us(requests, "codec.parse"), "us");
    report.metric("codec.write_us", med_us(requests, "codec.write"), "us");
    report.metric(
        "session.interact_us",
        med_us(requests, "session.interact"),
        "us",
    );
    report.metric("cursor.poll_us", med_us(epochs, "cursor.poll"), "us");
    println!(
        "  serve.transport_us bases: /frame over HTTP {} ms, in-process {} ms",
        b.http_frame_ms, b.inproc_frame_ms
    );
    report.metric(
        "serve.transport_us",
        (b.http_frame_ms - b.inproc_frame_ms) * 1e3,
        "us",
    );
    report.note("proc.cpu_per_wall", b.cpu_per_wall, "ratio");
    let (untraced, traced, what) = b.shared;
    println!(
        "  trace.overhead_pct bases: {what} median untraced {untraced} ms, traced {traced} ms"
    );
    report.metric("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
}

/// Prints each span name's count, total and self time.
pub fn print_self_times(spans: &[Span]) {
    println!("  span self times: name, count, total ms, self ms, mean self us");
    for (name, (n, total, own)) in totals(spans) {
        println!(
            "    {name:<28} {n:>8} {:>10.1} {:>10.1} {:>10.2}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / 1e3 / n as f64
        );
    }
}
