//! What one run prints: readable lines as it goes, and the result object
//! as the last line of standard output.

use crate::stats::Summary;

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, and those that failed: a non-200 response, a
    /// stale frame, a WAL error or an output-check mismatch.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check mismatches, described.
    problems: Vec<String>,
    /// The metrics of the result object.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Prints a named measurement without putting it in the result object.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("  {name} = {value} {unit}");
    }

    /// Prints a measurement and puts it in the result object.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.note(name, value, unit);
        if !value.is_finite() {
            self.problem(format!("{name} was not measured"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Prints the median and tail of a latency distribution in `unit`,
    /// with its sample count; `None` when there are too few samples. The
    /// tail is the highest percentile up to `cap` with at least ten samples
    /// beyond it.
    pub fn latency(&self, name: &str, samples: &[f64], unit: &str, cap: f64) -> Option<Summary> {
        let Some(s) = Summary::of(samples, cap) else {
            println!(
                "  {name}: only {} samples, too few to summarize",
                samples.len()
            );
            return None;
        };
        println!(
            "  {name}_p50 = {} {unit}; {name}_p{} = {} {unit} (n = {}, {} beyond the tail)",
            s.p50,
            s.tail_p,
            s.tail,
            s.n,
            s.n - (s.tail_p / 100.0 * s.n as f64).ceil() as usize
        );
        Some(s)
    }

    /// Records an output-check mismatch; the run then fails.
    pub fn problem(&mut self, what: String) {
        println!("  CHECK FAILED: {what}");
        self.failed += 1;
        self.attempted += 1;
        self.problems.push(what);
    }

    /// Counts `n` failed operations of kind `what` (already attempted).
    pub fn failures(&mut self, what: &str, n: u64) {
        if n > 0 {
            println!("  FAILED OPS: {n} x {what}");
            self.failed += n;
            self.problems.push(format!("{n} failed {what}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result object, as one line of JSON.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
