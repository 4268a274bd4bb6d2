//! The result line the benchmark prints last: one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The run's verdict and metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Flows injected over the timed runs.
    pub attempted: u64,
    /// Injected flows that did not complete.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The JSON line. Values print with every digit Rust's shortest
    /// round-trip formatting gives; a non-finite value prints as `null`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
        };
        r.push("flows_per_s", 1234.5, "1/s");
        r.push("setup_s", 2.0, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"flows_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_print_as_null() {
        let mut r = Report::default();
        r.push("x", f64::NAN, "s");
        assert!(r.to_json().contains("\"value\": null"));
    }
}
