//! Named metrics with units, printed for people and as the final JSON line.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Metrics {
    pub end_to_end: BTreeMap<String, (f64, &'static str)>,
    pub per_layer: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn end_to_end(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.insert(name.to_string(), (value, unit));
    }

    pub fn per_layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.insert(name.to_string(), (value, unit));
    }
}

/// One JSON object: `{"name": {"value": v, "unit": u}, ...}`. Non-finite
/// values have no JSON spelling; callers reject them before printing.
pub fn json_object(metrics: &BTreeMap<String, (f64, &'static str)>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.end_to_end("setup_s", 0.812_734_5, "s");
        m.end_to_end("capacity_rps", 3000.0, "1/s");
        assert_eq!(
            json_object(&m.end_to_end),
            "{\"capacity_rps\": {\"value\": 3000.0, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}"
        );
    }
}
