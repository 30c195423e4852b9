//! Metric collection, percentiles and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in `0..=1`); 0 for no samples.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Why the layer does not exist on this workload (value is then 0).
    pub na: Option<&'static str>,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name: name.to_string(), value, unit, na: None });
    }

    pub fn na(&mut self, name: &str, unit: &'static str, why: &'static str) {
        self.0.push(Metric { name: name.to_string(), value: 0.0, unit, na: Some(why) });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One line per metric: name, value, unit (or why it is absent).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            match m.na {
                Some(why) => {
                    let _ = writeln!(out, "  {:<34} {:>14} {:<9} n/a: {why}", m.name, "-", m.unit);
                }
                None => {
                    let _ = writeln!(out, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
                }
            }
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}
