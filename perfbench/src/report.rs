//! Named metrics with units, printed one per line and as the final
//! JSON object.

use std::fmt::Write as _;

pub struct Entry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and highest supported percentile, for timings.
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub entries: Vec<Entry>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put_note(name, value, unit, String::new());
    }

    pub fn put_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.entries.push(Entry {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    pub fn print(&self) {
        for e in &self.entries {
            println!(
                "metric {:<34} {:>16.4} {:<8} {}",
                e.name, e.value, e.unit, e.note
            );
        }
    }

    /// The result object: `names` selects which entries go into
    /// `metrics`. Fails on a missing or non-finite metric.
    pub fn json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        names: &[&str],
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, name) in names.iter().enumerate() {
            let e = self
                .entries
                .iter()
                .find(|e| e.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !e.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", e.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                e.value, e.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
