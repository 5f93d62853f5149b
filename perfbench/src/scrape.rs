//! Counters and histograms the daemons already export through `metrics`,
//! read before and after the timed phase.

use std::collections::BTreeMap;

use rkranks_server::json::Json;

use crate::wire::Conn;

#[derive(Clone, Default)]
pub struct Hist {
    pub count: f64,
    /// Sum in seconds (or the histogram's display unit).
    pub sum: f64,
    /// `(upper bound in display units, count)`, ascending.
    pub buckets: Vec<(f64, f64)>,
}

impl Hist {
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// The upper bound of the bucket holding the `p` quantile.
    pub fn quantile(&self, p: f64) -> f64 {
        let want = p * self.count;
        let mut seen = 0.0;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= want && n > 0.0 {
                return upper;
            }
        }
        0.0
    }

    fn minus(&self, before: &Hist) -> Hist {
        let mut buckets: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for &(u, n) in &self.buckets {
            buckets.entry(u.to_bits()).or_insert((u, 0.0)).1 += n;
        }
        for &(u, n) in &before.buckets {
            buckets.entry(u.to_bits()).or_insert((u, 0.0)).1 -= n;
        }
        let mut buckets: Vec<(f64, f64)> = buckets.into_values().collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Hist {
            count: self.count - before.count,
            sum: self.sum - before.sum,
            buckets,
        }
    }
}

/// One `metrics` reply: scalar samples and histograms, keyed by name
/// plus labels (`name{k=v,...}`).
#[derive(Clone, Default)]
pub struct Scrape {
    pub values: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, Hist>,
}

fn key(sample: &Json, name: &str) -> String {
    match sample.get("labels") {
        Some(Json::Obj(pairs)) if !pairs.is_empty() => {
            let labels: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("")))
                .collect();
            format!("{name}{{{}}}", labels.join(","))
        }
        _ => name.to_string(),
    }
}

impl Scrape {
    pub fn take(conn: &mut Conn) -> Result<Scrape, String> {
        let reply = conn.call_ok("{\"op\":\"metrics\"}")?;
        let samples = reply
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("metrics reply without samples")?;
        let mut out = Scrape::default();
        for s in samples {
            let Some(name) = s.get("name").and_then(Json::as_str) else {
                continue;
            };
            let k = key(s, name);
            let num = |f: &str| s.get(f).and_then(Json::as_f64).unwrap_or(0.0);
            if s.get("type").and_then(Json::as_str) == Some("histogram") {
                let scale = num("scale");
                let buckets = s
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|b| {
                        let b = b.as_arr()?;
                        Some((b.first()?.as_f64()? * scale, b.get(1)?.as_f64()?))
                    })
                    .collect();
                out.hists.insert(
                    k,
                    Hist {
                        count: num("count"),
                        sum: num("sum") * scale,
                        buckets,
                    },
                );
            } else {
                out.values.insert(k, num("value"));
            }
        }
        Ok(out)
    }

    /// What changed between `before` and `self`.
    pub fn minus(&self, before: &Scrape) -> Scrape {
        Scrape {
            values: self
                .values
                .iter()
                .map(|(k, v)| (k.clone(), v - before.values.get(k).copied().unwrap_or(0.0)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        h.minus(&before.hists.get(k).cloned().unwrap_or_default()),
                    )
                })
                .collect(),
        }
    }

    /// Sum of every scalar sample named `name`, across labels.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum()
    }

    /// Every histogram named `name`, merged across labels.
    pub fn hist(&self, name: &str) -> Hist {
        let mut out = Hist::default();
        for (k, h) in &self.hists {
            if k.as_str() == name || k.starts_with(&format!("{name}{{")) {
                out.count += h.count;
                out.sum += h.sum;
                out.buckets.extend_from_slice(&h.buckets);
            }
        }
        out.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Add another daemon's scrape (for fleets: sums across shards).
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.values {
            *self.values.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.hists {
            let e = self.hists.entry(k.clone()).or_default();
            e.count += h.count;
            e.sum += h.sum;
            e.buckets.extend_from_slice(&h.buckets);
            e.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
    }
}
