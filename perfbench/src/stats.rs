//! Order statistics and answer fingerprints.

use rdf_query::SolutionSet;

/// Median (mean of the middle two for an even count); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Two independent 64-bit hashes over a byte stream: FNV-1a and a
/// multiply-rotate lane. Used for equality checks on generated,
/// non-adversarial data, where 128 bits make an accidental match
/// negligible.
#[derive(Debug, Clone, Copy)]
pub struct Hasher2(u64, u64);

impl Default for Hasher2 {
    fn default() -> Self {
        Hasher2(0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15)
    }
}

impl Hasher2 {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            self.1 = (self.1 ^ u64::from(b)).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(29);
        }
    }

    /// Write a length-delimited field.
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    pub fn finish(self) -> (u64, u64) {
        (self.0, self.1)
    }
}

/// Identity of a solution set: its size and a hash of its canonical
/// (sorted) serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: u64,
    pub h1: u64,
    pub h2: u64,
}

impl Fingerprint {
    pub fn of(solutions: &SolutionSet) -> Self {
        let mut h = Hasher2::default();
        for binding in solutions.iter() {
            h.write(&(binding.len() as u64).to_le_bytes());
            for (var, value) in binding.iter() {
                h.field(var.as_bytes());
                h.field(value.as_bytes());
            }
        }
        let (h1, h2) = h.finish();
        Fingerprint { len: solutions.len() as u64, h1, h2 }
    }

    pub fn to_line(self, query: &str) -> String {
        format!("{query} {} {:016x} {:016x}", self.len, self.h1, self.h2)
    }

    pub fn from_line(line: &str) -> Option<(String, Self)> {
        let mut it = line.split_whitespace();
        let query = it.next()?.to_string();
        let len = it.next()?.parse().ok()?;
        let h1 = u64::from_str_radix(it.next()?, 16).ok()?;
        let h2 = u64::from_str_radix(it.next()?, 16).ok()?;
        Some((query, Fingerprint { len, h1, h2 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_roundtrips_and_separates() {
        let q = rdf_query::parse_query("SELECT * WHERE { ?s <p> ?o . }").unwrap();
        let a = rdf_model::TripleStore::from_triples(vec![rdf_model::STriple::new(
            "<a>", "<p>", "<b>",
        )]);
        let b = rdf_model::TripleStore::from_triples(vec![rdf_model::STriple::new(
            "<a>", "<p>", "<c>",
        )]);
        let fa = Fingerprint::of(&rdf_query::naive::evaluate(&q, &a));
        let fb = Fingerprint::of(&rdf_query::naive::evaluate(&q, &b));
        assert_ne!(fa, fb);
        assert_eq!(Fingerprint::from_line(&fa.to_line("Q")), Some(("Q".to_string(), fa)));
    }
}
