//! Small helpers shared by the phases: a seeded generator, digests,
//! peak-RSS reads and the vocabulary tokens.

use pacq::{Architecture, WeightPrecision};

/// The four dataflows, in the order tables list them.
pub const ARCHS: [Architecture; 4] = [
    Architecture::Pacq,
    Architecture::PackedK,
    Architecture::StandardDequant,
    Architecture::InputStationary,
];

/// Both weight precisions.
pub const PRECISIONS: [WeightPrecision; 2] = [WeightPrecision::Int4, WeightPrecision::Int2];

/// The `--arch` token of an architecture.
pub fn arch_token(arch: Architecture) -> &'static str {
    pacq_cache::arch_token(arch)
}

/// The `--precision` token of a precision.
pub fn precision_token(precision: WeightPrecision) -> &'static str {
    pacq_cache::precision_token(precision)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a byte stream, folded incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a of every element's bit pattern.
pub fn f32_digest(values: &[f32]) -> String {
    let mut h = Fnv::default();
    for v in values {
        h.eat(&v.to_bits().to_le_bytes());
    }
    h.hex()
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB; `self` for
/// this process.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Milliseconds in a `Duration`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a `Duration`.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_depends_on_seed_and_stream_only() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        let mut r = Rng::new(7, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.eat(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
    }
}
