//! Seeded input generation. The workload seed alone drives every input:
//! prose, line widths, Zipf topic draws, the burst schedule, fault seeds
//! and restart positions. The program under test sees only the results.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// Lower-case prose vocabulary. It holds no `#` and no `/`, the markers
/// the pipelines' comment and grep filters remove, so every record
/// crosses every hop and invocation counts stay the paper's.
const WORDS: &[&str] = &[
    "the",
    "stream",
    "filter",
    "reads",
    "writes",
    "a",
    "record",
    "from",
    "its",
    "source",
    "and",
    "passes",
    "it",
    "on",
    "to",
    "next",
    "eject",
    "in",
    "pipeline",
    "each",
    "kernel",
    "invocation",
    "costs",
    "more",
    "than",
    "an",
    "internal",
    "message",
    "so",
    "asymmetric",
    "disciplines",
    "save",
    "half",
    "of",
    "work",
    "when",
    "data",
    "flows",
    "through",
    "many",
    "stages",
    "buffer",
    "holds",
    "lines",
    "until",
    "reader",
    "asks",
    "for",
    "them",
    "with",
    "transfer",
    "terminal",
    "pump",
    "sink",
    "output",
    "input",
    "passive",
    "active",
    "checkpoint",
    "crash",
    "node",
    "mailbox",
    "reply",
    "wakes",
    "worker",
    "queue",
    "batch",
    "Eden",
    "Black",
];

/// One prose line of roughly `width` bytes (whole words, at least one).
pub fn prose_line(rng: &mut Rng, width: usize) -> String {
    let mut line = String::with_capacity(width + 16);
    loop {
        let w = WORDS[rng.below(WORDS.len() as u64) as usize];
        if !line.is_empty() && line.len() + 1 + w.len() > width {
            return line;
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(w);
    }
}

/// `n` prose lines with widths uniform in `[lo, hi]`.
pub fn prose_lines(seed: u64, purpose: u64, n: usize, lo: usize, hi: usize) -> Vec<String> {
    let mut rng = Rng::stream(seed, purpose);
    (0..n)
        .map(|_| {
            let width = lo + rng.below((hi - lo + 1) as u64) as usize;
            prose_line(&mut rng, width)
        })
        .collect()
}

/// Crash-restart records: an 8-digit index, then prose. The index lets
/// the stage decorators recognise a record across crashes and replays.
pub fn indexed_lines(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::stream(seed, 3);
    (0..n)
        .map(|i| {
            let width = 40 + rng.below(41) as usize;
            format!("{i:08} {}", prose_line(&mut rng, width))
        })
        .collect()
}

/// The index an [`indexed_lines`] record carries.
pub fn line_index(line: &str) -> Option<usize> {
    line.get(..8)?.parse().ok()
}

/// Zipf-distributed choice over `n` items with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The open-loop publish schedule: when each publish is due and to which
/// topic. Arrivals are Poisson inside "on" periods and absent in "off"
/// periods. Period lengths are uniform within a quarter of their means, so
/// the seed moves the bursts but barely the total offered load: the mean
/// rate is `rate` and the rate inside a burst is `rate / duty`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub due_ns: Vec<u64>,
    pub topic: Vec<u16>,
}

pub struct BurstShape {
    pub rate: f64,
    pub on_ms: f64,
    pub off_ms: f64,
    pub topics: usize,
    pub zipf_s: f64,
}

pub fn schedule(seed: u64, seconds: f64, shape: &BurstShape) -> Schedule {
    let mut rng = Rng::stream(seed, 4);
    let zipf = Zipf::new(shape.topics, shape.zipf_s);
    let duty = shape.on_ms / (shape.on_ms + shape.off_ms);
    let gap_ns = 1e9 / (shape.rate / duty);
    let horizon = seconds * 1e9;
    let period = |mean_ms: f64, rng: &mut Rng| mean_ms * 1e6 * (0.75 + 0.5 * rng.unit());
    let mut due_ns = Vec::new();
    let mut topic = Vec::new();
    let mut t = 0.0;
    while t < horizon {
        let on_end = t + period(shape.on_ms, &mut rng);
        let mut a = t + rng.exp(gap_ns);
        while a < on_end.min(horizon) {
            due_ns.push(a as u64);
            topic.push(zipf.sample(&mut rng) as u16);
            a += rng.exp(gap_ns);
        }
        t = on_end + period(shape.off_ms, &mut rng);
    }
    Schedule { due_ns, topic }
}

/// `k` whole-kernel restart positions inside `n` records: evenly spaced,
/// each moved by a seeded jitter of up to a tenth of the spacing.
pub fn restart_positions(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, 5);
    let step = n / (k + 1);
    (1..=k)
        .map(|i| {
            let jitter = rng.below((step / 5).max(1) as u64) as usize;
            i * step - step / 10 + jitter
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> BurstShape {
        BurstShape {
            rate: 2000.0,
            on_ms: 40.0,
            off_ms: 40.0,
            topics: 256,
            zipf_s: 1.0,
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(
            prose_lines(7, 1, 200, 48, 80),
            prose_lines(7, 1, 200, 48, 80)
        );
        assert_eq!(indexed_lines(7, 100), indexed_lines(7, 100));
        assert_eq!(schedule(7, 1.0, &shape()), schedule(7, 1.0, &shape()));
        assert_eq!(restart_positions(7, 900, 2), restart_positions(7, 900, 2));
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        assert_ne!(
            prose_lines(7, 1, 200, 48, 80),
            prose_lines(8, 1, 200, 48, 80)
        );
        assert_ne!(indexed_lines(7, 100), indexed_lines(8, 100));
        assert_ne!(schedule(7, 1.0, &shape()), schedule(8, 1.0, &shape()));
    }

    #[test]
    fn lines_keep_their_widths_and_avoid_filter_markers() {
        for line in prose_lines(3, 1, 500, 48, 80) {
            assert!(line.len() <= 80 && line.len() >= 30, "{line:?}");
            assert!(!line.contains('#') && !line.contains('/'));
        }
        for (i, line) in indexed_lines(3, 50).iter().enumerate() {
            assert_eq!(line_index(line), Some(i));
        }
    }

    #[test]
    fn schedule_keeps_its_mean_rate_and_skew() {
        let s = schedule(11, 20.0, &shape());
        let rate = s.due_ns.len() as f64 / 20.0;
        assert!((rate - 2000.0).abs() < 60.0, "rate {rate}");
        assert!(s.due_ns.windows(2).all(|w| w[0] <= w[1]));
        let hot = s.topic.iter().filter(|&&t| t == 0).count();
        let cold = s.topic.iter().filter(|&&t| t == 255).count();
        assert!(hot > 20 * cold.max(1), "hot {hot} cold {cold}");
    }

    #[test]
    fn restart_positions_are_ordered_and_inside() {
        for seed in 0..20 {
            let p = restart_positions(seed, 900, 2);
            assert!(p[0] < p[1] && p[1] < 900, "{p:?}");
        }
    }
}
