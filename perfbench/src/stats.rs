//! Order statistics for the reported timings.
//!
//! A timing is reported as its median and its *tail*: the highest
//! percentile that still has at least ten samples beyond it, so the tail
//! is an observed value rather than an extrapolation. A run too short for
//! any such percentile reports its maximum instead, and says so through
//! [`Tail::percentile`] being `None`.

/// Percentiles a tail may be reported at, highest first. p99.9 is left
/// out: a fast host could then cross 10 000 samples in some runs and not
/// others, and the tail would jump between percentiles.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// The tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, or `None` when fewer than
    /// `2 × SAMPLES_BEYOND` samples exist and the maximum stands in.
    pub percentile: Option<f64>,
    /// The value at that percentile (or the maximum).
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

impl Tail {
    /// `p99`, `p90`, … or `max`, for the human-readable report.
    pub fn label(&self) -> String {
        match self.percentile {
            Some(p) if p.fract() == 0.0 => format!("p{p:.0}"),
            Some(p) => format!("p{p}"),
            None => "max".to_owned(),
        }
    }
}

/// Nearest-rank percentile of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the lower middle value for an even count, so the
/// result is always an observed sample).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 50.0)
}

/// The `p`-th percentile of per-round figures, or their median when
/// there are fewer than 20 rounds (a 10th or 90th percentile would then
/// be the extreme round or next to it).
fn slow_end(per_round: &[f64], p: f64) -> f64 {
    let mut sorted = per_round.to_vec();
    sorted.sort_by(f64::total_cmp);
    let enough = sorted.len() >= 2 * SAMPLES_BEYOND;
    percentile_sorted(&sorted, if enough { p } else { 50.0 })
}

/// The rate at least 90% of a run's rounds sustained: the 10th
/// percentile (nearest rank) of per-round rates. The host's speed drifts
/// by up to 2× over seconds; the slow end of a run is far steadier from
/// run to run than its median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn sustained(rates: &[f64]) -> f64 {
    slow_end(rates, 10.0)
}

/// The median latency at least 90% of a run's rounds stayed within: each
/// round's median, then their 90th percentile — the latency counterpart
/// of [`sustained`].
///
/// # Panics
///
/// Panics when there are no rounds or a round is empty.
pub fn sustained_median(rounds: &[Vec<f64>]) -> f64 {
    slow_end(&rounds.iter().map(|r| median(r)).collect::<Vec<_>>(), 90.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`SAMPLES_BEYOND`] samples strictly above its rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_LADDER {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= SAMPLES_BEYOND {
            return Tail {
                percentile: Some(p),
                value: sorted[rank - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: None,
        value: *sorted.last().expect("tail of no samples"),
        samples: n,
    }
}

/// The tail a typical round sees: each round's [`tail`], then the median
/// over rounds. A stall of the host's vCPU lasts a few ms and lands in
/// some rounds and not others; a tail pooled over the run reports how
/// many stalls the run met more than it reports the program. Rounds
/// should be of equal size, so that each gives the same percentile.
///
/// # Panics
///
/// Panics when there are no rounds or a round is empty.
pub fn typical_tail(rounds: &[Vec<f64>]) -> Tail {
    let tails: Vec<Tail> = rounds.iter().map(|r| tail(r)).collect();
    Tail {
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        ..tails[0]
    }
}
