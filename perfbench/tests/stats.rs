//! The percentile helper: the tail is the highest percentile with at
//! least ten samples beyond it, reported with its sample count.

use jgre_perfbench::stats::{
    median, sustained, sustained_median, tail, typical_tail, SAMPLES_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled on purpose: the helper must sort.
    let mut v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
    v.reverse();
    v
}

fn beyond(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&x| x > value).count()
}

#[test]
fn thousand_samples_give_p99_with_ten_beyond() {
    let samples = ramp(1_000);
    let t = tail(&samples);
    assert_eq!(t.percentile, Some(99.0));
    assert_eq!(t.value, 990.0);
    assert_eq!(t.samples, 1_000);
    assert_eq!(beyond(&samples, t.value), SAMPLES_BEYOND);
    assert_eq!(t.label(), "p99");
}

#[test]
fn fewer_samples_step_down_the_ladder() {
    for (n, pct, value) in [
        (999, 95.0, 950.0),
        (200, 95.0, 190.0),
        (100, 90.0, 90.0),
        (25, 50.0, 13.0),
    ] {
        let samples = ramp(n);
        let t = tail(&samples);
        assert_eq!(
            (t.percentile, t.value, t.samples),
            (Some(pct), value, n),
            "n={n}"
        );
        assert!(beyond(&samples, t.value) >= SAMPLES_BEYOND, "n={n}");
    }
}

#[test]
fn too_few_samples_report_the_maximum() {
    let t = tail(&[3.0, 9.0, 1.0, 4.0]);
    assert_eq!(t.percentile, None);
    assert_eq!(t.value, 9.0);
    assert_eq!(t.samples, 4);
    assert_eq!(t.label(), "max");
}

#[test]
fn median_is_an_observed_sample() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
}

#[test]
fn a_stalled_round_does_not_move_the_typical_tail() {
    let calm: Vec<f64> = ramp(100);
    let mut stalled = calm.clone();
    stalled[..30].fill(5_000.0);
    let rounds = vec![calm.clone(), stalled, calm.clone(), calm];
    let t = typical_tail(&rounds);
    assert_eq!((t.percentile, t.value, t.samples), (Some(90.0), 90.0, 100));
    assert_eq!(tail(&rounds.concat()).value, 5_000.0);
}

#[test]
fn sustained_rate_is_the_tenth_percentile() {
    assert_eq!(sustained(&ramp(20)), 2.0);
    assert_eq!(sustained(&ramp(100)), 10.0);
    // Too few rounds for a 10th percentile: the median.
    assert_eq!(sustained(&ramp(9)), 5.0);
}

#[test]
fn sustained_median_is_the_ninetieth_percentile_of_round_medians() {
    // Round k has median k + 1.
    let rounds: Vec<Vec<f64>> = (0..20).map(|k| vec![k as f64 + 1.0; 3]).collect();
    assert_eq!(sustained_median(&rounds), 18.0);
    assert_eq!(sustained_median(&rounds[..5]), 3.0);
}
