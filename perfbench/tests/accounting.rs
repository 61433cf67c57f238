//! Unit tests of the benchmark's own accounting.

use perfbench::{
    compare, due_time_ns, median, median_summary, percentile, quartiles, quiet_or_all, residual_us,
    segment_ranges, summarize, Better, Failures, OpenLoopSample, Summary, Verdict, QUIET_STEAL,
};

#[test]
fn percentile_uses_nearest_rank() {
    let mut v: Vec<u32> = (1..=1000).rev().collect();
    assert_eq!(percentile(&mut v, 0.5), Some(500));
    assert_eq!(percentile(&mut v, 0.99), Some(990));
    assert_eq!(percentile(&mut v, 1.0), Some(1000));
    assert_eq!(percentile(&mut v, 0.0), Some(1));
    let mut even = vec![4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&mut even, 0.5), Some(2.0), "lower median");
    let mut one = vec![7.0];
    assert_eq!(percentile(&mut one, 0.99), Some(7.0));
    assert_eq!(percentile::<f64>(&mut [], 0.5), None);
}

#[test]
fn summary_reports_median_tail_mean_and_count() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = summarize(&mut v, 0.9).expect("non-empty");
    assert_eq!(s.n, 100);
    assert_eq!(s.p50, 50.0);
    assert_eq!(s.tail, 90.0);
    assert!((s.mean - 50.5).abs() < 1e-12);
    assert!(summarize(&mut [], 0.9).is_none());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(
        quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
        Some([15.0, 30.0, 45.0])
    );
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[9.0]), Some(9.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // 10 requests due every 100 us. The send of request 2 stalls for 1 ms;
    // requests 3..=9 queue behind it and go out back to back. Each reply
    // takes 50 us from its send.
    let stall_end = 1_200_000;
    let samples: Vec<OpenLoopSample> = (0..10u64)
        .map(|i| {
            let due = due_time_ns(0, i, 10_000.0);
            let sent = if i < 2 {
                due
            } else {
                (stall_end + i * 1_000).max(due)
            };
            OpenLoopSample {
                due,
                sent,
                done: sent + 50_000,
            }
        })
        .collect();
    assert_eq!(samples[1].due, 100_000);
    assert_eq!(samples[0].latency_ns(), 50_000);
    assert_eq!(samples[0].lateness_ns(), 0);
    // The stalled request is charged the stall...
    assert_eq!(samples[2].latency_ns(), 1_202_000 + 50_000 - 200_000);
    // ...and so is every request queued behind it, although each reply
    // came 50 us after its own send.
    for s in &samples[3..] {
        assert!(s.latency_ns() > 300_000, "{s:?}");
        assert_eq!(s.latency_ns(), s.lateness_ns() + 50_000);
    }
    let from_send: Vec<u64> = samples.iter().map(|s| s.done - s.sent).collect();
    assert!(from_send.iter().all(|&l| l == 50_000));
}

#[test]
fn due_times_follow_the_rate() {
    assert_eq!(due_time_ns(5, 0, 1000.0), 5);
    assert_eq!(due_time_ns(5, 3, 1000.0), 3_000_005);
    assert_eq!(due_time_ns(0, 1, 3.0), 333_333_333);
}

#[test]
fn failed_frac_counts_refused_and_gap_dropped_items() {
    let clean = Failures {
        requests_sent: 100,
        events_emitted: 50,
        ..Failures::default()
    };
    assert_eq!(clean.attempted(), 150);
    assert_eq!(clean.failed(), 0);
    assert_eq!(clean.fraction(), 0.0);

    let bad = Failures {
        requests_sent: 100,
        events_emitted: 50,
        error_acks: 2,
        skipped_acks: 1,
        missing_acks: 1,
        failed_whatifs: 1,
        events_lost: 10,
    };
    assert_eq!(bad.failed(), 15);
    assert!((bad.fraction() - 0.1).abs() < 1e-12);
    assert_eq!(Failures::default().fraction(), 0.0);
}

#[test]
fn residual_is_ack_median_minus_attributed_layers() {
    assert_eq!(residual_us(100.0, 2.0, 10.0, 1.0), 87.0);
    // Replayed layers slower than the daemon's own: a negative residual
    // is reported as such, not clamped.
    assert_eq!(residual_us(10.0, 2.0, 10.0, 1.0), -3.0);
}

#[test]
fn compare_verdicts() {
    // Lower is better; change clearly faster on every pair.
    let improved: Vec<(f64, f64)> = (0..10)
        .map(|i| (100.0 + f64::from(i % 3), 80.0 + f64::from(i % 2)))
        .collect();
    let c = compare(&improved, Better::Lower, 0.1).expect("pairs");
    assert_eq!((c.wins, c.losses, c.pairs), (10, 0, 10));
    assert_eq!(c.verdict, Verdict::Improved);

    // Same distribution on both sides: within bound, ties count for
    // neither side.
    let same: Vec<(f64, f64)> = (0..10).map(|i| (100.0 + f64::from(i % 2), 100.0)).collect();
    let c = compare(&same, Better::Lower, 0.1).expect("pairs");
    assert_eq!(c.wins + c.losses, 5);
    assert_eq!(c.verdict, Verdict::WithinBound);

    // Change 20% slower with a 10% bound.
    let slower: Vec<(f64, f64)> = (0..10).map(|i| (100.0 + f64::from(i % 2), 120.0)).collect();
    assert_eq!(
        compare(&slower, Better::Lower, 0.1).expect("pairs").verdict,
        Verdict::Regressed
    );

    // Higher is better: a throughput drop is a regression.
    let drop: Vec<(f64, f64)> = (0..10)
        .map(|i| (1000.0 + f64::from(i % 2), 800.0))
        .collect();
    assert_eq!(
        compare(&drop, Better::Higher, 0.1).expect("pairs").verdict,
        Verdict::Regressed
    );

    // Parent runs spread far wider than the bound: unresolved.
    let noisy: Vec<(f64, f64)> = (0..10)
        .map(|i| (if i % 2 == 0 { 50.0 } else { 150.0 }, 100.0))
        .collect();
    assert_eq!(
        compare(&noisy, Better::Lower, 0.1).expect("pairs").verdict,
        Verdict::Unresolved
    );

    assert!(compare(&[(1.0, 1.0)], Better::Lower, 0.1).is_none());
}

#[test]
fn segment_medians_contain_a_noise_burst() {
    // 10 segments of 100 samples valued 1..=100, with one segment's tail
    // blown up by an outside stall.
    let mut v: Vec<f64> = (0..10).flat_map(|_| (1..=100).map(f64::from)).collect();
    for x in &mut v[300..320] {
        *x = 10_000.0;
    }
    let ranges = segment_ranges(v.len(), 100, 64);
    assert_eq!(ranges.len(), 10);
    let parts: Vec<Summary> = ranges
        .iter()
        .map(|r| summarize(&mut v[r.clone()].to_vec(), 0.9).expect("non-empty"))
        .collect();
    let s = median_summary(&parts);
    assert_eq!(s.n, 1000);
    assert_eq!(s.p50, 50.0);
    assert_eq!(s.tail, 90.0);
    assert!((s.mean - 50.5).abs() < 1e-12);
    // Pooled, the burst owns the tail.
    let mut pooled = v.clone();
    assert!(summarize(&mut pooled, 0.99).expect("samples").tail >= 10_000.0);
    // The segment count is capped, the last segment takes the remainder,
    // and short inputs give no segment.
    assert_eq!(
        segment_ranges(1003, 10, 4),
        vec![0..250, 250..500, 500..750, 750..1003]
    );
    assert!(segment_ranges(50, 100, 64).is_empty());
}

#[test]
fn host_steal_selects_quiet_passes() {
    assert_eq!(
        quiet_or_all(&[0.01, 0.2, 0.0, 0.06], QUIET_STEAL),
        vec![0, 2]
    );
    // Nothing quiet: report everything rather than nothing.
    assert_eq!(quiet_or_all(&[0.2, 0.3], QUIET_STEAL), vec![0, 1]);
    assert!(quiet_or_all(&[], QUIET_STEAL).is_empty());
}
