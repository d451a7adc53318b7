//! The two harness guarantees: determinism and panic isolation.

use hwst_harness::{collect_ok, run, Job, JobOutcome};

fn mixed_jobs() -> Vec<Job<String>> {
    (0..24u64)
        .map(|i| {
            Job::new(format!("job/{i:02}"), move || {
                if i % 7 == 3 {
                    Err(format!("structured failure on {i}"))
                } else {
                    Ok(format!("value-{}", i * i))
                }
            })
        })
        .collect()
}

/// A 4-worker run produces results identical (ids, labels, outcomes,
/// ordering) to the 1-worker reference run.
#[test]
fn parallel_results_match_serial_byte_for_byte() {
    let render = |workers: usize| -> String {
        run(mixed_jobs(), workers)
            .iter()
            .map(|r| format!("{:?} {} {:?}\n", r.id, r.label, r.outcome))
            .collect()
    };
    let serial = render(1);
    for workers in [2, 4, 16] {
        assert_eq!(
            serial,
            render(workers),
            "{workers}-worker run diverged from serial"
        );
    }
}

/// A panicking job is reported as `Panicked` with its message; every
/// sibling still completes.
#[test]
fn panicking_job_is_isolated() {
    let mut jobs: Vec<Job<u32>> = (0..8u32)
        .map(|i| Job::new(format!("ok/{i}"), move || Ok(i)))
        .collect();
    jobs.insert(
        3,
        Job::new("bad/panics", || -> Result<u32, String> {
            panic!("deliberate test panic")
        }),
    );
    let results = run(jobs, 4);
    assert_eq!(results.len(), 9);
    assert_eq!(
        results[3].outcome,
        JobOutcome::Panicked("deliberate test panic".into())
    );
    let (ok, failed) = collect_ok(results);
    assert_eq!(ok, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].label, "bad/panics");
    assert!(
        failed[0].error.starts_with("panicked:"),
        "{}",
        failed[0].error
    );
}

/// An empty job vector is a no-op, and worker counts are clamped.
#[test]
fn degenerate_configurations() {
    let empty: Vec<Job<u8>> = Vec::new();
    assert!(run(empty, 8).is_empty());
    let one = vec![Job::infallible("only", || 42u8)];
    let results = run(one, 0);
    assert_eq!(results[0].outcome, JobOutcome::Ok(42));
}
