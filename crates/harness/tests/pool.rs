//! The three harness guarantees: determinism, panic isolation, and the
//! watchdog.

use hwst_harness::{
    collect_ok, run, Event, Job, JobOutcome, NullSink, OutcomeKind, PoolConfig, Sink,
};
use std::time::Duration;

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
    let render = |cfg: &PoolConfig| -> String {
        run(mixed_jobs(), cfg, &mut NullSink)
            .iter()
            .map(|r| format!("{:?} {} {:?}\n", r.id, r.label, r.outcome))
            .collect()
    };
    let serial = render(&PoolConfig::serial());
    for workers in [2, 4, 16] {
        assert_eq!(
            serial,
            render(&PoolConfig::parallel(workers)),
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
    let results = run(jobs, &PoolConfig::parallel(4), &mut NullSink);
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

/// A runaway job hits the watchdog and is reported `TimedOut` while
/// fast siblings complete normally.
#[test]
fn watchdog_times_out_runaway_job() {
    let jobs: Vec<Job<&'static str>> = vec![
        Job::new("fast/a", || Ok("a")),
        Job::new("slow/hangs", || {
            std::thread::sleep(Duration::from_secs(30));
            Ok("never")
        }),
        Job::new("fast/b", || Ok("b")),
    ];
    let cfg = PoolConfig::parallel(3).with_timeout(Duration::from_millis(100));
    let results = run(jobs, &cfg, &mut NullSink);
    assert_eq!(results[0].outcome, JobOutcome::Ok("a"));
    assert_eq!(
        results[1].outcome,
        JobOutcome::TimedOut(Duration::from_millis(100))
    );
    assert_eq!(results[2].outcome, JobOutcome::Ok("b"));
}

/// The sink sees one Started and one Finished per job, with a final
/// completion count equal to the table size.
#[test]
fn sink_observes_every_job() {
    struct Counter {
        started: usize,
        finished: usize,
        last_done: usize,
    }
    impl Sink for Counter {
        fn event(&mut self, event: Event<'_>) {
            match event {
                Event::Started { .. } => self.started += 1,
                Event::Finished { done, kind, .. } => {
                    self.finished += 1;
                    self.last_done = done;
                    assert!(matches!(kind, OutcomeKind::Ok | OutcomeKind::Failed));
                }
            }
        }
    }
    let mut sink = Counter {
        started: 0,
        finished: 0,
        last_done: 0,
    };
    let results = run(mixed_jobs(), &PoolConfig::parallel(4), &mut sink);
    assert_eq!(sink.started, 24);
    assert_eq!(sink.finished, 24);
    assert_eq!(sink.last_done, 24);
    assert_eq!(results.len(), 24);
}

/// An empty job vector is a no-op, and worker counts are clamped.
#[test]
fn degenerate_configurations() {
    let empty: Vec<Job<u8>> = Vec::new();
    assert!(run(empty, &PoolConfig::parallel(8), &mut NullSink).is_empty());
    let one = vec![Job::infallible("only", || 42u8)];
    let results = run(
        one,
        &PoolConfig {
            workers: 0,
            timeout: None,
        },
        &mut NullSink,
    );
    assert_eq!(results[0].outcome, JobOutcome::Ok(42));
}
