//! Correctness checks, all run outside the timed passes. Every check is
//! one attempted operation; a check that does not hold is one failed
//! operation and is printed.

use std::collections::HashMap;

use hwst128::compiler::{compile_with_options, OptLevel, Scheme};
use hwst128::juliet::{model_detects, Detector};

use crate::cells::{self, Cell, Inputs, Kind, Outcome};
use crate::trace::Tracer;

/// Fig. 6 totals the measured detectors must reproduce.
const FIG6_TOTALS: [(Scheme, usize); 2] = [(Scheme::Sbcets, 5395), (Scheme::Hwst128Tchk, 5323)];

/// Attempted and failed operations, with the first few failures kept
/// for printing.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn print(&self) {
        for n in &self.notes {
            println!("FAILED: {n}");
        }
    }
}

/// Checks one cell's own outcome: no compile error, a sweep cell exits
/// cleanly, a Juliet cell runs to an exit or a trap, a clean image
/// validates at both levels, every mutant is killed.
pub fn cell(t: &mut Tally, cell: Cell, o: &Outcome) {
    let ok = o.error.is_none()
        && o.killed == o.mutants
        && match cell {
            Cell::Sweep { .. } => matches!(o.exit, Some(Ok(_))),
            Cell::Juliet { .. } => o.exit.is_some(),
            Cell::Tv { .. } => o.tv_ok,
            Cell::Mutants { .. } => true,
        };
    t.check(ok, || {
        format!("{cell:?}: {}", o.error.as_deref().unwrap_or("bad outcome"))
    });
}

/// The workload-specific checks on one pass's outcomes: sweep
/// transparency, Juliet verdicts against the model.
pub fn outcomes(t: &mut Tally, inp: &Inputs, outs: &[Outcome], full: bool) {
    match inp.kind {
        Kind::Sweep => transparency(t, inp, outs),
        Kind::Juliet => juliet_verdicts(t, inp, outs, full),
        Kind::Validate => {}
    }
}

/// Every instrumented sweep cell must exit with the code and output of
/// the `None` cell of the same kernel and tier.
fn transparency(t: &mut Tally, inp: &Inputs, outs: &[Outcome]) {
    let mut baseline: HashMap<(usize, OptLevel), &Outcome> = HashMap::new();
    for (&cell, o) in inp.cells.iter().zip(outs) {
        if let Cell::Sweep {
            k,
            scheme: Scheme::None,
            opt,
        } = cell
        {
            baseline.insert((k, opt), o);
        }
    }
    for (&cell, o) in inp.cells.iter().zip(outs) {
        if let Cell::Sweep { k, scheme, opt } = cell {
            if scheme == Scheme::None {
                continue;
            }
            let same = baseline.get(&(k, opt)).is_some_and(
                |b| matches!((&b.exit, &o.exit), (Some(Ok(x)), Some(Ok(y))) if x == y),
            );
            t.check(same, || {
                format!(
                    "transparency: {} {scheme} {} differs from the baseline",
                    inp.kernels[k].name,
                    opt.label()
                )
            });
        }
    }
}

/// Every Juliet verdict must equal `model_detects`; a full run must
/// reproduce the Fig. 6 totals.
fn juliet_verdicts(t: &mut Tally, inp: &Inputs, outs: &[Outcome], full: bool) {
    let mut totals: HashMap<Scheme, usize> = HashMap::new();
    for (&cell, o) in inp.cells.iter().zip(outs) {
        let Cell::Juliet { case, scheme } = cell else {
            continue;
        };
        let det = if scheme == Scheme::Sbcets {
            Detector::Sbcets
        } else {
            Detector::Hwst128
        };
        let c = &inp.cases[case];
        let want = model_detects(det, c);
        t.check(o.detected() == want, || {
            format!(
                "juliet: {} case {} under {scheme}: detected {} but the model says {want}",
                c.cwe,
                c.index,
                o.detected()
            )
        });
        *totals.entry(scheme).or_default() += usize::from(o.detected());
    }
    if full {
        for (scheme, want) in FIG6_TOTALS {
            let got = totals.get(&scheme).copied().unwrap_or(0);
            t.check(got == want, || {
                format!("juliet: {scheme} detected {got} cases, Fig. 6 says {want}")
            });
        }
    }
    println!(
        "juliet detections: SBCETS {}  HWST128_tchk {}",
        totals.get(&Scheme::Sbcets).copied().unwrap_or(0),
        totals.get(&Scheme::Hwst128Tchk).copied().unwrap_or(0)
    );
}

/// Replays a seeded sample of run cells on the cycle engine; exit (or
/// trap) and simulated statistics must equal the fast engine's.
pub fn replay(t: &mut Tally, inp: &Inputs, outs: &[Outcome], seed: u64, n: usize) {
    let run_cells: Vec<usize> = (0..inp.cells.len())
        .filter(|&i| matches!(inp.cells[i], Cell::Sweep { .. } | Cell::Juliet { .. }))
        .collect();
    if run_cells.is_empty() {
        return;
    }
    let mut s = seed ^ 0x5EED_CAFE;
    for _ in 0..n {
        s = cells::splitmix64(s);
        let i = run_cells[(s % run_cells.len() as u64) as usize];
        let cell = inp.cells[i];
        let fast = &outs[i];
        let same = match cells::replay_on_cycle_engine(inp, cell) {
            Ok((exit, stats)) => fast.exit.as_ref() == Some(&exit) && fast.stats == stats,
            Err(_) => fast.error.is_some(),
        };
        t.check(same, || {
            format!("replay: {cell:?} differs between the cycle and fast engines")
        });
    }
}

/// The composition guard's image half: for every cell, the pass-by-pass
/// image must be byte-identical to `compile_with_options`' image.
pub fn images(t: &mut Tally, inp: &Inputs) {
    let mut off = Tracer::off();
    for &cell in &inp.cells {
        let opts = cell.options();
        let same = cells::with_module(inp, cell, |m| {
            match (
                cells::compile_by_passes(&mut off, m, opts),
                compile_with_options(m, opts),
            ) {
                (Ok((a, ..)), Ok(b)) => a.to_image() == b.program.to_image(),
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            }
        });
        t.check(same, || {
            format!("composition: {cell:?} pass-by-pass image differs from compile_with_options")
        });
    }
}

/// Outcomes of the same cells on the untraced and the traced path must
/// be identical.
pub fn same_outcomes(t: &mut Tally, inp: &Inputs, a: &[Outcome], b: &[Outcome]) {
    for ((&cell, x), y) in inp.cells.iter().zip(a).zip(b) {
        t.check(x == y, || {
            format!("composition: {cell:?} traced outcome differs from untraced")
        });
    }
}
