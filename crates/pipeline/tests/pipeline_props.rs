//! Pipeline-model properties: the cycle ledger must balance for any
//! instruction stream, and the structural units must behave like the
//! hardware they model.

use hwst_isa::{AluImmOp, AluOp, BranchCond, Instr, LoadWidth, Reg, StoreWidth};
use hwst_pipeline::{Cache, CacheConfig, KeyBuffer, Pipeline, PipelineConfig, RetireInfo};
use proptest::prelude::*;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::from_index(i).unwrap())
}

/// The dynamic share an executor charges for one instruction, where
/// the access happens.
#[derive(Debug, Clone, Copy)]
enum Dyn {
    None,
    Mem(u64),
    Shadow(u64),
    TakenBranch(bool),
    Tchk(u64, u64),
}

/// Charges `dynamic`, retires `i` and returns the cycles charged.
fn retire(p: &mut Pipeline, i: &Instr, dynamic: Dyn) -> u64 {
    let before = p.stats().total_cycles();
    match dynamic {
        Dyn::None | Dyn::TakenBranch(false) => {}
        Dyn::Mem(a) => p.charge_mem_dyn(a),
        Dyn::Shadow(a) => p.charge_shadow_dyn(a),
        Dyn::TakenBranch(true) => p.charge_taken_branch(),
        Dyn::Tchk(lock, key) => p.charge_tchk_dyn(lock, key),
    }
    p.retire(&RetireInfo::of(i));
    p.stats().total_cycles() - before
}

/// A random instruction plus its matching dynamic share.
fn any_retirement() -> impl Strategy<Value = (Instr, Dyn)> {
    prop_oneof![
        (any_reg(), any_reg(), any_reg()).prop_map(|(rd, rs1, rs2)| (
            Instr::Alu {
                op: AluOp::Add,
                rd,
                rs1,
                rs2
            },
            Dyn::None
        )),
        (any_reg(), any_reg(), any_reg()).prop_map(|(rd, rs1, rs2)| (
            Instr::Alu {
                op: AluOp::Div,
                rd,
                rs1,
                rs2
            },
            Dyn::None
        )),
        (any_reg(), any_reg(), any::<u32>(), any::<bool>()).prop_map(|(rd, rs1, addr, checked)| (
            Instr::Load {
                width: LoadWidth::D,
                rd,
                rs1,
                offset: 0,
                checked
            },
            Dyn::Mem(addr as u64)
        )),
        (any_reg(), any_reg(), any::<u32>()).prop_map(|(rs1, rs2, addr)| (
            Instr::Store {
                width: StoreWidth::D,
                rs1,
                rs2,
                offset: 0,
                checked: false
            },
            Dyn::Mem(addr as u64)
        )),
        (any_reg(), any_reg(), any::<bool>()).prop_map(|(rs1, rs2, taken)| (
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                offset: 8
            },
            Dyn::TakenBranch(taken)
        )),
        (any_reg(), any::<u16>(), any::<u32>()).prop_map(|(rs1, lock, key)| (
            Instr::Tchk { rs1 },
            Dyn::Tchk(0x9000 + (lock as u64) * 8, key as u64)
        )),
        (any_reg(), any_reg(), any::<u32>()).prop_map(|(rd, rs1, addr)| (
            Instr::Lbdls { rd, rs1, offset: 0 },
            Dyn::Shadow(addr as u64)
        )),
        (any_reg(), any_reg()).prop_map(|(rd, rs1)| (
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1,
                imm: 1
            },
            Dyn::None
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The ledger balances: the sum of per-retire cycles equals the
    /// stats total, instret equals the stream length, and every cycle
    /// sits in exactly one category.
    #[test]
    fn cycle_ledger_balances(stream in prop::collection::vec(any_retirement(), 1..200)) {
        let mut p = Pipeline::new(PipelineConfig::default());
        let mut total = 0u64;
        for &(i, dynamic) in &stream {
            total += retire(&mut p, &i, dynamic);
        }
        let s = p.stats();
        let count = |f: fn(&Instr) -> bool| stream.iter().filter(|(i, _)| f(i)).count() as u64;
        prop_assert_eq!(s.total_cycles(), total);
        prop_assert_eq!(s.instret, stream.len() as u64);
        prop_assert_eq!(s.base_cycles, stream.len() as u64);
        prop_assert_eq!(
            s.keybuffer_hits + s.keybuffer_misses,
            count(|i| matches!(i, Instr::Tchk { .. }))
        );
        prop_assert_eq!(s.hwst_instrs, count(|i| i.is_hwst()));
        prop_assert_eq!(
            s.muldiv_stalls,
            16 * count(|i| matches!(i, Instr::Alu { op: AluOp::Div, .. }))
        );
    }

    /// Caches never return more than the miss penalty, and a repeated
    /// access is always a hit.
    #[test]
    fn cache_access_bounds(addrs in prop::collection::vec(any::<u32>(), 1..100)) {
        let cfg = CacheConfig::default();
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            let cost = c.access(a as u64);
            prop_assert!(cost == 0 || cost == cfg.miss_penalty);
            prop_assert_eq!(c.access(a as u64), 0, "immediate re-access must hit");
        }
        let (h, m) = c.stats();
        prop_assert_eq!(h + m, addrs.len() as u64 * 2);
    }

    /// The cache is exactly LRU: against a naive model (one `Vec` per
    /// set, MRU first; a hit removes its line and reinserts it at the
    /// front, a miss inserts and drops the back) it charges the same
    /// penalty on every access and ends with the same counters. Lines
    /// are drawn from `ways + 2` tags in up to four sets, so hits reach
    /// every way and misses evict.
    #[test]
    fn cache_matches_naive_lru(stream in prop::collection::vec(any::<u64>(), 200..201)) {
        for ways in [1usize, 2, 3, 4, 8] {
            for sets in [1usize, 4, 64] {
                let cfg = CacheConfig { sets, ways, line_bytes: 64, miss_penalty: 7 };
                let mut c = Cache::new(cfg);
                let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
                let (mut hits, mut misses, mut deep_hits) = (0u64, 0u64, 0u64);
                let used_sets = sets.min(4) as u64;
                for &r in &stream {
                    let set = (r % used_sets) * (sets as u64 / used_sets);
                    let line = (r >> 8) % (ways as u64 + 2) * sets as u64 + set;
                    let lines = &mut model[set as usize];
                    let want = match lines.iter().position(|&l| l == line) {
                        Some(pos) => {
                            lines.remove(pos);
                            hits += 1;
                            deep_hits += (pos >= 2) as u64;
                            0
                        }
                        None => {
                            lines.truncate(ways - 1);
                            misses += 1;
                            cfg.miss_penalty
                        }
                    };
                    lines.insert(0, line);
                    let addr = line * 64 + (r >> 32) % 64;
                    prop_assert_eq!(c.access(addr), want, "ways {} sets {} addr {:#x}", ways, sets, addr);
                }
                prop_assert_eq!(c.stats(), (hits, misses), "ways {} sets {}", ways, sets);
                if ways >= 3 {
                    prop_assert!(deep_hits > 0, "ways {} sets {}: no hit past the second way", ways, sets);
                }
            }
        }
    }

    /// Keybuffer: a fill is immediately visible, capacity is respected,
    /// and clear wipes everything.
    #[test]
    fn keybuffer_invariants(
        ops in prop::collection::vec((any::<u16>(), any::<u32>(), any::<bool>()), 1..100),
        cap in 1usize..16,
    ) {
        let mut kb = KeyBuffer::new(cap);
        let mut live = std::collections::HashMap::new();
        for &(lock, key, clear) in &ops {
            let lock = lock as u64;
            if clear {
                kb.clear();
                live.clear();
            } else {
                kb.fill(lock, key as u64);
                live.insert(lock, key as u64);
                prop_assert_eq!(kb.lookup(lock), Some(key as u64));
                // A hit must return the *latest* fill value.
                if let Some(&k) = live.get(&lock) {
                    prop_assert_eq!(k, key as u64);
                }
            }
        }
    }

    /// Disabling the keybuffer makes every tchk pay; enabling it never
    /// makes a stream slower.
    #[test]
    fn keybuffer_never_hurts(locks in prop::collection::vec(0u8..8, 1..100)) {
        let run = |entries: usize| {
            let mut p = Pipeline::new(PipelineConfig {
                keybuffer_entries: entries,
                ..Default::default()
            });
            let mut total = 0;
            for &l in &locks {
                total += retire(
                    &mut p,
                    &Instr::Tchk { rs1: Reg::A0 },
                    Dyn::Tchk(0x9000 + l as u64 * 8, 7),
                );
            }
            total
        };
        let with = run(8);
        let without = run(0);
        prop_assert!(with <= without);
    }
}
