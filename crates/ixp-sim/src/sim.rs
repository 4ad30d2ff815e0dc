//! The single-engine simulator: the bit-exact oracle the compiler's
//! output is checked against.
//!
//! Threads (hardware contexts) run the same program round-robin; a thread
//! that issues a memory reference swaps out until the reference completes
//! (plus channel contention), exactly the latency-hiding discipline the
//! IXP1200's threading was designed for. The interpreter is
//! [`crate::engine`]'s, driven through its immediate port: every
//! shared-resource effect applies at its issue cycle, so a write stalls
//! only until its channel accepts the burst, and CSR reads and packet
//! grants resolve at once. All timing constants come from
//! [`ixp_machine::timing`]; channel contention is charged through
//! [`ixp_machine::channel`], the same bus model the chip-level simulator
//! ([`crate::chip`]) arbitrates between engines.

use crate::engine::{Engine, Shared};
use crate::machine::SimMemory;
use ixp_machine::channel::{ChannelFaults, ChannelStats};
use ixp_machine::{BlockId, MemSpace, PhysReg, Program};
use std::collections::HashMap;

/// Time-advance strategy of the chip simulator ([`crate::ChipConfig::mode`]).
///
/// Both modes are required to produce bit-identical [`SimResult`]s — the
/// differential tests enforce it on every workload. The split exists
/// because grinding idle arbitration epochs one at a time dominates host
/// time on lightly loaded chips and paced traffic, capping how many
/// packets a CI run can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Advance one arbitration epoch at a time even when every context is
    /// blocked. The bit-exact differential oracle the fast path is tested
    /// against.
    CycleSlice,
    /// Event-driven: when every context on every engine is blocked past
    /// the current epoch, jump straight to the epoch containing the
    /// earliest wake-up ([`ixp_machine::channel::Channel::next_event`]
    /// documents why context wake-ups enumerate *all* future events).
    /// The default.
    #[default]
    FastPath,
}

/// Simulation parameters for one micro-engine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware contexts running the program (IXP1200: 4 per engine).
    pub threads: usize,
    /// Cycle budget (guards against runaway programs). A run that exhausts
    /// it stops with [`StopReason::CycleLimit`] and partial statistics —
    /// check [`SimResult::stop`] before treating the numbers as a
    /// completed run.
    pub max_cycles: u64,
    /// Deterministic channel fault injection (stalls and dropped/retried
    /// references). Default: no faults.
    pub faults: ChannelFaults,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            threads: 4,
            max_cycles: 500_000_000,
            faults: ChannelFaults::default(),
        }
    }
}

/// Why the simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every thread reached `halt` (or found the receive queue empty).
    AllHalted,
    /// The cycle budget ran out: the result carries partial statistics of
    /// an unfinished run.
    CycleLimit,
}

/// Per-engine execution telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Engine index on the chip (0 for the single-engine simulator).
    pub engine: usize,
    /// Instructions issued by this engine's contexts.
    pub instructions: u64,
    /// Context swap-outs (a context yielding the pipeline on a memory
    /// reference, hash, packet operation, or explicit `ctx_swap`).
    pub swap_outs: u64,
    /// Cycles with no runnable context (every context swapped out —
    /// latency the hardware threading failed to hide).
    pub idle_cycles: u64,
    /// Packets transmitted by this engine.
    pub packets: u64,
    /// Payload+header bytes transmitted by this engine.
    pub bytes: u64,
    /// Cycle at which the engine's last context halted (0 if it never
    /// fully halted).
    pub halt_cycle: u64,
}

impl EngineStats {
    pub(crate) fn new(engine: usize) -> Self {
        EngineStats {
            engine,
            instructions: 0,
            swap_outs: 0,
            idle_cycles: 0,
            packets: 0,
            bytes: 0,
            halt_cycle: 0,
        }
    }
}

/// Execution outcome.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Instructions issued (all threads).
    pub instructions: u64,
    /// Memory references issued per space (reads, writes).
    pub mem_refs: HashMap<MemSpace, (u64, u64)>,
    /// Packets fully processed (transmitted).
    pub packets: u64,
    /// Payload bytes transmitted.
    pub bytes: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Throughput in megabits per second at the modeled clock, counting
    /// transmitted bytes (the paper's measure).
    pub mbps: f64,
    /// Per-channel occupancy/queueing telemetry (SRAM, SDRAM, scratch).
    pub channels: Vec<ChannelStats>,
    /// Per-engine telemetry (one entry per micro-engine; the
    /// single-engine [`simulate`] fills exactly one).
    pub engines: Vec<EngineStats>,
}

/// Architectural errors (all indicate compiler or simulator bugs — the
/// validator should reject programs that could trigger them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A store-side register was read by a non-memory instruction.
    ReadFromStoreBank(PhysReg),
    /// Jump target out of range.
    BadTarget(BlockId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ReadFromStoreBank(r) => write!(f, "read from store-side register {r}"),
            SimError::BadTarget(b) => write!(f, "jump to nonexistent block {b}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Run `prog` on the simulated micro-engine.
///
/// # Errors
///
/// Returns [`SimError`] on architectural violations (which
/// [`ixp_machine::validate`] should have ruled out).
pub fn simulate(
    prog: &Program<PhysReg>,
    mem: &mut SimMemory,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    simulate_with(prog, mem, cfg, &nova_obs::Obs::noop())
}

/// [`simulate`] with structured telemetry: the run executes under a
/// `phase.sim` span and finishes by publishing per-channel
/// (`sim.channel.*`) and per-engine (`sim.engine.*`) telemetry — see
/// [`emit_result_obs`] for the exact taxonomy. The execution loop itself
/// is untouched; a no-op observer costs nothing per simulated cycle.
///
/// # Errors
///
/// Returns [`SimError`] on architectural violations, as [`simulate`].
pub fn simulate_with(
    prog: &Program<PhysReg>,
    mem: &mut SimMemory,
    cfg: &SimConfig,
    obs: &nova_obs::Obs,
) -> Result<SimResult, SimError> {
    let span = obs.span("phase.sim");
    let res = simulate_inner(prog, mem, cfg)?;
    span.end();
    emit_result_obs(obs, &res);
    Ok(res)
}

fn simulate_inner(
    prog: &Program<PhysReg>,
    mem: &mut SimMemory,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    let mut engine = Engine::new(0, prog.entry, cfg.threads);
    let mut shared = Shared::new(mem, cfg.faults);
    engine.run(prog, &mut shared, cfg.max_cycles);
    if let Some(err) = engine.error {
        return Err(err);
    }
    let stop = if engine.cycle >= cfg.max_cycles {
        StopReason::CycleLimit
    } else {
        StopReason::AllHalted
    };
    engine.note_halt();
    Ok(shared.finish(engine.cycle, stop, vec![engine.stats]))
}

/// Publish a finished run's telemetry: per-channel counters
/// (`sim.channel.<space>.{reads,writes,busy_cycles,wait_cycles,max_queue_depth}`),
/// a final `sim.channel.<space>.occupancy` sample, and per-engine stall
/// breakdowns (`sim.engine.<i>.{instructions,swap_outs,idle_cycles,packets}`
/// counters plus a `sim.engine.idle_frac` sample per engine).
pub(crate) fn emit_result_obs(obs: &nova_obs::Obs, res: &SimResult) {
    if !obs.enabled() {
        return;
    }
    obs.counter("sim.cycles", res.cycles);
    obs.counter("sim.instructions", res.instructions);
    obs.counter("sim.packets", res.packets);
    obs.counter("sim.bytes", res.bytes);
    for c in &res.channels {
        let space = format!("{:?}", c.space).to_lowercase();
        obs.counter(&format!("sim.channel.{space}.reads"), c.reads);
        obs.counter(&format!("sim.channel.{space}.writes"), c.writes);
        obs.counter(&format!("sim.channel.{space}.busy_cycles"), c.busy_cycles);
        obs.counter(&format!("sim.channel.{space}.wait_cycles"), c.wait_cycles);
        obs.counter(
            &format!("sim.channel.{space}.max_queue_depth"),
            c.max_queue_depth as u64,
        );
        obs.sample(
            &format!("sim.channel.{space}.occupancy"),
            c.occupancy(res.cycles),
        );
    }
    for e in &res.engines {
        let i = e.engine;
        obs.counter(&format!("sim.engine.{i}.instructions"), e.instructions);
        obs.counter(&format!("sim.engine.{i}.swap_outs"), e.swap_outs);
        obs.counter(&format!("sim.engine.{i}.idle_cycles"), e.idle_cycles);
        obs.counter(&format!("sim.engine.{i}.packets"), e.packets);
        if res.cycles > 0 {
            obs.sample(
                "sim.engine.idle_frac",
                e.idle_cycles as f64 / res.cycles as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_machine::timing::read_latency;
    use ixp_machine::{Addr, AluOp, AluSrc, Bank, Block, Cond, Instr, Terminator};

    fn r(bank: Bank, n: u8) -> PhysReg {
        PhysReg::new(bank, n)
    }

    #[test]
    fn straight_line_arithmetic() {
        // immed a0, 6; immed b0, 7; add a1, a0, b0; mov s0, a1; write
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::Imm {
                        dst: r(Bank::A, 0),
                        val: 6,
                    },
                    Instr::Imm {
                        dst: r(Bank::B, 0),
                        val: 7,
                    },
                    Instr::Alu {
                        op: AluOp::Add,
                        dst: r(Bank::A, 1),
                        a: r(Bank::A, 0),
                        b: AluSrc::Reg(r(Bank::B, 0)),
                    },
                    Instr::Move {
                        dst: r(Bank::S, 0),
                        src: r(Bank::A, 1),
                    },
                    Instr::MemWrite {
                        space: MemSpace::Sram,
                        addr: Addr::Imm(10),
                        src: vec![r(Bank::S, 0)],
                    },
                ],
                term: Terminator::Halt,
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::with_sizes(64, 64, 64);
        let res = simulate(
            &prog,
            &mut mem,
            &SimConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(mem.sram[10], 13);
        assert_eq!(res.stop, StopReason::AllHalted);
        assert!(res.cycles >= 6);
        assert_eq!(res.engines.len(), 1);
        assert_eq!(res.engines[0].instructions, res.instructions);
        let sram = &res.channels[ixp_machine::Channel::index(MemSpace::Sram)];
        assert_eq!(sram.writes, 1);
    }

    #[test]
    fn loops_and_branches() {
        // a0 = 0; L1: a0 += 1; if a0 < 5 goto L1; store a0.
        let prog = Program {
            blocks: vec![
                Block {
                    instrs: vec![Instr::Imm {
                        dst: r(Bank::A, 0),
                        val: 0,
                    }],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    instrs: vec![Instr::Alu {
                        op: AluOp::Add,
                        dst: r(Bank::A, 0),
                        a: r(Bank::A, 0),
                        b: AluSrc::Imm(1),
                    }],
                    term: Terminator::Branch {
                        cond: Cond::Lt,
                        a: r(Bank::A, 0),
                        b: AluSrc::Imm(5),
                        if_true: BlockId(1),
                        if_false: BlockId(2),
                    },
                },
                Block {
                    instrs: vec![
                        Instr::Move {
                            dst: r(Bank::S, 0),
                            src: r(Bank::A, 0),
                        },
                        Instr::MemWrite {
                            space: MemSpace::Sram,
                            addr: Addr::Imm(0),
                            src: vec![r(Bank::S, 0)],
                        },
                    ],
                    term: Terminator::Halt,
                },
            ],
            entry: BlockId(0),
        };
        // ALU b-operand immediates over 31 are a validator error, but 1 and
        // 5 are fine.
        let mut mem = SimMemory::with_sizes(16, 16, 16);
        simulate(
            &prog,
            &mut mem,
            &SimConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(mem.sram[0], 5);
    }

    #[test]
    fn memory_latency_blocks_thread() {
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![Instr::MemRead {
                    space: MemSpace::Sdram,
                    addr: Addr::Imm(0),
                    dst: vec![r(Bank::Ld, 0), r(Bank::Ld, 1)],
                }],
                term: Terminator::Halt,
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::with_sizes(16, 16, 16);
        mem.sdram[0] = 0xAA;
        let res = simulate(
            &prog,
            &mut mem,
            &SimConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            res.cycles >= read_latency(MemSpace::Sdram),
            "cycles: {}",
            res.cycles
        );
        assert_eq!(res.engines[0].swap_outs, 1);
        assert!(
            res.engines[0].idle_cycles > 0,
            "the lone context waits on the read"
        );
    }

    #[test]
    fn multithreading_hides_latency() {
        // Each context: read sdram, halt. With 4 threads the reads overlap.
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![Instr::MemRead {
                    space: MemSpace::Sdram,
                    addr: Addr::Imm(0),
                    dst: vec![r(Bank::Ld, 0), r(Bank::Ld, 1)],
                }],
                term: Terminator::Halt,
            }],
            entry: BlockId(0),
        };
        let mut m1 = SimMemory::with_sizes(16, 16, 16);
        let r1 = simulate(
            &prog,
            &mut m1,
            &SimConfig {
                threads: 1,
                max_cycles: 1 << 20,
                ..Default::default()
            },
        )
        .unwrap();
        let mut m4 = SimMemory::with_sizes(16, 16, 16);
        let r4 = simulate(
            &prog,
            &mut m4,
            &SimConfig {
                threads: 4,
                max_cycles: 1 << 20,
                ..Default::default()
            },
        )
        .unwrap();
        // 4 reads but nowhere near 4x the time.
        assert!(
            r4.cycles < r1.cycles * 3,
            "1t {} vs 4t {}",
            r1.cycles,
            r4.cycles
        );
    }

    #[test]
    fn packet_flow() {
        // rx -> tx loop until the queue drains.
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![
                    Instr::RxPacket {
                        len_dst: r(Bank::A, 0),
                        addr_dst: r(Bank::A, 1),
                    },
                    Instr::TxPacket {
                        addr: r(Bank::A, 1),
                        len: r(Bank::A, 0),
                    },
                ],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::with_sizes(16, 256, 16);
        for i in 0..5 {
            mem.rx_queue.push_back((64, i * 16));
        }
        let res = simulate(&prog, &mut mem, &SimConfig::default()).unwrap();
        assert_eq!(res.packets, 5);
        assert_eq!(res.bytes, 320);
        assert_eq!(mem.tx_log.len(), 5);
        assert!(res.mbps > 0.0);
        assert_eq!(res.engines[0].packets, 5);
    }

    #[test]
    fn cycle_limit_enforced() {
        let prog = Program {
            blocks: vec![Block {
                instrs: vec![],
                term: Terminator::Jump(BlockId(0)),
            }],
            entry: BlockId(0),
        };
        let mut mem = SimMemory::default();
        let res = simulate(
            &prog,
            &mut mem,
            &SimConfig {
                threads: 1,
                max_cycles: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.stop, StopReason::CycleLimit);
    }
}
