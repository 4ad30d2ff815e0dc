//! The one micro-engine interpreter both simulators run.
//!
//! An [`Engine`] owns its hardware contexts, the round-robin context
//! picker, its clock, and its [`EngineStats`]; [`Engine::run`] is the
//! only place that executes `Instr` and `Terminator` semantics. Every
//! instruction that touches chip-shared state — memory reads and writes,
//! test-and-set, CSR reads and writes, packet receive and transmit — goes
//! through a [`Port`], and the port is the whole difference between the
//! two simulators:
//!
//! - the single-engine simulator ([`crate::sim`]) passes [`Shared`], the
//!   immediate port, which applies each effect at its issue cycle;
//! - the chip simulator ([`crate::chip`]) passes a per-engine request
//!   queue, and its arbitration barrier replays the queued requests into
//!   [`Shared`]'s hooks in canonical order.
//!
//! So each channel charge, memory access, `mem_refs` update and rx-grant
//! outcome is written once, and the simulators' documented differences
//! (stalling vs posted writes, CSR reads resolved at the barrier, rx
//! retries, swap-out counting on an empty rx queue) are port decisions.

use crate::machine::{RxGrant, SimMemory};
use crate::sim::{EngineStats, SimError, SimResult, StopReason};
use ixp_machine::channel::{Channel, ChannelFaults};
use ixp_machine::timing::{
    issue_cycles, read_latency, BRANCH_TAKEN_PENALTY, CLOCK_HZ, HASH_CYCLES,
};
use ixp_machine::units::hash_unit;
use ixp_machine::{Addr, AluSrc, Bank, BlockId, Instr, MemSpace, PhysReg, Program, Terminator};
use std::collections::HashMap;

/// Cycles a context sleeps after a packet receive or transmit while it
/// synchronizes with the packet scheduler.
const PACKET_SYNC_CYCLES: u64 = 4;

/// One hardware context's register file (A/B general purpose plus the
/// four transfer banks).
#[derive(Debug, Clone)]
pub(crate) struct RegFile {
    a: [u32; 16],
    b: [u32; 16],
    l: [u32; 8],
    s: [u32; 8],
    ld: [u32; 8],
    sd: [u32; 8],
}

impl RegFile {
    pub(crate) fn new() -> Self {
        RegFile {
            a: [0; 16],
            b: [0; 16],
            l: [0; 8],
            s: [0; 8],
            ld: [0; 8],
            sd: [0; 8],
        }
    }

    pub(crate) fn read(&self, r: PhysReg) -> u32 {
        let i = r.num as usize;
        match r.bank {
            Bank::A => self.a[i],
            Bank::B => self.b[i],
            Bank::L => self.l[i],
            Bank::S => self.s[i],
            Bank::Ld => self.ld[i],
            Bank::Sd => self.sd[i],
        }
    }

    pub(crate) fn write(&mut self, r: PhysReg, v: u32) {
        let i = r.num as usize;
        match r.bank {
            Bank::A => self.a[i] = v,
            Bank::B => self.b[i] = v,
            Bank::L => self.l[i] = v,
            Bank::S => self.s[i] = v,
            Bank::Ld => self.ld[i] = v,
            Bank::Sd => self.sd[i] = v,
        }
    }

    fn operand(&self, src: &AluSrc<PhysReg>) -> u32 {
        match src {
            AluSrc::Reg(r) => self.read(*r),
            AluSrc::Imm(v) => *v,
        }
    }
}

/// Scheduling state of one hardware context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ThreadState {
    /// Runnable now.
    Ready,
    /// Swapped out until the given cycle.
    Blocked(u64),
    /// Swapped out on a shared-resource request whose completion time the
    /// arbiter has not determined yet (chip-level simulation only).
    Pending,
    /// Reached `halt` or parked on an empty receive queue.
    Halted,
}

/// One hardware context: registers, program counter, scheduling state.
#[derive(Debug, Clone)]
pub(crate) struct Ctx {
    pub(crate) regs: RegFile,
    pub(crate) block: BlockId,
    pub(crate) pc: usize,
    pub(crate) state: ThreadState,
}

fn resolve_addr(regs: &RegFile, addr: &Addr<PhysReg>) -> u32 {
    match addr {
        Addr::Imm(a) => *a,
        Addr::Reg(r, o) => regs.read(*r).wrapping_add(*o),
    }
}

/// Advance an idle engine clock to `target`, crediting the whole span as
/// idle time. The single canonical accounting for "no context can run":
/// the interpreter loop and the chip's fast-path skip both charge idle
/// cycles through here so the two books can never drift apart.
pub(crate) fn advance_idle(cycle: &mut u64, idle_cycles: &mut u64, target: u64) {
    debug_assert!(target >= *cycle, "idle-advance going backwards");
    *idle_cycles += target - *cycle;
    *cycle = target;
}

/// Issue cycle and context index of a shared-resource operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issue {
    pub(crate) cycle: u64,
    pub(crate) ctx: usize,
}

/// How the interpreter reaches chip-shared state. Each hook receives the
/// issuing context with its program counter already past the
/// instruction; a hook that swaps the context out sets its state to
/// `Blocked` or `Pending`, and the interpreter counts that as a swap-out.
pub(crate) trait Port {
    /// Whether an idle engine stops exactly at [`Engine::run`]'s `end`.
    /// The chip's `end` is an arbitration barrier every engine must reach
    /// exactly; the single-engine simulator's is a cycle budget that an
    /// idle jump to the next wake-up may overshoot.
    const IDLE_STOPS_AT_END: bool;
    /// Burst read of `dst.len()` words at `base` into `dst`.
    fn read(&mut self, at: Issue, ctx: &mut Ctx, space: MemSpace, base: u32, dst: &[PhysReg]);
    /// Burst write of the registers `src` to `base`.
    fn write(&mut self, at: Issue, ctx: &mut Ctx, space: MemSpace, base: u32, src: &[PhysReg]);
    /// Atomic SRAM `old = [addr]; [addr] = old | val; dst = old`.
    fn test_and_set(&mut self, at: Issue, ctx: &mut Ctx, addr: u32, val: u32, dst: PhysReg);
    /// Read a chip-shared CSR into `dst`.
    fn csr_read(&mut self, at: Issue, ctx: &mut Ctx, csr: u32, dst: PhysReg);
    /// Write a chip-shared CSR.
    fn csr_write(&mut self, at: Issue, csr: u32, val: u32);
    /// Ask the receive scheduler for a packet.
    fn rx(&mut self, at: Issue, ctx: &mut Ctx, len_dst: PhysReg, addr_dst: PhysReg);
    /// Hand a packet to the transmit queue.
    fn tx(&mut self, at: Issue, addr: u32, len: u32);
}

/// One micro-engine: its contexts, picker position, clock, telemetry,
/// and the first architectural error it hit.
pub(crate) struct Engine {
    pub(crate) id: usize,
    pub(crate) cycle: u64,
    pub(crate) ctxs: Vec<Ctx>,
    pub(crate) current: usize,
    pub(crate) stats: EngineStats,
    pub(crate) error: Option<SimError>,
}

impl Engine {
    pub(crate) fn new(id: usize, entry: BlockId, contexts: usize) -> Self {
        Engine {
            id,
            cycle: 0,
            ctxs: (0..contexts.max(1))
                .map(|_| Ctx {
                    regs: RegFile::new(),
                    block: entry,
                    pc: 0,
                    state: ThreadState::Ready,
                })
                .collect(),
            current: 0,
            stats: EngineStats::new(id),
            error: None,
        }
    }

    pub(crate) fn all_halted(&self) -> bool {
        self.ctxs.iter().all(|c| c.state == ThreadState::Halted)
    }

    /// Earliest wake-up among blocked contexts, `None` when nothing is
    /// sleeping on a timer (everything is ready, pending at the arbiter,
    /// or halted).
    fn earliest_wake(&self) -> Option<u64> {
        self.ctxs
            .iter()
            .filter_map(|c| match c.state {
                ThreadState::Blocked(u) => Some(u),
                _ => None,
            })
            .min()
    }

    /// Stamp [`EngineStats::halt_cycle`] if every context has halted and
    /// no halt was recorded yet.
    pub(crate) fn note_halt(&mut self) {
        if self.all_halted() && self.stats.halt_cycle == 0 {
            self.stats.halt_cycle = self.cycle;
        }
    }

    /// The next runnable context, round robin from the last one picked.
    fn pick(&mut self) -> Option<usize> {
        let n = self.ctxs.len();
        for off in 0..n {
            let i = (self.current + off) % n;
            match self.ctxs[i].state {
                ThreadState::Ready => return Some(i),
                ThreadState::Blocked(until) if until <= self.cycle => {
                    self.ctxs[i].state = ThreadState::Ready;
                    return Some(i);
                }
                _ => {}
            }
        }
        None
    }

    /// Execute until the clock reaches `end`, every context halts, or an
    /// architectural error is recorded in [`Engine::error`].
    pub(crate) fn run<P: Port>(&mut self, prog: &Program<PhysReg>, port: &mut P, end: u64) {
        if self.error.is_some() || self.all_halted() {
            return;
        }
        while self.cycle < end {
            let Some(ti) = self.pick() else {
                if self.all_halted() {
                    self.note_halt();
                    return;
                }
                // Nothing runnable: sleep to the earliest wake-up, or to
                // `end` when only barrier-pending requests remain.
                let target = match self.earliest_wake() {
                    Some(u) if P::IDLE_STOPS_AT_END => u.max(self.cycle + 1).min(end),
                    Some(u) => u.max(self.cycle + 1),
                    None => end,
                };
                advance_idle(&mut self.cycle, &mut self.stats.idle_cycles, target);
                continue;
            };
            self.current = ti;
            self.step(prog, port, ti);
            if self.error.is_some() {
                return;
            }
        }
    }

    /// Issue one instruction or terminator of context `ti`.
    fn step<P: Port>(&mut self, prog: &Program<PhysReg>, port: &mut P, ti: usize) {
        let n_ctxs = self.ctxs.len();
        let ctx = &mut self.ctxs[ti];
        let block = &prog.blocks[ctx.block.index()];
        self.stats.instructions += 1;

        let Some(ins) = block.instrs.get(ctx.pc) else {
            self.cycle += 1;
            let target = match &block.term {
                Terminator::Halt => {
                    ctx.state = ThreadState::Halted;
                    return;
                }
                Terminator::Jump(target) => {
                    self.cycle += BRANCH_TAKEN_PENALTY;
                    *target
                }
                Terminator::Branch {
                    cond,
                    a,
                    b,
                    if_true,
                    if_false,
                } => {
                    if cond.eval(ctx.regs.read(*a), ctx.regs.operand(b)) {
                        self.cycle += BRANCH_TAKEN_PENALTY;
                        *if_true
                    } else {
                        *if_false
                    }
                }
            };
            if target.index() >= prog.blocks.len() {
                self.error = Some(SimError::BadTarget(target));
                return;
            }
            ctx.block = target;
            ctx.pc = 0;
            return;
        };

        self.cycle += issue_cycles(ins);
        let cycle = self.cycle;
        let at = Issue { cycle, ctx: ti };
        ctx.pc += 1;
        match ins {
            Instr::Alu { op, dst, a, b } => {
                let v = op.eval(ctx.regs.read(*a), ctx.regs.operand(b));
                ctx.regs.write(*dst, v);
            }
            Instr::Imm { dst, val } => ctx.regs.write(*dst, *val),
            Instr::Move { dst, src } => {
                let v = ctx.regs.read(*src);
                ctx.regs.write(*dst, v);
            }
            Instr::Clone { .. } => {
                // Validated programs never contain clones; treat as nop.
            }
            Instr::MemRead { space, addr, dst } => {
                let base = resolve_addr(&ctx.regs, addr);
                port.read(at, ctx, *space, base, dst);
            }
            Instr::MemWrite { space, addr, src } => {
                let base = resolve_addr(&ctx.regs, addr);
                port.write(at, ctx, *space, base, src);
            }
            Instr::Hash { dst, src } => {
                let v = hash_unit(ctx.regs.read(PhysReg::new(Bank::S, src.num)));
                ctx.regs.write(*dst, v);
                ctx.state = ThreadState::Blocked(cycle + HASH_CYCLES);
            }
            Instr::TestAndSet { dst, src, addr } => {
                let a = resolve_addr(&ctx.regs, addr);
                let v = ctx.regs.read(*src);
                port.test_and_set(at, ctx, a, v, *dst);
            }
            Instr::CsrRead { dst, csr } if *csr == ixp_machine::CSR_CTX => {
                // The context-number CSR is engine-local: it resolves in
                // the issue cycle and names the context chip-wide.
                ctx.regs.write(*dst, (self.id * n_ctxs + ti) as u32);
            }
            Instr::CsrRead { dst, csr } => port.csr_read(at, ctx, *csr, *dst),
            Instr::CsrWrite { src, csr } => {
                let v = ctx.regs.read(*src);
                port.csr_write(at, *csr, v);
            }
            Instr::RxPacket { len_dst, addr_dst } => port.rx(at, ctx, *len_dst, *addr_dst),
            Instr::TxPacket { addr, len } => {
                let a = ctx.regs.read(*addr);
                let l = ctx.regs.read(*len);
                self.stats.packets += 1;
                self.stats.bytes += l as u64;
                ctx.state = ThreadState::Blocked(cycle + PACKET_SYNC_CYCLES);
                port.tx(at, a, l);
            }
            Instr::CtxSwap => ctx.state = ThreadState::Blocked(cycle + 1),
        }
        if matches!(ctx.state, ThreadState::Blocked(_) | ThreadState::Pending) {
            self.stats.swap_outs += 1;
        }
    }
}

/// Chip-shared state — memories, CSRs, packet queues, the three memory
/// channels and the reference counters. It is the immediate [`Port`]:
/// each hook applies its effect at the issue cycle. The chip's barrier
/// replays queued requests into these same hooks.
pub(crate) struct Shared<'m> {
    pub(crate) mem: &'m mut SimMemory,
    pub(crate) channels: [Channel; 3],
    mem_refs: HashMap<MemSpace, (u64, u64)>,
}

impl<'m> Shared<'m> {
    pub(crate) fn new(mem: &'m mut SimMemory, faults: ChannelFaults) -> Self {
        Shared {
            mem,
            channels: Channel::per_space_with(faults),
            mem_refs: HashMap::new(),
        }
    }

    fn count_refs(&mut self, space: MemSpace, reads: u64, writes: u64) {
        let e = self.mem_refs.entry(space).or_insert((0, 0));
        e.0 += reads;
        e.1 += writes;
    }

    /// Write `vals` at `base`; returns the cycle the channel accepted the
    /// burst. The write effect of both the immediate port and the chip's
    /// posted writes.
    pub(crate) fn apply_write(
        &mut self,
        issue: u64,
        space: MemSpace,
        base: u32,
        vals: impl ExactSizeIterator<Item = u32>,
    ) -> u64 {
        let start = self.channels[Channel::index(space)].service_write(issue, vals.len());
        for (i, v) in vals.enumerate() {
            self.mem.write(space, base + i as u32, v);
        }
        self.count_refs(space, 0, 1);
        start
    }

    /// Assemble the run's [`SimResult`].
    pub(crate) fn finish(
        self,
        cycles: u64,
        stop: StopReason,
        engines: Vec<EngineStats>,
    ) -> SimResult {
        let instructions = engines.iter().map(|e| e.instructions).sum();
        let packets = engines.iter().map(|e| e.packets).sum();
        let bytes: u64 = engines.iter().map(|e| e.bytes).sum();
        let seconds = cycles as f64 / CLOCK_HZ as f64;
        let mbps = if seconds > 0.0 {
            (bytes as f64 * 8.0) / seconds / 1.0e6
        } else {
            0.0
        };
        SimResult {
            cycles,
            instructions,
            mem_refs: self.mem_refs,
            packets,
            bytes,
            stop,
            mbps,
            channels: self.channels.into_iter().map(|c| c.stats).collect(),
            engines,
        }
    }
}

impl Port for Shared<'_> {
    const IDLE_STOPS_AT_END: bool = false;

    /// The context sleeps until the channel completes the burst.
    fn read(&mut self, at: Issue, ctx: &mut Ctx, space: MemSpace, base: u32, dst: &[PhysReg]) {
        let (_, done) = self.channels[Channel::index(space)].service_read(at.cycle, dst.len());
        for (i, d) in dst.iter().enumerate() {
            ctx.regs.write(*d, self.mem.read(space, base + i as u32));
        }
        self.count_refs(space, 1, 0);
        ctx.state = ThreadState::Blocked(done);
    }

    /// Writes retire asynchronously: the context only stalls until the
    /// channel accepts the burst, not for the full latency.
    fn write(&mut self, at: Issue, ctx: &mut Ctx, space: MemSpace, base: u32, src: &[PhysReg]) {
        let regs = &ctx.regs;
        let start = self.apply_write(at.cycle, space, base, src.iter().map(|s| regs.read(*s)));
        if start > at.cycle {
            ctx.state = ThreadState::Blocked(start);
        }
    }

    /// The context sleeps for one SRAM read latency.
    fn test_and_set(&mut self, at: Issue, ctx: &mut Ctx, addr: u32, val: u32, dst: PhysReg) {
        let old = self.mem.read(MemSpace::Sram, addr);
        self.mem.write(MemSpace::Sram, addr, old | val);
        ctx.regs.write(dst, old);
        self.count_refs(MemSpace::Sram, 1, 1);
        ctx.state = ThreadState::Blocked(at.cycle + read_latency(MemSpace::Sram));
    }

    fn csr_read(&mut self, _at: Issue, ctx: &mut Ctx, csr: u32, dst: PhysReg) {
        ctx.regs.write(dst, *self.mem.csr.get(&csr).unwrap_or(&0));
    }

    fn csr_write(&mut self, _at: Issue, csr: u32, val: u32) {
        self.mem.csr.insert(csr, val);
    }

    /// With timed traffic and nothing arrived yet, the context sleeps
    /// until the next arrival and then re-executes the rx (its pc steps
    /// back; polling is billed as another issue). An exhausted stream
    /// parks the context.
    fn rx(&mut self, at: Issue, ctx: &mut Ctx, len_dst: PhysReg, addr_dst: PhysReg) {
        ctx.state = match self.mem.rx_grant(at.cycle) {
            RxGrant::Packet { len, addr } => {
                ctx.regs.write(len_dst, len);
                ctx.regs.write(addr_dst, addr);
                ThreadState::Blocked(at.cycle + PACKET_SYNC_CYCLES)
            }
            RxGrant::WaitUntil(arrival) => {
                ctx.pc -= 1;
                ThreadState::Blocked(arrival)
            }
            RxGrant::Empty => ThreadState::Halted,
        };
    }

    fn tx(&mut self, at: Issue, addr: u32, len: u32) {
        self.mem.tx_log.push((addr, len, at.cycle));
    }
}
