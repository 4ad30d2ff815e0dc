//! `rule_update`: one operator edits a classifier's rules in a closed
//! loop against a warm `nova_server::Server`. Each op warm-compiles the
//! edit through `Server::submit`, then swaps the new image mid-stream
//! onto a running 2-engine chip with `simulate_chip_reload`; the op ends
//! when that run drains, a few packets past the first post-swap
//! transmit.

use crate::fixture::{self, Fixture, Service};
use crate::inputs::{self, Rng, Shape};
use crate::layers::Counts;
use crate::meter::alloc_calls;
use crate::trace::{allocs_within, rebuild_ilp, Collect, Seen, Tracer};
use crate::{Budget, Tally};
use ixp_machine::{PhysReg, Program};
use ixp_sim::{simulate_chip_reload, ImageSwap, SwapOutcome};
use nova::{CompileConfig, CompileOutput, Compiler};
use nova_server::CompileRequest;
use std::time::Instant;
use workloads::ClassifierRule;

/// Packets queued per reload run.
const PACKETS: usize = 40;
/// Transmits after which the new image is swapped in.
const SWAP_AFTER: u64 = 24;
/// Ops whose modeled figures make up `update_cycles` and `modeled_mbps`,
/// fixed so those figures repeat exactly for one seed.
const MODELED_OPS: usize = 64;
/// Ops per epoch. Each epoch replays the same seeded edit stream against
/// a freshly warmed server, so the server's caches (unbounded at its
/// default configuration) stay the same size whatever the run length.
const EPOCH_OPS: u64 = 256;
/// Classifier rule counts structural edits step through.
const MAX_RULES: usize = 8;
/// Re-submits draw from this many most recent sources.
const HISTORY: usize = 64;
/// One op in this many, chosen by seed, is recompiled in a fresh session
/// and compared with its warm artifact.
const PROBE_EVERY: u64 = 32;

#[derive(Default)]
pub struct UpdateOut {
    /// Host ms from `submit` to the response.
    pub warm_ms: Vec<f64>,
    /// Host ms from `submit` through the reload run.
    pub update_ms: Vec<f64>,
    /// Modeled swap-to-first-transmit cycles of the first `MODELED_OPS`
    /// ops (the stream's first ops, which every run replays).
    pub update_cycles: Vec<f64>,
    /// Modeled Mb/s of the same reload runs.
    pub mbps: Vec<f64>,
    /// Warm artifacts compared with a fresh cold compile.
    pub probes: u64,
    pub ops: Vec<(usize, f64)>,
    pub tally: Tally,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Edit {
    /// New constants, same shape: an allocation-cache hit and refinish.
    Constant,
    /// A source submitted before: a whole-image hit.
    Resubmit,
    /// A shape not seen yet: a miss, a MILP solve and a cache insert.
    Structural,
}

/// The seeded edit stream of one epoch: the chip's state as the
/// operator sees it, and what it has submitted before.
struct Operator {
    rng: Rng,
    probe_rng: Rng,
    /// The edit kinds of the current block of ten, in seeded order.
    block: Vec<Edit>,
    shape: Shape,
    /// Full-mask patterns handed out so far, per rule count.
    taken: [u32; MAX_RULES + 1],
    next_rules: usize,
    rules: Vec<ClassifierRule>,
    image: Program<PhysReg>,
    history: Vec<(Vec<ClassifierRule>, String)>,
}

impl Operator {
    /// Every epoch replays the same stream from the same warm state.
    fn new(seed: u64, service: &Service) -> Self {
        Operator {
            rng: Rng::new(seed, 0xED17),
            probe_rng: Rng::new(seed, 0x9B0B),
            block: Vec::new(),
            shape: fixture::BASE_SHAPE,
            taken: [0; MAX_RULES + 1],
            next_rules: 2,
            rules: service.base_rules.clone(),
            image: service.base_image.clone(),
            history: vec![(service.base_rules.clone(), service.base_source.clone())],
        }
    }

    /// The next edit: each block of ten holds exactly seven constant
    /// edits, two re-submits and one structural edit.
    fn edit(&mut self) -> Edit {
        if self.block.is_empty() {
            self.block = [
                [Edit::Constant; 7].as_slice(),
                &[Edit::Resubmit; 2],
                &[Edit::Structural],
            ]
            .concat();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block refilled")
    }

    /// A shape not used in this epoch. Rule counts step through
    /// `2..=MAX_RULES` in turn and full-mask patterns follow a fixed
    /// order, so every seed compiles the same structures; only the
    /// constants are seeded.
    fn fresh_shape(&mut self) -> Shape {
        loop {
            let rules = self.next_rules;
            self.next_rules = if rules == MAX_RULES { 2 } else { rules + 1 };
            let taken = &mut self.taken[rules];
            while *taken < 1 << rules {
                // An odd stride visits every mask of this width once.
                let full_mask = (*taken * 5 + 3) & ((1 << rules) - 1);
                *taken += 1;
                let shape = Shape { rules, full_mask };
                if shape != fixture::BASE_SHAPE {
                    return shape;
                }
            }
        }
    }
}

/// Run ops into `out` until `budget` is spent. Every epoch replays the
/// seeded stream against a freshly warmed server (warm-up outside any
/// timed op); op ids continue from the ops `out` already holds.
pub fn run(
    fx: &Fixture,
    traced: bool,
    budget: Budget,
    mut tr: Option<&mut Tracer>,
    counts: &mut Counts,
    out: &mut UpdateOut,
) {
    let start = Instant::now();
    let k0 = out.ops.len() as u64;
    let mut k = k0;
    while budget.more(k - k0, start) {
        let service = match Service::new(fx.seed, traced) {
            Ok(s) => s,
            Err(e) => {
                out.tally.fail(format!("rule_update warm-up: {e}"));
                return;
            }
        };
        let mut op = Operator::new(fx.seed, &service);
        let end = k + EPOCH_OPS;
        while k < end && budget.more(k - k0, start) {
            step(&service, &mut op, k, tr.as_deref_mut(), counts, out);
            k += 1;
        }
        if let Some(s) = &service.server_events {
            let seen = s.drain();
            counts.server_retries += Collect::counter(&seen, "server.retries");
            counts.server_sheds += Collect::counter(&seen, "server.overload_sheds");
        }
    }
}

/// One op: the operator's next edit, submitted, swapped in and checked.
fn step(
    service: &Service,
    op: &mut Operator,
    k: u64,
    mut tr: Option<&mut Tracer>,
    counts: &mut Counts,
    out: &mut UpdateOut,
) {
    let chip = fixture::reload_chip();
    let edit = op.edit();
    let (rules, source) = match edit {
        Edit::Resubmit => op.history[op.rng.below(op.history.len() as u64) as usize].clone(),
        Edit::Constant | Edit::Structural => {
            if edit == Edit::Structural {
                op.shape = op.fresh_shape();
            }
            let rules = inputs::rules(op.shape, &mut op.rng);
            let source = workloads::classifier_source(&rules);
            (rules, source)
        }
    };
    let packets = inputs::classifier_packets(&op.rules, &rules, PACKETS, &mut op.rng);
    let mut mem = inputs::memory();
    let addrs = inputs::load(&mut mem, packets.iter().map(|p| &p[..]));
    let before = service.server.cache_stats();

    // ---- timed op ----
    let t0 = Instant::now();
    let spans = tr.as_deref_mut().map(|t| {
        let o = t.begin("op", None, k);
        (o, t.begin("server", Some(o), k), alloc_calls())
    });
    let resp = service
        .server
        .submit(CompileRequest::new(k, source.clone()));
    let t1 = Instant::now();
    let mut solved_here = false;
    if let (Some(t), Some((_, s, base))) = (tr.as_deref_mut(), spans) {
        t.end(s);
        let seen = service
            .compile_events
            .as_ref()
            .map(Collect::drain)
            .unwrap_or_default();
        solved_here = rebuild_session(t, s, resp.latency, &seen, base);
    }
    let compiled = match resp.result {
        Ok(o) if o.alloc_quality.stage > 0 => Err(format!(
            "degraded allocation (stage {})",
            o.alloc_quality.stage
        )),
        Ok(o) => Ok(o),
        Err(e) => Err(e.to_string()),
    };
    let swapped = compiled.and_then(|new| {
        let reload = tr
            .as_deref_mut()
            .zip(spans)
            .map(|(t, (o, _, _))| t.begin("sim.reload", Some(o), k));
        let swap = ImageSwap::new(SWAP_AFTER, new.prog.clone());
        let run = simulate_chip_reload(&op.image, &[swap], &mut mem, &chip);
        if let (Some(t), Some(r)) = (tr.as_deref_mut(), reload) {
            t.end(r);
        }
        run.map(|(res, reports)| (new, res, reports))
            .map_err(|e| e.to_string())
    });
    let t2 = Instant::now();
    if let (Some(t), Some((o, _, _))) = (tr.as_deref_mut(), spans) {
        t.end(o);
    }
    // ---- end of timed op ----

    let warm_ms = (t1 - t0).as_secs_f64() * 1e3;
    let update_ms = (t2 - t0).as_secs_f64() * 1e3;
    out.ops.push((0, update_ms));
    let verdict = swapped.and_then(|(new, res, reports)| {
        fixture::finished(&res)?;
        let report = reports.first().ok_or("no swap report")?;
        if report.outcome != SwapOutcome::Applied {
            return Err(format!("swap not applied: {:?}", report.outcome));
        }
        let cycles = report.update_cycles().ok_or("no transmit after the swap")?;
        let first_new = report.first_tx_cycle.unwrap_or(0);
        check_tags(&mem, &packets, &addrs, &op.rules, &rules, first_new)?;
        if tr.is_some() {
            counts
                .server_latency_ms
                .push(resp.latency.as_secs_f64() * 1e3);
            counts.session(&before, &service.server.cache_stats());
            counts.reload(&res, PACKETS, chip.effective_host_threads());
            if solved_here {
                counts.solve(&new.alloc_stats.solve);
            }
            // The selected code is not returned; select it again, off
            // the clock, from the artifact's CPS to count it.
            let selected = nova_backend::select(&new.cps).map_or(0, |p| p.len());
            counts.compiled(&new.cps, selected, None);
        }
        counts.channels(&res);
        if op.probe_rng.below(PROBE_EVERY) == 0 {
            out.probes += 1;
            probe(&source, &new)?;
        }
        Ok((new, res, cycles))
    });
    match verdict {
        Ok((new, res, cycles)) => {
            out.warm_ms.push(warm_ms);
            out.update_ms.push(update_ms);
            if out.update_cycles.len() < MODELED_OPS {
                out.update_cycles.push(cycles as f64);
                out.mbps.push(res.mbps);
            }
            out.tally.ok();
            // The chip now runs the edited rules.
            op.image = new.prog;
            op.rules = rules.clone();
            if edit != Edit::Resubmit {
                if op.history.len() == HISTORY {
                    op.history.remove(0);
                }
                op.history.push((rules, source));
            }
        }
        Err(e) => out.tally.fail(format!("rule_update op {k}: {e}")),
    }
}

/// Every transmitted packet carries the port of the first rule it
/// matches, under the rules of whichever image forwarded it: the new
/// image sent every packet from `first_new` (its first transmit) on.
fn check_tags(
    mem: &ixp_sim::SimMemory,
    packets: &[Vec<u32>],
    addrs: &[u32],
    old: &[ClassifierRule],
    new: &[ClassifierRule],
    first_new: u64,
) -> Result<(), String> {
    if mem.tx_log.is_empty() {
        return Err("nothing transmitted".into());
    }
    for &(addr, len, cycle) in &mem.tx_log {
        let i = addrs
            .binary_search(&addr)
            .map_err(|_| format!("transmit from unknown buffer {addr}"))?;
        let p = &packets[i];
        if len as usize != p.len() * 4 {
            return Err(format!("packet {i}: length {len}"));
        }
        let rules = if cycle < first_new { old } else { new };
        let port = inputs::classify(rules, p[0]);
        let a = addr as usize;
        if mem.sdram[a] != p[0] || mem.sdram[a + 1] != p[1] | (port << 24) {
            return Err(format!(
                "packet {i}: tagged {:#x}, reference port {port}",
                mem.sdram[a + 1]
            ));
        }
    }
    Ok(())
}

/// A warm artifact must equal a fresh session's cold compile.
fn probe(source: &str, warm: &CompileOutput) -> Result<(), String> {
    let cold = Compiler::new(CompileConfig::default())
        .compile_output(source)
        .map_err(|e| format!("cold probe: {e}"))?;
    if cold.artifact_eq(warm) {
        Ok(())
    } else {
        Err("warm artifact differs from a fresh cold compile".into())
    }
}

/// Rebuild one request's layers under its `server` span: the tail of the
/// span as long as the response's service latency is the `session`; the
/// rest is queue wait. Inside the session, the compile phases come from
/// the events the request emitted. Returns whether the request ran a
/// MILP solve.
fn rebuild_session(
    tr: &mut Tracer,
    server: usize,
    latency: std::time::Duration,
    seen: &[Seen],
    base: u64,
) -> bool {
    let end = tr.spans()[server].end;
    let session = tr.record(
        "session",
        server,
        end.checked_sub(latency).unwrap_or(end),
        end,
        0,
    );
    let isel = seen.iter().find(|e| e.is_span("backend.isel"));
    let mut codegen: Option<(Instant, Instant)> = None;
    for e in seen {
        if !matches!(e.kind, nova_obs::EventKind::Span { .. }) {
            continue;
        }
        let allocs = allocs_within(seen, e, base);
        let layer = match e.name.as_str() {
            "phase.frontend" => "frontend",
            "phase.cps" => "cps",
            "backend.isel" => "isel",
            // The selection half of `phase.codegen` wraps `backend.isel`;
            // every other alloc-side span belongs to the allocator.
            "phase.codegen" if isel.is_some_and(|i| e.start() <= i.start() && i.at <= e.at) => {
                continue
            }
            "phase.ilp" | "phase.ilp.model" | "phase.ilp.stage" | "phase.codegen" => {
                let (s, t) = codegen.unwrap_or((e.start(), e.at));
                codegen = Some((s.min(e.start()), t.max(e.at)));
                continue;
            }
            _ => continue,
        };
        tr.record(layer, session, e.start(), e.at, allocs);
    }
    if let Some((s, t)) = codegen {
        let before = seen
            .iter()
            .filter(|x| x.at <= s)
            .map(|x| x.allocs)
            .max()
            .unwrap_or(base)
            .max(base);
        let after = seen
            .iter()
            .filter(|x| x.at <= t)
            .map(|x| x.allocs)
            .max()
            .unwrap_or(before);
        let g = tr.record("codegen", session, s, t, after.saturating_sub(before));
        rebuild_ilp(tr, g, seen, base);
    }
    seen.iter().any(|e| e.is_span("phase.ilp.solve"))
}
