//! Per-layer counts gathered at the layer boundaries, and the per-layer
//! metrics a traced run reports. Layers a workload does not exercise
//! report 0.

use crate::trace::Tracer;
use crate::Metric;
use ilp::SolveStats;
use ixp_sim::{ChipConfig, SimResult, TopologyResult};
use nova::CacheStats;
use std::time::Duration;

/// Memory spaces in the order channel metrics are named.
const SPACES: [&str; 3] = ["sram", "sdram", "scratch"];

#[derive(Default)]
pub struct Counts {
    /// Compiles whose CPS and selected code were measured.
    compiles: u64,
    cps_terms: u64,
    isel_instrs: u64,
    /// Models whose size was measured (cold layer-by-layer compiles).
    models: u64,
    nnz: u64,
    solves: u64,
    rows_removed: u64,
    pivots: u64,
    nodes: u64,
    warm_hits: u64,
    warm_misses: u64,
    solve_cpu_s: f64,
    solve_wall_s: f64,
    threads: usize,
    session: CacheStats,
    pub server_latency_ms: Vec<f64>,
    pub server_retries: u64,
    pub server_sheds: u64,
    reload_runs: u64,
    reload_aborted: u64,
    reload_threads: usize,
    chip_runs: u64,
    chip_host_ns: u128,
    chip_epochs: u64,
    chip_idle: u64,
    chip_engine_cycles: u64,
    chip_instructions: u64,
    chip_threads: usize,
    topo_runs: u64,
    topo_host_ns: u128,
    topo_imbalance: f64,
    topo_idle: u64,
    topo_engine_cycles: u64,
    /// Per space: busy cycles, run cycles, wait cycles; plus packets.
    channel: [(u64, u64, u64); 3],
    channel_packets: u64,
}

impl Counts {
    /// Fold in the sizes of one compile: CPS terms after SSU, selected
    /// instructions, and (where the model is returned) its nonzeros.
    pub fn compiled(&mut self, cps: &nova_cps::Cps, selected: usize, nnz: Option<usize>) {
        self.compiles += 1;
        self.cps_terms += cps.size() as u64;
        self.isel_instrs += selected as u64;
        if let Some(nnz) = nnz {
            self.models += 1;
            self.nnz += nnz as u64;
        }
    }

    /// Fold in one MILP solve's statistics.
    pub fn solve(&mut self, s: &SolveStats) {
        self.solves += 1;
        self.rows_removed += s.presolved_rows as u64;
        self.pivots += s.simplex_iterations as u64;
        self.nodes += s.nodes as u64;
        self.warm_hits += s.warm_hits as u64;
        self.warm_misses += s.warm_misses as u64;
        self.solve_cpu_s += s.cpu_time.as_secs_f64();
        self.solve_wall_s += s.total_time.as_secs_f64();
        self.threads = self.threads.max(s.threads);
    }

    /// Fold in a session's cache-counter change over one op.
    pub fn session(&mut self, before: &CacheStats, after: &CacheStats) {
        let s = &mut self.session;
        s.frontend_hits += after.frontend_hits - before.frontend_hits;
        s.frontend_misses += after.frontend_misses - before.frontend_misses;
        s.alloc_hits += after.alloc_hits - before.alloc_hits;
        s.alloc_misses += after.alloc_misses - before.alloc_misses;
        s.output_hits += after.output_hits - before.output_hits;
        s.output_misses += after.output_misses - before.output_misses;
        s.refinish_fallbacks += after.refinish_fallbacks - before.refinish_fallbacks;
    }

    pub fn reload(&mut self, res: &SimResult, queued: usize, threads: usize) {
        self.reload_runs += 1;
        self.reload_aborted += (queued as u64).saturating_sub(res.packets);
        self.reload_threads = threads;
    }

    pub fn chip(&mut self, res: &SimResult, host: Duration, cfg: &ChipConfig) {
        self.chip_runs += 1;
        self.chip_host_ns += host.as_nanos();
        self.chip_epochs += res.cycles.div_ceil(cfg.slice.max(1));
        self.chip_idle += res.engines.iter().map(|e| e.idle_cycles).sum::<u64>();
        self.chip_engine_cycles += res.cycles * res.engines.len() as u64;
        self.chip_instructions += res.instructions;
        self.chip_threads = cfg.effective_host_threads();
    }

    pub fn topology(&mut self, res: &TopologyResult, host: Duration) {
        self.topo_runs += 1;
        self.topo_host_ns += host.as_nanos();
        let delivered: Vec<f64> = res.chips.iter().map(|c| c.delivered as f64).collect();
        let mean = delivered.iter().sum::<f64>() / delivered.len().max(1) as f64;
        let max = delivered.iter().copied().fold(0.0, f64::max);
        self.topo_imbalance += if mean > 0.0 { max / mean } else { 0.0 };
        for c in &res.chips {
            self.topo_idle += c.result.engines.iter().map(|e| e.idle_cycles).sum::<u64>();
            self.topo_engine_cycles += c.result.cycles * c.result.engines.len() as u64;
        }
    }

    /// Fold in the modeled memory-channel statistics of one run.
    pub fn channels(&mut self, res: &SimResult) {
        for ch in &res.channels {
            let space = format!("{:?}", ch.space).to_lowercase();
            if let Some(i) = SPACES.iter().position(|s| *s == space) {
                let slot = &mut self.channel[i];
                slot.0 += ch.busy_cycles;
                slot.1 += res.cycles;
                slot.2 += ch.wait_cycles;
            }
        }
        self.channel_packets += res.packets;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Names of the layers spans are recorded for, in report order.
pub const LAYERS: [&str; 13] = [
    "frontend",
    "cps",
    "isel",
    "ilp.model",
    "ilp.presolve",
    "ilp.root",
    "ilp.tree",
    "codegen",
    "session",
    "server",
    "sim.reload",
    "sim.chip",
    "sim.topology",
];

/// Per layer: summed self time (ns), summed allocation calls, spans.
pub fn layer_totals(tr: &Tracer) -> Vec<(&'static str, u128, u64, u64)> {
    let own = tr.self_ns();
    LAYERS
        .iter()
        .map(|&name| {
            let mut t = (name, 0u128, 0u64, 0u64);
            for (s, ns) in tr.spans().iter().zip(&own) {
                if s.name == name {
                    t.1 += u128::from(*ns);
                    t.2 += s.allocs;
                    t.3 += 1;
                }
            }
            t
        })
        .collect()
}

/// Every per-layer metric of a traced run, given its spans, its counts,
/// the distinct images per program (cold compiles only), the tracing
/// overhead and the failed-op ratio.
pub fn metrics(
    tr: &Tracer,
    c: &Counts,
    distinct_images: [usize; 3],
    overhead: f64,
    failed_ratio: f64,
) -> Vec<Metric> {
    let own = tr.self_ns();
    let ops: Vec<usize> = (0..tr.spans().len())
        .filter(|&i| tr.spans()[i].name == "op")
        .collect();
    let n_ops = ops.len().max(1) as f64;
    let op_ns: u128 = ops.iter().map(|&i| u128::from(tr.spans()[i].ns())).sum();
    let unattributed: u128 = ops.iter().map(|&i| u128::from(own[i])).sum();
    let totals = layer_totals(tr);
    let layer = |name: &str| totals.iter().find(|t| t.0 == name).expect("known layer");
    let per_op_ms = |name: &str| layer(name).1 as f64 / 1e6 / n_ops;
    let per_op_allocs = |name: &str| layer(name).2 as f64 / n_ops;
    let compiles = c.compiles.max(1) as f64;
    let solves = c.solves.max(1) as f64;
    let s = &c.session;
    let hit = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
    let server_ms = per_op_ms("server");
    let service_ms = crate::meter::mean(&c.server_latency_ms);

    let mut m = vec![
        Metric::new("frontend.ms", per_op_ms("frontend"), "ms"),
        Metric::new("frontend.allocs", per_op_allocs("frontend"), "count"),
        Metric::new("cps.ms", per_op_ms("cps"), "ms"),
        Metric::new("cps.allocs", per_op_allocs("cps"), "count"),
        Metric::new("cps.terms", c.cps_terms as f64 / compiles, "count"),
        Metric::new("isel.ms", per_op_ms("isel"), "ms"),
        Metric::new("isel.instrs", c.isel_instrs as f64 / compiles, "count"),
        Metric::new("ilp.model.ms", per_op_ms("ilp.model"), "ms"),
        Metric::new(
            "ilp.model.nnz",
            ratio(c.nnz as f64, c.models as f64),
            "count",
        ),
        Metric::new("ilp.model.allocs", per_op_allocs("ilp.model"), "count"),
        Metric::new("ilp.presolve.ms", per_op_ms("ilp.presolve"), "ms"),
        Metric::new(
            "ilp.presolve.rows_removed",
            c.rows_removed as f64 / solves,
            "count",
        ),
        Metric::new("ilp.root.ms", per_op_ms("ilp.root"), "ms"),
        Metric::new("ilp.pivots", c.pivots as f64 / solves, "count"),
        Metric::new("ilp.tree.ms", per_op_ms("ilp.tree"), "ms"),
        Metric::new("ilp.nodes", c.nodes as f64 / solves, "count"),
        Metric::new(
            "ilp.warm_hit_ratio",
            ratio(c.warm_hits as f64, (c.warm_hits + c.warm_misses) as f64),
            "ratio",
        ),
        Metric::new(
            "ilp.cpu_over_wall",
            ratio(c.solve_cpu_s, c.solve_wall_s),
            "ratio",
        ),
        Metric::new("ilp.threads", c.threads as f64, "count"),
        Metric::new("codegen.ms", per_op_ms("codegen"), "ms"),
        Metric::new("codegen.allocs", per_op_allocs("codegen"), "count"),
    ];
    for (i, prog) in crate::inputs::Prog::ALL.iter().enumerate() {
        let name = format!("codegen.distinct_images.{}", prog.name());
        m.push(Metric::new(name, distinct_images[i] as f64, "count"));
    }
    m.extend([
        Metric::new("session.ms", per_op_ms("session"), "ms"),
        Metric::new(
            "session.hit_ratio.frontend",
            hit(s.frontend_hits, s.frontend_misses),
            "ratio",
        ),
        Metric::new(
            "session.hit_ratio.alloc",
            hit(s.alloc_hits, s.alloc_misses),
            "ratio",
        ),
        Metric::new(
            "session.hit_ratio.output",
            hit(s.output_hits, s.output_misses),
            "ratio",
        ),
        Metric::new(
            "session.refinish_fallbacks",
            s.refinish_fallbacks as f64,
            "count",
        ),
        Metric::new("server.queue_wait_ms", server_ms, "ms"),
        Metric::new("server.service_ms", service_ms, "ms"),
        Metric::new("server.retries", c.server_retries as f64, "count"),
        Metric::new("server.sheds", c.server_sheds as f64, "count"),
        Metric::new(
            "sim.reload.host_ms",
            ratio(layer("sim.reload").1 as f64 / 1e6, c.reload_runs as f64),
            "ms",
        ),
        Metric::new("sim.reload.host_threads", c.reload_threads as f64, "count"),
        Metric::new(
            "sim.reload.aborted",
            ratio(c.reload_aborted as f64, c.reload_runs as f64),
            "count",
        ),
        Metric::new(
            "sim.chip.host_ms",
            ratio(c.chip_host_ns as f64 / 1e6, c.chip_runs as f64),
            "ms",
        ),
        Metric::new("sim.chip.host_threads", c.chip_threads as f64, "count"),
        Metric::new(
            "sim.chip.epochs",
            ratio(c.chip_epochs as f64, c.chip_runs as f64),
            "count",
        ),
        Metric::new(
            "sim.chip.host_ns_per_epoch",
            ratio(c.chip_host_ns as f64, c.chip_epochs as f64),
            "ns",
        ),
        Metric::new(
            "sim.chip.idle_ratio",
            ratio(c.chip_idle as f64, c.chip_engine_cycles as f64),
            "ratio",
        ),
        Metric::new(
            "sim.chip.instr_per_host_s",
            ratio(c.chip_instructions as f64, c.chip_host_ns as f64 / 1e9),
            "1/s",
        ),
        Metric::new(
            "sim.topology.host_ms",
            ratio(c.topo_host_ns as f64 / 1e6, c.topo_runs as f64),
            "ms",
        ),
        Metric::new(
            "sim.topology.shard_imbalance",
            ratio(c.topo_imbalance, c.topo_runs as f64),
            "ratio",
        ),
        Metric::new(
            "sim.topology.idle_ratio",
            ratio(c.topo_idle as f64, c.topo_engine_cycles as f64),
            "ratio",
        ),
    ]);
    for (i, space) in SPACES.iter().enumerate() {
        let (busy, cycles, _) = c.channel[i];
        m.push(Metric::new(
            format!("channel.{space}.occupancy"),
            ratio(busy as f64, cycles as f64),
            "ratio",
        ));
    }
    for (i, space) in SPACES.iter().enumerate() {
        let wait = c.channel[i].2;
        m.push(Metric::new(
            format!("channel.{space}.wait_cycles"),
            ratio(wait as f64, c.channel_packets as f64),
            "cycles",
        ));
    }
    m.extend([
        Metric::new("trace.op_ms", op_ns as f64 / 1e6 / n_ops, "ms"),
        Metric::new(
            "trace.unattributed_ratio",
            ratio(unattributed as f64, op_ns as f64),
            "ratio",
        ),
        Metric::new("trace.overhead_ratio", overhead, "ratio"),
        Metric::new("failed_ratio", failed_ratio, "ratio"),
    ]);
    m
}
