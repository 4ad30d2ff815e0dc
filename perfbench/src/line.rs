//! `line_rate`: the simulator alone, no compiler in the timed region.
//! Ops alternate between AES on a full 6-engine chip (`simulate_chip` at
//! the default `ChipConfig`) and NAT on the canonical 2-chip topology
//! under Zipf flow traffic (`simulate_topology`, one host thread per
//! chip). Images and traffic are built in set-up.

use crate::fixture::{self, Fixture};
use crate::layers::Counts;
use crate::trace::Tracer;
use crate::{Budget, Tally};
use ixp_sim::{simulate_chip, simulate_topology};
use std::time::Instant;

#[derive(Default)]
pub struct LineOut {
    /// Modeled Mcycles simulated per host second, AES chip runs.
    pub chip_rate: Vec<f64>,
    /// Summed per-chip modeled Mcycles per host second, topology runs.
    pub topo_rate: Vec<f64>,
    /// Delivered kpackets per host second, topology runs.
    pub kpps: Vec<f64>,
    /// Modeled results, identical on every run of one seed.
    pub chip_mbps: Option<f64>,
    pub topo_mbps: Option<f64>,
    pub p99_cycles: Option<f64>,
    pub ops: Vec<(usize, f64)>,
    pub tally: Tally,
}

/// A modeled figure must repeat exactly across runs of one input.
fn same(slot: &mut Option<f64>, v: f64, what: &str) -> Result<(), String> {
    match *slot {
        None => {
            *slot = Some(v);
            Ok(())
        }
        Some(first) if first == v => Ok(()),
        Some(first) => Err(format!("{what} changed between runs: {first} then {v}")),
    }
}

/// Run ops into `out` until `budget` is spent, continuing the round
/// where the ops `out` already holds left it.
pub fn run(
    fx: &Fixture,
    budget: Budget,
    mut tr: Option<&mut Tracer>,
    counts: &mut Counts,
    out: &mut LineOut,
) {
    let chip = fixture::line_chip();
    let start = Instant::now();
    let k0 = out.ops.len() as u64;
    let mut k = k0;
    while budget.more(k - k0, start) {
        let kind = (k % 2) as usize;
        let verdict = if kind == 0 {
            let mut mem = fx.line.mem.clone();
            let spans = tr.as_deref_mut().map(|t| {
                let o = t.begin("op", None, k);
                (o, t.begin("sim.chip", Some(o), k))
            });
            let t0 = Instant::now();
            let run = simulate_chip(&fx.aes.prog, &mut mem, &chip);
            let dt = t0.elapsed();
            if let (Some(t), Some((o, s))) = (tr.as_deref_mut(), spans) {
                t.end(s);
                t.end(o);
            }
            out.ops.push((kind, dt.as_secs_f64() * 1e3));
            run.map_err(|e| e.to_string()).and_then(|res| {
                fixture::finished(&res)?;
                crate::inputs::check_run(&mem, &fx.line.packets, &fx.line.addrs)?;
                same(&mut out.chip_mbps, res.mbps, "AES chip Mb/s")?;
                out.chip_rate
                    .push(res.cycles as f64 / dt.as_secs_f64() / 1e6);
                if tr.is_some() {
                    counts.chip(&res, dt, &chip);
                }
                counts.channels(&res);
                Ok(())
            })
        } else {
            let spans = tr.as_deref_mut().map(|t| {
                let o = t.begin("op", None, k);
                (o, t.begin("sim.topology", Some(o), k))
            });
            let t0 = Instant::now();
            let run = simulate_topology(
                &fx.nat.prog,
                &fx.topology,
                &fx.trace,
                bench::write_nat_packet,
            );
            let dt = t0.elapsed();
            if let (Some(t), Some((o, s))) = (tr.as_deref_mut(), spans) {
                t.end(s);
                t.end(o);
            }
            out.ops.push((kind, dt.as_secs_f64() * 1e3));
            run.map_err(|e| e.to_string()).and_then(|res| {
                if res.offered != fx.trace.len() as u64
                    || res.delivered + res.dropped != res.offered
                    || res.delivered == 0
                {
                    return Err(format!(
                        "topology lost packets: offered {}, delivered {}, dropped {}",
                        res.offered, res.delivered, res.dropped
                    ));
                }
                for c in &res.chips {
                    fixture::finished(&c.result)?;
                }
                same(&mut out.topo_mbps, res.mbps, "topology Mb/s")?;
                same(&mut out.p99_cycles, res.latency.p99 as f64, "topology p99")?;
                let secs = dt.as_secs_f64();
                let cycles: u64 = res.chips.iter().map(|c| c.result.cycles).sum();
                out.topo_rate.push(cycles as f64 / secs / 1e6);
                out.kpps.push(res.delivered as f64 / secs / 1e3);
                if tr.is_some() {
                    counts.topology(&res, dt);
                }
                for c in &res.chips {
                    counts.channels(&c.result);
                }
                Ok(())
            })
        };
        match verdict {
            Ok(()) => out.tally.ok(),
            Err(e) => out.tally.fail(format!("line_rate op {k}: {e}")),
        }
        k += 1;
    }
}
