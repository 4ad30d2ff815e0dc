//! `cold_build`: one client compiles AES, Kasumi and NAT round-robin,
//! each through a fresh `nova::Compiler` at `CompileConfig::default()`,
//! and validates every image against the reference ciphers and NAT
//! translation outside the timed op.

use crate::fixture::Fixture;
use crate::inputs::Prog;
use crate::layers::Counts;
use crate::meter::alloc_calls;
use crate::trace::{rebuild_ilp, Collect, Tracer};
use crate::{Budget, Tally};
use ixp_machine::{PhysReg, Program};
use nova::{CompileConfig, Compiler, Obs};
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Default)]
pub struct ColdOut {
    /// Host ms per compile, by program (`Prog::ALL` order).
    pub compile_ms: [Vec<f64>; 3],
    /// Modeled Mb/s of each validated image, by program.
    pub mbps: [Vec<f64>; 3],
    /// Distinct image checksums, by program.
    pub images: [BTreeSet<u64>; 3],
    /// `(program index, op ms)` of every op.
    pub ops: Vec<(usize, f64)>,
    pub tally: Tally,
}

/// What one compile produced, however it was driven.
struct Built {
    prog: Program<PhysReg>,
    stage: u8,
}

/// Run ops into `out` until `budget` is spent, continuing the round
/// where the ops `out` already holds left it.
pub fn run(
    fx: &Fixture,
    budget: Budget,
    mut tr: Option<&mut Tracer>,
    counts: &mut Counts,
    out: &mut ColdOut,
) {
    let config = CompileConfig::default();
    let events = Collect::default();
    let obs = Obs::new(events.clone());
    let start = Instant::now();
    let k0 = out.ops.len() as u64;
    let mut k = k0;
    while budget.more(k - k0, start) {
        let i = k as usize % Prog::ALL.len();
        let prog = Prog::ALL[i];
        let t0 = Instant::now();
        let built = match tr.as_deref_mut() {
            None => {
                let session = Compiler::new(config.clone());
                let r = session.compile_output(prog.source());
                counts.session(&Default::default(), &session.cache_stats());
                r.map(|o| Built {
                    stage: o.alloc_quality.stage,
                    prog: o.prog,
                })
                .map_err(|e| e.to_string())
            }
            Some(tr) => traced(tr, k, prog.source(), &config, &events, &obs, counts),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.ops.push((i, ms));
        let verdict = built.and_then(|b| {
            if b.stage > 0 {
                return Err(format!("degraded allocation (stage {})", b.stage));
            }
            let res = fx.validation(prog).run(&b.prog)?;
            counts.channels(&res);
            out.images[i].insert(ixp_sim::image_checksum(&b.prog));
            Ok(res.mbps)
        });
        match verdict {
            Ok(mbps) => {
                out.compile_ms[i].push(ms);
                out.mbps[i].push(mbps);
                out.tally.ok();
            }
            Err(e) => out.tally.fail(format!("cold {} op {k}: {e}", prog.name())),
        }
        k += 1;
    }
}

/// One cold compile driven layer by layer through each layer's public
/// calls, the same sequence a fresh session runs, with a span around
/// each call.
fn traced(
    tr: &mut Tracer,
    k: u64,
    src: &str,
    config: &CompileConfig,
    events: &Collect,
    obs: &Obs,
    counts: &mut Counts,
) -> Result<Built, String> {
    let op = tr.begin("op", None, k);
    let f = tr.begin("frontend", Some(op), k);
    let program = nova_frontend::parse(src).map_err(|d| d.render(src))?;
    let info = nova_frontend::check(&program).map_err(|d| d.render(src))?;
    tr.end(f);

    let c = tr.begin("cps", Some(op), k);
    let mut cps = nova_cps::convert(&program, &info).map_err(|d| d.render(src))?;
    nova_cps::optimize(&mut cps, &config.opt);
    if !nova_cps::all_calls_static(&cps) {
        return Err("a dynamic call survived specialization".into());
    }
    nova_cps::to_ssu(&mut cps);
    nova_cps::check_ssu(&cps)?;
    tr.end(c);

    let s = tr.begin("isel", Some(op), k);
    let vprog = nova_backend::select(&cps).map_err(|e| e.to_string())?;
    tr.end(s);

    events.drain();
    let base = alloc_calls();
    let g = tr.begin("codegen", Some(op), k);
    let (alloc, mut solved) =
        nova_backend::alloc::allocate_solved_with(&vprog, &config.alloc, None, obs)
            .map_err(|e| e.to_string())?;
    tr.end(g);
    let seen = events.drain();
    rebuild_ilp(tr, g, &seen, base);
    tr.end(op);

    let nnz = solved.bm.model.problem().num_nonzeros();
    counts.compiled(&cps, vprog.len(), Some(nnz));
    counts.solve(&alloc.stats.solve);
    Ok(Built {
        stage: alloc.quality.stage,
        prog: alloc.prog,
    })
}
