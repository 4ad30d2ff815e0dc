//! Set-up shared by every workload: seeded inputs and references, the
//! images the simulator runs, the traffic trace, and a warm compile
//! server. Building it is what `setup_s` times.

use crate::inputs::{self, Keys, Packet, Prog, Rng, Shape};
use crate::trace::Collect;
use ixp_machine::{PhysReg, Program};
use ixp_sim::{simulate_chip, ChipConfig, FlowPacket, SimMemory, SimResult, TopologyConfig};
use nova::{CompileConfig, CompileOutput, Compiler, Obs};
use nova_server::{CompileRequest, Server, ServerConfig};
use workloads::ClassifierRule;

/// Packets per validation run of a freshly compiled image.
pub const VALIDATE_PACKETS: usize = 16;
/// Packets per timed AES chip run of `line_rate`.
pub const LINE_PACKETS: usize = 128;
/// Packets in the NAT topology trace of `line_rate`.
pub const TRAFFIC_PACKETS: usize = 50_000;
/// Chips of the NAT topology.
pub const TOPOLOGY_CHIPS: usize = 2;
/// The classifier shape the server is warmed with.
pub const BASE_SHAPE: Shape = Shape {
    rules: workloads::CLASSIFIER_RULES,
    full_mask: 0,
};

/// The validation chip: one engine of four contexts, so validation
/// stays cheap next to the compile it checks.
pub fn validation_chip() -> ChipConfig {
    ChipConfig {
        engines: 1,
        max_cycles: 50_000_000,
        ..ChipConfig::default()
    }
}

/// The `line_rate` AES chip: the default full chip, with a cycle budget
/// that fits the stream.
pub fn line_chip() -> ChipConfig {
    ChipConfig {
        max_cycles: 4_000_000_000,
        ..ChipConfig::default()
    }
}

/// The `rule_update` chip: two engines of four contexts at default host
/// threads.
pub fn reload_chip() -> ChipConfig {
    ChipConfig {
        engines: 2,
        max_cycles: 50_000_000,
        ..ChipConfig::default()
    }
}

/// A program's validation stream and the memory it runs from.
pub struct Validation {
    pub packets: Vec<Packet>,
    pub mem: SimMemory,
    pub addrs: Vec<u32>,
}

impl Validation {
    /// Run `prog` over the stream and check every packet against the
    /// reference.
    pub fn run(&self, prog: &Program<PhysReg>) -> Result<SimResult, String> {
        let mut mem = self.mem.clone();
        let res = simulate_chip(prog, &mut mem, &validation_chip()).map_err(|e| e.to_string())?;
        finished(&res)?;
        inputs::check_run(&mem, &self.packets, &self.addrs)?;
        Ok(res)
    }
}

/// A run must end with every context halted, not at its cycle budget.
pub fn finished(res: &SimResult) -> Result<(), String> {
    match res.stop {
        ixp_sim::StopReason::AllHalted => Ok(()),
        other => Err(format!("simulation stopped early: {other:?}")),
    }
}

/// The compile server and, when traced, the recorders it reports into.
pub struct Service {
    pub server: Server,
    /// Compile-phase events of every request (traced runs only).
    pub compile_events: Option<Collect>,
    /// Server-level counters: retries, sheds (traced runs only).
    pub server_events: Option<Collect>,
    /// The warm-up classifier and its image.
    pub base_rules: Vec<ClassifierRule>,
    pub base_source: String,
    pub base_image: Program<PhysReg>,
}

impl Service {
    /// A server at its default configuration, warmed with the base
    /// classifier. A traced server reports into recorders the benchmark
    /// reads; nothing else about it changes.
    pub fn new(seed: u64, traced: bool) -> Result<Self, String> {
        let (server, compile_events, server_events) = if traced {
            let (c, s) = (Collect::default(), Collect::default());
            let config = ServerConfig {
                compile: CompileConfig::builder().observer(c.clone()).build(),
                ..ServerConfig::default()
            };
            let server = Server::with_observer(config, Obs::new(s.clone()));
            (server, Some(c), Some(s))
        } else {
            (Server::new(ServerConfig::default()), None, None)
        };
        let base_rules = inputs::rules(BASE_SHAPE, &mut Rng::new(seed, 0xBA5E));
        let base_source = workloads::classifier_source(&base_rules);
        let resp = server.submit(CompileRequest::new(0, base_source.clone()));
        let base = resp.result.map_err(|e| format!("base classifier: {e}"))?;
        if let Some(c) = &compile_events {
            c.drain();
        }
        Ok(Service {
            server,
            compile_events,
            server_events,
            base_rules,
            base_source,
            base_image: base.prog,
        })
    }
}

/// Everything a run needs before its timed region.
pub struct Fixture {
    pub seed: u64,
    pub validation: Vec<(Prog, Validation)>,
    /// Images the simulator workloads run, compiled and validated here.
    pub aes: CompileOutput,
    pub nat: CompileOutput,
    /// The `line_rate` AES stream.
    pub line: Validation,
    pub trace: Vec<FlowPacket>,
    pub topology: TopologyConfig,
    pub service: Service,
}

impl Fixture {
    pub fn build(seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 0x5E7);
        let keys = Keys::new(&mut rng);
        // Exactly one packet in eight takes the slow path, at seeded
        // positions, so every seed does the same amount of work.
        let stream = |prog: Prog, n: usize, rng: &mut Rng| {
            let offset = rng.below(8) as usize;
            let packets: Vec<Packet> = (0..n)
                .map(|i| inputs::packet(prog, &keys, (i + offset).is_multiple_of(8), rng))
                .collect();
            let (mem, addrs) = inputs::program_memory(prog, &keys, &packets);
            Validation {
                packets,
                mem,
                addrs,
            }
        };
        let validation: Vec<(Prog, Validation)> = Prog::ALL
            .iter()
            .map(|&p| (p, stream(p, VALIDATE_PACKETS, &mut rng)))
            .collect();
        let line = stream(Prog::Aes, LINE_PACKETS, &mut rng);

        let image = |prog: Prog| -> Result<CompileOutput, String> {
            let out = Compiler::new(CompileConfig::default())
                .compile_output(prog.source())
                .map_err(|e| format!("{}: {e}", prog.name()))?;
            let v = &validation
                .iter()
                .find(|(p, _)| *p == prog)
                .expect("stream")
                .1;
            v.run(&out.prog)
                .map_err(|e| format!("{}: {e}", prog.name()))?;
            Ok(out)
        };
        let aes = image(Prog::Aes)?;
        let nat = image(Prog::Nat)?;

        // The canonical trace, the same for every seed: which flows the
        // Zipf draw makes heavy decides the shard balance, and with it
        // the topology's host time.
        let trace = bench::traffic_spec(TRAFFIC_PACKETS).generate();
        let topology = bench::traffic_topology(TOPOLOGY_CHIPS, ChipConfig::default().mode);
        let service = Service::new(seed, traced)?;
        Ok(Fixture {
            seed,
            validation,
            aes,
            nat,
            line,
            trace,
            topology,
            service,
        })
    }

    pub fn validation(&self, prog: Prog) -> &Validation {
        &self
            .validation
            .iter()
            .find(|(p, _)| *p == prog)
            .expect("every program has a stream")
            .1
    }
}
