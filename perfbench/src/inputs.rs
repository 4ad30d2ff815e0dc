//! Seeded inputs and the independent references outputs are checked
//! against. The program under test only ever sees the generated inputs.

use ixp_sim::SimMemory;
use workloads::{aes, kasumi, nat, ClassifierRule};

/// SplitMix64: a small deterministic stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn word(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn key(&mut self) -> [u8; 16] {
        core::array::from_fn(|_| self.next() as u8)
    }
}

/// Header words in front of the payload (IPv4/TCP-style fast-path header
/// for the ciphers, IPv6 plus TCP for NAT).
pub const HEADER_WORDS: usize = workloads::HEADER_WORDS as usize;
/// Payload words of every generated packet (64 bytes: whole AES and
/// Kasumi blocks), fixed so every seed does the same amount of work.
pub const PAYLOAD_WORDS: usize = 16;

/// Which program a packet stream is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    Aes,
    Kasumi,
    Nat,
}

impl Prog {
    pub const ALL: [Prog; 3] = [Prog::Aes, Prog::Kasumi, Prog::Nat];

    pub fn name(self) -> &'static str {
        match self {
            Prog::Aes => "aes",
            Prog::Kasumi => "kasumi",
            Prog::Nat => "nat",
        }
    }

    pub fn source(self) -> &'static str {
        match self {
            Prog::Aes => workloads::AES_NOVA,
            Prog::Kasumi => workloads::KASUMI_NOVA,
            Prog::Nat => workloads::NAT_NOVA,
        }
    }
}

/// Key material for the two ciphers and the reference state derived
/// from it.
pub struct Keys {
    aes_key: [u8; 16],
    aes_rk: [u32; 44],
    kasumi_key: [u8; 16],
    kasumi_sk: kasumi::Subkeys,
    s7: [u16; 128],
    s9: [u16; 512],
}

impl Keys {
    pub fn new(rng: &mut Rng) -> Self {
        let aes_key = rng.key();
        let kasumi_key = rng.key();
        Keys {
            aes_rk: aes::expand_key(&aes_key),
            aes_key,
            kasumi_sk: kasumi::key_schedule(&kasumi_key),
            kasumi_key,
            s7: kasumi::s7_table(),
            s9: kasumi::s9_table(),
        }
    }

    /// Load a program's tables and keys into simulated memory.
    fn load(&self, prog: Prog, mem: &mut SimMemory) {
        match prog {
            Prog::Aes => aes::load_sram(&self.aes_key, |a, v| mem.sram[a as usize] = v),
            Prog::Kasumi => {
                let (mut s, mut c) = (Vec::new(), Vec::new());
                kasumi::load_memory(
                    &self.kasumi_key,
                    |a, v| s.push((a, v)),
                    |a, v| c.push((a, v)),
                );
                for (a, v) in s {
                    mem.sram[a as usize] = v;
                }
                for (a, v) in c {
                    mem.scratch[a as usize] = v;
                }
            }
            // NAT's address-adjustment table stays zero, which is what
            // the reference translation assumes.
            Prog::Nat => {}
        }
    }
}

/// One generated packet: its words as received, and what the program
/// must leave in the buffer and hand to `tx_packet`.
#[derive(Debug, Clone)]
pub struct Packet {
    pub words: Vec<u32>,
    pub expected: Vec<u32>,
    /// `(word offset from the buffer start, length in bytes)` transmitted.
    pub tx: (u32, u32),
}

fn checksum_fold(words: &[u32]) -> u32 {
    let s: u32 = words.iter().map(|w| (w >> 16) + (w & 0xFFFF)).sum();
    let f = (s & 0xFFFF) + (s >> 16);
    (f & 0xFFFF) + (f >> 16)
}

/// A packet for `prog`. A `slow` one carries a non-TCP protocol and
/// takes the slow path, which forwards it unmodified.
pub fn packet(prog: Prog, keys: &Keys, slow: bool, rng: &mut Rng) -> Packet {
    let payload: Vec<u32> = (0..PAYLOAD_WORDS).map(|_| rng.word()).collect();
    let bytes = ((HEADER_WORDS + PAYLOAD_WORDS) * 4) as u32;
    match prog {
        Prog::Aes | Prog::Kasumi => {
            let mut words = vec![0u32; HEADER_WORDS];
            let tos = rng.below(256) as u32;
            words[0] = (4 << 28) | (5 << 24) | (tos << 16) | bytes;
            let ttl = 2 + rng.below(254) as u32;
            let proto = if slow { 17 } else { 6 };
            words[1] = (ttl << 24) | (proto << 16) | (rng.word() & 0xFFFF);
            for w in words.iter_mut().skip(2) {
                *w = rng.word();
            }
            words.extend_from_slice(&payload);
            let mut expected = words.clone();
            if !slow {
                expected[1] = ((ttl - 1) << 24) | (words[1] & 0x00FF_FFFF);
                let body = &mut expected[HEADER_WORDS..];
                if prog == Prog::Aes {
                    aes::encrypt_words(body, &keys.aes_rk);
                } else {
                    kasumi::encrypt_words(body, &keys.kasumi_sk, &keys.s7, &keys.s9);
                }
                expected[13] = checksum_fold(&expected[HEADER_WORDS..]);
            }
            Packet {
                words,
                expected,
                tx: (0, bytes),
            }
        }
        Prog::Nat => {
            let hdr = nat::Ipv6Header {
                version: 6,
                traffic_class: rng.below(256) as u32,
                flow: rng.word() & 0xF_FFFF,
                payload_len: bytes - 40,
                next_header: if slow { 17 } else { 6 },
                hop_limit: 1 + rng.below(255) as u32,
                src: [rng.word(), rng.word(), rng.word(), rng.word()],
                dst: [rng.word(), rng.word(), rng.word(), rng.word()],
            };
            let mut words = hdr.pack().to_vec();
            words.extend((words.len()..HEADER_WORDS).map(|_| rng.word()));
            words.extend_from_slice(&payload);
            let mut expected = words.clone();
            let tx = if slow {
                (0, bytes)
            } else {
                let (start, len) = nat::translate_packet(&mut expected, bytes);
                // The program writes its even-aligned burst from word 4
                // with a zero pad in front of the IPv4 header.
                expected[4] = 0;
                (start as u32, len)
            };
            Packet {
                words,
                expected,
                tx,
            }
        }
    }
}

/// Simulated memory sized for the generated streams.
pub fn memory() -> SimMemory {
    SimMemory::with_sizes(4096, 1 << 16, 2048)
}

/// Lay packets out in SDRAM (quad-word aligned) and queue them for
/// reception; returns each packet's buffer address.
pub fn load<'a>(mem: &mut SimMemory, packets: impl IntoIterator<Item = &'a [u32]>) -> Vec<u32> {
    let mut base = 0u32;
    let mut addrs = Vec::new();
    for words in packets {
        for (i, w) in words.iter().enumerate() {
            mem.sdram[base as usize + i] = *w;
        }
        mem.rx_queue.push_back(((words.len() * 4) as u32, base));
        addrs.push(base);
        base += (words.len() as u32 + 1) & !1;
    }
    addrs
}

/// Memory for a run of `prog` over `packets`: tables, keys and the queue.
pub fn program_memory(prog: Prog, keys: &Keys, packets: &[Packet]) -> (SimMemory, Vec<u32>) {
    let mut mem = memory();
    keys.load(prog, &mut mem);
    let addrs = load(&mut mem, packets.iter().map(|p| &p.words[..]));
    (mem, addrs)
}

/// Compare a finished run against the references: every packet
/// transmitted exactly once with the expected start and length, and its
/// buffer holding exactly the expected words.
pub fn check_run(mem: &SimMemory, packets: &[Packet], addrs: &[u32]) -> Result<(), String> {
    let mut want: Vec<(u32, u32)> = packets
        .iter()
        .zip(addrs)
        .map(|(p, &a)| (a + p.tx.0, p.tx.1))
        .collect();
    let mut got: Vec<(u32, u32)> = mem.tx_log.iter().map(|&(a, l, _)| (a, l)).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        return Err(format!(
            "transmit log differs: {} packets sent, {} expected",
            got.len(),
            want.len()
        ));
    }
    for (i, (p, &a)) in packets.iter().zip(addrs).enumerate() {
        let a = a as usize;
        if mem.sdram[a..a + p.expected.len()] != p.expected[..] {
            return Err(format!("packet {i}: buffer differs from the reference"));
        }
    }
    Ok(())
}

/// First-match evaluation of a classifier rule set: the port of the
/// first rule whose masked bits match, else the default port 0.
pub fn classify(rules: &[ClassifierRule], w0: u32) -> u32 {
    rules
        .iter()
        .find(|r| w0 & r.mask == r.match_value)
        .map_or(0, |r| r.port)
}

/// The classifier program's shape: rule count plus which rules use a
/// full-word mask (the optimizer folds `w & 0xFFFFFFFF`, so each such
/// rule changes the program's structure, not just its constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub rules: usize,
    pub full_mask: u32,
}

/// A rule set of `shape` with constants drawn from `rng`.
pub fn rules(shape: Shape, rng: &mut Rng) -> Vec<ClassifierRule> {
    let mut rules = workloads::classifier_rules(rng.next(), rng.next(), shape.rules);
    for (i, r) in rules.iter_mut().enumerate() {
        if shape.full_mask >> i & 1 == 1 {
            r.mask = u32::MAX;
            // Never 0 or all-ones, which would fold further.
            r.match_value = rng.word() | 0x0100_0001;
            r.match_value &= !0x8000_0000;
        }
    }
    rules
}

/// Classifier packets: the first header word hits a rule of `a` or `b`
/// (or nothing) so every rule path is exercised.
pub fn classifier_packets(
    a: &[ClassifierRule],
    b: &[ClassifierRule],
    count: usize,
    rng: &mut Rng,
) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| {
            let pick = |rs: &[ClassifierRule], rng: &mut Rng| {
                let r = rs[rng.below(rs.len() as u64) as usize];
                (rng.word() & !r.mask) | r.match_value
            };
            let w0 = match rng.below(4) {
                0 | 1 => pick(b, rng),
                2 => pick(a, rng),
                _ => rng.word(),
            };
            let mut words = vec![w0, rng.word() & 0x00FF_FFFF];
            words.extend((2..HEADER_WORDS + PAYLOAD_WORDS).map(|_| rng.word()));
            words
        })
        .collect()
}
