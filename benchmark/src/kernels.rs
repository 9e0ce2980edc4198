//! Seeded workload programs.
//!
//! `--seed` must change what the program computes without changing how
//! much work it does, so that two seeds time the same amount of work:
//! every program here keeps its control structure and loop counts fixed
//! and draws only its data words from the seed.

use crate::Scale;
use s4e_bench::kernels;
use std::fmt::Write as _;

/// SplitMix64: the benchmark's only source of randomness, so a seed means
/// the same inputs on every host and toolchain.
#[derive(Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A 28-bit data word, the range the repository's kernels use.
    fn word(&mut self) -> u32 {
        (self.next_u64() >> 36) as u32
    }
}

/// Replaces every `.word` list in `source` with as many words drawn from
/// `seed`, leaving code, labels and sizes untouched. Applied to the
/// repository's kernels, whose data sections are all `.word` lists.
pub fn reseed(source: &str, seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut out = String::with_capacity(source.len());
    for line in source.lines() {
        match line.find(".word ") {
            Some(at) => {
                let (head, list) = line.split_at(at + ".word ".len());
                out.push_str(head);
                for i in 0..list.split(',').count() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}{}", rng.word());
                }
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// One seeded program of the `vp-run` and `qta-cosim` workloads.
#[derive(Debug)]
pub struct Program {
    /// What the program stresses: `branchy`, `memory` or `compute`.
    pub role: &'static str,
    pub name: &'static str,
    pub source: String,
}

fn seeded(role: &'static str, kernel: kernels::Kernel, seed: u64) -> Program {
    Program {
        role,
        name: kernel.name,
        source: reseed(&kernel.source, seed),
    }
}

/// The `vp-run` programs: a branchy state machine, a memory-bound copy
/// and checksum, and a compute-bound matrix multiply, each ~20M
/// instructions at benchmark scale.
pub fn vp_programs(seed: u64, scale: Scale) -> Vec<Program> {
    let (events, passes, n) = match scale {
        Scale::Bench => (1_600_000, 700, 128),
        Scale::Tiny => (2_000, 2, 8),
    };
    vec![
        seeded("branchy", kernels::state_machine(events), seed),
        seeded("memory", kernels::memcpy_checksum(4096, passes), seed ^ 1),
        seeded("compute", kernels::matmul(n), seed ^ 2),
    ]
}

/// The `qta-cosim` programs: the state machine, matrix multiply and
/// CRC-32 kernels, whose loop bounds the WCET analysis infers.
pub fn qta_programs(seed: u64, scale: Scale) -> Vec<Program> {
    let (events, n, bytes) = match scale {
        Scale::Bench => (100_000, 28, 13_000),
        Scale::Tiny => (500, 6, 200),
    };
    vec![
        seeded("branchy", kernels::state_machine(events), seed),
        seeded("compute", kernels::matmul(n), seed ^ 2),
        seeded("crc", kernels::crc32(bytes), seed ^ 3),
    ]
}

/// The registers `campaign_firmware` keeps live through all three
/// phases: every phase reads each of them inside its loops, so a bit
/// flipped in one at a random time almost always reaches the result:
/// the register numbers of `s0`–`s5` and `a0`.
pub const LIVE_REGS: [u8; 7] = [8, 9, 18, 19, 20, 21, 10];

/// Firmware for the campaign workloads: a CRC-32 phase, a protocol state
/// machine phase and a matrix multiply phase, run back to back. Two
/// registers are live across all phases, as in real firmware: `s4`
/// mixes every phase's result into a digest and `s5` counts loop ticks.
/// The phases store their results to RAM, so data mutants have targets.
/// The golden run retires ~150k instructions at benchmark scale.
pub fn campaign_firmware(seed: u64, scale: Scale) -> String {
    let (crc_bytes, events, n) = match scale {
        Scale::Bench => (1024, 2048, 20),
        Scale::Tiny => (64, 128, 4),
    };
    let mut rng = SplitMix64::new(seed);
    let mut words = |count: u32| {
        let mut s = String::new();
        for i in 0..count {
            let sep = match (i, i % 8) {
                (0, _) => ".word ",
                (_, 0) => "\n    .word ",
                _ => ", ",
            };
            let _ = write!(s, "{sep}{}", rng.word());
        }
        s
    };
    let msg = words(crc_bytes / 4);
    let input = words(events / 4);
    let mat_a = words(n * n);
    let mat_b = words(n * n);
    format!(
        r#"
_start:
    la   s6, results
    li   s4, 0              # digest of every phase
    li   s5, 0              # loop ticks of every phase
# phase 1: bitwise CRC-32 over msg
    li   s0, {crc_bytes}
    la   s1, msg
    li   a0, -1
    li   s2, 0xedb88320
crc_byte:
    lbu  t0, 0(s1)
    xor  a0, a0, t0
    li   s3, 8
crc_bit:
    andi t1, a0, 1
    srli a0, a0, 1
    beqz t1, crc_next
    xor  a0, a0, s2
crc_next:
    addi s3, s3, -1
    bnez s3, crc_bit
    add  s4, s4, a0
    addi s5, s5, 1
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, crc_byte
    not  a0, a0
    sw   a0, 0(s6)
# phase 2: protocol state machine over event bytes
    li   s0, {events}
    la   s1, input
    li   s2, 0              # state
    li   s3, 3              # event mask
    li   a0, 0              # actions taken
sm_step:
    lbu  t0, 0(s1)
    and  t0, t0, s3
    beqz s2, sm_idle
    li   t1, 1
    beq  s2, t1, sm_armed
    bne  t0, s3, sm_next
    li   s2, 0
    addi a0, a0, 7
    j    sm_next
sm_idle:
    beqz t0, sm_next
    li   s2, 1
    addi a0, a0, 1
    j    sm_next
sm_armed:
    li   t1, 2
    bne  t0, t1, sm_disarm
    li   s2, 2
    addi a0, a0, 3
    li   t2, 8              # the expensive transition: integrity check
    li   t3, 0
sm_check:
    add  t3, t3, t2
    mul  t3, t3, t2
    addi t2, t2, -1
    bnez t2, sm_check
    add  s4, s4, t3
    j    sm_next
sm_disarm:
    li   s2, 0
sm_next:
    add  s4, s4, a0
    addi s5, s5, 1
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, sm_step
    sw   a0, 4(s6)
# phase 3: {n}x{n} matrix multiply c = a * b
    li   s0, {n}            # rows left
    la   s1, mat_a          # row of a
    la   s7, mat_c
mm_row:
    li   s8, {n}            # columns left
    la   a0, mat_b          # column of b
mm_col:
    li   s2, {n}            # k
    li   s3, 0              # dot product
    mv   t3, s1
    mv   t4, a0
mm_k:
    lw   t0, 0(t3)
    lw   t1, 0(t4)
    mul  t2, t0, t1
    add  s3, s3, t2
    addi t3, t3, 4
    addi t4, t4, {row}
    addi s2, s2, -1
    bnez s2, mm_k
    sw   s3, 0(s7)
    add  s4, s4, s3
    addi s7, s7, 4
    addi a0, a0, 4
    addi s8, s8, -1
    bnez s8, mm_col
    addi s5, s5, 1
    addi s1, s1, {row}
    addi s0, s0, -1
    bnez s0, mm_row
    sw   s4, 8(s6)
    sw   s5, 12(s6)
    mv   a0, s4
    ebreak
.align 4
results: .space 16
msg:
    {msg}
input:
    {input}
mat_a:
    {mat_a}
mat_b:
    {mat_b}
mat_c: .space {c_bytes}
"#,
        row = n * 4,
        c_bytes = n * n * 4,
    )
}
