//! The WCET benchmark kernels (experiment F1) and the BMI kernel pairs
//! (experiment T4), emitted as assembly source.
//!
//! Every kernel terminates at `ebreak` and leaves its result in `a0` so
//! harnesses can cross-check functional equivalence between variants.

use std::fmt::Write as _;

/// A named benchmark kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Kernel name as printed in tables.
    pub name: &'static str,
    /// Assembly source.
    pub source: String,
    /// Loop bounds that the counted-loop inference cannot recover, as
    /// `(label, bound)` — resolved to header addresses by the harness.
    pub annotations: Vec<(&'static str, u64)>,
}

fn pseudo_random_words(seed: u32, n: usize) -> String {
    let mut s = String::new();
    let mut x = seed | 1;
    for i in 0..n {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        let sep = if i % 8 == 0 {
            if i == 0 {
                ".word "
            } else {
                "\n.word "
            }
        } else {
            ", "
        };
        let _ = write!(s, "{sep}{}", x >> 4);
    }
    s
}

/// Bubble sort over `n` words (two nested counted loops).
pub fn bubble_sort(n: u32) -> Kernel {
    let source = format!(
        r#"
    _start:
        li   s0, {n}            # outer counter
    outer:
        la   s1, data
        li   s2, {inner}        # inner counter
    inner:
        lw   t0, 0(s1)
        lw   t1, 4(s1)
        ble  t0, t1, no_swap
        sw   t1, 0(s1)
        sw   t0, 4(s1)
    no_swap:
        addi s1, s1, 4
        addi s2, s2, -1
        bnez s2, inner
        addi s0, s0, -1
        bnez s0, outer
        la   t2, data
        lw   a0, 0(t2)          # smallest element
        ebreak
    .align 4
    data:
    {words}
    "#,
        inner = n - 1,
        words = pseudo_random_words(0x5eed, n as usize),
    );
    Kernel {
        name: "bubble_sort",
        source,
        annotations: Vec::new(),
    }
}

/// Dense `n × n` integer matrix multiply (three nested counted loops).
pub fn matmul(n: u32) -> Kernel {
    let source = format!(
        r#"
    _start:
        li   s0, {n}            # i
        la   s4, c
    iloop:
        li   s1, {n}            # j
    jloop:
        li   s2, {n}            # k
        li   s3, 0              # acc
        # row base = a + (n-i)*n*4 is approximated by walking pointers
        la   s5, a
        la   s6, b
    kloop:
        lw   t0, 0(s5)
        lw   t1, 0(s6)
        mul  t2, t0, t1
        add  s3, s3, t2
        addi s5, s5, 4
        addi s6, s6, {row}
        addi s2, s2, -1
        bnez s2, kloop
        sw   s3, 0(s4)
        addi s4, s4, 4
        addi s1, s1, -1
        bnez s1, jloop
        addi s0, s0, -1
        bnez s0, iloop
        la   t3, c
        lw   a0, 0(t3)
        ebreak
    .align 4
    a:
    {awords}
    b:
    {bwords}
    c: .space {csize}
    "#,
        row = n * 4,
        awords = pseudo_random_words(0xaaaa, (n * n) as usize),
        bwords = pseudo_random_words(0xbbbb, (n * n) as usize),
        csize = n * n * 4,
    );
    Kernel {
        name: "matmul",
        source,
        annotations: Vec::new(),
    }
}

/// FIR filter: `samples` outputs over a `taps`-tap window.
pub fn fir(taps: u32, samples: u32) -> Kernel {
    let source = format!(
        r#"
    _start:
        li   s0, {samples}
        la   s1, signal
        la   s2, out
    sample_loop:
        li   s3, {taps}
        li   s4, 0              # acc
        mv   s5, s1
        la   s6, coeff
    tap_loop:
        lw   t0, 0(s5)
        lw   t1, 0(s6)
        mul  t2, t0, t1
        add  s4, s4, t2
        addi s5, s5, 4
        addi s6, s6, 4
        addi s3, s3, -1
        bnez s3, tap_loop
        srai s4, s4, 8
        sw   s4, 0(s2)
        addi s1, s1, 4
        addi s2, s2, 4
        addi s0, s0, -1
        bnez s0, sample_loop
        la   t3, out
        lw   a0, 0(t3)
        ebreak
    .align 4
    coeff:
    {cwords}
    signal:
    {swords}
    out: .space {osize}
    "#,
        cwords = pseudo_random_words(0xc0ef, taps as usize),
        swords = pseudo_random_words(0x5151, (samples + taps) as usize),
        osize = samples * 4,
    );
    Kernel {
        name: "fir",
        source,
        annotations: Vec::new(),
    }
}

/// Binary search over a sorted array of `n = 2^log2n` words. The loop
/// bound (`log2n + 1`) is data-flow dependent and must be annotated.
pub fn binary_search(log2n: u32) -> Kernel {
    let n = 1u32 << log2n;
    let mut sorted = String::new();
    for i in 0..n {
        let sep = if i % 8 == 0 {
            if i == 0 {
                ".word "
            } else {
                "\n.word "
            }
        } else {
            ", "
        };
        let _ = write!(sorted, "{sep}{}", i * 7 + 3);
    }
    let source = format!(
        r#"
    _start:
        la   s0, data
        li   s1, 0              # lo
        li   s2, {n}            # hi
        li   s3, {needle}       # target
        li   a0, -1
    search:
        bgeu s1, s2, done
        add  t0, s1, s2
        srli t0, t0, 1          # mid
        slli t1, t0, 2
        add  t1, t1, s0
        lw   t2, 0(t1)
        beq  t2, s3, found
        bltu t2, s3, go_right
        mv   s2, t0             # hi = mid
        j    search
    go_right:
        addi s1, t0, 1          # lo = mid + 1
        j    search
    found:
        mv   a0, t0
    done:
        ebreak
    .align 4
    data:
    {sorted}
    "#,
        needle = (n - 2) * 7 + 3,
    );
    Kernel {
        name: "binary_search",
        source,
        annotations: vec![("search", (log2n + 1) as u64)],
    }
}

/// Bitwise CRC-32 over `len` bytes (counted byte loop × 8-bit inner loop).
pub fn crc32(len: u32) -> Kernel {
    let source = format!(
        r#"
    _start:
        li   s0, {len}
        la   s1, msg
        li   a0, -1             # crc
        li   s2, 0xedb88320     # reversed polynomial
    byte_loop:
        lbu  t0, 0(s1)
        xor  a0, a0, t0
        li   s3, 8
    bit_loop:
        andi t1, a0, 1
        srli a0, a0, 1
        beqz t1, no_poly
        xor  a0, a0, s2
    no_poly:
        addi s3, s3, -1
        bnez s3, bit_loop
        addi s1, s1, 1
        addi s0, s0, -1
        bnez s0, byte_loop
        not  a0, a0
        ebreak
    .align 4
    msg: {msg}
    "#,
        msg = pseudo_random_words(0xc4c4, len.div_ceil(4) as usize),
    );
    Kernel {
        name: "crc32",
        source,
        annotations: Vec::new(),
    }
}

/// A branchy protocol state machine over an input event array — the
/// kernel where executed-path (QTA) timing diverges most from the static
/// worst case.
pub fn state_machine(events: u32) -> Kernel {
    let source = format!(
        r#"
    _start:
        li   s0, {events}
        la   s1, input
        li   s2, 0              # state
        li   a0, 0              # action counter
    step:
        lbu  t0, 0(s1)
        andi t0, t0, 3
        # dispatch on (state, event)
        beqz s2, st_idle
        li   t1, 1
        beq  s2, t1, st_armed
        j    st_active
    st_idle:
        bnez t0, arm
        j    next
    arm:
        li   s2, 1
        addi a0, a0, 1
        j    next
    st_armed:
        li   t1, 2
        bne  t0, t1, disarm
        li   s2, 2
        addi a0, a0, 3
        # the expensive transition: integrity check
        li   t2, 8
        li   t3, 0
    check:
        add  t3, t3, t2
        mul  t3, t3, t2
        addi t2, t2, -1
        bnez t2, check
        j    next
    disarm:
        li   s2, 0
        j    next
    st_active:
        li   t1, 3
        bne  t0, t1, next
        li   s2, 0
        addi a0, a0, 7
    next:
        addi s1, s1, 1
        addi s0, s0, -1
        bnez s0, step
        ebreak
    .align 4
    input: {input}
    "#,
        input = pseudo_random_words(0xfee1, events.div_ceil(4) as usize),
    );
    Kernel {
        name: "state_machine",
        source,
        annotations: Vec::new(),
    }
}

/// A memory-bound kernel: `passes` rounds of an unrolled word-wise
/// memcpy from `src` to `dst`, followed by a checksum pass over the
/// copy that mixes word, halfword and byte loads and writes a running
/// digest to a fixed scratch slot. Nearly every retired instruction is
/// a load or a store over plain RAM, which makes this the stress
/// workload for the RAM fast path (the other kernels are compute- or
/// branch-bound). `words` must be a multiple of 4 (the unroll factor).
/// The data sections follow the code, so the kernel never writes its
/// own instructions and never invalidates its translations.
pub fn memcpy_checksum(words: u32, passes: u32) -> Kernel {
    assert!(
        words > 0 && words.is_multiple_of(4),
        "words must be a multiple of 4"
    );
    let source = format!(
        r#"
    _start:
        li   s0, {passes}
    pass_loop:
        la   s1, src
        la   s2, dst
        li   s3, {chunks}       # 4-word copy chunks
    copy_loop:
        lw   t0, 0(s1)
        lw   t1, 4(s1)
        lw   t2, 8(s1)
        lw   t3, 12(s1)
        sw   t0, 0(s2)
        sw   t1, 4(s2)
        sw   t2, 8(s2)
        sw   t3, 12(s2)
        addi s1, s1, 16
        addi s2, s2, 16
        addi s3, s3, -1
        bnez s3, copy_loop
        la   s2, dst
        la   s4, scratch
        li   s3, {chunks}
        li   a0, 0
    sum_loop:
        lw   t0, 0(s2)
        lw   t1, 4(s2)
        lw   t2, 8(s2)
        lw   t3, 12(s2)
        add  a0, a0, t0
        add  a0, a0, t1
        add  a0, a0, t2
        add  a0, a0, t3
        lhu  t4, 2(s2)          # sub-word traffic shares the fast path
        xor  a0, a0, t4
        lbu  t5, 5(s2)
        add  a0, a0, t5
        sh   a0, 0(s4)          # fixed slot: the page is already dirty
        sb   a0, 2(s4)
        addi s2, s2, 16
        addi s3, s3, -1
        bnez s3, sum_loop
        addi s0, s0, -1
        bnez s0, pass_loop
        ebreak
    .align 4
    src:
    {swords}
    dst: .space {bytes}
    scratch: .space 8
    "#,
        chunks = words / 4,
        swords = pseudo_random_words(0x3e3e, words as usize),
        bytes = words * 4,
    );
    Kernel {
        name: "memcpy_checksum",
        source,
        annotations: Vec::new(),
    }
}

/// The F1 benchmark set at reference sizes.
pub fn wcet_benchmarks() -> Vec<Kernel> {
    vec![
        bubble_sort(24),
        matmul(8),
        fir(12, 32),
        binary_search(7),
        crc32(48),
        state_machine(64),
    ]
}

// --------------------------------------------------------------- T4: BMI

/// One BMI kernel pair: the same computation with and without the custom
/// bit-manipulation extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmiPair {
    /// Kernel name.
    pub name: &'static str,
    /// Variant using the Xbmi instructions.
    pub bmi: String,
    /// Baseline RV32IM variant.
    pub base: String,
}

fn bmi_wrap(body: &str, iters: u32) -> String {
    format!(
        r#"
    _start:
        li   s0, {iters}
        la   s1, words
        li   a0, 0
    loop:
        lw   t0, 0(s1)
    {body}
        addi s1, s1, 4
        addi s0, s0, -1
        bnez s0, loop
        ebreak
    .align 4
    words:
    {words}
    "#,
        words = pseudo_random_words(0xb171, iters as usize),
    )
}

/// Population count over an array.
pub fn popcount_pair(iters: u32) -> BmiPair {
    let bmi = bmi_wrap(
        r#"
        pcnt t1, t0
        add  a0, a0, t1
    "#,
        iters,
    );
    let base = bmi_wrap(
        r#"
        li   t1, 0
        li   t2, 32
    bits:
        andi t3, t0, 1
        add  t1, t1, t3
        srli t0, t0, 1
        addi t2, t2, -1
        bnez t2, bits
        add  a0, a0, t1
    "#,
        iters,
    );
    BmiPair {
        name: "popcount",
        bmi,
        base,
    }
}

/// Leading-zero count (software variant: shift-probe loop).
pub fn clz_pair(iters: u32) -> BmiPair {
    let bmi = bmi_wrap(
        r#"
        clz  t1, t0
        add  a0, a0, t1
    "#,
        iters,
    );
    let base = bmi_wrap(
        r#"
        li   t1, 0
        li   t2, 32
        bnez t0, probe
        li   t1, 32
        j    sum
    probe:
        li   t3, 0x80000000
    scan:
        and  t4, t0, t3
        bnez t4, sum
        addi t1, t1, 1
        srli t3, t3, 1
        addi t2, t2, -1
        bnez t2, scan
    sum:
        add  a0, a0, t1
    "#,
        iters,
    );
    BmiPair {
        name: "clz",
        bmi,
        base,
    }
}

/// Endianness swap (`rev8` vs shift/mask sequence).
pub fn byteswap_pair(iters: u32) -> BmiPair {
    let bmi = bmi_wrap(
        r#"
        rev8 t1, t0
        add  a0, a0, t1
    "#,
        iters,
    );
    let base = bmi_wrap(
        r#"
        slli t1, t0, 24
        srli t2, t0, 24
        or   t1, t1, t2
        slli t2, t0, 8
        lui  t3, 0xff0000>>12
        and  t2, t2, t3
        or   t1, t1, t2
        srli t2, t0, 8
        li   t3, 0xff00
        and  t2, t2, t3
        or   t1, t1, t2
        add  a0, a0, t1
    "#,
        iters,
    );
    BmiPair {
        name: "byteswap",
        bmi,
        base,
    }
}

/// Crypto-style permutation round (rotate-xor mixing, the workload the
/// PATMOS paper flags as the biggest winner).
pub fn permute_pair(iters: u32) -> BmiPair {
    let bmi = bmi_wrap(
        r#"
        li   t4, 7
        rol  t1, t0, t4
        li   t4, 13
        ror  t2, t0, t4
        xnor t3, t1, t2
        andn t1, t3, t0
        orn  t2, t3, t0
        xor  a0, a0, t1
        xor  a0, a0, t2
    "#,
        iters,
    );
    let base = bmi_wrap(
        r#"
        slli t1, t0, 7
        srli t2, t0, 25
        or   t1, t1, t2         # rol 7
        srli t2, t0, 13
        slli t3, t0, 19
        or   t2, t2, t3         # ror 13
        xor  t3, t1, t2
        not  t3, t3             # xnor
        not  t1, t0
        and  t1, t3, t1         # andn
        not  t2, t0
        or   t2, t3, t2         # orn
        xor  a0, a0, t1
        xor  a0, a0, t2
    "#,
        iters,
    );
    BmiPair {
        name: "permute",
        bmi,
        base,
    }
}

/// Parity of each word (`pcnt`+mask vs xor-fold).
pub fn parity_pair(iters: u32) -> BmiPair {
    let bmi = bmi_wrap(
        r#"
        pcnt t1, t0
        andi t1, t1, 1
        add  a0, a0, t1
    "#,
        iters,
    );
    let base = bmi_wrap(
        r#"
        srli t1, t0, 16
        xor  t0, t0, t1
        srli t1, t0, 8
        xor  t0, t0, t1
        srli t1, t0, 4
        xor  t0, t0, t1
        srli t1, t0, 2
        xor  t0, t0, t1
        srli t1, t0, 1
        xor  t0, t0, t1
        andi t1, t0, 1
        add  a0, a0, t1
    "#,
        iters,
    );
    BmiPair {
        name: "parity",
        bmi,
        base,
    }
}

/// The full T4 kernel set.
pub fn bmi_pairs(iters: u32) -> Vec<BmiPair> {
    vec![
        popcount_pair(iters),
        clz_pair(iters),
        byteswap_pair(iters),
        permute_pair(iters),
        parity_pair(iters),
    ]
}
