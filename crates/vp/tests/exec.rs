//! End-to-end execution tests for the virtual prototype, driving it with
//! programs built by the `s4e-asm` assembler.

use s4e_asm::{assemble, assemble_with, AsmOptions};
use s4e_isa::{Gpr, Insn, IsaConfig};
use s4e_vp::dev::{Syscon, Uart};
use s4e_vp::{BlockEntry, BlockInfo, Cpu, DeviceAccess, MemAccess, Plugin, RunOutcome, Trap, Vp};

fn run_src(src: &str) -> Vp {
    let mut vp = Vp::new(IsaConfig::full());
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    let outcome = vp.run();
    assert_eq!(outcome, RunOutcome::Break, "program should end at ebreak");
    vp
}

fn gpr(vp: &Vp, name: u8) -> u32 {
    vp.cpu().gpr(Gpr::new(name).unwrap())
}

const A0: u8 = 10;
const A1: u8 = 11;

#[test]
fn arithmetic_loop_sum() {
    // sum of 1..=10 = 55
    let vp = run_src(
        r#"
        li t0, 10
        li a0, 0
        loop:
        add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 55);
}

#[test]
fn m_extension_semantics() {
    let vp = run_src(
        r#"
        li t0, -7
        li t1, 3
        mul a0, t0, t1          # -21
        div a1, t0, t1          # -2
        rem a2, t0, t1          # -1
        li t2, 0
        div a3, t0, t2          # div by zero -> -1
        rem a4, t0, t2          # rem by zero -> dividend
        li t3, 0x80000000
        li t4, -1
        div a5, t3, t4          # overflow -> 0x80000000
        mulhu a6, t4, t4        # 0xfffffffe
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0) as i32, -21);
    assert_eq!(gpr(&vp, A1) as i32, -2);
    assert_eq!(gpr(&vp, 12) as i32, -1);
    assert_eq!(gpr(&vp, 13), u32::MAX);
    assert_eq!(gpr(&vp, 14) as i32, -7);
    assert_eq!(gpr(&vp, 15), 0x8000_0000);
    assert_eq!(gpr(&vp, 16), 0xffff_fffe);
}

#[test]
fn shifts_and_compares() {
    let vp = run_src(
        r#"
        li t0, -8
        srai a0, t0, 2      # -2
        srli a1, t0, 28     # 0xf
        li t1, 5
        slti a2, t1, 6      # 1
        sltiu a3, t1, 4     # 0
        li t2, 3
        sll a4, t1, t2      # 40
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0) as i32, -2);
    assert_eq!(gpr(&vp, A1), 0xf);
    assert_eq!(gpr(&vp, 12), 1);
    assert_eq!(gpr(&vp, 13), 0);
    assert_eq!(gpr(&vp, 14), 40);
}

#[test]
fn memory_bytes_halves_words() {
    let vp = run_src(
        r#"
        la t0, buf
        li t1, 0x80
        sb t1, 0(t0)
        lb a0, 0(t0)        # sign-extends -> 0xffffff80
        lbu a1, 0(t0)       # 0x80
        li t2, 0x8000
        sh t2, 4(t0)
        lh a2, 4(t0)
        lhu a3, 4(t0)
        li t3, 0xdeadbeef
        sw t3, 8(t0)
        lw a4, 8(t0)
        ebreak
        buf: .space 16
        "#,
    );
    assert_eq!(gpr(&vp, A0), 0xffff_ff80);
    assert_eq!(gpr(&vp, A1), 0x80);
    assert_eq!(gpr(&vp, 12), 0xffff_8000);
    assert_eq!(gpr(&vp, 13), 0x8000);
    assert_eq!(gpr(&vp, 14), 0xdead_beef);
}

#[test]
fn function_call_and_return() {
    let vp = run_src(
        r#"
        li sp, 0x80010000
        li a0, 20
        call double
        ebreak
        double:
        add a0, a0, a0
        ret
        "#,
    );
    assert_eq!(gpr(&vp, A0), 40);
}

#[test]
fn compressed_instructions_execute() {
    let vp = run_src(
        r#"
        li sp, 0x80010000
        c.li a0, 5
        c.addi a0, 10
        c.mv a1, a0
        c.add a1, a0
        c.swsp a1, 0(sp)
        c.lwsp a2, 0(sp)
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 15);
    assert_eq!(gpr(&vp, A1), 30);
    assert_eq!(gpr(&vp, 12), 30);
}

#[test]
fn bmi_semantics() {
    let vp = run_src(
        r#"
        li t0, 0x00f00000
        clz a0, t0          # 8
        ctz a1, t0          # 20
        pcnt a2, t0         # 4
        li t1, 0x0ff0
        li t2, 0x00ff
        andn a3, t1, t2     # 0x0f00
        orn a4, t1, t2      # 0xffffff0
        xnor a5, t1, t2     # ~(0x0f0f)
        li t3, 0x80000001
        li t4, 1
        rol a6, t3, t4      # 3
        ror a7, t3, t4      # 0xc0000000
        li t5, 0x11223344
        rev8 s2, t5         # 0x44332211
        li t6, 4
        li s4, 0x10
        bext s3, s4, t6     # bit 4 of 0x10 = 1
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 8);
    assert_eq!(gpr(&vp, A1), 20);
    assert_eq!(gpr(&vp, 12), 4);
    assert_eq!(gpr(&vp, 13), 0x0f00);
    assert_eq!(gpr(&vp, 14), 0x0ff0 | !0x00ffu32); // t1 | !t2
    assert_eq!(gpr(&vp, 15), !(0x0ff0u32 ^ 0x00ff));
    assert_eq!(gpr(&vp, 16), 3);
    assert_eq!(gpr(&vp, 17), 0xc000_0000);
    assert_eq!(gpr(&vp, 18), 0x4433_2211);
    assert_eq!(gpr(&vp, 19), 1);
}

#[test]
fn fp_basics() {
    let vp = run_src(
        r#"
        li t0, 3
        fcvt.s.w ft0, t0
        li t1, 4
        fcvt.s.w ft1, t1
        fadd.s ft2, ft0, ft1
        fcvt.w.s a0, ft2        # 7
        fmul.s ft3, ft0, ft1
        fcvt.w.s a1, ft3        # 12
        fdiv.s ft4, ft1, ft0
        fmv.x.w a2, ft4         # bits of 4/3
        flt.s a3, ft0, ft1      # 1
        feq.s a4, ft0, ft0      # 1
        fneg.s ft5, ft0
        fcvt.w.s a5, ft5        # -3
        fclass.s a6, ft0        # positive normal
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 7);
    assert_eq!(gpr(&vp, A1), 12);
    assert_eq!(f32::from_bits(gpr(&vp, 12)), 4.0f32 / 3.0);
    assert_eq!(gpr(&vp, 13), 1);
    assert_eq!(gpr(&vp, 14), 1);
    assert_eq!(gpr(&vp, 15) as i32, -3);
    assert_eq!(gpr(&vp, 16), 1 << 6);
}

#[test]
fn syscon_exit_and_console() {
    let src = r#"
        .equ SYSCON, 0x11000000
        li t0, SYSCON
        li t1, 'H'
        sw t1, 4(t0)
        li t1, 'i'
        sw t1, 4(t0)
        li t1, 3
        sw t1, 0(t0)    # exit(3)
        ebreak          # never reached
    "#;
    let mut vp = Vp::new(IsaConfig::rv32imc());
    let img = assemble(src).unwrap();
    vp.load(img.base(), img.bytes()).unwrap();
    assert_eq!(vp.run(), RunOutcome::Exit(3));
    let sys = vp.bus().device::<Syscon>().unwrap();
    assert_eq!(sys.console(), b"Hi");
}

#[test]
fn uart_echo() {
    let src = r#"
        .equ UART, 0x10000000
        li t0, UART
        poll:
        lw t1, 8(t0)        # status
        andi t1, t1, 2      # rx available?
        beqz t1, done
        lw t2, 4(t0)        # rxdata
        sw t2, 0(t0)        # txdata
        j poll
        done: ebreak
    "#;
    let mut vp = Vp::new(IsaConfig::rv32imc());
    let img = assemble(src).unwrap();
    vp.load(img.base(), img.bytes()).unwrap();
    vp.bus_mut()
        .device_mut::<Uart>()
        .unwrap()
        .push_input(b"echo");
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(vp.bus().device::<Uart>().unwrap().output(), b"echo");
}

#[test]
fn ecall_trap_with_handler() {
    let vp = run_src(
        r#"
        la t0, handler
        csrw mtvec, t0
        li a0, 0
        ecall
        after:
        ebreak

        handler:
        csrr a1, mcause     # 11 = ecall from M
        csrr t1, mepc
        addi t1, t1, 4      # skip the ecall
        csrw mepc, t1
        li a0, 99
        mret
        "#,
    );
    assert_eq!(gpr(&vp, A0), 99);
    assert_eq!(gpr(&vp, A1), 11);
}

#[test]
fn illegal_instruction_traps() {
    let vp = run_src(
        r#"
        la t0, handler
        csrw mtvec, t0
        .word 0xffffffff    # illegal
        ebreak

        handler:
        csrr a0, mcause     # 2
        csrr a1, mtval      # the bad word
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 2);
    assert_eq!(gpr(&vp, A1), 0xffff_ffff);
}

#[test]
fn unsupported_extension_traps_as_illegal() {
    let src = "la t0, h\ncsrw mtvec, t0\nmul a0, a0, a0\nebreak\nh: csrr a0, mcause\nebreak";
    // Assemble for the full ISA but execute on an RV32I-only core.
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32i());
    vp.load(img.base(), img.bytes()).unwrap();
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(vp.cpu().gpr(Gpr::A0), 2);
}

#[test]
fn misaligned_load_traps() {
    let vp = run_src(
        r#"
        la t0, handler
        csrw mtvec, t0
        la t1, data
        lw a0, 1(t1)        # misaligned
        ebreak
        handler:
        csrr a0, mcause     # 4
        csrr a1, mtval
        ebreak
        data: .word 0
        "#,
    );
    assert_eq!(gpr(&vp, A0), 4);
}

#[test]
fn unhandled_trap_is_fatal() {
    let src = "lw a0, 1(zero)"; // misaligned + no vector
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    match vp.run() {
        RunOutcome::Fatal(Trap::LoadMisaligned { addr: 1 }) => {}
        other => panic!("expected fatal misaligned load, got {other:?}"),
    }
}

#[test]
fn load_access_fault_outside_ram() {
    let src = r#"
        li t0, 0x40000000
        lw a0, 0(t0)
    "#;
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    match vp.run() {
        RunOutcome::Fatal(Trap::LoadAccessFault { addr }) => assert_eq!(addr, 0x4000_0000),
        other => panic!("expected load access fault, got {other:?}"),
    }
}

#[test]
fn timer_interrupt_fires() {
    let vp = run_src(
        r#"
        .equ CLINT, 0x02000000
        la t0, handler
        csrw mtvec, t0
        # arm mtimecmp = now + 100
        li t1, CLINT + 0x4000
        csrr t2, mcycle
        addi t2, t2, 100
        sw zero, 4(t1)      # mtimecmp hi = 0 first (reset value is MAX)
        sw t2, 0(t1)        # mtimecmp lo
        # enable MTIE + global MIE
        li t3, 128
        csrw mie, t3
        csrsi mstatus, 8
        li a0, 0
        spin:
        beqz a0, spin
        ebreak

        handler:
        li a0, 1
        csrr a1, mcause
        # disarm: mtimecmp = MAX
        li t4, CLINT + 0x4000
        li t5, -1
        sw t5, 4(t4)
        mret
        "#,
    );
    assert_eq!(gpr(&vp, A0), 1);
    assert_eq!(gpr(&vp, A1), 0x8000_0007);
}

#[test]
fn wfi_fast_forwards_to_timer() {
    let vp = run_src(
        r#"
        .equ CLINT, 0x02000000
        la t0, handler
        csrw mtvec, t0
        li t1, CLINT + 0x4000
        li t2, 10000
        sw zero, 4(t1)
        sw t2, 0(t1)
        li t3, 128
        csrw mie, t3
        csrsi mstatus, 8
        li a0, 0
        wfi
        # handler ran (a0 = 1) before we get here
        ebreak
        handler:
        li a0, 1
        li t4, CLINT + 0x4000
        li t5, -1
        sw t5, 4(t4)
        mret
        "#,
    );
    assert_eq!(gpr(&vp, A0), 1);
    assert!(vp.cpu().cycles() >= 10_000, "wfi fast-forwarded");
}

#[test]
fn wfi_without_wakeup_idles() {
    let img = assemble("wfi\nebreak").unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    assert_eq!(vp.run(), RunOutcome::IdleWfi);
}

#[test]
fn software_interrupt_via_clint() {
    let vp = run_src(
        r#"
        .equ CLINT, 0x02000000
        la t0, handler
        csrw mtvec, t0
        li t1, 8            # MSIE
        csrw mie, t1
        csrsi mstatus, 8
        li t2, CLINT
        li t3, 1
        li a0, 0
        sw t3, 0(t2)        # msip = 1
        nop
        nop
        ebreak
        handler:
        li a0, 1
        csrr a1, mcause
        li t4, CLINT
        sw zero, 0(t4)      # clear msip
        mret
        "#,
    );
    assert_eq!(gpr(&vp, A0), 1);
    assert_eq!(gpr(&vp, A1), 0x8000_0003);
}

#[test]
fn insn_limit_is_resumable() {
    let img = assemble("li a0, 0\nloop: addi a0, a0, 1\nj loop").unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    assert_eq!(vp.run_for(100), RunOutcome::InsnLimit);
    let a0_first = vp.cpu().gpr(Gpr::A0);
    assert!(a0_first > 0);
    assert_eq!(vp.run_for(100), RunOutcome::InsnLimit);
    assert!(vp.cpu().gpr(Gpr::A0) > a0_first);
}

#[test]
fn cycle_counting_matches_timing_model() {
    // 3 × addi (1 cycle each) + ebreak (4 cycles, System)
    let img = assemble("nop\nnop\nnop\nebreak").unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(vp.cpu().cycles(), 3 + 4);
    assert_eq!(vp.cpu().instret(), 4);
}

#[test]
fn branch_taken_costs_more() {
    let taken = {
        let img = assemble("beq zero, zero, t\nt: ebreak").unwrap();
        let mut vp = Vp::new(IsaConfig::rv32imc());
        vp.load(img.base(), img.bytes()).unwrap();
        vp.run();
        vp.cpu().cycles()
    };
    let not_taken = {
        let img = assemble("bne zero, zero, t\nt: ebreak").unwrap();
        let mut vp = Vp::new(IsaConfig::rv32imc());
        vp.load(img.base(), img.bytes()).unwrap();
        vp.run();
        vp.cpu().cycles()
    };
    assert_eq!(taken - not_taken, 2, "branch-taken penalty");
}

#[test]
fn self_modifying_code_with_fence_i() {
    let vp = run_src(
        r#"
        # patch `target` from `li a0, 1` to `li a0, 2`, then run it
        la t0, target
        la t1, patch
        lw t2, 0(t1)
        sw t2, 0(t0)
        fence.i
        target:
        li a0, 1
        ebreak
        patch:
        li a0, 2
        "#,
    );
    assert_eq!(gpr(&vp, A0), 2);
}

#[test]
fn cache_disabled_gives_same_results() {
    let src = r#"
        li t0, 25
        li a0, 0
        loop: add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let img = assemble(src).unwrap();
    let mut cached = Vp::new(IsaConfig::rv32imc());
    cached.load(img.base(), img.bytes()).unwrap();
    cached.run();
    let mut uncached = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build();
    uncached.load(img.base(), img.bytes()).unwrap();
    uncached.run();
    assert_eq!(cached.cpu().gpr(Gpr::A0), uncached.cpu().gpr(Gpr::A0));
    assert_eq!(cached.cpu().cycles(), uncached.cpu().cycles());
    assert_eq!(cached.cpu().instret(), uncached.cpu().instret());
}

// ------------------------------------------------------------- plugins

#[derive(Debug, Default)]
struct Recorder {
    blocks_translated: u32,
    blocks_executed: u32,
    insns: u32,
    mem: Vec<MemAccess>,
    dev: Vec<DeviceAccess>,
    traps: Vec<Trap>,
}

impl Plugin for Recorder {
    fn on_block_translated(&mut self, _block: &s4e_vp::BlockInfo<'_>) {
        self.blocks_translated += 1;
    }
    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        self.blocks_executed += entries.len() as u32;
    }
    fn on_insn_executed(&mut self, _cpu: &Cpu, _pc: u32, _insn: &Insn) {
        self.insns += 1;
    }
    fn on_mem_access(&mut self, _cpu: &Cpu, a: &MemAccess) {
        self.mem.push(*a);
    }
    fn on_device_access(&mut self, _cpu: &Cpu, a: &DeviceAccess) {
        self.dev.push(*a);
    }
    fn on_trap(&mut self, _cpu: &Cpu, t: &Trap) {
        self.traps.push(*t);
    }
}

#[test]
fn plugin_observes_everything() {
    let src = r#"
        .equ UART, 0x10000000
        li t0, UART
        li t1, 65
        sw t1, 0(t0)        # device store
        la t2, buf
        sw t1, 0(t2)        # RAM store
        lw t3, 0(t2)        # RAM load
        loop: addi t4, t4, 1
        li t5, 3
        blt t4, t5, loop
        ebreak
        buf: .space 4
    "#;
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    vp.add_plugin(Box::<Recorder>::default());
    assert_eq!(vp.run(), RunOutcome::Break);

    let rec = vp.plugin::<Recorder>().unwrap();
    assert_eq!(rec.insns as u64, vp.cpu().instret());
    assert!(
        rec.blocks_executed > rec.blocks_translated,
        "loop re-executes cached blocks"
    );
    assert_eq!(rec.dev.len(), 1);
    assert_eq!(rec.dev[0].device, "uart");
    assert_eq!(rec.dev[0].value, 65);
    assert!(rec.dev[0].is_store);
    assert_eq!(rec.mem.len(), 2);
    assert!(rec.mem[0].is_store && !rec.mem[1].is_store);
    assert_eq!(rec.mem[1].value, 65);
    assert!(rec.traps.is_empty());
}

/// A `run_for` budget spent at a block boundary ends the run without
/// the next block's hook; the hook fires once, when the block runs
/// after the resume. Under one-instruction slices every dispatch then
/// runs exactly one instruction, so on every tier the block hooks equal
/// the retired instructions.
#[test]
fn spent_budget_fires_no_block_hook() {
    let src = "li t0, 5\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak";
    let img = assemble(src).unwrap();
    for builder in [
        Vp::builder().block_cache(false),
        Vp::builder().jit(false),
        Vp::builder(),
    ] {
        let mut vp = builder.isa(IsaConfig::rv32imc()).build();
        vp.load(img.base(), img.bytes()).unwrap();
        vp.add_plugin(Box::<Recorder>::default());
        let outcome = loop {
            match vp.run_for(1) {
                RunOutcome::InsnLimit => {}
                outcome => break outcome,
            }
        };
        assert_eq!(outcome, RunOutcome::Break);
        let rec = vp.plugin::<Recorder>().unwrap();
        assert_eq!(rec.blocks_executed as u64, vp.cpu().instret());
        assert_eq!(rec.insns as u64, vp.cpu().instret());
    }
}

/// One event seen by [`DeviceLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Block(BlockEntry),
    /// A device access with the hart's pc, cycles and instret.
    Device(DeviceAccess, u32, u64, u64),
}

/// Subscribes no block and logs every block entry and device access,
/// in delivery order; counts RAM events, which no block it left
/// unsubscribed may report.
#[derive(Debug, Default)]
struct DeviceLog {
    log: Vec<Seen>,
    mem_events: u32,
}

impl Plugin for DeviceLog {
    fn wants_insn_events(&self, _block: &BlockInfo<'_>) -> bool {
        false
    }
    fn on_block_executed(&mut self, entries: &[BlockEntry]) {
        self.log.extend(entries.iter().copied().map(Seen::Block));
    }
    fn on_mem_access(&mut self, _cpu: &Cpu, _a: &MemAccess) {
        self.mem_events += 1;
    }
    fn on_device_access(&mut self, cpu: &Cpu, a: &DeviceAccess) {
        self.log
            .push(Seen::Device(*a, cpu.pc(), cpu.cycles(), cpu.instret()));
    }
}

/// A device-only plugin keeps a looping MMIO program native where no
/// device is touched, and sees the same device accesses, with the same
/// pc and counters, on every tier: the loop's RAM accesses take the
/// fast paths unreported, and each UART store bails out of native code
/// into the micro-op engine, which reports it after the natively
/// written entry of its block.
#[test]
fn device_only_plugin_sees_the_same_accesses_on_every_tier() {
    let src = r#"
        .equ UART, 0x10000000
        li t0, UART
        li t1, 40
        la t2, buf
    loop:
        sw t1, 0(t2)
        lw t3, 0(t2)
        addi t3, t3, 48
        sb t3, 0(t0)
        addi t1, t1, -1
        bnez t1, loop
        ebreak
    buf: .word 0
    "#;
    let img = assemble(src).unwrap();
    let run = |builder: s4e_vp::VpBuilder| {
        let mut vp = builder.isa(IsaConfig::rv32imc()).build();
        vp.load(img.base(), img.bytes()).unwrap();
        vp.add_plugin(Box::<DeviceLog>::default());
        assert_eq!(vp.run(), RunOutcome::Break);
        let log = vp.plugin::<DeviceLog>().unwrap();
        assert_eq!(log.mem_events, 0);
        (log.log.clone(), vp.dispatch_stats())
    };
    let (oracle, _) = run(Vp::builder().block_cache(false));
    let devices: Vec<&DeviceAccess> = oracle
        .iter()
        .filter_map(|e| match e {
            Seen::Device(a, ..) => Some(a),
            Seen::Block(_) => None,
        })
        .collect();
    assert_eq!(devices.len(), 40);
    assert!(devices.iter().all(|a| a.device == "uart" && a.is_store));
    let (uops, uops_stats) = run(Vp::builder().jit(false));
    let (jit, jit_stats) = run(Vp::builder());
    assert_eq!(uops, oracle, "jit(false)");
    assert_eq!(jit, oracle, "default");
    assert!(uops_stats.mem_fast_hits > 0);
    assert!(jit_stats.jit_exec > 0 && jit_stats.jit_retired > 0);
    assert!(jit_stats.jit_bail_mem > 0);
}

#[test]
fn plugin_observes_traps() {
    let src = "la t0, h\ncsrw mtvec, t0\necall\nebreak\nh: csrr t1, mepc\naddi t1, t1, 4\ncsrw mepc, t1\nmret";
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    vp.add_plugin(Box::<Recorder>::default());
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(vp.plugin::<Recorder>().unwrap().traps, vec![Trap::EcallM]);
}

#[test]
fn stuck_bit_fault_changes_result() {
    let src = "li a0, 0\nli t0, 4\nloop: add a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak";
    let img = assemble(src).unwrap();
    let golden = {
        let mut vp = Vp::new(IsaConfig::rv32imc());
        vp.load(img.base(), img.bytes()).unwrap();
        vp.run();
        vp.cpu().gpr(Gpr::A0)
    };
    assert_eq!(golden, 10);
    let mut faulty = Vp::new(IsaConfig::rv32imc());
    faulty.load(img.base(), img.bytes()).unwrap();
    faulty.cpu_mut().plant_gpr_fault(Gpr::A0, 5, true); // bit 5 stuck at 1
    let outcome = faulty.run();
    assert_eq!(outcome, RunOutcome::Break);
    assert_eq!(faulty.cpu().gpr(Gpr::A0), golden | (1 << 5));
}

#[test]
fn base_address_configurable() {
    let opts = AsmOptions::new().base(0x2000_0000);
    let img = assemble_with("li a0, 9\nebreak", &opts).unwrap();
    let mut vp = Vp::builder().ram(0x2000_0000, 0x10000).build();
    vp.load(img.base(), img.bytes()).unwrap();
    vp.cpu_mut().set_pc(img.entry());
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(vp.cpu().gpr(Gpr::A0), 9);
}

#[test]
fn jump_into_middle_of_cached_block() {
    let vp = run_src(
        r#"
        li a0, 0
        j mid
        addi a0, a0, 100    # skipped
        mid:
        addi a0, a0, 1
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 1);
}

// ----------------------------------------------------- trap/CSR edge cases

#[test]
fn vectored_timer_interrupt_dispatches_to_slot() {
    // mtvec mode 1: interrupts vector to base + 4*cause (timer = slot 7).
    let vp = run_src(
        r#"
        .equ CLINT, 0x02000000
        la t0, vector_table
        ori t0, t0, 1           # vectored mode
        csrw mtvec, t0
        li t1, CLINT + 0x4000
        csrr t2, mcycle
        addi t2, t2, 50
        sw zero, 4(t1)
        sw t2, 0(t1)
        li t3, 128              # MTIE
        csrw mie, t3
        csrsi mstatus, 8
        li a0, 0
        spin: beqz a0, spin
        ebreak

        .align 7
        vector_table:
        j bad       # slot 0 (synchronous)
        j bad       # 1
        j bad       # 2
        j bad       # 3
        j bad       # 4
        j bad       # 5
        j bad       # 6
        j timer     # 7 = machine timer
        bad:
        li a0, 99
        ebreak
        timer:
        li a0, 7
        li t4, CLINT + 0x4000
        li t5, -1
        sw t5, 4(t4)
        mret
        "#,
    );
    assert_eq!(gpr(&vp, A0), 7, "timer vectored to slot 7");
}

#[test]
fn csrrs_x0_reads_read_only_csr_without_trap() {
    // csrrs rd, csr, x0 performs no write: legal even on read-only CSRs.
    let vp = run_src("csrr a0, mhartid\ncsrr a1, cycle\nebreak");
    assert_eq!(gpr(&vp, A0), 0);
}

#[test]
fn csr_write_to_read_only_traps() {
    let vp = run_src(
        r#"
        la t0, h
        csrw mtvec, t0
        li t1, 1
        csrrs a1, mhartid, t1   # write attempt on RO CSR → illegal
        ebreak
        h:
        csrr a0, mcause
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 2, "illegal instruction cause");
}

#[test]
fn unimplemented_csr_traps() {
    let vp =
        run_src("la t0, h\ncsrw mtvec, t0\ncsrr a1, 0x7c0\nebreak\nh: csrr a0, mcause\nebreak");
    assert_eq!(gpr(&vp, A0), 2);
}

#[test]
fn store_access_fault_to_unmapped() {
    let src = "li t0, 0x40000000\nsw zero, 0(t0)";
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    match vp.run() {
        RunOutcome::Fatal(Trap::StoreAccessFault { addr }) => assert_eq!(addr, 0x4000_0000),
        other => panic!("expected store fault, got {other:?}"),
    }
}

#[test]
fn execution_from_device_space_faults() {
    // Jump into the UART window: instruction fetch must fault.
    let src = "li t0, 0x10000000\njr t0";
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    match vp.run() {
        RunOutcome::Fatal(Trap::InsnAccessFault { addr }) => assert_eq!(addr, 0x1000_0000),
        other => panic!("expected fetch fault, got {other:?}"),
    }
}

#[test]
fn misaligned_jump_target_traps_without_c() {
    // With C disabled, a jalr to a 2-byte-aligned (not 4) address traps.
    let src = "li t0, 0x80000002\njr t0";
    let opts = AsmOptions::new().isa(IsaConfig::rv32i());
    let img = assemble_with(src, &opts).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32i());
    vp.load(img.base(), img.bytes()).unwrap();
    match vp.run() {
        RunOutcome::Fatal(Trap::InsnMisaligned { addr }) => assert_eq!(addr, 0x8000_0002),
        other => panic!("expected misaligned fetch, got {other:?}"),
    }
}

#[test]
fn mepc_write_clears_low_bit() {
    let vp = run_src(
        r#"
        li t0, 0x80000101
        csrw mepc, t0
        csrr a0, mepc
        ebreak
        "#,
    );
    assert_eq!(gpr(&vp, A0), 0x8000_0100);
}

#[test]
fn mcycle_csr_write_adjusts_counter() {
    let vp = run_src(
        r#"
        li t0, 1000000
        csrw mcycle, t0
        csrr a0, mcycle
        ebreak
        "#,
    );
    assert!(gpr(&vp, A0) >= 1_000_000);
    assert!(gpr(&vp, A0) < 1_000_100, "continued from the written value");
}

#[test]
fn nested_trap_without_reentrancy_is_fatal() {
    // A fault *inside* the handler with mtvec still pointing at the
    // handler: the handler itself faults again; since our model always
    // re-enters via mtvec, the program loops through the handler — guard
    // with an instruction budget instead of hanging.
    let src = r#"
        la t0, h
        csrw mtvec, t0
        ecall
        ebreak
        h:
        lw t1, 1(zero)      # handler faults (misaligned)
        mret
    "#;
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    assert_eq!(
        vp.run_for(10_000),
        RunOutcome::InsnLimit,
        "handler livelock bounded"
    );
}

#[test]
fn interrupt_not_taken_while_mie_clear_then_taken() {
    let vp = run_src(
        r#"
        .equ CLINT, 0x02000000
        la t0, h
        csrw mtvec, t0
        li t1, CLINT
        li t2, 1
        sw t2, 0(t1)        # msip pending
        li t3, 8            # MSIE enabled in mie...
        csrw mie, t3
        li a0, 0
        nop
        nop                 # ...but mstatus.MIE still clear: no trap
        li a1, 1            # marker: reached without interrupt
        csrsi mstatus, 8    # now enable globally → interrupt fires
        nop
        nop
        ebreak
        h:
        li a0, 1
        li t4, CLINT
        sw zero, 0(t4)
        mret
        "#,
    );
    assert_eq!(gpr(&vp, A1), 1, "code before enable ran uninterrupted");
    assert_eq!(gpr(&vp, A0), 1, "interrupt taken after global enable");
}

#[test]
fn uart_rx_raises_external_interrupt() {
    // Interrupt-driven receive: the UART asserts MEIP while its IER rx
    // bit is set and data is queued; the handler drains one byte per
    // interrupt.
    let src = r#"
        .equ UART, 0x10000000
        la t0, handler
        csrw mtvec, t0
        li a0, 0            # received-byte count (before irqs enable!)
        li t1, UART
        li t2, 1
        sw t2, 12(t1)       # IER: enable rx interrupt
        li t3, 0x800        # MEIE
        csrw mie, t3
        csrsi mstatus, 8
        idle:
        li t4, 3
        bne a0, t4, idle    # spin until 3 bytes received
        ebreak

        handler:
        li t5, UART
        lw t6, 4(t5)        # rxdata (drains the queue → may deassert MEIP)
        sw t6, 0(t5)        # echo
        addi a0, a0, 1
        mret
    "#;
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    vp.bus_mut()
        .device_mut::<Uart>()
        .unwrap()
        .push_input(b"abc");
    assert_eq!(vp.run_for(100_000), RunOutcome::Break);
    assert_eq!(gpr(&vp, A0), 3, "three rx interrupts served");
    assert_eq!(vp.bus().device::<Uart>().unwrap().output(), b"abc");
}

#[test]
fn uart_irq_masked_without_ier() {
    // Same setup without setting IER: no interrupt, the spin loop hits
    // the budget.
    let src = r#"
        la t0, handler
        csrw mtvec, t0
        li t3, 0x800
        csrw mie, t3
        csrsi mstatus, 8
        li a0, 0
        idle: beqz zero, idle
        ebreak
        handler:
        addi a0, a0, 1
        mret
    "#;
    let img = assemble(src).unwrap();
    let mut vp = Vp::new(IsaConfig::rv32imc());
    vp.load(img.base(), img.bytes()).unwrap();
    vp.bus_mut().device_mut::<Uart>().unwrap().push_input(b"x");
    assert_eq!(vp.run_for(10_000), RunOutcome::InsnLimit);
    assert_eq!(gpr(&vp, A0), 0, "no interrupt without IER");
}

// ------------------------------------------------------- cancellation

#[test]
fn run_until_without_cancellation_matches_run_for() {
    let src = "li t0, 10\nli a0, 0\nloop: add a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak";
    let img = assemble(src).expect("assembles");
    let mut a = Vp::new(IsaConfig::full());
    a.load(img.base(), img.bytes()).expect("loads");
    a.cpu_mut().set_pc(img.entry());
    let mut b = Vp::new(IsaConfig::full());
    b.load(img.base(), img.bytes()).expect("loads");
    b.cpu_mut().set_pc(img.entry());
    let token = s4e_vp::CancelToken::new();
    assert_eq!(a.run_for(1_000_000), b.run_until(1_000_000, &token));
    assert_eq!(a.cpu().gpr(Gpr::A0), b.cpu().gpr(Gpr::A0));
    assert_eq!(a.cpu().instret(), b.cpu().instret());
}

#[test]
fn run_until_observes_explicit_cancel() {
    // Infinite loop: only the token stops it (budget is effectively
    // unbounded for the test's purposes).
    let img = assemble("spin: j spin").expect("assembles");
    let mut vp = Vp::new(IsaConfig::full());
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    let token = s4e_vp::CancelToken::new();
    token.cancel();
    assert_eq!(vp.run_until(u64::MAX, &token), RunOutcome::Cancelled);
}

#[test]
fn run_until_observes_deadline() {
    let img = assemble("spin: j spin").expect("assembles");
    let mut vp = Vp::new(IsaConfig::full());
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    let token = s4e_vp::CancelToken::with_timeout(std::time::Duration::from_millis(20));
    let t0 = std::time::Instant::now();
    assert_eq!(vp.run_until(u64::MAX, &token), RunOutcome::Cancelled);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "watchdog must fire long before the instruction budget"
    );
    assert!(vp.cpu().instret() > 0, "the guest did make progress");
}

#[test]
fn run_until_resumes_after_cancellation() {
    let src = "li t0, 10\nli a0, 0\nloop: add a0, a0, t0\naddi t0, t0, -1\nbnez t0, loop\nebreak";
    let img = assemble(src).expect("assembles");
    let mut vp = Vp::new(IsaConfig::full());
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
    let cancelled = s4e_vp::CancelToken::new();
    cancelled.cancel();
    assert_eq!(vp.run_until(1_000_000, &cancelled), RunOutcome::Cancelled);
    // A fresh token resumes exactly where the run stopped.
    let live = s4e_vp::CancelToken::new();
    assert_eq!(vp.run_until(1_000_000, &live), RunOutcome::Break);
    assert_eq!(gpr(&vp, A0), 55);
}
