//! Non-invasive IO access monitoring: the MBMV 2019 lock-control
//! scenario. A lock controller is attached via UART; the security policy
//! is that only the designated driver function may touch the UART window.
//! A plugin on the TCG-style hook API detects any unauthorized access —
//! here, a planted backdoor that bypasses the driver.
//!
//! Run with: `cargo run --example io_guard`

use scale4edge::prelude::*;
use scale4edge::vp::{BlockInfo, Cpu, DeviceAccess};

const FIRMWARE: &str = r#"
    .equ UART, 0x10000000
    _start:
        li  sp, 0x80040000
        li  a0, 'U'          # legitimate unlock command
        call uart_send       # authorized path: via the driver
        call backdoor        # compromised code path
        ebreak

    # The one function allowed to touch the UART.
    uart_send:
    uart_send_body:
        li  t0, UART
        sw  a0, 0(t0)        # TXDATA
        ret
    uart_send_end:

    # Planted backdoor: writes the unlock command directly.
    backdoor:
        li  t0, UART
        li  t1, 'U'
        sw  t1, 0(t0)        # unauthorized access!
        ret
"#;

/// The access policy: a set of PC ranges allowed to touch a device.
#[derive(Debug)]
struct IoGuard {
    device: &'static str,
    allowed: Vec<(u32, u32)>,
    violations: Vec<DeviceAccess>,
    authorized: u32,
}

impl IoGuard {
    fn new(device: &'static str, allowed: Vec<(u32, u32)>) -> IoGuard {
        IoGuard {
            device,
            allowed,
            violations: Vec::new(),
            authorized: 0,
        }
    }
}

impl Plugin for IoGuard {
    /// Device events fire in every block, so the guard subscribes none
    /// to instruction and RAM events: the firmware keeps running on the
    /// micro-op engine and the template JIT.
    fn wants_insn_events(&self, _block: &BlockInfo<'_>) -> bool {
        false
    }

    fn on_device_access(&mut self, _cpu: &Cpu, access: &DeviceAccess) {
        if access.device != self.device {
            return;
        }
        let ok = self
            .allowed
            .iter()
            .any(|&(lo, hi)| access.pc >= lo && access.pc < hi);
        if ok {
            self.authorized += 1;
        } else {
            self.violations.push(*access);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = assemble(FIRMWARE)?;
    let driver_start = image.symbol("uart_send_body").expect("driver symbol");
    let driver_end = image.symbol("uart_send_end").expect("driver end symbol");

    let mut vp = Vp::new(IsaConfig::full());
    boot(&mut vp, &image)?;
    vp.add_plugin(Box::new(IoGuard::new(
        "uart",
        vec![(driver_start, driver_end)],
    )));

    let outcome = vp.run();
    println!("firmware finished: {outcome:?}");

    let guard = vp.plugin::<IoGuard>().expect("guard attached");
    println!(
        "UART policy: {} authorized accesses, {} violations",
        guard.authorized,
        guard.violations.len()
    );
    for v in &guard.violations {
        println!(
            "  VIOLATION: pc {:#010x} wrote {:#04x} to {:#010x} — \
             unauthorized lock command detected",
            v.pc, v.value, v.addr
        );
    }
    assert_eq!(guard.authorized, 1, "the driver path is authorized");
    assert_eq!(guard.violations.len(), 1, "the backdoor is detected");
    // The attack is detected *before* any damage assessment relies on the
    // UART output alone: both bytes did reach the device...
    let uart_out = vp
        .bus_mut()
        .device_mut::<scale4edge::vp::dev::Uart>()
        .expect("uart mapped")
        .take_output();
    assert_eq!(uart_out, b"UU");
    println!("...while the lock itself saw {uart_out:?} — only the monitor can tell them apart");
    Ok(())
}
