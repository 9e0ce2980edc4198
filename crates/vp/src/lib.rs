//! # s4e-vp — the RISC-V virtual prototype of the Scale4Edge ecosystem
//!
//! A deterministic RV32 full-system emulator standing in for QEMU: a
//! single-hart interpreter with a translation-block cache (the structural
//! analog of TCG translation blocks), a device bus (UART, system
//! controller, CLINT timer), machine-mode trap and interrupt handling, a
//! configurable [`TimingModel`] driving the `mcycle` counter, and — the
//! load-bearing piece for the rest of the ecosystem — the [`Plugin`] hook
//! API mirroring QEMU's TCG plugin interface, through which every analysis
//! tool (coverage, fault classification, QTA timing co-simulation, IO
//! guarding) observes execution non-invasively.
//!
//! ## Example
//!
//! ```
//! use s4e_vp::{RunOutcome, Vp};
//! use s4e_isa::{Gpr, IsaConfig};
//!
//! // li a0, 7 ; ebreak   (pre-assembled)
//! let code = [0x13, 0x05, 0x70, 0x00, 0x73, 0x00, 0x10, 0x00];
//! let mut vp = Vp::new(IsaConfig::rv32imc());
//! vp.load(0x8000_0000, &code)?;
//! assert_eq!(vp.run(), RunOutcome::Break);
//! assert_eq!(vp.cpu().gpr(Gpr::A0), 7);
//! # Ok::<(), s4e_vp::BusFault>(())
//! ```

#![warn(missing_docs)]

mod bus;
mod cancel;
mod cpu;
pub mod dev;
mod flight;
mod jit;
mod plugin;
mod snapshot;
mod stats;
mod timing;
mod trap;
mod uop;
mod vp;

pub use bus::{Bus, BusEvent, BusFault, PAGE_SIZE, RAM_BASE, RAM_SIZE};
pub use cancel::CancelToken;
pub use cpu::Cpu;
pub use flight::{FlightEvent, FlightRecorder};
pub use plugin::{AsAny, BlockEntry, BlockInfo, DeviceAccess, MemAccess, Plugin};
pub use snapshot::VpSnapshot;
pub use stats::{DispatchCounter, DispatchStats};
pub use timing::TimingModel;
pub use trap::Trap;
pub use vp::{RunOutcome, Vp, VpBuilder, DEFAULT_INSN_LIMIT};
