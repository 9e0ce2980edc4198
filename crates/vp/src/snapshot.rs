//! Point-in-time VP state capture with O(dirty pages) cost.
//!
//! A [`VpSnapshot`] holds the complete architectural state of a [`Vp`]:
//! CPU registers (GPRs, FPRs, CSRs, `pc`, the cycle and instret
//! counters), RAM, and device state (UART buffers, system-controller
//! console, CLINT timer). RAM is stored as shared reference-counted
//! pages: capturing a snapshot only clones the pages written since the
//! previous capture (tracked by the bus's dirty-page bitmap), and
//! restoring only copies the pages on which the VP's RAM and the
//! snapshot disagree. Untouched pages of consecutive snapshots share
//! the same allocation, so keeping many snapshots of a mostly-idle
//! campaign costs far less than `count * ram_size`.
//!
//! Snapshots are `Send + Sync`: one golden snapshot can be restored
//! concurrently by many worker threads, each onto its own [`Vp`].
//!
//! What a snapshot does **not** capture: the translation-block cache and
//! jump cache (transparent — a restore drops them and they are rebuilt
//! on demand, while the JIT arena's native code survives it, see
//! [`Vp::restore`]), plugin state (plugins observe the restored
//! execution from the restore point onward), and the [`TimingModel`] /
//! ISA configuration (restore requires an identically-configured VP).
//!
//! [`Vp`]: crate::Vp
//! [`Vp::restore`]: crate::Vp::restore
//! [`TimingModel`]: crate::TimingModel

use crate::bus::{BusEvent, PAGE_SIZE};
use crate::cpu::Cpu;
use std::sync::{Arc, OnceLock};

/// The all-zeros page shared by every freshly-built VP and every
/// snapshot page that was never written. Sharing a single allocation
/// makes `Arc::ptr_eq` a precise "page unchanged since reset" test even
/// across VPs.
pub(crate) fn zero_page() -> Arc<[u8]> {
    static ZERO: OnceLock<Arc<[u8]>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::from(vec![0u8; PAGE_SIZE as usize]))
        .clone()
}

/// A point-in-time capture of a [`Vp`](crate::Vp)'s architectural state.
///
/// Created by [`Vp::snapshot`](crate::Vp::snapshot); applied by
/// [`Vp::restore`](crate::Vp::restore). Cheap to clone (RAM pages are
/// reference-counted) and safe to share across threads.
///
/// # Examples
///
/// ```
/// use s4e_vp::{RunOutcome, Vp};
/// use s4e_isa::IsaConfig;
///
/// // addi a0, zero, 5 ; ebreak
/// let code = [0x13, 0x05, 0x50, 0x00, 0x73, 0x00, 0x10, 0x00];
/// let mut vp = Vp::new(IsaConfig::rv32i());
/// vp.load(0x8000_0000, &code)?;
/// let snap = vp.snapshot();
/// assert_eq!(vp.run(), RunOutcome::Break);
/// let end = vp.cpu().instret();
///
/// vp.restore(&snap); // back to the freshly-loaded state
/// assert_eq!(vp.cpu().instret(), 0);
/// assert_eq!(vp.run(), RunOutcome::Break);
/// assert_eq!(vp.cpu().instret(), end);
/// # Ok::<(), s4e_vp::BusFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct VpSnapshot {
    pub(crate) cpu: Cpu,
    pub(crate) ram_base: u32,
    pub(crate) ram_size: u32,
    /// One entry per [`PAGE_SIZE`] RAM page. The final page may be
    /// shorter than `PAGE_SIZE` when the RAM size is not page-aligned.
    pub(crate) pages: Vec<Arc<[u8]>>,
    /// Serialized device state, in bus mapping order.
    pub(crate) devices: Vec<Vec<u8>>,
    pub(crate) pending_event: Option<BusEvent>,
    pub(crate) block_exit_pending: bool,
    /// Lazily-computed state hash, shared by clones made after the
    /// first [`fingerprint`](VpSnapshot::fingerprint) call.
    pub(crate) fingerprint: OnceLock<u64>,
}

impl VpSnapshot {
    /// The architectural CPU state at capture time.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The cycle count at capture time.
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles()
    }

    /// The retired-instruction count at capture time.
    pub fn instret(&self) -> u64 {
        self.cpu.instret()
    }

    /// The program counter at capture time.
    pub fn pc(&self) -> u32 {
        self.cpu.pc()
    }

    /// RAM geometry `(base, size)` this snapshot was captured from.
    pub fn ram_geometry(&self) -> (u32, u32) {
        (self.ram_base, self.ram_size)
    }

    /// An FNV-1a hash of the complete captured state: CPU registers and
    /// CSRs (including the cycle/instret counters and stuck-at fault
    /// masks), every RAM page, serialized device state, and the pending
    /// bus event. Two snapshots with equal fingerprints describe the
    /// same architectural restore point, so deterministic execution from
    /// either must produce the same result — the property the fault
    /// campaign's equivalence dedupe relies on.
    ///
    /// Computed on first call and cached; pages still sharing the
    /// all-zeros reset allocation are folded as a marker instead of
    /// being re-hashed byte by byte.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let byte = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
            let bytes = |h: u64, bs: &[u8]| bs.iter().fold(h, |h, &b| byte(h, b));
            let zero = zero_page();
            let mut h = self.cpu.fold_state(0xcbf2_9ce4_8422_2325);
            h = bytes(h, &self.ram_base.to_le_bytes());
            h = bytes(h, &self.ram_size.to_le_bytes());
            for page in &self.pages {
                if Arc::ptr_eq(page, &zero) {
                    h = byte(h, 0);
                } else {
                    h = bytes(byte(h, 1), page);
                }
            }
            for dev in &self.devices {
                h = bytes(h, &(dev.len() as u32).to_le_bytes());
                h = bytes(h, dev);
            }
            h = match self.pending_event {
                None => byte(h, 0),
                Some(BusEvent::Exit(code)) => bytes(byte(h, 1), &code.to_le_bytes()),
            };
            byte(h, u8::from(self.block_exit_pending))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_page_is_shared() {
        assert!(Arc::ptr_eq(&zero_page(), &zero_page()));
        assert_eq!(zero_page().len(), PAGE_SIZE as usize);
        assert!(zero_page().iter().all(|&b| b == 0));
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_sync() {
        assert_send_sync::<VpSnapshot>();
    }
}
