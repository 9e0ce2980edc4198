//! [`DispatchStats`]: the dispatch and snapshot counters, each declared
//! once.
//!
//! Every counter is one row of the `dispatch_counters!` table below:
//! its field name, the metric suffix it is exported under
//! (`campaign_<suffix>` in campaign metrics) and a one-line description
//! that becomes the field's rustdoc. The macro generates the struct,
//! [`DispatchStats::merge`] and [`DispatchStats::counters`], and every
//! consumer (the campaign and `vp_<suffix>` metrics) reads the table
//! through `counters`, so a new counter is one row plus its increment.
//! Exported names are read by name downstream: a suffix is never
//! renamed.

/// One [`DispatchStats`] counter: its table row and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchCounter {
    /// The [`DispatchStats`] field name.
    pub field: &'static str,
    /// The metric suffix: campaign metrics export the counter as
    /// `campaign_<suffix>`.
    pub suffix: &'static str,
    /// The counter's value.
    pub value: u64,
}

macro_rules! dispatch_counters {
    ($( $field:ident => $suffix:literal, $doc:literal; )+) => {
        /// Counters for the dispatch fast path and the snapshot machinery.
        ///
        /// Retrieved with [`Vp::dispatch_stats`](crate::Vp::dispatch_stats)
        /// (cumulative) or
        /// [`Vp::take_dispatch_stats`](crate::Vp::take_dispatch_stats)
        /// (reset-on-read, for periodic merging into an `s4e-obs` metrics
        /// registry). [`counters`](DispatchStats::counters) lists every
        /// field with its metric suffix.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct DispatchStats {
            $( #[doc = $doc] pub $field: u64, )+
        }

        /// Rows in the counter table.
        const COUNTERS: usize = [$(stringify!($field)),+].len();

        impl DispatchStats {
            /// Every counter in table order, with its field name, metric
            /// suffix and value.
            pub fn counters(&self) -> [DispatchCounter; COUNTERS] {
                [$(DispatchCounter {
                    field: stringify!($field),
                    suffix: $suffix,
                    value: self.$field,
                }),+]
            }

            /// The stats holding `values` in table order: the inverse of
            /// [`counters`](DispatchStats::counters).
            pub fn from_values(values: [u64; COUNTERS]) -> DispatchStats {
                let [$($field),+] = values;
                DispatchStats { $($field),+ }
            }

            /// Accumulates `other` into `self`.
            pub fn merge(&mut self, other: &DispatchStats) {
                $( self.$field += other.$field; )+
            }
        }
    };
}

dispatch_counters! {
    chain_hits => "chain_hits", "Block dispatches served by a direct chain link, skipping every lookup.";
    chain_links => "chain_links", "Chain links installed between translated blocks.";
    jmp_cache_hits => "jmp_cache_hits", "Block dispatches served by the direct-mapped jump cache.";
    jmp_cache_misses => "jmp_cache_misses", "Block dispatches that fell back to the block-map probe.";
    fused_lowered => "fused_lowered", "Instruction pairs fused into one micro-op at lowering time.";
    fused_exec => "fused_executed", "Fused micro-ops executed (each retires two instructions).";
    translations => "translations", "Blocks decoded from guest memory.";
    mem_fast_hits => "mem_fast_hits", "Memory accesses served by the RAM fast path.";
    mem_slow_hits => "mem_slow_hits", "Memory accesses that took the full bus path.";
    invalidations => "invalidations", "Translated-code invalidations (SMC, fence.i, load, bus mutation, restore).";
    snapshots => "snapshots_taken", "Snapshots captured.";
    pages_flushed => "dirty_pages_flushed", "Dirty RAM pages flushed while capturing snapshots.";
    restores => "snapshot_restores", "Snapshot restores applied.";
    pages_restored => "dirty_pages_restored", "RAM pages copied back while restoring snapshots.";
    lock_waits => "lock_waits", "Contended acquisitions of the golden-prefix advancer lock.";
    lock_wait_us => "lock_wait_us", "Microseconds spent blocked on the advancer lock.";
    jit_blocks => "jit_blocks_compiled", "Hot blocks compiled to host code by the template JIT.";
    jit_exec => "jit_blocks_executed", "Block entries executed as native code.";
    retired => "retired", "Instructions retired, on any tier.";
    jit_retired => "jit_retired", "Instructions retired in native code.";
    jit_bailouts => "jit_bailouts", "JIT bail-outs for any reason: the sum of the four jit_bail counters.";
    jit_bail_mem => "jit_bail_mem_slow_path", "JIT bail-outs on an MMIO, misaligned or RAM-edge access.";
    jit_bail_budget => "jit_bail_budget_expiry", "JIT bail-outs at a block the instruction budget ends inside.";
    jit_bail_smc => "jit_bail_smc_store", "JIT bail-outs on a store into translated code.";
    jit_bail_reval_miss => "jit_bail_revalidation_miss", "Retained native blocks dropped because their code bytes changed.";
    jit_retained => "jit_retained", "Native blocks re-adopted after a restore instead of recompiled.";
}

impl DispatchStats {
    /// The jump-cache hit rate over all block dispatches, in `[0, 1]`.
    pub fn jmp_cache_hit_rate(&self) -> f64 {
        let total = self.jmp_cache_hits + self.jmp_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.jmp_cache_hits as f64 / total as f64
        }
    }

    /// The fraction of all block dispatches served by a direct chain
    /// link, in `[0, 1]`.
    pub fn chain_hit_rate(&self) -> f64 {
        let total = self.chain_hits + self.jmp_cache_hits + self.jmp_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.chain_hits as f64 / total as f64
        }
    }

    /// Counts one JIT bail-out under its reason, which keeps
    /// `jit_bailouts` the sum of the four `jit_bail_*` counters.
    pub(crate) fn count_bail(&mut self, reason: Bail) {
        self.jit_bailouts += 1;
        match reason {
            Bail::Mem => self.jit_bail_mem += 1,
            Bail::Budget => self.jit_bail_budget += 1,
            Bail::Smc => self.jit_bail_smc += 1,
            Bail::RevalMiss => self.jit_bail_reval_miss += 1,
        }
    }
}

/// Why execution left (or never entered) native code: one variant per
/// `jit_bail_*` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bail {
    /// A native memory access took the slow path: MMIO, misaligned or
    /// RAM-edge (including a misaligned `jalr` target).
    Mem,
    /// The remaining instruction budget ended inside the entered block;
    /// the micro-op engine reproduces the exact expiry boundary.
    Budget,
    /// A native store overlapped the translated code range.
    Smc,
    /// A retained native block failed its code-bytes hash check at
    /// re-adoption after a restore.
    RevalMiss,
}
