//! Event counters charged by every simulator primitive.

/// Architecture-independent execution counts.
///
/// These are the quantities the paper's optimizations actually change
/// (kernel fusion reduces `global_read_bytes` and `launches`; the FIFO
/// buffer reduces `global_read_bytes` for pattern 3; occupancy limits come
/// from the resource declarations) — so they are what the cost model prices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Bytes read from global (device) memory.
    pub global_read_bytes: u64,
    /// Bytes written to global memory.
    pub global_write_bytes: u64,
    /// Bytes moved by *scattered* (uncoalesced) global accesses — priced at
    /// the device's scatter bandwidth, a small fraction of peak (sector
    /// waste + latency). The no-FIFO SSIM spill produces these.
    pub global_scatter_bytes: u64,
    /// Shared-memory accesses (reads + writes), in 4-byte words.
    pub shared_accesses: u64,
    /// Arithmetic lane-operations (one ALU op on one lane).
    pub lane_flops: u64,
    /// Special-function lane-operations (sqrt, log, exp, div).
    pub special_ops: u64,
    /// Warp shuffle instructions (each moves a full 32-lane register).
    pub shuffles: u64,
    /// Warp ballot/vote instructions.
    pub ballots: u64,
    /// Block-level `__syncthreads()` barriers executed.
    pub syncs: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Cooperative grid-wide synchronizations.
    pub grid_syncs: u64,
    /// Deepest sequential per-thread iteration count observed
    /// (Table II's "Iters/thread"; combined with `max`).
    pub iters_per_thread: u64,
}

impl Counters {
    /// Fold another counter set into this one (sums, except the iteration
    /// depth which takes the maximum — it is a per-thread serial depth, not
    /// an aggregate).
    pub fn merge(&mut self, o: &Counters) {
        self.global_read_bytes += o.global_read_bytes;
        self.global_write_bytes += o.global_write_bytes;
        self.global_scatter_bytes += o.global_scatter_bytes;
        self.shared_accesses += o.shared_accesses;
        self.lane_flops += o.lane_flops;
        self.special_ops += o.special_ops;
        self.shuffles += o.shuffles;
        self.ballots += o.ballots;
        self.syncs += o.syncs;
        self.launches += o.launches;
        self.grid_syncs += o.grid_syncs;
        self.iters_per_thread = self.iters_per_thread.max(o.iters_per_thread);
    }

    /// Total global-memory traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Fold an iterator of counter sets into one (the campaign-level
    /// aggregation: sums everywhere, max for the per-thread serial depth —
    /// same invariant as [`Counters::merge`]).
    pub fn merged<'a, I: IntoIterator<Item = &'a Counters>>(iter: I) -> Counters {
        let mut acc = Counters::default();
        for c in iter {
            acc.merge(c);
        }
        acc
    }
}

impl std::iter::Sum<Counters> for Counters {
    fn sum<I: Iterator<Item = Counters>>(iter: I) -> Counters {
        let mut acc = Counters::default();
        for c in iter {
            acc.merge(&c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Counters {
            global_read_bytes: 10,
            iters_per_thread: 5,
            ..Default::default()
        };
        let b = Counters {
            global_read_bytes: 3,
            global_write_bytes: 7,
            iters_per_thread: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.global_read_bytes, 13);
        assert_eq!(a.global_bytes(), 20);
        assert_eq!(a.iters_per_thread, 5);
    }

    #[test]
    fn merged_equals_pairwise_merge() {
        let sets = [
            Counters {
                global_read_bytes: 4,
                iters_per_thread: 9,
                ..Default::default()
            },
            Counters {
                global_write_bytes: 6,
                launches: 2,
                ..Default::default()
            },
            Counters {
                lane_flops: 11,
                iters_per_thread: 3,
                ..Default::default()
            },
        ];
        let m = Counters::merged(sets.iter());
        let s: Counters = sets.iter().copied().sum();
        assert_eq!(m, s);
        assert_eq!(m.global_read_bytes, 4);
        assert_eq!(m.global_write_bytes, 6);
        assert_eq!(m.lane_flops, 11);
        assert_eq!(m.launches, 2);
        assert_eq!(m.iters_per_thread, 9);
        assert_eq!(Counters::merged(std::iter::empty()), Counters::default());
    }
}
