//! The "one big switch" network.

use nashdb_sim::net::SharedLink;
use nashdb_sim::SimTime;

/// The "one big switch" network model: every node owns a NIC link, and all
/// NICs feed one shared core link. A fragment read crosses its server's NIC
/// and then the core on its way back to the client; a transition transfer
/// crosses the core and then the receiving node's NIC before its disk
/// write. Concurrent flows on the same link delay each other FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Tuples per second each node's NIC carries.
    pub nic_tps: u64,
    /// Tuples per second the shared core link carries (the contended
    /// resource: all nodes' traffic crosses it).
    pub core_tps: u64,
}

/// The core link and one NIC per physical node, indexed like the disks.
#[derive(Debug)]
pub(super) struct Network {
    nic_tps: u64,
    core: SharedLink,
    nics: Vec<SharedLink>,
}

impl Network {
    pub(super) fn new(cfg: NetConfig) -> Self {
        Network {
            nic_tps: cfg.nic_tps,
            core: SharedLink::new(cfg.core_tps),
            nics: Vec::new(),
        }
    }

    /// Wires the next physical node's NIC.
    pub(super) fn add_nic(&mut self) {
        self.nics.push(SharedLink::new(self.nic_tps));
    }

    /// When a read of `tuples` that `phys`'s disk finished at `now` reaches
    /// the client: across the server's NIC, then the core.
    pub(super) fn deliver(&mut self, phys: usize, now: SimTime, tuples: u64) -> SimTime {
        let off_nic = self.nics[phys].transmit(now, tuples);
        self.core.transmit(off_nic, tuples)
    }

    /// When a transfer of `tuples` sent to `phys` at `now` reaches its disk:
    /// across the core, then the receiver's NIC.
    pub(super) fn transfer(&mut self, phys: usize, now: SimTime, tuples: u64) -> SimTime {
        let off_core = self.core.transmit(now, tuples);
        self.nics[phys].transmit(off_core, tuples)
    }

    /// A crashed node's NIC drops what it was carrying.
    pub(super) fn reset_nic(&mut self, phys: usize) {
        self.nics[phys].reset();
    }
}

#[cfg(test)]
mod tests {
    use nashdb_sim::SimDuration;

    use super::*;

    #[test]
    fn reads_and_transfers_cross_the_links_in_opposite_orders() {
        let mut net = Network::new(NetConfig {
            nic_tps: 1_000,
            core_tps: 2_000,
        });
        net.add_nic();
        net.add_nic();
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        // 1,000 tuples: 1 s on node 0's NIC, then 0.5 s on the core.
        assert_eq!(net.deliver(0, at(0), 1_000), at(1_500));
        // The core first, behind the read, then 1 s on node 1's NIC.
        assert_eq!(net.transfer(1, at(0), 1_000), at(3_000));
        // A crash empties node 0's NIC; the core stays busy until 2 s.
        net.reset_nic(0);
        assert_eq!(net.deliver(0, at(0), 1_000), at(2_500));
    }
}
