//! Socket/core/DIMM layout and core allocation.
//!
//! The paper's Fig. 1 platform: two sockets, each with its own cores,
//! private L1/L2 caches, a shared LLC, one memory controller and a local
//! DIMM. Applications spatially multiplex *disjoint* core sets (no direct
//! resource contention), which is exactly the regime in which power
//! struggles arise.

use serde::{Deserialize, Serialize};

use crate::error::ServerError;

/// Identifier of a socket (NUMA node).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SocketId(pub usize);

impl core::fmt::Display for SocketId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

/// Identifier of a physical core, global across sockets.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CoreId(pub usize);

impl core::fmt::Display for CoreId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of a DIMM (one per memory controller / socket on the paper's
/// platform).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DimmId(pub usize);

impl core::fmt::Display for DimmId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "dimm{}", self.0)
    }
}

/// The physical layout of a server: sockets, cores per socket, DIMMs.
///
/// ```
/// use powermed_server::topology::{CoreId, SocketId, Topology};
///
/// let topo = Topology::new(2, 6, 2);
/// assert_eq!(topo.total_cores(), 12);
/// assert_eq!(topo.socket_of(CoreId(7)), SocketId(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    sockets: usize,
    cores_per_socket: usize,
    dimms: usize,
}

impl Topology {
    /// Creates a topology with `sockets` sockets of `cores_per_socket`
    /// cores each and `dimms` DIMMs.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(sockets: usize, cores_per_socket: usize, dimms: usize) -> Self {
        assert!(sockets > 0 && cores_per_socket > 0 && dimms > 0);
        Self {
            sockets,
            cores_per_socket,
            dimms,
        }
    }

    /// Number of sockets (NUMA nodes).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Number of cores on each socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Total core count across sockets.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total number of DIMMs.
    pub fn total_dimms(&self) -> usize {
        self.dimms
    }

    /// The socket that hosts `core`.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }

    /// The DIMM local to `socket` (round-robin when DIMMs != sockets).
    pub fn local_dimm(&self, socket: SocketId) -> DimmId {
        DimmId(socket.0 % self.dimms)
    }

    /// All cores of `socket`, in id order.
    pub fn cores_of(&self, socket: SocketId) -> impl ExactSizeIterator<Item = CoreId> {
        let start = socket.0 * self.cores_per_socket;
        (start..start + self.cores_per_socket).map(CoreId)
    }

    /// All socket ids.
    pub fn all_sockets(&self) -> impl ExactSizeIterator<Item = SocketId> {
        (0..self.sockets).map(SocketId)
    }

    /// Whether `core` exists on this server.
    pub fn contains_core(&self, core: CoreId) -> bool {
        core.0 < self.total_cores()
    }
}

/// Tracks which cores are assigned to which application, enforcing the
/// paper's "disjoint direct resources" co-location discipline: each
/// application owns a socket-local, mutually exclusive core set
/// (the simulated analogue of `taskset`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreAllocator {
    topology: Topology,
    /// `owner[i]` is the index of the owning application slot for core `i`.
    owner: Vec<Option<usize>>,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new(2, 6, 2)
    }
}

impl CoreAllocator {
    /// Creates an allocator with every core free.
    pub fn new(topology: Topology) -> Self {
        let owner = vec![None; topology.total_cores()];
        Self { topology, owner }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of currently unassigned cores.
    pub fn free_cores(&self) -> usize {
        self.owner.iter().filter(|o| o.is_none()).count()
    }

    /// Cores currently owned by application slot `app`.
    pub fn cores_of_app(&self, app: usize) -> Vec<CoreId> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(app))
            .map(|(i, _)| CoreId(i))
            .collect()
    }

    /// Allocates `count` cores to application slot `app`, preferring to
    /// keep each application within a single socket (NUMA affinity, as the
    /// paper pins each app to one node and its local DIMM).
    ///
    /// Growth requests prefer the socket(s) the application already
    /// occupies, so incremental `set_knobs` growth never fragments an
    /// app across sockets while its home socket has room.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InsufficientCores`] when fewer than `count`
    /// cores are free.
    pub fn allocate(&mut self, app: usize, count: usize) -> Result<Vec<CoreId>, ServerError> {
        let available = self.free_cores();
        if count > available {
            return Err(ServerError::InsufficientCores {
                requested: count,
                available,
            });
        }
        let resident: Vec<SocketId> = self
            .cores_of_app(app)
            .iter()
            .map(|c| self.topology.socket_of(*c))
            .collect();
        let free_on = |owner: &[Option<usize>], s: SocketId| {
            self.topology
                .cores_of(s)
                .filter(|c| owner[c.0].is_none())
                .count()
        };

        // Socket visit order: resident sockets first (most free first),
        // then — for fresh apps — a socket that fits the whole request,
        // then the rest by free count.
        let mut order: Vec<SocketId> = self.topology.all_sockets().collect();
        order.sort_by_key(|s| {
            let is_resident = resident.contains(s);
            let free = free_on(&self.owner, *s);
            let fits = free >= count;
            (
                core::cmp::Reverse(is_resident as usize),
                core::cmp::Reverse(if resident.is_empty() && fits { 1 } else { 0 }),
                core::cmp::Reverse(free),
                s.0,
            )
        });

        let mut chosen: Vec<CoreId> = Vec::with_capacity(count);
        'outer: for socket in order {
            for core in self.topology.cores_of(socket) {
                if chosen.len() == count {
                    break 'outer;
                }
                if self.owner[core.0].is_none() {
                    chosen.push(core);
                }
            }
        }
        for core in &chosen {
            self.owner[core.0] = Some(app);
        }
        Ok(chosen)
    }

    /// Releases every core owned by application slot `app`, returning how
    /// many were freed.
    pub fn release(&mut self, app: usize) -> usize {
        let mut freed = 0;
        for o in &mut self.owner {
            if *o == Some(app) {
                *o = None;
                freed += 1;
            }
        }
        freed
    }

    /// Shrinks application `app` to `keep` cores (power gating the rest),
    /// returning the released cores. Keeps the lowest-numbered cores so
    /// the retained set stays socket-local.
    pub fn shrink_to(&mut self, app: usize, keep: usize) -> Vec<CoreId> {
        let mut owned = self.cores_of_app(app);
        owned.sort();
        let released: Vec<CoreId> = owned.split_off(keep.min(owned.len()));
        for core in &released {
            self.owner[core.0] = None;
        }
        released
    }

    /// Socket ids with at least one core owned by any application.
    pub fn active_sockets(&self) -> Vec<SocketId> {
        let mut out: Vec<SocketId> = self
            .owner
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| self.topology.socket_of(CoreId(i)))
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_mapping() {
        let topo = Topology::new(2, 6, 2);
        assert_eq!(topo.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(topo.socket_of(CoreId(5)), SocketId(0));
        assert_eq!(topo.socket_of(CoreId(6)), SocketId(1));
        assert_eq!(topo.socket_of(CoreId(11)), SocketId(1));
        assert_eq!(topo.local_dimm(SocketId(1)), DimmId(1));
        assert!(topo.contains_core(CoreId(11)));
        assert!(!topo.contains_core(CoreId(12)));
    }

    #[test]
    fn allocator_prefers_socket_locality() {
        let mut alloc = CoreAllocator::new(Topology::new(2, 6, 2));
        let a = alloc.allocate(0, 4).unwrap();
        let b = alloc.allocate(1, 4).unwrap();
        // Both fit within a single socket each.
        let sa: Vec<_> = a.iter().map(|c| alloc.topology().socket_of(*c)).collect();
        let sb: Vec<_> = b.iter().map(|c| alloc.topology().socket_of(*c)).collect();
        assert!(sa.windows(2).all(|w| w[0] == w[1]));
        assert!(sb.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(sa[0], sb[0], "apps land on different sockets");
    }

    #[test]
    fn allocator_spills_when_no_socket_fits() {
        let mut alloc = CoreAllocator::new(Topology::new(2, 6, 2));
        alloc.allocate(0, 4).unwrap();
        alloc.allocate(1, 4).unwrap();
        // 4 cores remain, 2 on each socket: an app of 4 must spill.
        let c = alloc.allocate(2, 4).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(alloc.free_cores(), 0);
    }

    #[test]
    fn over_allocation_errors() {
        let mut alloc = CoreAllocator::new(Topology::new(2, 6, 2));
        alloc.allocate(0, 10).unwrap();
        let err = alloc.allocate(1, 4).unwrap_err();
        assert_eq!(
            err,
            ServerError::InsufficientCores {
                requested: 4,
                available: 2
            }
        );
    }

    #[test]
    fn growth_prefers_resident_socket() {
        let mut alloc = CoreAllocator::new(Topology::new(2, 6, 2));
        // App 0 starts with 4 cores on one socket; app 1 takes 4 on the
        // other. Growing app 0 by 2 must use its own socket's free
        // cores, not fragment onto the other socket.
        alloc.allocate(0, 4).unwrap();
        alloc.allocate(1, 4).unwrap();
        alloc.allocate(0, 2).unwrap();
        let sockets: Vec<SocketId> = alloc
            .cores_of_app(0)
            .iter()
            .map(|c| alloc.topology().socket_of(*c))
            .collect();
        assert!(
            sockets.windows(2).all(|w| w[0] == w[1]),
            "app 0 fragmented: {sockets:?}"
        );
        assert_eq!(alloc.cores_of_app(0).len(), 6);
    }

    #[test]
    fn release_and_shrink() {
        let mut alloc = CoreAllocator::new(Topology::new(2, 6, 2));
        alloc.allocate(0, 6).unwrap();
        let released = alloc.shrink_to(0, 3);
        assert_eq!(released.len(), 3);
        assert_eq!(alloc.cores_of_app(0).len(), 3);
        assert_eq!(alloc.free_cores(), 9);
        assert_eq!(alloc.release(0), 3);
        assert_eq!(alloc.free_cores(), 12);
    }

    #[test]
    fn active_sockets_tracking() {
        let mut alloc = CoreAllocator::new(Topology::new(2, 6, 2));
        assert!(alloc.active_sockets().is_empty());
        alloc.allocate(0, 2).unwrap();
        assert_eq!(alloc.active_sockets().len(), 1);
        alloc.allocate(1, 6).unwrap();
        assert_eq!(alloc.active_sockets().len(), 2);
    }

    #[test]
    fn display_identifiers() {
        assert_eq!(SocketId(1).to_string(), "socket1");
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(DimmId(0).to_string(), "dimm0");
    }
}
