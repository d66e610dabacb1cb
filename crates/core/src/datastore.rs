//! Datastores: storage devices plus VMDK placement and address translation.

use crate::vmdk::VmdkId;
use nvhsm_device::StorageDevice;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a datastore within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DatastoreId(pub usize);

impl fmt::Display for DatastoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ds{}", self.0)
    }
}

/// A contiguous block extent allocated to a VMDK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    base: u64,
    len: u64,
}

/// A storage device abstracted as a data store (§1: "storage resources are
/// abstracted as data stores"), with a first-fit extent allocator.
///
/// # Examples
///
/// ```
/// use nvhsm_core::{Datastore, DatastoreId, VmdkId};
/// use nvhsm_device::{HddConfig, HddDevice};
///
/// let mut ds = Datastore::new(DatastoreId(0), Box::new(HddDevice::new(HddConfig::small_test())), 0);
/// let base = ds.place(VmdkId(1), 100).unwrap();
/// assert_eq!(ds.translate(VmdkId(1), 5), Some(base + 5));
/// ```
pub struct Datastore {
    id: DatastoreId,
    device: Box<dyn StorageDevice>,
    /// Node this datastore belongs to (for cross-node migration costing).
    node: usize,
    /// Placement table indexed densely by `VmdkId.0` — VMDK ids are
    /// handed out sequentially by the node simulation, so a flat array
    /// turns the per-request translate lookup into one bounds check and
    /// one load instead of a hash probe.
    placements: Vec<Option<Extent>>,
    resident_count: usize,
    /// Free extents, kept sorted by base, coalesced on free.
    free: Vec<Extent>,
    used_blocks: u64,
}

impl fmt::Debug for Datastore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Datastore")
            .field("id", &self.id)
            .field("kind", &self.device.kind())
            .field("node", &self.node)
            .field("vmdks", &self.resident_count)
            .field("used_blocks", &self.used_blocks)
            .finish()
    }
}

impl Datastore {
    /// Wraps a device as a datastore on `node`.
    pub fn new(id: DatastoreId, device: Box<dyn StorageDevice>, node: usize) -> Self {
        let capacity = device.logical_blocks();
        Datastore {
            id,
            device,
            node,
            placements: Vec::new(),
            resident_count: 0,
            free: vec![Extent {
                base: 0,
                len: capacity,
            }],
            used_blocks: 0,
        }
    }

    /// The identifier.
    pub fn id(&self) -> DatastoreId {
        self.id
    }

    /// The node index.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The wrapped device.
    pub fn device(&self) -> &dyn StorageDevice {
        self.device.as_ref()
    }

    /// Mutable access to the device.
    pub fn device_mut(&mut self) -> &mut dyn StorageDevice {
        self.device.as_mut()
    }

    /// Blocks allocated to VMDKs.
    pub fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// Total capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.device.logical_blocks()
    }

    /// Largest VMDK that currently fits.
    pub fn largest_free_extent(&self) -> u64 {
        self.free.iter().map(|e| e.len).max().unwrap_or(0)
    }

    /// VMDKs resident on this datastore, in id order (the table is
    /// id-indexed, so iteration order is already sorted).
    pub fn residents(&self) -> Vec<VmdkId> {
        self.placements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|_| VmdkId(i as u32)))
            .collect()
    }

    /// Whether `vmdk` lives here.
    pub fn hosts(&self, vmdk: VmdkId) -> bool {
        self.extent_of(vmdk).is_some()
    }

    #[inline]
    fn extent_of(&self, vmdk: VmdkId) -> Option<&Extent> {
        self.placements.get(vmdk.0 as usize)?.as_ref()
    }

    /// Allocates `blocks` for `vmdk` (first fit) and installs its image on
    /// the device without charging time. Returns the base block, or `None`
    /// if no extent fits.
    ///
    /// # Panics
    ///
    /// Panics if `vmdk` is already placed here or `blocks` is zero.
    pub fn place(&mut self, vmdk: VmdkId, blocks: u64) -> Option<u64> {
        assert!(blocks > 0, "empty VMDK");
        assert!(!self.hosts(vmdk), "{vmdk} already placed on {}", self.id);
        let slot = self.free.iter().position(|e| e.len >= blocks)?;
        let extent = self.free[slot];
        let base = extent.base;
        if extent.len == blocks {
            self.free.remove(slot);
        } else {
            self.free[slot] = Extent {
                base: extent.base + blocks,
                len: extent.len - blocks,
            };
        }
        let idx = vmdk.0 as usize;
        if self.placements.len() <= idx {
            self.placements.resize(idx + 1, None);
        }
        self.placements[idx] = Some(Extent { base, len: blocks });
        self.resident_count += 1;
        self.used_blocks += blocks;
        self.device.prefill(base..base + blocks);
        Some(base)
    }

    /// Releases `vmdk`'s extent, discarding its blocks from device caches
    /// and mapping state.
    ///
    /// # Panics
    ///
    /// Panics if `vmdk` is not placed here.
    pub fn remove(&mut self, vmdk: VmdkId) {
        let extent = self
            .placements
            .get_mut(vmdk.0 as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("{vmdk} not on {}", self.id));
        self.resident_count -= 1;
        for b in extent.base..extent.base + extent.len {
            self.device.discard_block(b);
        }
        self.used_blocks -= extent.len;
        // Insert and coalesce.
        let pos = self
            .free
            .binary_search_by_key(&extent.base, |e| e.base)
            .unwrap_err();
        self.free.insert(pos, extent);
        self.coalesce();
    }

    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.free.len() {
            let (a, b) = (self.free[i], self.free[i + 1]);
            if a.base + a.len == b.base {
                self.free[i] = Extent {
                    base: a.base,
                    len: a.len + b.len,
                };
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Translates a VMDK-relative block offset into a device block.
    /// Returns `None` if the VMDK is not placed here or the offset is out
    /// of range.
    pub fn translate(&self, vmdk: VmdkId, offset: u64) -> Option<u64> {
        let e = self.extent_of(vmdk)?;
        (offset < e.len).then_some(e.base + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvhsm_device::{HddConfig, HddDevice};

    fn ds() -> Datastore {
        Datastore::new(
            DatastoreId(0),
            Box::new(HddDevice::new(HddConfig::small_test())),
            0,
        )
    }

    #[test]
    fn place_translate_remove_roundtrip() {
        let mut d = ds();
        let base = d.place(VmdkId(1), 100).unwrap();
        assert!(d.hosts(VmdkId(1)));
        assert_eq!(d.translate(VmdkId(1), 0), Some(base));
        assert_eq!(d.translate(VmdkId(1), 99), Some(base + 99));
        assert_eq!(d.translate(VmdkId(1), 100), None);
        assert_eq!(d.used_blocks(), 100);
        d.remove(VmdkId(1));
        assert!(!d.hosts(VmdkId(1)));
        assert_eq!(d.used_blocks(), 0);
    }

    #[test]
    fn first_fit_reuses_freed_extents() {
        let mut d = ds();
        let a = d.place(VmdkId(1), 100).unwrap();
        let _b = d.place(VmdkId(2), 100).unwrap();
        d.remove(VmdkId(1));
        let c = d.place(VmdkId(3), 50).unwrap();
        assert_eq!(c, a, "freed extent should be reused first-fit");
    }

    #[test]
    fn coalescing_restores_full_capacity() {
        let mut d = ds();
        let cap = d.capacity_blocks();
        d.place(VmdkId(1), 100);
        d.place(VmdkId(2), 100);
        d.place(VmdkId(3), 100);
        d.remove(VmdkId(2));
        d.remove(VmdkId(1));
        d.remove(VmdkId(3));
        assert_eq!(d.largest_free_extent(), cap);
    }

    #[test]
    fn refuses_oversized_placement() {
        let mut d = ds();
        let cap = d.capacity_blocks();
        assert!(d.place(VmdkId(1), cap + 1).is_none());
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let mut d = ds();
        d.place(VmdkId(1), 10);
        d.place(VmdkId(1), 10);
    }

    #[test]
    fn residents_sorted() {
        let mut d = ds();
        d.place(VmdkId(5), 10);
        d.place(VmdkId(2), 10);
        assert_eq!(d.residents(), vec![VmdkId(2), VmdkId(5)]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use nvhsm_device::{HddConfig, HddDevice};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary place/remove interleavings keep the allocator's
        /// accounting exact: used blocks equal the sum of live extents, no
        /// overlap, and full capacity returns once everything is removed.
        #[test]
        fn prop_allocator_accounting(ops in proptest::collection::vec((0u32..24, 1u64..5_000, proptest::bool::ANY), 1..120)) {
            let mut ds = Datastore::new(
                DatastoreId(0),
                Box::new(HddDevice::new(HddConfig::small_test())),
                0,
            );
            let cap = ds.capacity_blocks();
            let mut live: std::collections::HashMap<VmdkId, u64> = std::collections::HashMap::new();
            for (id, blocks, place) in ops {
                let id = VmdkId(id);
                if place {
                    if !live.contains_key(&id) && ds.place(id, blocks).is_some() {
                        live.insert(id, blocks);
                    }
                } else if live.remove(&id).is_some() {
                    ds.remove(id);
                }
                let expect: u64 = live.values().sum();
                prop_assert_eq!(ds.used_blocks(), expect);
                // Translation works for every live vmdk at both ends.
                for (&v, &len) in &live {
                    prop_assert!(ds.translate(v, 0).is_some());
                    prop_assert!(ds.translate(v, len - 1).is_some());
                    prop_assert!(ds.translate(v, len).is_none());
                }
            }
            let ids: Vec<VmdkId> = live.keys().copied().collect();
            for v in ids {
                ds.remove(v);
            }
            prop_assert_eq!(ds.largest_free_extent(), cap);
        }
    }
}
