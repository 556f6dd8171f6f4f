//! MRAPI shared memory, with the paper's `use_malloc` extension.
//!
//! MRAPI shared memory (paper §2B.2) is key-addressed: any node in the
//! domain can `shmem_get` a segment created by another node and see the same
//! bytes — unlike Linux SysV shared memory it is defined to work even across
//! nodes running *different operating systems*, which is why the stock
//! implementation routes through system-level IPC segments.
//!
//! The paper's §5A.2 extension adds an attribute — reproduced here as
//! [`ShmemAttributes::use_malloc`] (the `shm_attr.use_malloc = MCA_TRUE` of
//! Listing 3) — that maps the allocation onto the *process heap* instead.
//! Heap-backed segments are directly shareable between the threads of one
//! process (exactly what an OpenMP team needs) and skip the modeled IPC
//! costs; segment-backed ones charge a mapping cost at create/attach and a
//! coherency fence per access, modeling the cross-OS-entity path.
//!
//! Storage is a `[AtomicU64]` word array, so concurrent access from many
//! worker nodes is race-free at word granularity; teams layer their own
//! synchronization (MRAPI mutexes) on top, as the paper's runtime does.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::fault::FaultSite;
use crate::node::Node;
use crate::status::{ensure, MrapiResult, MrapiStatus};

/// Shared-memory key (`mrapi_shmem_key_t`): how other nodes find a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShmemKey(pub u32);

/// Creation attributes (`mrapi_shmem_attributes_t` subset + paper extension).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShmemAttributes {
    /// **Paper extension (§5A.2, Listing 3)**: allocate from the process
    /// heap for thread-level sharing instead of a system IPC segment.
    pub use_malloc: bool,
    /// Place the segment in the platform's on-chip SRAM window instead of
    /// DDR (MRAPI lets callers manage on-chip vs off-chip placement).
    pub on_chip: bool,
    /// Diagnostic label.
    pub label: Option<String>,
}

/// Modeled cost of mapping a system-level IPC segment (create or attach).
const SEGMENT_MAP_NS: f64 = 5_000.0;
/// Modeled per-access coherency cost of a system-level segment.
const SEGMENT_ACCESS_NS: f64 = 40.0;

/// Registry entry: the bytes plus bookkeeping.
pub struct ShmemSegment {
    key: u32,
    size: usize,
    attrs: ShmemAttributes,
    words: Box<[AtomicU64]>,
    attach_count: AtomicU32,
    deleted: AtomicBool,
}

impl ShmemSegment {
    fn new(key: u32, size: usize, attrs: ShmemAttributes) -> Self {
        let n_words = size.div_ceil(8);
        let words = (0..n_words)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShmemSegment {
            key,
            size,
            attrs,
            words,
            attach_count: AtomicU32::new(0),
            deleted: AtomicBool::new(false),
        }
    }
}

/// One node's attachment to a shared-memory segment.
///
/// Word accessors (`read_u64`/`write_u64`/`read_f64`/`write_f64`) take
/// *byte* offsets that must be 8-aligned and in-bounds; violations panic,
/// matching slice-indexing conventions.  Byte accessors handle any range.
pub struct ShmemHandle {
    node: Node,
    seg: Arc<ShmemSegment>,
}

impl Node {
    /// `mrapi_shmem_create` — create and attach a segment.
    ///
    /// Errors: `MRAPI_ERR_SHM_EXISTS` on key clash, `MRAPI_ERR_PARAMETER`
    /// for a zero size, `MRAPI_ERR_MEM_LIMIT` if an on-chip request exceeds
    /// the platform's SRAM window.
    pub fn shmem_create(
        &self,
        key: u32,
        size: usize,
        attrs: &ShmemAttributes,
    ) -> MrapiResult<ShmemHandle> {
        self.check_alive()?;
        ensure(size > 0, MrapiStatus::ErrParameter)?;
        self.system().fault_check(FaultSite::ShmemCreate)?;
        if attrs.on_chip {
            let sram = self
                .system()
                .memory_map()
                .by_name("cpc-sram")
                .ok_or(MrapiStatus::ErrMemLimit)?;
            ensure(size as u64 <= sram.size, MrapiStatus::ErrMemLimit)?;
        }
        let seg = Arc::new(ShmemSegment::new(key, size, attrs.clone()));
        {
            let mut map = self.domain_db().shmems.write();
            ensure(!map.contains_key(&key), MrapiStatus::ErrShmExists)?;
            map.insert(key, Arc::clone(&seg));
        }
        if !attrs.use_malloc {
            self.system().charge_sim_ns(SEGMENT_MAP_NS);
        }
        seg.attach_count.fetch_add(1, Ordering::AcqRel);
        Ok(ShmemHandle {
            node: self.clone(),
            seg,
        })
    }

    /// `mrapi_shmem_get` + `mrapi_shmem_attach` — find a segment by key and
    /// attach to it.  Fails with `MRAPI_ERR_SHM_INVALID` for unknown or
    /// deleted keys.
    pub fn shmem_get(&self, key: u32) -> MrapiResult<ShmemHandle> {
        self.check_alive()?;
        self.system().fault_check(FaultSite::ShmemGet)?;
        let seg = self
            .domain_db()
            .shmems
            .read()
            .get(&key)
            .cloned()
            .ok_or(MrapiStatus::ErrShmInvalid)?;
        ensure(
            !seg.deleted.load(Ordering::Acquire),
            MrapiStatus::ErrShmInvalid,
        )?;
        if !seg.attrs.use_malloc {
            self.system().charge_sim_ns(SEGMENT_MAP_NS);
        }
        seg.attach_count.fetch_add(1, Ordering::AcqRel);
        Ok(ShmemHandle {
            node: self.clone(),
            seg,
        })
    }
}

impl ShmemHandle {
    /// Hand this segment out again in place of a fresh `shmem_create`
    /// (runtime extension, for a scratch pool that recycles segments).
    /// The contents are left as the last user left them.  Consults the
    /// [`FaultSite::ShmemCreate`] probe once, as the create it replaces
    /// would, so a seeded fault schedule sees the same crossings with
    /// recycling as without.  Fails with `MRAPI_ERR_SHM_INVALID` once the
    /// segment is deleted.
    pub fn recycle(&self) -> MrapiResult<()> {
        self.node.check_alive()?;
        ensure(
            !self.seg.deleted.load(Ordering::Acquire),
            MrapiStatus::ErrShmInvalid,
        )?;
        self.node.system().fault_check(FaultSite::ShmemCreate)
    }

    /// The segment's key.
    pub fn key(&self) -> ShmemKey {
        ShmemKey(self.seg.key)
    }

    /// Requested size in bytes.
    pub fn len(&self) -> usize {
        self.seg.size
    }

    /// Whether the requested size was zero (it cannot be; kept for clippy).
    pub fn is_empty(&self) -> bool {
        self.seg.size == 0
    }

    /// Whether this segment is heap-backed (the paper's extension path).
    pub fn is_malloc_backed(&self) -> bool {
        self.seg.attrs.use_malloc
    }

    /// Live attachments across all nodes.
    pub fn attachments(&self) -> u32 {
        self.seg.attach_count.load(Ordering::Acquire)
    }

    #[inline]
    fn word(&self, byte_offset: usize) -> &AtomicU64 {
        assert_eq!(byte_offset % 8, 0, "word access requires 8-byte alignment");
        assert!(
            byte_offset + 8 <= self.seg.words.len() * 8,
            "shmem word access out of bounds"
        );
        &self.seg.words[byte_offset / 8]
    }

    #[inline]
    fn charge_access(&self) {
        if !self.seg.attrs.use_malloc {
            // Cross-OS-entity segments pay a coherency fence per access.
            std::sync::atomic::fence(Ordering::SeqCst);
            self.node.system().charge_sim_ns(SEGMENT_ACCESS_NS);
        }
    }

    /// Read the u64 at byte offset `off` (8-aligned).
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        self.charge_access();
        self.word(off).load(Ordering::Acquire)
    }

    /// Write the u64 at byte offset `off` (8-aligned).
    #[inline]
    pub fn write_u64(&self, off: usize, v: u64) {
        self.charge_access();
        self.word(off).store(v, Ordering::Release);
    }

    /// Atomic fetch-add on the u64 at byte offset `off`.
    #[inline]
    pub fn fetch_add_u64(&self, off: usize, v: u64) -> u64 {
        self.charge_access();
        self.word(off).fetch_add(v, Ordering::AcqRel)
    }

    /// Read the f64 at byte offset `off` (8-aligned).
    #[inline]
    pub fn read_f64(&self, off: usize) -> f64 {
        f64::from_bits(self.read_u64(off))
    }

    /// Write the f64 at byte offset `off` (8-aligned).
    #[inline]
    pub fn write_f64(&self, off: usize, v: f64) {
        self.write_u64(off, v.to_bits());
    }

    /// Copy bytes out of the segment.  Panics if the range exceeds the
    /// segment size.  Concurrent writers may produce torn *multi-word*
    /// reads; individual u64 words are always consistent.
    pub fn read_bytes(&self, off: usize, out: &mut [u8]) {
        assert!(off + out.len() <= self.seg.size, "shmem read out of bounds");
        self.charge_access();
        for (i, b) in out.iter_mut().enumerate() {
            let byte = off + i;
            let w = self.seg.words[byte / 8].load(Ordering::Acquire);
            *b = (w >> ((byte % 8) * 8)) as u8;
        }
    }

    /// Copy bytes into the segment.  Panics if the range exceeds the
    /// segment size.
    pub fn write_bytes(&self, off: usize, data: &[u8]) {
        assert!(
            off + data.len() <= self.seg.size,
            "shmem write out of bounds"
        );
        self.charge_access();
        let mut i = 0;
        while i < data.len() {
            let byte = off + i;
            let word_idx = byte / 8;
            let shift = (byte % 8) * 8;
            // How many bytes land in this word?
            let in_word = (8 - byte % 8).min(data.len() - i);
            let mut chunk = 0u64;
            let mut mask = 0u64;
            for k in 0..in_word {
                chunk |= (data[i + k] as u64) << (shift + k * 8);
                mask |= 0xFFu64 << (shift + k * 8);
            }
            self.seg.words[word_idx]
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                    Some((w & !mask) | chunk)
                })
                .expect("fetch_update closure never returns None");
            i += in_word;
        }
    }

    /// Direct word-slice view for high-rate users (the OpenMP runtime's
    /// reduction buffers).  Accesses through the slice bypass the modeled
    /// per-access costs — the heap-backed fast path of the paper's
    /// extension.
    pub fn as_words(&self) -> &[AtomicU64] {
        &self.seg.words
    }

    /// `mrapi_shmem_detach` — drop this attachment.
    pub fn detach(self) -> MrapiResult<()> {
        self.node.check_alive()?;
        // Drop impl does the decrement.
        Ok(())
    }

    /// `mrapi_shmem_delete` — mark the segment deleted and remove it from
    /// the registry; existing attachments keep working, new `shmem_get`
    /// calls fail.  MRAPI requires the caller to be attached (we are).
    pub fn delete(self) -> MrapiResult<()> {
        self.node.check_alive()?;
        self.seg.deleted.store(true, Ordering::Release);
        self.node.domain_db().shmems.write().remove(&self.seg.key);
        Ok(())
    }
}

impl Drop for ShmemHandle {
    fn drop(&mut self) {
        self.seg.attach_count.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for ShmemHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmemHandle")
            .field("key", &self.seg.key)
            .field("size", &self.seg.size)
            .field("use_malloc", &self.seg.attrs.use_malloc)
            .field("attachments", &self.attachments())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainId, MrapiSystem, NodeId};

    fn node() -> Node {
        MrapiSystem::new_t4240()
            .initialize(DomainId(1), NodeId(0))
            .unwrap()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let n = node();
        let h = n.shmem_create(1, 64, &ShmemAttributes::default()).unwrap();
        h.write_u64(0, 0xDEAD_BEEF);
        h.write_f64(8, 3.25);
        assert_eq!(h.read_u64(0), 0xDEAD_BEEF);
        assert_eq!(h.read_f64(8), 3.25);
        assert_eq!(h.len(), 64);
    }

    #[test]
    fn key_clash_and_unknown_key() {
        let n = node();
        let _a = n.shmem_create(9, 8, &ShmemAttributes::default()).unwrap();
        assert_eq!(
            n.shmem_create(9, 8, &ShmemAttributes::default())
                .unwrap_err()
                .0,
            MrapiStatus::ErrShmExists
        );
        assert_eq!(n.shmem_get(1234).unwrap_err().0, MrapiStatus::ErrShmInvalid);
    }

    #[test]
    fn cross_node_visibility_via_key() {
        let sys = MrapiSystem::new_t4240();
        let a = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let h = a.shmem_create(42, 16, &ShmemAttributes::default()).unwrap();
        h.write_u64(0, 7);
        let w = a
            .thread_create(NodeId(1), move |me| {
                let h2 = me.shmem_get(42).unwrap();
                let seen = h2.read_u64(0);
                h2.write_u64(8, seen * 3);
                seen
            })
            .unwrap();
        assert_eq!(w.join().unwrap(), 7);
        assert_eq!(h.read_u64(8), 21, "worker's write visible to creator");
    }

    #[test]
    fn attach_counts_and_detach() {
        let n = node();
        let h = n.shmem_create(5, 8, &ShmemAttributes::default()).unwrap();
        assert_eq!(h.attachments(), 1);
        let h2 = n.shmem_get(5).unwrap();
        assert_eq!(h.attachments(), 2);
        h2.detach().unwrap();
        assert_eq!(h.attachments(), 1);
    }

    #[test]
    fn delete_blocks_new_attaches_but_not_existing() {
        let n = node();
        let h = n.shmem_create(6, 8, &ShmemAttributes::default()).unwrap();
        let h2 = n.shmem_get(6).unwrap();
        h2.delete().unwrap();
        assert_eq!(n.shmem_get(6).unwrap_err().0, MrapiStatus::ErrShmInvalid);
        h.write_u64(0, 1); // existing attachment still usable
        assert_eq!(h.read_u64(0), 1);
    }

    #[test]
    fn byte_access_any_alignment() {
        let n = node();
        let h = n
            .shmem_create(
                7,
                32,
                &ShmemAttributes {
                    use_malloc: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let msg = b"hello, embedded world";
        h.write_bytes(3, msg);
        let mut out = vec![0u8; msg.len()];
        h.read_bytes(3, &mut out);
        assert_eq!(&out, msg);
        // Word under the bytes reflects them.
        assert_ne!(h.read_u64(0), 0);
    }

    #[test]
    fn byte_writes_do_not_disturb_neighbours() {
        let n = node();
        let h = n.shmem_create(8, 24, &ShmemAttributes::default()).unwrap();
        h.write_u64(0, u64::MAX);
        h.write_u64(8, u64::MAX);
        h.write_bytes(6, &[0xAB, 0xCD, 0xEF]); // straddles the word boundary
        let mut all = [0u8; 16];
        h.read_bytes(0, &mut all);
        assert_eq!(&all[..6], &[0xFF; 6]);
        assert_eq!(&all[6..9], &[0xAB, 0xCD, 0xEF]);
        assert_eq!(&all[9..], &[0xFF; 7]);
    }

    #[test]
    fn malloc_backed_skips_sim_costs() {
        let sys = MrapiSystem::new_t4240();
        let n = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let heap = n
            .shmem_create(
                1,
                8,
                &ShmemAttributes {
                    use_malloc: true,
                    ..Default::default()
                },
            )
            .unwrap();
        heap.write_u64(0, 1);
        let _ = heap.read_u64(0);
        assert_eq!(sys.simulated_transfer_ns(), 0, "heap path charges nothing");
        let seg = n.shmem_create(2, 8, &ShmemAttributes::default()).unwrap();
        seg.write_u64(0, 1);
        assert!(
            sys.simulated_transfer_ns() > 0,
            "segment path charges map+access"
        );
    }

    #[test]
    fn on_chip_respects_sram_capacity() {
        let n = node();
        let attrs = ShmemAttributes {
            on_chip: true,
            ..Default::default()
        };
        assert!(n.shmem_create(1, 128 * 1024, &attrs).is_ok());
        assert_eq!(
            n.shmem_create(2, 10 * 1024 * 1024, &attrs).unwrap_err().0,
            MrapiStatus::ErrMemLimit
        );
    }

    #[test]
    fn zero_size_rejected() {
        let n = node();
        assert_eq!(
            n.shmem_create(1, 0, &ShmemAttributes::default())
                .unwrap_err()
                .0,
            MrapiStatus::ErrParameter
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn word_oob_panics() {
        let n = node();
        let h = n.shmem_create(1, 8, &ShmemAttributes::default()).unwrap();
        h.read_u64(8);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn word_misalignment_panics() {
        let n = node();
        let h = n.shmem_create(1, 16, &ShmemAttributes::default()).unwrap();
        h.read_u64(4);
    }

    #[test]
    fn fetch_add_is_atomic_across_workers() {
        let sys = MrapiSystem::new_t4240();
        let master = sys.initialize(DomainId(1), NodeId(0)).unwrap();
        let h = master
            .shmem_create(
                1,
                8,
                &ShmemAttributes {
                    use_malloc: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let workers: Vec<_> = (0..8)
            .map(|i| {
                master
                    .thread_create(NodeId(1 + i), move |me| {
                        let h = me.shmem_get(1).unwrap();
                        for _ in 0..1000 {
                            h.fetch_add_u64(0, 1);
                        }
                    })
                    .unwrap()
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(h.read_u64(0), 8000);
    }
}
