//! The simulated wire format, and the arena the hot path stores it in.

use std::marker::PhantomData;

use hostcc_sim::Nanos;

/// Identifies a transport flow (a 4-tuple in real life).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// The ECN field of the (simulated) IP header.
///
/// hostCC performs receiver-side marking exactly like a switch would
/// (paper §4.3): set CE before the datagram reaches the transport layer;
/// if the switch already marked the packet, nothing changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcnCodepoint {
    /// Not ECN-capable transport.
    NotEct,
    /// ECN-capable, not marked.
    Ect0,
    /// Congestion experienced.
    Ce,
}

impl EcnCodepoint {
    /// Apply a congestion mark (switch or hostCC echo). NotEct traffic is
    /// never marked — it would be dropped by a real AQM instead, but our
    /// simulated transports are always ECN-capable.
    #[must_use]
    pub(crate) fn marked(self) -> EcnCodepoint {
        match self {
            EcnCodepoint::NotEct => EcnCodepoint::NotEct,
            _ => EcnCodepoint::Ce,
        }
    }

    /// Whether the codepoint is CE.
    pub fn is_ce(self) -> bool {
        matches!(self, EcnCodepoint::Ce)
    }
}

/// A simulated data packet: `[seq, seq + len)` of its flow's byte stream.
///
/// Payload contents are never materialized — only sizes flow through the
/// simulation — which keeps memory flat no matter how much traffic runs.
/// ACKs do not travel as packets: the transport returns them as
/// `hostcc_transport::AckInfo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Globally unique id (diagnostics; never used for matching).
    pub id: u64,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// First byte-stream offset carried.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Set on the last segment of an RPC message (pushes delivery).
    pub msg_end: bool,
    /// ECN field.
    pub ecn: EcnCodepoint,
    /// Simulated protocol header bytes (Ethernet+IP+TCP ≈ 66; we use 66).
    pub(crate) header_bytes: u32,
    /// Time the sender's transport handed the packet to the NIC.
    pub(crate) sent_at: Nanos,
    /// True if this transmission is a retransmission (diagnostics).
    pub retransmit: bool,
}

/// Default simulated header size: Ethernet (14) + IPv4 (20) + TCP (32,
/// with options) = 66 bytes.
pub const HEADER_BYTES: u32 = 66;

impl Packet {
    /// Construct a data packet.
    pub fn data(id: u64, flow: FlowId, seq: u64, len: u32, msg_end: bool, now: Nanos) -> Packet {
        Packet {
            id,
            flow,
            seq,
            len,
            msg_end,
            ecn: EcnCodepoint::Ect0,
            header_bytes: HEADER_BYTES,
            sent_at: now,
            retransmit: false,
        }
    }

    /// Bytes this packet occupies on the wire (headers + payload).
    pub fn wire_bytes(&self) -> u64 {
        (self.header_bytes + self.len) as u64
    }

    /// Payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.len as u64
    }

    /// Mark the packet CE in place (switch AQM or hostCC echo).
    pub fn mark_ce(&mut self) {
        self.ecn = self.ecn.marked();
    }
}

/// A generational handle into an [`Arena<T>`].
///
/// 8 bytes (`u32` slot index + `u32` generation), `Copy`, and cheap to move
/// through the event queue — the whole point is that events carry this
/// instead of a by-value [`Packet`]. The generation catches use-after-free:
/// resolving a handle whose slot has since been freed and reused panics
/// instead of silently reading another packet's bytes.
pub struct ArenaRef<T> {
    idx: u32,
    generation: u32,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: derived ones would (wrongly) require `T: Copy` etc. even
// though the handle never holds a `T`.
impl<T> Clone for ArenaRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArenaRef<T> {}
impl<T> PartialEq for ArenaRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && self.generation == other.generation
    }
}
impl<T> Eq for ArenaRef<T> {}
impl<T> std::fmt::Debug for ArenaRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArenaRef({}v{})", self.idx, self.generation)
    }
}

struct Slot<T> {
    generation: u32,
    val: Option<T>,
}

/// A generational slab with a free list.
///
/// `insert` pops a slot off the free list (or grows the backing `Vec` once);
/// `remove` pushes it back and bumps the slot's generation. In steady state
/// the arena reaches the simulation's peak in-flight population and then
/// never allocates again — this is what takes the fq/link/switch path from
/// one heap round-trip per packet to zero.
///
/// Lifetime rule (see DESIGN.md §14): every interned value has exactly one
/// owner at a time, and whoever consumes or drops it calls [`remove`]
/// (a drop path that forgets to remove leaks the slot for the run; a double
/// remove or stale read panics).
///
/// [`remove`]: Arena::remove
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena (no backing storage until the first insert).
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Intern a value; the returned handle is the only way to get it back.
    pub fn insert(&mut self, val: T) -> ArenaRef<T> {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none());
            slot.val = Some(val);
            ArenaRef {
                idx,
                generation: slot.generation,
                _marker: PhantomData,
            }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena capacity exceeded u32");
            self.slots.push(Slot {
                generation: 0,
                val: Some(val),
            });
            ArenaRef {
                idx,
                generation: 0,
                _marker: PhantomData,
            }
        }
    }

    /// Take the value back out, freeing the slot for reuse.
    ///
    /// # Panics
    /// If the handle is stale (the slot was already removed, or removed and
    /// reused by a later insert).
    pub fn remove(&mut self, r: ArenaRef<T>) -> T {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(
            slot.generation, r.generation,
            "stale ArenaRef: slot {} is at generation {}, handle at {}",
            r.idx, slot.generation, r.generation
        );
        let val = slot.val.take().expect("stale ArenaRef: slot already freed");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(r.idx);
        val
    }

    /// Borrow the value behind a handle.
    ///
    /// # Panics
    /// If the handle is stale.
    pub fn get(&self, r: ArenaRef<T>) -> &T {
        let slot = &self.slots[r.idx as usize];
        assert_eq!(
            slot.generation, r.generation,
            "stale ArenaRef: slot {} is at generation {}, handle at {}",
            r.idx, slot.generation, r.generation
        );
        slot.val
            .as_ref()
            .expect("stale ArenaRef: slot already freed")
    }

    /// Mutably borrow the value behind a handle.
    ///
    /// # Panics
    /// If the handle is stale.
    pub fn get_mut(&mut self, r: ArenaRef<T>) -> &mut T {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(
            slot.generation, r.generation,
            "stale ArenaRef: slot {} is at generation {}, handle at {}",
            r.idx, slot.generation, r.generation
        );
        slot.val
            .as_mut()
            .expect("stale ArenaRef: slot already freed")
    }

    /// Number of live (interned, not yet removed) values.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The arena the simulation interns in-flight [`Packet`]s into.
pub type PacketArena = Arena<Packet>;
/// Handle to an interned [`Packet`] — what events and fq queues carry.
pub type PacketRef = ArenaRef<Packet>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_includes_header() {
        let p = Packet::data(1, FlowId(0), 0, 4030, false, Nanos::ZERO);
        assert_eq!(p.wire_bytes(), 4030 + 66);
        assert_eq!(p.payload_bytes(), 4030);
    }

    #[test]
    fn ecn_marking() {
        let mut p = Packet::data(1, FlowId(0), 0, 100, false, Nanos::ZERO);
        assert!(!p.ecn.is_ce());
        p.mark_ce();
        assert!(p.ecn.is_ce());
        // Idempotent.
        p.mark_ce();
        assert!(p.ecn.is_ce());
    }

    #[test]
    fn not_ect_is_never_marked() {
        assert_eq!(EcnCodepoint::NotEct.marked(), EcnCodepoint::NotEct);
        assert_eq!(EcnCodepoint::Ect0.marked(), EcnCodepoint::Ce);
        assert_eq!(EcnCodepoint::Ce.marked(), EcnCodepoint::Ce);
    }

    #[test]
    fn arena_roundtrip_and_slot_reuse() {
        let mut arena: PacketArena = Arena::new();
        let a = arena.insert(Packet::data(1, FlowId(0), 0, 100, false, Nanos::ZERO));
        let b = arena.insert(Packet::data(2, FlowId(0), 100, 100, false, Nanos::ZERO));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a).id, 1);
        assert_eq!(arena.get(b).id, 2);

        let taken = arena.remove(a);
        assert_eq!(taken.id, 1);
        assert_eq!(arena.len(), 1);

        // The freed slot is reused; capacity (high-water mark) stays flat.
        let c = arena.insert(Packet::data(3, FlowId(1), 0, 50, true, Nanos::ZERO));
        assert_eq!(arena.slots.len(), 2);
        assert_eq!(c.idx, a.idx);
        assert_ne!(c, a, "reused slot must get a new generation");
        assert_eq!(arena.get(c).id, 3);
    }

    #[test]
    fn arena_mutation_through_handle() {
        let mut arena: PacketArena = Arena::new();
        let r = arena.insert(Packet::data(7, FlowId(2), 0, 100, false, Nanos::ZERO));
        arena.get_mut(r).mark_ce();
        assert!(arena.get(r).ecn.is_ce());
        assert!(arena.remove(r).ecn.is_ce());
        assert!(arena.is_empty());
    }

    #[test]
    #[should_panic(expected = "stale ArenaRef")]
    fn arena_stale_read_panics() {
        let mut arena: PacketArena = Arena::new();
        let r = arena.insert(Packet::data(1, FlowId(0), 0, 10, false, Nanos::ZERO));
        arena.remove(r);
        arena.get(r);
    }

    #[test]
    #[should_panic(expected = "stale ArenaRef")]
    fn arena_double_remove_panics() {
        let mut arena: PacketArena = Arena::new();
        let r = arena.insert(Packet::data(1, FlowId(0), 0, 10, false, Nanos::ZERO));
        arena.remove(r);
        // Reuse the slot so the generation check (not the Option) fires.
        arena.insert(Packet::data(2, FlowId(0), 0, 10, false, Nanos::ZERO));
        arena.remove(r);
    }
}
