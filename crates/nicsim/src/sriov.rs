//! SR-IOV IOchannels and packet steering.
//!
//! An SR-IOV-capable NIC exposes multiple instances of itself
//! (IOchannels, Table 2) that the IOprovider assigns to untrusted
//! IOusers. Each channel bundles a receive ring, a transmit queue, and
//! an IOMMU translation domain bound to the IOuser's address space.
//!
//! Steering: regular inbound packets are steered "according to their
//! content" (§5) — here, by destination TCP/UDP port — while
//! backup-ring entries are steered by NIC-attached metadata.

use iommu::DomainId;
use memsim::types::SpaceId;

use crate::rx::RingId;

/// Identifier of one IOchannel (virtual function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Configuration of one IOchannel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// The channel id.
    pub id: ChannelId,
    /// The IOuser address space this channel belongs to.
    pub space: SpaceId,
    /// Its IOMMU translation domain.
    pub domain: DomainId,
    /// Its receive ring.
    pub rx_ring: RingId,
}

/// The channel table plus port-based steering.
///
/// Channel ids are handed out densely from 0 and ring ids and ports are
/// small integers, so every lookup is an index, not a hash probe.
#[derive(Debug, Default)]
pub struct ChannelTable {
    /// Indexed by [`ChannelId`].
    channels: Vec<Channel>,
    /// Owning channel per dense ring id.
    by_ring: Vec<Option<ChannelId>>,
    /// Target channel per destination port; grows to the highest
    /// steered port.
    steering: Vec<Option<ChannelId>>,
}

/// Stores `value` at `idx`, growing the table with `None` to cover it.
fn set_slot(table: &mut Vec<Option<ChannelId>>, idx: usize, value: ChannelId) {
    if idx >= table.len() {
        table.resize(idx + 1, None);
    }
    table[idx] = Some(value);
}

impl ChannelTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        ChannelTable::default()
    }

    /// Allocates a channel for `space` using `domain` and `rx_ring`.
    pub fn create(&mut self, space: SpaceId, domain: DomainId, rx_ring: RingId) -> ChannelId {
        let id = ChannelId(u32::try_from(self.channels.len()).expect("channel ids fit u32"));
        self.channels.push(Channel {
            id,
            space,
            domain,
            rx_ring,
        });
        set_slot(&mut self.by_ring, rx_ring.0 as usize, id);
        id
    }

    /// Steers packets with this destination port to `channel`.
    ///
    /// # Panics
    ///
    /// Panics for unknown channels.
    pub fn steer_port(&mut self, port: u16, channel: ChannelId) {
        assert!(self.get(channel).is_some(), "unknown {channel}");
        set_slot(&mut self.steering, usize::from(port), channel);
    }

    /// The channel a packet with destination `port` steers to.
    #[must_use]
    pub fn lookup_port(&self, port: u16) -> Option<Channel> {
        let id = (*self.steering.get(usize::from(port))?)?;
        self.get(id)
    }

    /// The channel owning a ring (backup-path reverse lookup).
    #[must_use]
    pub fn by_ring(&self, ring: RingId) -> Option<Channel> {
        let id = (*self.by_ring.get(ring.0 as usize)?)?;
        self.get(id)
    }

    /// The channel by id.
    #[must_use]
    pub fn get(&self, id: ChannelId) -> Option<Channel> {
        self.channels.get(id.0 as usize).copied()
    }

    /// All channels, in id order.
    pub fn iter(&self) -> impl Iterator<Item = Channel> + '_ {
        self.channels.iter().copied()
    }

    /// Number of channels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// `true` when no channels exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_routes_by_port() {
        let mut t = ChannelTable::new();
        let a = t.create(SpaceId(1), DomainId(1), RingId(1));
        let b = t.create(SpaceId(2), DomainId(2), RingId(2));
        t.steer_port(11211, a);
        t.steer_port(11212, b);
        assert_eq!(t.lookup_port(11211).expect("channel").space, SpaceId(1));
        assert_eq!(t.lookup_port(11212).expect("channel").space, SpaceId(2));
        assert!(t.lookup_port(80).is_none());
    }

    #[test]
    fn ring_reverse_lookup() {
        let mut t = ChannelTable::new();
        let a = t.create(SpaceId(1), DomainId(1), RingId(1));
        assert_eq!(t.by_ring(RingId(1)).expect("channel").id, a);
        assert!(t.by_ring(RingId(9)).is_none());
    }

    #[test]
    fn iter_is_ordered() {
        let mut t = ChannelTable::new();
        for i in 0..4 {
            t.create(SpaceId(i), DomainId(i), RingId(i));
        }
        let ids: Vec<u32> = t.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(t.len(), 4);
    }
}
