//! [`PacketBuf`]: an IPv4 datagram as the simulator carries it.
//!
//! The buffer holds the *real* IP + transport header bytes; the payload is
//! a virtual run of zeros of length `payload_len` (zeros are invisible to
//! one's-complement checksums, so every checksum here is bit-exact with a
//! zero-filled packet on a real wire). This is the unit that flows from
//! the content server through the WAN, the 5G core, L4Span, the RLC
//! queues, and over the air to the UE.

use std::num::NonZeroU32;

use crate::ecn::Ecn;
use crate::ipv4::{self, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::{self, TcpHeader};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};

/// Transport protocol discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP (IP protocol 6).
    Tcp,
    /// UDP (IP protocol 17).
    Udp,
}

impl Protocol {
    /// IP protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }
}

/// The classic five-tuple that uniquely identifies a flow; L4Span maps it
/// to a (UE, DRB) pair (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FiveTuple {
    /// The tuple of packets flowing the opposite way (used to reverse-map
    /// an uplink ACK to the downlink flow's DRB, Fig. 23 pseudocode).
    pub fn reversed(self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

/// Fixed capacity of the inline header store: an option-less IPv4 header
/// (20 bytes) plus the largest legal TCP header (60 bytes). The simulator
/// never generates anything longer, so headers live inline and packet
/// construction, cloning, and dropping never touch the allocator.
pub const HEAD_CAPACITY: usize = 80;

/// An IPv4 datagram with real header bytes and a virtual zero payload.
///
/// The header bytes live in a fixed inline array (no heap pointer), so
/// `PacketBuf` is `Copy`: every clone on the RLC segmentation/ARQ path is
/// a flat memcpy and the steady-state packet path is allocation-free.
///
/// Beside the wire image rides a simulation-side tag: the instant the
/// packet left its sender and the bond leg it was striped onto (see
/// [`PacketBuf::stamp`]), and on the last packet of a media frame the
/// frame's id (see [`PacketBuf::mark_frame_end`]). The tag is never
/// emitted, never part of a checksum and not counted in
/// [`PacketBuf::wire_len`]; every copy of the packet carries it, so
/// whoever receives the packet can read it. The derived equality
/// compares it too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketBuf {
    head: [u8; HEAD_CAPACITY],
    /// Valid prefix of `head` (IP + transport header bytes). Bytes at and
    /// beyond `head_len` are always zero, which keeps the derived
    /// `PartialEq` equivalent to comparing the valid prefixes.
    head_len: u8,
    payload_len: u16,
    /// Cached at construction; the ECN rewrite and the in-flight TCP
    /// header edit never change addresses, ports, or protocol.
    tuple: FiveTuple,
    /// Tag: send instant in ns of simulated time (0 until stamped).
    sent_ns: u64,
    /// Tag: bond leg (0 until stamped, and for unbonded flows).
    leg: u8,
    /// Tag: the id of the media frame this packet completes (`None` on
    /// every other packet).
    frame_end: Option<NonZeroU32>,
}

impl PacketBuf {
    /// Build a TCP segment. `tcp.window`, flags, options etc. come from
    /// `tcp`; checksums are computed here.
    pub fn tcp(
        src_ip: u32,
        dst_ip: u32,
        ecn: Ecn,
        identification: u16,
        tcp: &TcpHeader,
        payload_len: usize,
    ) -> PacketBuf {
        let tcp_hlen = tcp.header_len();
        let total = IPV4_HEADER_LEN + tcp_hlen + payload_len;
        assert!(total <= u16::MAX as usize, "packet too large");
        let ip = Ipv4Header {
            dscp: 0,
            ecn,
            total_len: total as u16,
            identification,
            dont_fragment: true,
            ttl: 64,
            protocol: Protocol::Tcp.number(),
            header_checksum: 0,
            src: src_ip,
            dst: dst_ip,
        };
        let head_len = IPV4_HEADER_LEN + tcp_hlen;
        let mut head = [0u8; HEAD_CAPACITY];
        ip.emit(&mut head[..IPV4_HEADER_LEN]);
        tcp.emit(
            &mut head[IPV4_HEADER_LEN..head_len],
            src_ip,
            dst_ip,
            payload_len,
        );
        PacketBuf {
            head,
            head_len: head_len as u8,
            payload_len: payload_len as u16,
            tuple: FiveTuple {
                src_ip,
                dst_ip,
                src_port: tcp.src_port,
                dst_port: tcp.dst_port,
                protocol: Protocol::Tcp,
            },
            sent_ns: 0,
            leg: 0,
            frame_end: None,
        }
    }

    /// Build a UDP datagram carrying `payload_len` (virtual) bytes.
    pub fn udp(
        src_ip: u32,
        dst_ip: u32,
        ecn: Ecn,
        identification: u16,
        src_port: u16,
        dst_port: u16,
        payload_len: usize,
    ) -> PacketBuf {
        let total = IPV4_HEADER_LEN + UDP_HEADER_LEN + payload_len;
        assert!(total <= u16::MAX as usize, "packet too large");
        let ip = Ipv4Header {
            dscp: 0,
            ecn,
            total_len: total as u16,
            identification,
            dont_fragment: true,
            ttl: 64,
            protocol: Protocol::Udp.number(),
            header_checksum: 0,
            src: src_ip,
            dst: dst_ip,
        };
        let udp = UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
            checksum: 0,
        };
        let head_len = IPV4_HEADER_LEN + UDP_HEADER_LEN;
        let mut head = [0u8; HEAD_CAPACITY];
        ip.emit(&mut head[..IPV4_HEADER_LEN]);
        udp.emit(&mut head[IPV4_HEADER_LEN..head_len], src_ip, dst_ip);
        PacketBuf {
            head,
            head_len: head_len as u8,
            payload_len: payload_len as u16,
            tuple: FiveTuple {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                protocol: Protocol::Udp,
            },
            sent_ns: 0,
            leg: 0,
            frame_end: None,
        }
    }

    /// Total on-the-wire length in bytes (IP header + transport header +
    /// virtual payload). This is the length every queue and rate estimator
    /// in the stack accounts in.
    pub fn wire_len(&self) -> usize {
        self.head_len as usize + self.payload_len as usize
    }

    /// Set the simulation-side tag: the packet left its sender at
    /// `sent_ns` (simulated time) on bond leg `leg`. The wire image and
    /// the frame mark are untouched.
    #[inline]
    pub fn stamp(&mut self, sent_ns: u64, leg: u8) {
        self.sent_ns = sent_ns;
        self.leg = leg;
    }

    /// The send instant of the last [`PacketBuf::stamp`], in ns.
    #[inline]
    pub fn sent_ns(&self) -> u64 {
        self.sent_ns
    }

    /// The bond leg of the last [`PacketBuf::stamp`].
    #[inline]
    pub fn leg(&self) -> u8 {
        self.leg
    }

    /// Tag this packet as the last of media frame `frame`, the way RTP's
    /// marker bit closes a frame: its arrival completes the frame. The
    /// wire image is untouched.
    #[inline]
    pub fn mark_frame_end(&mut self, frame: NonZeroU32) {
        self.frame_end = Some(frame);
    }

    /// The frame this packet completes, if [`PacketBuf::mark_frame_end`]
    /// tagged it.
    #[inline]
    pub fn frame_end(&self) -> Option<NonZeroU32> {
        self.frame_end
    }

    /// Transport payload length (excludes all headers).
    pub fn payload_len(&self) -> usize {
        self.payload_len as usize
    }

    /// The raw header bytes (IP + transport).
    pub fn header_bytes(&self) -> &[u8] {
        &self.head[..self.head_len as usize]
    }

    /// Parse the IP header (panics on corruption — the simulator never
    /// corrupts headers; HARQ losses drop whole packets).
    pub fn ip(&self) -> Ipv4Header {
        Ipv4Header::parse(self.header_bytes()).expect("corrupt IP header in simulator")
    }

    /// The IP identification field, read without a full (checksum-
    /// verifying) parse: the key of a parked report payload and of the
    /// bond join's order.
    #[inline]
    pub fn identification(&self) -> u16 {
        u16::from_be_bytes([self.head[4], self.head[5]])
    }

    /// The ECN codepoint, read without a full parse.
    pub fn ecn(&self) -> Ecn {
        ipv4::ecn_of(&self.head)
    }

    /// Rewrite the ECN codepoint in place with incremental checksum
    /// fix-up — L4Span's downlink marking operation.
    pub fn set_ecn(&mut self, ecn: Ecn) {
        ipv4::set_ecn_in_place(&mut self.head, ecn);
    }

    /// Transport protocol, if recognised.
    pub fn protocol(&self) -> Option<Protocol> {
        match self.head[9] {
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            _ => None,
        }
    }

    /// The flow five-tuple (cached at construction; no parsing).
    #[inline]
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        Some(self.tuple)
    }

    /// Parse the TCP header if this is a TCP segment.
    pub fn tcp_header(&self) -> Option<TcpHeader> {
        if self.tuple.protocol != Protocol::Tcp {
            return None;
        }
        TcpHeader::parse(&self.header_bytes()[IPV4_HEADER_LEN..])
            .ok()
            .map(|(h, _)| h)
    }

    /// Parse the UDP header if this is a UDP datagram.
    pub fn udp_header(&self) -> Option<UdpHeader> {
        if self.tuple.protocol != Protocol::Udp {
            return None;
        }
        UdpHeader::parse(&self.header_bytes()[IPV4_HEADER_LEN..]).ok()
    }

    /// True if this is a TCP segment with the ACK flag set — the packets
    /// L4Span's short-circuiting path inspects (Fig. 23 pseudocode).
    pub fn is_tcp_ack(&self) -> bool {
        self.tcp_header()
            .map(|h| h.flags.contains(tcp::TcpFlags::ACK))
            .unwrap_or(false)
    }

    /// Rewrite the TCP header in place via `f`, then re-emit it with fresh
    /// checksums. This is L4Span's uplink short-circuiting edit: flipping
    /// ECE/CWR bits or updating AccECN counters, then "calculates and
    /// updates the TCP checksum" (paper §5).
    ///
    /// The closure must not change options in a way that alters the header
    /// length (the RLC already accounted the packet's size); this is
    /// asserted.
    pub fn update_tcp<F: FnOnce(&mut TcpHeader)>(&mut self, f: F) {
        let ip = self.ip();
        let mut hdr = self
            .tcp_header()
            .expect("update_tcp called on a non-TCP packet");
        let old_len = hdr.header_len();
        f(&mut hdr);
        assert_eq!(
            hdr.header_len(),
            old_len,
            "TCP header length must not change in flight"
        );
        let head_len = self.head_len as usize;
        hdr.emit(
            &mut self.head[IPV4_HEADER_LEN..head_len],
            ip.src,
            ip.dst,
            self.payload_len as usize,
        );
    }

    /// Verify both checksums (test/diagnostic hook).
    pub fn checksums_valid(&self) -> bool {
        let ip_ok = Ipv4Header::parse(self.header_bytes()).is_ok();
        if !ip_ok {
            return false;
        }
        match self.protocol() {
            Some(Protocol::Tcp) => {
                let ip = self.ip();
                let t = &self.header_bytes()[IPV4_HEADER_LEN..];
                tcp::verify_checksum(t, ip.src, ip.dst, t.len() + self.payload_len as usize)
            }
            Some(Protocol::Udp) => true, // verified structurally on parse
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn tcp_pkt() -> PacketBuf {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 50000,
            seq: 1000,
            ack: 0,
            flags: TcpFlags::new().with(TcpFlags::ACK),
            ..TcpHeader::default()
        };
        PacketBuf::tcp(0x0A00_0001, 0x0A00_0002, Ecn::Ect1, 7, &hdr, 1400)
    }

    #[test]
    fn tcp_packet_shape() {
        let p = tcp_pkt();
        assert_eq!(p.wire_len(), 20 + 20 + 1400);
        assert_eq!(p.protocol(), Some(Protocol::Tcp));
        assert_eq!(p.ecn(), Ecn::Ect1);
        assert!(p.is_tcp_ack());
        assert!(p.checksums_valid());
        let ft = p.five_tuple().unwrap();
        assert_eq!(ft.src_port, 443);
        assert_eq!(ft.dst_port, 50000);
        assert_eq!(ft.reversed().src_port, 50000);
        assert_eq!(ft.reversed().reversed(), ft);
    }

    #[test]
    fn udp_packet_shape() {
        let p = PacketBuf::udp(1, 2, Ecn::Ect0, 9, 5004, 6001, 1200);
        assert_eq!(p.wire_len(), 20 + 8 + 1200);
        assert_eq!(p.protocol(), Some(Protocol::Udp));
        assert!(!p.is_tcp_ack());
        let u = p.udp_header().unwrap();
        assert_eq!(u.payload_len(), 1200);
        assert!(p.checksums_valid());
    }

    #[test]
    fn ecn_rewrite_preserves_checksums() {
        let mut p = tcp_pkt();
        p.set_ecn(Ecn::Ce);
        assert_eq!(p.ecn(), Ecn::Ce);
        assert!(p.checksums_valid());
    }

    #[test]
    fn tcp_update_rewrites_flags_and_checksum() {
        let mut p = tcp_pkt();
        p.update_tcp(|h| {
            h.flags.set(TcpFlags::ECE);
            h.ack = 424242;
        });
        let h = p.tcp_header().unwrap();
        assert!(h.flags.contains(TcpFlags::ECE));
        assert_eq!(h.ack, 424242);
        assert!(p.checksums_valid());
    }

    #[test]
    #[should_panic(expected = "header length must not change")]
    fn tcp_update_rejects_length_change() {
        let mut p = tcp_pkt();
        p.update_tcp(|h| h.mss = Some(1460));
    }

    #[test]
    fn stamp_rides_beside_the_wire_image() {
        let plain = tcp_pkt();
        let mut p = plain;
        p.stamp(123_456_789, 1);
        assert_eq!((p.sent_ns(), p.leg()), (123_456_789, 1));
        assert_eq!(p.header_bytes(), plain.header_bytes());
        assert_eq!(p.wire_len(), plain.wire_len());
        assert!(p.checksums_valid());
        // In-flight edits keep the tag.
        p.set_ecn(Ecn::Ce);
        p.update_tcp(|h| h.ack = 9);
        assert_eq!((p.sent_ns(), p.leg()), (123_456_789, 1));
    }

    #[test]
    fn frame_mark_survives_copies_and_stamps() {
        let frame = NonZeroU32::new(42).unwrap();
        let mut p = PacketBuf::udp(1, 2, Ecn::Ect1, 9, 5004, 6001, 1200);
        assert_eq!(p.frame_end(), None, "unmarked until tagged");
        let plain = p;
        p.mark_frame_end(frame);
        assert_eq!(p.header_bytes(), plain.header_bytes());
        assert_eq!(p.wire_len(), plain.wire_len());
        assert_ne!(p, plain, "equality compares the tag");
        // An RLC segment copy carries it; a re-stamp (routing, a bond
        // leg) leaves it alone.
        let mut copy = p;
        copy.stamp(5_000, 1);
        copy.set_ecn(Ecn::Ce);
        assert_eq!(copy.frame_end(), Some(frame));
        assert_eq!((copy.sent_ns(), copy.leg()), (5_000, 1));
    }

    #[test]
    fn packet_buf_is_inline_and_copy() {
        // `Copy` proves clones can never allocate; the size bound keeps
        // queue entries and RLC SDU slots cache-friendly (108 bytes of
        // fields round up to 112 for the tag's u64; the frame mark takes
        // the 4 bytes of padding).
        fn assert_copy<T: Copy>() {}
        assert_copy::<PacketBuf>();
        assert!(
            std::mem::size_of::<PacketBuf>() <= 112,
            "PacketBuf grew past 112 bytes: {}",
            std::mem::size_of::<PacketBuf>()
        );
    }

    #[test]
    fn largest_legal_headers_fit_inline() {
        let hdr = TcpHeader {
            src_port: 1,
            dst_port: 2,
            mss: Some(1460),
            accecn: Some(crate::tcp::AccEcnCounters::default()),
            ..TcpHeader::default()
        };
        let p = PacketBuf::tcp(1, 2, Ecn::Ect1, 0, &hdr, 100);
        assert!(p.header_bytes().len() <= HEAD_CAPACITY);
        assert!(p.checksums_valid());
    }
}
