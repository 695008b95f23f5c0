//! RFC 791 IPv4 header: parse, serialise, and the in-place ECN rewrite
//! (with incremental checksum fix-up) that L4Span performs on downlink
//! packets.

use crate::checksum;
use crate::ecn::Ecn;

/// Length of the option-less IPv4 header we generate.
pub const IPV4_HEADER_LEN: usize = 20;

/// A parsed IPv4 header (no options — the 5G user plane never adds any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services codepoint (upper six bits of ToS).
    pub dscp: u8,
    /// ECN codepoint (lower two bits of ToS).
    pub ecn: Ecn,
    /// Total datagram length in bytes, header included.
    pub total_len: u16,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Header checksum as read from the wire (0 when constructing).
    pub header_checksum: u16,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
}

/// Errors from parsing an IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ipv4Error {
    /// Buffer shorter than 20 bytes.
    Truncated,
    /// Version field is not 4.
    BadVersion,
    /// IHL below 5 or header longer than buffer.
    BadIhl,
    /// Header checksum does not verify.
    BadChecksum,
}

impl Ipv4Header {
    /// Parse from the front of `buf`, verifying the checksum.
    pub fn parse(buf: &[u8]) -> Result<Ipv4Header, Ipv4Error> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(Ipv4Error::Truncated);
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(Ipv4Error::BadVersion);
        }
        let ihl = (buf[0] & 0x0F) as usize * 4;
        if ihl < IPV4_HEADER_LEN || ihl > buf.len() {
            return Err(Ipv4Error::BadIhl);
        }
        if !checksum::verify(&buf[..ihl]) {
            return Err(Ipv4Error::BadChecksum);
        }
        Ok(Ipv4Header {
            dscp: buf[1] >> 2,
            ecn: Ecn::from_bits(buf[1]),
            total_len: u16::from_be_bytes([buf[2], buf[3]]),
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: buf[6] & 0x40 != 0,
            ttl: buf[8],
            protocol: buf[9],
            header_checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
            dst: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
        })
    }

    /// Serialise into 20 bytes with a freshly computed checksum.
    pub fn emit(&self, out: &mut [u8]) {
        assert!(out.len() >= IPV4_HEADER_LEN, "ipv4 emit buffer too small");
        out[0] = 0x45; // version 4, IHL 5
        out[1] = (self.dscp << 2) | self.ecn.bits();
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        let flags: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        out[6..8].copy_from_slice(&flags.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.protocol;
        out[10..12].copy_from_slice(&[0, 0]);
        out[12..16].copy_from_slice(&self.src.to_be_bytes());
        out[16..20].copy_from_slice(&self.dst.to_be_bytes());
        let c = checksum::checksum(&out[..IPV4_HEADER_LEN]);
        out[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Length of the transport segment this header encapsulates.
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(IPV4_HEADER_LEN)
    }
}

/// Read the ECN codepoint directly from raw header bytes.
#[inline]
pub fn ecn_of(buf: &[u8]) -> Ecn {
    Ecn::from_bits(buf[1])
}

/// Rewrite the ECN codepoint in place, fixing the header checksum with the
/// RFC 1624 incremental rule — this is the exact operation L4Span performs
/// when marking a downlink packet (paper §5: "recalculates the CRC checksum
/// on its IP header").
pub fn set_ecn_in_place(buf: &mut [u8], ecn: Ecn) {
    debug_assert!(buf.len() >= IPV4_HEADER_LEN);
    let old_word = u16::from_be_bytes([buf[0], buf[1]]);
    buf[1] = (buf[1] & !0b11) | ecn.bits();
    let new_word = u16::from_be_bytes([buf[0], buf[1]]);
    if old_word != new_word {
        let old_ck = u16::from_be_bytes([buf[10], buf[11]]);
        let new_ck = checksum::incremental_update(old_ck, old_word, new_word);
        buf[10..12].copy_from_slice(&new_ck.to_be_bytes());
    }
}

/// Map a 16-bit identification back onto a sender's 64-bit counter:
/// the candidate nearest `high`, the highest value seen so far, by
/// signed 16-bit distance (never below zero).
pub fn unwrap_ident(ident: u16, high: u64) -> u64 {
    let delta = i64::from(ident.wrapping_sub(high as u16) as i16);
    (high as i64 + delta).max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp: 0,
            ecn: Ecn::Ect1,
            total_len: 1500,
            identification: 0x1c46,
            dont_fragment: true,
            ttl: 64,
            protocol: 6,
            header_checksum: 0,
            src: u32::from_be_bytes([10, 0, 0, 1]),
            dst: u32::from_be_bytes([192, 168, 1, 7]),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let h = sample();
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.emit(&mut buf);
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.ecn, Ecn::Ect1);
        assert_eq!(parsed.total_len, 1500);
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.protocol, 6);
        assert!(parsed.dont_fragment);
        assert_eq!(parsed.payload_len(), 1480);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Ipv4Header::parse(&[0; 10]), Err(Ipv4Error::Truncated));
        let mut buf = [0u8; 20];
        sample().emit(&mut buf);
        let mut bad = buf;
        bad[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::parse(&bad), Err(Ipv4Error::BadVersion));
        let mut bad = buf;
        bad[0] = 0x44; // IHL 4
        assert_eq!(Ipv4Header::parse(&bad), Err(Ipv4Error::BadIhl));
        let mut bad = buf;
        bad[8] ^= 0xFF; // corrupt TTL
        assert_eq!(Ipv4Header::parse(&bad), Err(Ipv4Error::BadChecksum));
    }

    #[test]
    fn in_place_ecn_rewrite_keeps_checksum_valid() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        sample().emit(&mut buf);
        for target in [Ecn::Ce, Ecn::Ect0, Ecn::NotEct, Ecn::Ect1] {
            set_ecn_in_place(&mut buf, target);
            let parsed = Ipv4Header::parse(&buf).expect("checksum must stay valid");
            assert_eq!(parsed.ecn, target);
        }
    }

    #[test]
    fn ecn_of_reads_codepoint() {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        sample().emit(&mut buf);
        assert_eq!(ecn_of(&buf), Ecn::Ect1);
    }

    #[test]
    fn unwrap_ident_follows_the_counter_across_the_seam() {
        assert_eq!(unwrap_ident(5, 3), 5);
        assert_eq!(unwrap_ident(2, 3), 2, "behind the mark");
        assert_eq!(unwrap_ident(3, 65_534), 65_539, "across the u16 seam");
        assert_eq!(unwrap_ident(65_534, 65_539), 65_534, "back across it");
        assert_eq!(unwrap_ident(65_535, 0), 0, "never below zero");
    }
}
