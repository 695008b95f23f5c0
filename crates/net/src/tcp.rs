//! RFC 9293 TCP header with classic ECN flags (RFC 3168) and the AccECN
//! byte counters (draft-ietf-tcpm-accurate-ecn) that Prague and BBRv2 use
//! for feedback — and that L4Span rewrites when short-circuiting the RAN
//! (paper §4.4).

use crate::checksum;

/// TCP flag bits. Bit 8 is the AE bit (formerly NS), which together with
/// CWR and ECE forms the 3-bit ACE counter of AccECN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u16);

impl TcpFlags {
    /// FIN: no more data from sender.
    pub const FIN: u16 = 0x001;
    /// SYN: synchronise sequence numbers.
    pub const SYN: u16 = 0x002;
    /// RST: reset the connection.
    pub const RST: u16 = 0x004;
    /// PSH: push function.
    pub const PSH: u16 = 0x008;
    /// ACK: acknowledgment field significant.
    pub const ACK: u16 = 0x010;
    /// URG: urgent pointer significant.
    pub const URG: u16 = 0x020;
    /// ECE: ECN-Echo (RFC 3168), or ACE bit 0 under AccECN.
    pub const ECE: u16 = 0x040;
    /// CWR: congestion window reduced (RFC 3168), or ACE bit 1.
    pub const CWR: u16 = 0x080;
    /// AE (accurate ECN, ex-NS): ACE bit 2.
    pub const AE: u16 = 0x100;

    /// Empty flag set.
    pub fn new() -> TcpFlags {
        TcpFlags(0)
    }

    /// True if `bit` (one of the constants above) is set.
    #[inline]
    pub fn contains(self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    /// Set `bit`.
    #[inline]
    pub fn set(&mut self, bit: u16) {
        self.0 |= bit;
    }

    /// Clear `bit`.
    #[inline]
    pub fn clear(&mut self, bit: u16) {
        self.0 &= !bit;
    }

    /// Builder-style combinator.
    #[inline]
    pub fn with(mut self, bit: u16) -> TcpFlags {
        self.set(bit);
        self
    }

    /// The 3-bit ACE counter (AE·4 + CWR·2 + ECE), used by AccECN to count
    /// CE-marked *packets* modulo 8.
    #[inline]
    pub fn ace(self) -> u8 {
        // AE (bit 8) -> bit 2, CWR (bit 7) -> bit 1, ECE (bit 6) -> bit 0:
        // all three shift right by six places.
        (((self.0 & (Self::AE | Self::CWR | Self::ECE)) >> 6) & 0b111) as u8
    }

    /// Store a 3-bit value into the ACE field.
    #[inline]
    pub fn set_ace(&mut self, v: u8) {
        self.0 &= !(Self::AE | Self::CWR | Self::ECE);
        let v = u16::from(v & 0b111);
        if v & 0b100 != 0 {
            self.0 |= Self::AE;
        }
        if v & 0b010 != 0 {
            self.0 |= Self::CWR;
        }
        if v & 0b001 != 0 {
            self.0 |= Self::ECE;
        }
    }
}

/// AccECN byte counters carried in the AccECN TCP option (all modulo
/// 2^24, as on the wire). Field names follow the draft: `ECEB` counts
/// CE-marked payload bytes, `EE0B`/`EE1B` count ECT(0)/ECT(1) bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccEcnCounters {
    /// Bytes received with ECT(0) (EE0B).
    pub ect0_bytes: u32,
    /// Bytes received with CE (ECEB).
    pub ce_bytes: u32,
    /// Bytes received with ECT(1) (EE1B).
    pub ect1_bytes: u32,
}

impl AccEcnCounters {
    /// Wrap all counters to their 24-bit wire width.
    pub fn wrapped(self) -> AccEcnCounters {
        AccEcnCounters {
            ect0_bytes: self.ect0_bytes & 0x00FF_FFFF,
            ce_bytes: self.ce_bytes & 0x00FF_FFFF,
            ect1_bytes: self.ect1_bytes & 0x00FF_FFFF,
        }
    }
}

/// Option kind for the AccECN0 TCP option (IANA experimental allocation).
pub const OPT_KIND_ACCECN0: u8 = 0xAC;
/// Option kind for maximum segment size.
pub const OPT_KIND_MSS: u8 = 2;

/// A parsed TCP header, including the two options the stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment number (valid when ACK set).
    pub ack: u32,
    /// Flag bits (including AE/CWR/ECE).
    pub flags: TcpFlags,
    /// Receive window (unscaled; the simulator uses byte windows directly).
    pub window: u16,
    /// MSS option, normally only on SYN.
    pub mss: Option<u16>,
    /// AccECN option with the receiver's byte counters.
    pub accecn: Option<AccEcnCounters>,
}

impl Default for TcpHeader {
    fn default() -> Self {
        TcpHeader {
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::new(),
            window: u16::MAX,
            mss: None,
            accecn: None,
        }
    }
}

/// Errors from parsing a TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Data offset field invalid.
    BadOffset,
    /// Malformed option list.
    BadOption,
}

impl TcpHeader {
    /// Length of the serialised header including options and padding
    /// (a multiple of four bytes).
    pub fn header_len(&self) -> usize {
        let mut opt = 0usize;
        if self.mss.is_some() {
            opt += 4;
        }
        if self.accecn.is_some() {
            opt += 11;
        }
        20 + opt.div_ceil(4) * 4
    }

    /// Serialise into `out` and compute the real TCP checksum given the
    /// IPv4 pseudo-header and the (virtual, zero-filled) payload length.
    /// Returns the number of header bytes written.
    pub fn emit(&self, out: &mut [u8], src_ip: u32, dst_ip: u32, payload_len: usize) -> usize {
        let hlen = self.header_len();
        assert!(out.len() >= hlen, "tcp emit buffer too small");
        assert!(hlen <= 60, "tcp options too long");
        out[..hlen].fill(0);
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        let offset_words = (hlen / 4) as u8;
        out[12] = (offset_words << 4) | (((self.flags.0 >> 8) & 0x1) as u8);
        out[13] = (self.flags.0 & 0xFF) as u8;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        // checksum at 16..18 stays zero for now; urgent at 18..20 unused.
        let mut p = 20;
        if let Some(mss) = self.mss {
            out[p] = OPT_KIND_MSS;
            out[p + 1] = 4;
            out[p + 2..p + 4].copy_from_slice(&mss.to_be_bytes());
            p += 4;
        }
        if let Some(acc) = self.accecn {
            let acc = acc.wrapped();
            out[p] = OPT_KIND_ACCECN0;
            out[p + 1] = 11;
            out[p + 2..p + 5].copy_from_slice(&acc.ect0_bytes.to_be_bytes()[1..4]);
            out[p + 5..p + 8].copy_from_slice(&acc.ce_bytes.to_be_bytes()[1..4]);
            out[p + 8..p + 11].copy_from_slice(&acc.ect1_bytes.to_be_bytes()[1..4]);
            p += 11;
        }
        // Pad with NOPs to the 4-byte boundary.
        while p < hlen {
            out[p] = 1;
            p += 1;
        }
        let ck = compute_checksum(&out[..hlen], src_ip, dst_ip, hlen + payload_len);
        out[16..18].copy_from_slice(&ck.to_be_bytes());
        hlen
    }

    /// Parse a TCP header from `buf`. Returns the header and its length.
    pub fn parse(buf: &[u8]) -> Result<(TcpHeader, usize), TcpError> {
        if buf.len() < 20 {
            return Err(TcpError::Truncated);
        }
        let hlen = ((buf[12] >> 4) as usize) * 4;
        if hlen < 20 || hlen > buf.len() {
            return Err(TcpError::BadOffset);
        }
        let mut hdr = TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags((u16::from(buf[12] & 0x1) << 8) | u16::from(buf[13])),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            mss: None,
            accecn: None,
        };
        let mut p = 20;
        while p < hlen {
            match buf[p] {
                0 => break,  // End of options
                1 => p += 1, // NOP
                OPT_KIND_MSS => {
                    if p + 4 > hlen {
                        return Err(TcpError::BadOption);
                    }
                    hdr.mss = Some(u16::from_be_bytes([buf[p + 2], buf[p + 3]]));
                    p += 4;
                }
                OPT_KIND_ACCECN0 => {
                    if p + 2 > hlen {
                        return Err(TcpError::BadOption);
                    }
                    let len = buf[p + 1] as usize;
                    if len != 11 || p + len > hlen {
                        return Err(TcpError::BadOption);
                    }
                    let f24 = |o: usize| -> u32 {
                        u32::from_be_bytes([0, buf[o], buf[o + 1], buf[o + 2]])
                    };
                    hdr.accecn = Some(AccEcnCounters {
                        ect0_bytes: f24(p + 2),
                        ce_bytes: f24(p + 5),
                        ect1_bytes: f24(p + 8),
                    });
                    p += len;
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    if p + 2 > hlen {
                        return Err(TcpError::BadOption);
                    }
                    let len = buf[p + 1] as usize;
                    if len < 2 || p + len > hlen {
                        return Err(TcpError::BadOption);
                    }
                    p += len;
                }
            }
        }
        Ok((hdr, hlen))
    }
}

/// Compute the TCP checksum over the given header bytes, an IPv4
/// pseudo-header, and a virtual all-zero payload bringing the segment to
/// `tcp_len` bytes total. The checksum field inside `header` must be zero.
pub fn compute_checksum(header: &[u8], src_ip: u32, dst_ip: u32, tcp_len: usize) -> u16 {
    let mut acc = 0u32;
    acc = checksum::sum_words(acc, &src_ip.to_be_bytes());
    acc = checksum::sum_words(acc, &dst_ip.to_be_bytes());
    acc += 6; // protocol TCP
    acc += tcp_len as u32;
    acc = checksum::sum_words(acc, header);
    // Zero payload contributes nothing to the sum.
    checksum::fold(acc)
}

/// Verify a TCP segment's checksum (header bytes with the checksum field
/// as received; payload assumed zero-filled up to `tcp_len`).
pub fn verify_checksum(header: &[u8], src_ip: u32, dst_ip: u32, tcp_len: usize) -> bool {
    let mut acc = 0u32;
    acc = checksum::sum_words(acc, &src_ip.to_be_bytes());
    acc = checksum::sum_words(acc, &dst_ip.to_be_bytes());
    acc += 6;
    acc += tcp_len as u32;
    acc = checksum::sum_words(acc, header);
    checksum::fold(acc) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TcpHeader {
        TcpHeader {
            src_port: 443,
            dst_port: 51034,
            seq: 0xDEAD_BEEF,
            ack: 0x0102_0304,
            flags: TcpFlags::new().with(TcpFlags::ACK).with(TcpFlags::ECE),
            window: 65_000,
            mss: Some(1460),
            accecn: Some(AccEcnCounters {
                ect0_bytes: 1000,
                ce_bytes: 3000,
                ect1_bytes: 2_000_000,
            }),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let h = sample();
        let mut buf = [0u8; 60];
        let n = h.emit(&mut buf, 0x0A000001, 0xC0A80107, 1400);
        assert_eq!(n, h.header_len());
        assert_eq!(n % 4, 0);
        let (parsed, hlen) = TcpHeader::parse(&buf[..n]).unwrap();
        assert_eq!(hlen, n);
        assert_eq!(parsed.src_port, 443);
        assert_eq!(parsed.seq, 0xDEAD_BEEF);
        assert!(parsed.flags.contains(TcpFlags::ECE));
        assert!(!parsed.flags.contains(TcpFlags::SYN));
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(parsed.accecn, Some(h.accecn.unwrap()));
    }

    #[test]
    fn checksum_verifies_and_detects_corruption() {
        let h = sample();
        let mut buf = [0u8; 60];
        let n = h.emit(&mut buf, 1, 2, 1400);
        assert!(verify_checksum(&buf[..n], 1, 2, n + 1400));
        // Wrong payload length breaks it.
        assert!(!verify_checksum(&buf[..n], 1, 2, n + 1401));
        // Bit flip breaks it.
        let mut bad = buf;
        bad[5] ^= 1;
        assert!(!verify_checksum(&bad[..n], 1, 2, n + 1400));
    }

    #[test]
    fn ace_field_roundtrip() {
        for v in 0..8u8 {
            let mut f = TcpFlags::new().with(TcpFlags::ACK);
            f.set_ace(v);
            assert_eq!(f.ace(), v, "ace {v}");
            assert!(f.contains(TcpFlags::ACK), "ack preserved");
        }
    }

    #[test]
    fn accecn_counters_wrap_to_24_bits() {
        let c = AccEcnCounters {
            ect0_bytes: 0x0100_0001,
            ce_bytes: 0xFFFF_FFFF,
            ect1_bytes: 5,
        }
        .wrapped();
        assert_eq!(c.ect0_bytes, 1);
        assert_eq!(c.ce_bytes, 0x00FF_FFFF);
        assert_eq!(c.ect1_bytes, 5);
    }

    #[test]
    fn header_len_accounts_for_options() {
        let bare = TcpHeader::default();
        assert_eq!(bare.header_len(), 20);
        let with_mss = TcpHeader {
            mss: Some(1460),
            ..TcpHeader::default()
        };
        assert_eq!(with_mss.header_len(), 24);
        let with_acc = TcpHeader {
            accecn: Some(AccEcnCounters::default()),
            ..TcpHeader::default()
        };
        assert_eq!(with_acc.header_len(), 32); // 20 + 11 padded to 32
        assert_eq!(sample().header_len(), 36); // 20 + 4 + 11 padded
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!(TcpHeader::parse(&[0u8; 8]), Err(TcpError::Truncated));
        let mut buf = [0u8; 60];
        let n = sample().emit(&mut buf, 1, 2, 0);
        let mut bad = buf;
        bad[12] = 0x30; // offset 12 bytes < 20
        assert_eq!(TcpHeader::parse(&bad[..n]), Err(TcpError::BadOffset));
        // Truncate an option.
        let mut bad = buf;
        bad[21] = 0; // AccECN length 0 -> malformed
                     // make offset still fine but option list broken
        bad[20] = OPT_KIND_ACCECN0;
        assert_eq!(TcpHeader::parse(&bad[..n]), Err(TcpError::BadOption));
    }

    #[test]
    fn unknown_options_are_skipped() {
        // Hand-build: 20 fixed + kind 254 len 4 + 2 data + 4 NOPs -> hlen 28.
        let mut buf = vec![0u8; 28];
        buf[12] = 7 << 4;
        buf[13] = TcpFlags::ACK as u8;
        buf[20] = 254;
        buf[21] = 4;
        buf[24] = 1;
        buf[25] = 1;
        buf[26] = 1;
        buf[27] = 1;
        let (hdr, hlen) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(hlen, 28);
        assert!(hdr.flags.contains(TcpFlags::ACK));
        assert_eq!(hdr.mss, None);
    }
}
