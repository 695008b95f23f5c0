//! Wire-format robustness: parsers must never panic on arbitrary bytes,
//! and emit→mutate→parse cycles must preserve checksums exactly.

use proptest::prelude::*;

use l4span_net::{checksum, Ecn, Ipv4Header, PacketBuf, TcpHeader, UdpHeader};

proptest! {
    /// IPv4 parsing of arbitrary bytes is total (errors, never panics).
    #[test]
    fn ipv4_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Header::parse(&bytes);
    }

    /// TCP parsing of arbitrary bytes is total.
    #[test]
    fn tcp_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = TcpHeader::parse(&bytes);
    }

    /// UDP parsing of arbitrary bytes is total.
    #[test]
    fn udp_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let _ = UdpHeader::parse(&bytes);
    }

    /// A single-bit corruption anywhere in an emitted IPv4 header is
    /// detected by the checksum (unless it hits the checksum field's own
    /// complement representation — the classic 0x0000/0xFFFF ambiguity —
    /// which cannot occur for our generated headers).
    #[test]
    fn ipv4_checksum_detects_bit_flips(
        flip_byte in 0usize..20,
        flip_bit in 0u8..8,
        src in any::<u32>(),
        dst in any::<u32>(),
        len in 20u16..1500,
    ) {
        let h = Ipv4Header {
            dscp: 0,
            ecn: Ecn::Ect1,
            total_len: len,
            identification: 7,
            dont_fragment: true,
            ttl: 64,
            protocol: 6,
            header_checksum: 0,
            src,
            dst,
        };
        let mut buf = [0u8; 20];
        h.emit(&mut buf);
        prop_assert!(Ipv4Header::parse(&buf).is_ok());
        buf[flip_byte] ^= 1 << flip_bit;
        // Either the parse fails (checksum/version/IHL) or — if the flip
        // hit a field that keeps the one's-complement sum intact — it
        // must be because the flip restored an equivalent sum, which a
        // single bit flip cannot do.
        prop_assert!(Ipv4Header::parse(&buf).is_err(), "bit flip undetected");
    }

    /// The RFC 1624 incremental update always agrees with recomputation,
    /// for arbitrary buffers and word positions.
    #[test]
    fn incremental_checksum_agrees_with_full(
        mut data in proptest::collection::vec(any::<u8>(), 2..64),
        word_idx in 0usize..31,
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 {
            data.push(0);
        }
        let idx = (word_idx % (data.len() / 2)) * 2;
        let old = checksum::checksum(&data);
        let old_word = u16::from_be_bytes([data[idx], data[idx + 1]]);
        data[idx..idx + 2].copy_from_slice(&new_word.to_be_bytes());
        let full = checksum::checksum(&data);
        let inc = checksum::incremental_update(old, old_word, new_word);
        prop_assert_eq!(full, inc);
    }

    /// PacketBuf TCP construction always yields valid checksums and a
    /// parseable five-tuple, for arbitrary field values.
    #[test]
    fn packet_construction_is_always_valid(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        payload in 0usize..3000,
        ecn in prop_oneof![Just(Ecn::NotEct), Just(Ecn::Ect0), Just(Ecn::Ect1), Just(Ecn::Ce)],
    ) {
        let hdr = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq,
            ..TcpHeader::default()
        };
        let p = PacketBuf::tcp(src, dst, ecn, 1, &hdr, payload);
        prop_assert!(p.checksums_valid());
        let ft = p.five_tuple().unwrap();
        prop_assert_eq!(ft.src_ip, src);
        prop_assert_eq!(ft.dst_port, dport);
        prop_assert_eq!(p.wire_len(), 40 + payload);
    }
}

/// Reference implementation of the pre-inline (Vec-backed) header emit:
/// build the same IP + transport headers into a plain `Vec<u8>` exactly
/// the way `PacketBuf` did before the fixed-array layout landed.
fn reference_tcp_emit(
    src: u32,
    dst: u32,
    ecn: Ecn,
    ident: u16,
    hdr: &TcpHeader,
    payload_len: usize,
) -> Vec<u8> {
    let tcp_hlen = hdr.header_len();
    let ip = Ipv4Header {
        dscp: 0,
        ecn,
        total_len: (20 + tcp_hlen + payload_len) as u16,
        identification: ident,
        dont_fragment: true,
        ttl: 64,
        protocol: 6,
        header_checksum: 0,
        src,
        dst,
    };
    let mut head = vec![0u8; 20 + tcp_hlen];
    ip.emit(&mut head[..20]);
    hdr.emit(&mut head[20..], src, dst, payload_len);
    head
}

fn reference_udp_emit(
    src: u32,
    dst: u32,
    ecn: Ecn,
    ident: u16,
    sport: u16,
    dport: u16,
    payload_len: usize,
) -> Vec<u8> {
    let ip = Ipv4Header {
        dscp: 0,
        ecn,
        total_len: (20 + 8 + payload_len) as u16,
        identification: ident,
        dont_fragment: true,
        ttl: 64,
        protocol: 17,
        header_checksum: 0,
        src,
        dst,
    };
    let udp = UdpHeader {
        src_port: sport,
        dst_port: dport,
        length: (8 + payload_len) as u16,
        checksum: 0,
    };
    let mut head = vec![0u8; 28];
    ip.emit(&mut head[..20]);
    udp.emit(&mut head[20..], src, dst);
    head
}

#[test]
fn packet_buf_layout_is_inline_copy_and_small() {
    fn is_copy<T: Copy>() {}
    is_copy::<PacketBuf>();
    assert!(
        std::mem::size_of::<PacketBuf>() <= 112,
        "PacketBuf must stay ≤112 bytes, is {}",
        std::mem::size_of::<PacketBuf>()
    );
}

proptest! {
    /// The inline-array TCP emit is byte-identical (headers *and*
    /// checksums) to the reference Vec-backed emit, for random header
    /// fields, option sets, and payload lengths — and header accessors
    /// agree after a round-trip.
    #[test]
    fn inline_tcp_matches_reference_vec_emit(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        ident in any::<u16>(),
        payload in 0usize..60_000,
        with_mss in any::<bool>(),
        with_accecn in any::<bool>(),
        ecn in prop_oneof![Just(Ecn::NotEct), Just(Ecn::Ect0), Just(Ecn::Ect1), Just(Ecn::Ce)],
    ) {
        let hdr = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            window,
            mss: with_mss.then_some(1460),
            accecn: with_accecn.then_some(Default::default()),
            ..TcpHeader::default()
        };
        let p = PacketBuf::tcp(src, dst, ecn, ident, &hdr, payload);
        let reference = reference_tcp_emit(src, dst, ecn, ident, &hdr, payload);
        prop_assert_eq!(p.header_bytes(), &reference[..], "emitted bytes diverge");
        prop_assert!(p.checksums_valid());
        prop_assert_eq!(p.identification(), ident);
        prop_assert_eq!(p.wire_len(), reference.len() + payload);
        let rt = p.tcp_header().expect("tcp parses");
        prop_assert_eq!(rt.src_port, sport);
        prop_assert_eq!(rt.seq, seq);
        // Copy semantics: a byte-for-byte clone with no allocator involved.
        let q = p;
        prop_assert_eq!(q, p);
    }

    /// Same byte-exactness for the UDP constructor.
    #[test]
    fn inline_udp_matches_reference_vec_emit(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        ident in any::<u16>(),
        payload in 0usize..60_000,
        ecn in prop_oneof![Just(Ecn::NotEct), Just(Ecn::Ect0), Just(Ecn::Ect1), Just(Ecn::Ce)],
    ) {
        let p = PacketBuf::udp(src, dst, ecn, ident, sport, dport, payload);
        let reference = reference_udp_emit(src, dst, ecn, ident, sport, dport, payload);
        prop_assert_eq!(p.header_bytes(), &reference[..], "emitted bytes diverge");
        prop_assert_eq!(p.identification(), ident);
        prop_assert_eq!(p.wire_len(), 28 + payload);
        let u = p.udp_header().expect("udp parses");
        prop_assert_eq!(u.src_port, sport);
        prop_assert_eq!(u.payload_len(), payload);
    }

    /// ECN rewriting on the inline layout matches a rewrite on the
    /// reference bytes (the RFC 1624 incremental checksum fix-up applies
    /// to the same words).
    #[test]
    fn inline_ecn_rewrite_matches_reference(
        src in any::<u32>(),
        dst in any::<u32>(),
        payload in 0usize..3000,
        target in prop_oneof![Just(Ecn::NotEct), Just(Ecn::Ect0), Just(Ecn::Ect1), Just(Ecn::Ce)],
    ) {
        let hdr = TcpHeader { src_port: 443, dst_port: 50_000, ..TcpHeader::default() };
        let mut p = PacketBuf::tcp(src, dst, Ecn::Ect1, 9, &hdr, payload);
        let mut reference = reference_tcp_emit(src, dst, Ecn::Ect1, 9, &hdr, payload);
        p.set_ecn(target);
        l4span_net::ipv4::set_ecn_in_place(&mut reference, target);
        prop_assert_eq!(p.header_bytes(), &reference[..]);
        prop_assert!(p.checksums_valid());
    }
}
