//! `net`: packet construction and the checksum-fixing header rewrites
//! the marker and the TCP endpoints perform per packet.

use std::hint::black_box;

use l4span_net::{AccEcnCounters, Ecn, PacketBuf, TcpFlags, TcpHeader};

use super::{measure_op, Budget};

pub fn run(budget: Budget, _seed: u64) -> Vec<(&'static str, f64)> {
    let data_hdr = TcpHeader {
        src_port: 443,
        dst_port: 50_000,
        flags: TcpFlags::new().with(TcpFlags::ACK),
        ..TcpHeader::default()
    };
    let mut ident = 0u16;
    let build = measure_op(budget, || {
        ident = ident.wrapping_add(1);
        black_box(PacketBuf::tcp(
            10,
            20,
            Ecn::Ect1,
            ident,
            black_box(&data_hdr),
            1400,
        ));
    });

    // Flip the ECN field back and forth on one packet: each flip is one
    // IP-checksum-fixing rewrite, with no packet copy in the loop.
    let mut pkt = PacketBuf::tcp(10, 20, Ecn::Ect1, 7, &data_hdr, 1400);
    let mut ce = false;
    let set_ecn = measure_op(budget, || {
        ce = !ce;
        pkt.set_ecn(if ce { Ecn::Ce } else { Ecn::Ect1 });
        black_box(&pkt);
    });
    assert!(pkt.checksums_valid(), "set_ecn must keep checksums valid");

    // The ACK rewrite of feedback short-circuiting: toggle ECE on a
    // pure ACK carrying the AccECN option.
    let ack_hdr = TcpHeader {
        src_port: 50_000,
        dst_port: 443,
        ack: 123_456,
        flags: TcpFlags::new().with(TcpFlags::ACK),
        accecn: Some(AccEcnCounters::default()),
        ..TcpHeader::default()
    };
    let mut ack = PacketBuf::tcp(20, 10, Ecn::NotEct, 7, &ack_hdr, 0);
    let update_tcp = measure_op(budget, || {
        ack.update_tcp(|h| {
            if h.flags.contains(TcpFlags::ECE) {
                h.flags.clear(TcpFlags::ECE);
            } else {
                h.flags.set(TcpFlags::ECE);
            }
        });
        black_box(&ack);
    });
    assert!(
        ack.checksums_valid(),
        "update_tcp must keep checksums valid"
    );

    vec![
        ("net.packet.build_tcp_ns", build),
        ("net.packet.set_ecn_ns", set_ecn),
        ("net.packet.update_tcp_ns", update_tcp),
    ]
}
