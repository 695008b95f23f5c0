//! The flow plane's boundary: one [`Endpoint`] is a flow's transport
//! sender/receiver pair, and everything that differs between TCP,
//! SCReAM, UDP Prague and the FEC media transport is decided in here.
//!
//! The world never matches on the transport kind. It builds an
//! endpoint from a [`FlowSpec`] ([`build`], which also owns flow
//! addressing), then drives it through one form of each operation:
//! [`open`](Endpoint::open) / [`stop`](Endpoint::stop),
//! [`poll`](Endpoint::poll) and [`on_feedback`](Endpoint::on_feedback)
//! on the sender side, [`on_data`](Endpoint::on_data) and
//! [`flush_feedback`](Endpoint::flush_feedback) on the receiver side.
//! What stays outside is everything that is not transport behaviour:
//! which way a packet is routed (by [`FlowDir`]), when timers fire, and
//! which metrics a sample lands in. Dispatch is a static `match` over
//! the four transports, not a `dyn` trait: the set of transports is
//! closed and the per-packet path stays inlinable. A fifth arm,
//! [`Endpoint::Vacant`], stands in a replica for a flow another replica
//! owns, and panics if driven.

use l4span_cc::scream::{ScreamFeedback, ScreamReceiver, ScreamSender};
use l4span_cc::tcp::TcpConfig;
use l4span_cc::udp_prague::{PragueFeedback, UdpPragueReceiver, UdpPragueSender};
use l4span_cc::{CcEvent, FecFeedback, FecMediaReceiver, FecMediaSender, TcpReceiver, TcpSender};
use l4span_net::{FiveTuple, PacketBuf, Protocol};
use l4span_sim::{Duration, FxHashMap, Instant};

use crate::app::{AppProfile, Application};
use crate::metrics::FecStat;
use crate::scenario::{FlowDir, FlowSpec, TransportSpec};

/// UE IP block.
fn ue_ip(i: usize) -> u32 {
    0xC0A8_0000 + i as u32
}
/// Server IP block (one server per flow).
fn server_ip(f: usize) -> u32 {
    0x0A00_0000 + f as u32
}

/// The payload of a UDP transport's feedback report. It rides beside
/// the feedback packet (opaque on the wire): the world parks it under
/// the packet's ident and hands it back to [`Endpoint::on_feedback`]
/// when that packet reaches the sender.
pub(crate) enum FbData {
    Scream(ScreamFeedback),
    Prague(PragueFeedback),
    Fec(FecFeedback),
}

/// A packet travelling against the data direction (TCP SYN/ACK, or a
/// UDP report plus its payload).
pub(crate) struct Feedback {
    pub pkt: PacketBuf,
    pub data: Option<FbData>,
}

impl Feedback {
    fn report<T>(fb: Option<(PacketBuf, T)>, wrap: impl FnOnce(T) -> FbData) -> Option<Feedback> {
        fb.map(|(pkt, data)| Feedback {
            pkt,
            data: Some(wrap(data)),
        })
    }
}

/// What a sender released in one call, in reusable buffers the world
/// drains after every sender operation.
#[derive(Default)]
pub(crate) struct Released {
    /// Data packets; the world picks the leg of a bonded flow.
    pub pkts: Vec<PacketBuf>,
    /// Data packets that name their own leg (FEC media pre-stripes).
    pub leg_pkts: Vec<(u8, PacketBuf)>,
}

/// What one arriving feedback packet told the world about the sender.
pub(crate) struct SenderUpdate {
    /// A fresh smoothed-RTT sample.
    pub srtt: Option<Duration>,
    /// Everything the application offered has been acknowledged.
    pub finished: bool,
    /// What the transport can currently sustain, for rate-adaptive apps.
    pub rate_estimate_bps: Option<f64>,
}

/// What one arriving data packet produced at the receiver.
pub(crate) struct Delivery {
    pub feedback: Option<Feedback>,
    /// In-order byte watermark (byte-stream transports only).
    pub tcp_watermark: Option<u64>,
    /// The capture instant of the media frame this packet completed
    /// (SCReAM: the packet carried the frame's id).
    pub frame_captured: Option<Instant>,
}

/// A freshly lowered flow: its endpoint, registered data-direction
/// five-tuple, the driving application (`None` when the transport
/// executes the application natively: greedy/sized TCP, SCReAM's
/// built-in media source, UDP Prague pacing, the FEC codec), and the
/// frame (cadence, deadline) of framed applications.
pub(crate) struct Built {
    pub endpoint: Endpoint,
    pub tuple: FiveTuple,
    pub app: Option<Box<dyn Application + Send>>,
    pub framed: Option<(Duration, Duration)>,
}

/// One flow's transport sender/receiver pair.
pub(crate) enum Endpoint {
    Tcp {
        sender: TcpSender,
        receiver: TcpReceiver,
    },
    Scream {
        sender: ScreamSender,
        receiver: ScreamReceiver,
    },
    UdpPrague {
        sender: UdpPragueSender,
        receiver: UdpPragueReceiver,
    },
    FecMedia {
        sender: Box<FecMediaSender>,
        receiver: Box<FecMediaReceiver>,
    },
    /// The endpoint of a flow whose UE another replica serves: it holds
    /// nothing, and every method panics ([`vacant`]).
    Vacant,
}

/// What every method of [`Endpoint::Vacant`] does: a replica drove a
/// flow it does not own.
#[cold]
#[track_caller]
fn vacant() -> ! {
    unreachable!("vacant endpoint driven: its flow lives on another replica")
}

/// Lower flow `f`'s (application, transport) pair onto an endpoint
/// and register its data-direction five-tuple in `tuples`.
/// Addressing puts the sender's IP first: the content server for a
/// downlink flow, the UE for an uplink one — every constructor below
/// is simply mirrored.
///
/// # Panics
///
/// On an unsupported application/transport combination, a bonded or
/// downlink flow the transport cannot carry, a flow index past the
/// per-transport port block, or a five-tuple already in `tuples`.
pub(crate) fn build(f: usize, spec: &FlowSpec, tuples: &mut FxHashMap<FiveTuple, usize>) -> Built {
    let (sip, uip) = (server_ip(f), ue_ip(spec.ue));
    let (src, dst) = match spec.dir {
        FlowDir::Downlink => (sip, uip),
        FlowDir::Uplink => (uip, sip),
    };
    let port = |base: u16| {
        u16::try_from(f)
            .ok()
            .and_then(|f| base.checked_add(f))
            .unwrap_or_else(|| panic!("flow {f}: port space exhausted"))
    };
    let udp = |src_port, dst_port| FiveTuple {
        src_ip: src,
        dst_ip: dst,
        src_port,
        dst_port,
        protocol: Protocol::Udp,
    };
    let framed = match &spec.app {
        AppProfile::FramedVideo(v) => Some((v.frame_interval(), v.deadline)),
        _ => None,
    };
    let mut app = None;
    let (endpoint, tuple) = match (&spec.app, &spec.transport) {
        (profile, TransportSpec::Tcp { cc }) => {
            let controller = cc.make(1400);
            let mode = controller.ecn_mode();
            let mut tcfg = TcpConfig::new(src, dst, 443, port(50_000));
            app = profile.instantiate(spec.start);
            let sender = match (&app, profile) {
                (None, AppProfile::Bulk { bytes }) => {
                    tcfg.app_limit = *bytes;
                    TcpSender::new(tcfg, controller)
                }
                // Application-driven TCP: the app owns what bytes are
                // offered and when; the sender is fed incrementally.
                _ => TcpSender::app_driven(tcfg, controller),
            };
            let receiver = TcpReceiver::new(tcfg, mode);
            (Endpoint::Tcp { sender, receiver }, tcfg.downlink_tuple())
        }
        (AppProfile::FramedVideo(v), TransportSpec::Scream) => {
            let (sport, dport) = (5004, port(42_000));
            let sender = ScreamSender::new(
                src,
                dst,
                sport,
                dport,
                v.min_bps,
                v.start_bps,
                v.max_bps,
                v.fps,
                true,
            )
            .with_keyframes(v.keyframe_every, v.keyframe_boost);
            let receiver = ScreamReceiver::new(dst, src, dport, sport);
            (Endpoint::Scream { sender, receiver }, udp(sport, dport))
        }
        (
            AppProfile::Bulk { bytes: None },
            &TransportSpec::UdpPrague {
                min_rate,
                start_rate,
                max_rate,
            },
        ) => {
            let (sport, dport) = (5006, port(43_000));
            let sender =
                UdpPragueSender::new(src, dst, sport, dport, min_rate, start_rate, max_rate);
            let receiver = UdpPragueReceiver::new(dst, src, dport, sport);
            (Endpoint::UdpPrague { sender, receiver }, udp(sport, dport))
        }
        (
            AppProfile::Bulk { bytes: None },
            &TransportSpec::FecMedia {
                min_rate,
                start_rate,
                max_rate,
                fps,
            },
        ) => {
            assert_eq!(
                spec.dir,
                FlowDir::Uplink,
                "flow {f}: FecMedia transport is uplink-only"
            );
            let (sport, dport) = (5008, port(44_000));
            let n_legs = 1 + usize::from(spec.bond.is_some());
            let sender = Box::new(FecMediaSender::new(
                src, dst, sport, dport, min_rate, start_rate, max_rate, fps, n_legs,
            ));
            let receiver = Box::new(FecMediaReceiver::new(dst, src, dport, sport));
            (Endpoint::FecMedia { sender, receiver }, udp(sport, dport))
        }
        (app, transport) => panic!(
            "flow {f}: unsupported application/transport combination \
             ({app:?} over {transport:?}); SCReAM requires a FramedVideo \
             application, UDP Prague and FEC media a greedy Bulk one"
        ),
    };
    assert!(
        spec.bond.is_none() || matches!(endpoint, Endpoint::Tcp { .. } | Endpoint::FecMedia { .. }),
        "flow {f}: bonding supports TCP and FEC-media endpoints only"
    );
    assert!(
        tuples.insert(tuple, f).is_none(),
        "flow {f}: five-tuple {tuple:?} already registered"
    );
    Built {
        endpoint,
        tuple,
        app,
        framed,
    }
}

impl Endpoint {
    /// Bonded legs interleave on the air: does the receiver need the
    /// world's join buffer to see them in transmission order? (A byte
    /// stream does; FEC media sequences for itself.)
    pub(crate) fn needs_join(&self) -> bool {
        match self {
            Endpoint::Tcp { .. } => true,
            Endpoint::Vacant => vacant(),
            _ => false,
        }
    }

    /// Does the receiver hold reports back behind a prohibit interval,
    /// so that it needs the periodic [`Endpoint::flush_feedback`]?
    pub(crate) fn paces_feedback(&self) -> bool {
        match self {
            Endpoint::Tcp { .. } => false,
            Endpoint::Vacant => vacant(),
            _ => true,
        }
    }

    /// The flow starts. A connection-oriented receiver returns its
    /// opening packet (routed like any feedback); for `None` the caller
    /// polls the sender right away instead.
    pub(crate) fn open(&mut self, now: Instant) -> Option<Feedback> {
        match self {
            Endpoint::Tcp { receiver, .. } => Some(Feedback {
                pkt: receiver.start(now),
                data: None,
            }),
            Endpoint::Vacant => vacant(),
            _ => None,
        }
    }

    /// Quiesce the sender.
    pub(crate) fn stop(&mut self) {
        match self {
            Endpoint::Tcp { sender, .. } => sender.stop(),
            Endpoint::Scream { sender, .. } => sender.stop(),
            Endpoint::UdpPrague { sender, .. } => sender.stop(),
            Endpoint::FecMedia { sender, .. } => sender.stop(),
            Endpoint::Vacant => vacant(),
        }
    }

    /// Sender timer poll: release whatever is due at `now`.
    pub(crate) fn poll(&mut self, now: Instant, out: &mut Released) {
        match self {
            Endpoint::Tcp { sender, .. } => sender.poll_into(now, &mut out.pkts),
            Endpoint::Scream { sender, .. } => sender.poll_into(now, &mut out.pkts),
            Endpoint::UdpPrague { sender, .. } => sender.poll_into(now, &mut out.pkts),
            Endpoint::FecMedia { sender, .. } => sender.poll_into(now, &mut out.leg_pkts),
            Endpoint::Vacant => vacant(),
        }
    }

    /// When the sender next wants a [`poll`](Endpoint::poll).
    pub(crate) fn next_activity(&self) -> Option<Instant> {
        match self {
            Endpoint::Tcp { sender, .. } => sender.next_activity(),
            Endpoint::Scream { sender, .. } => Some(sender.next_activity()),
            Endpoint::UdpPrague { sender, .. } => Some(sender.next_activity()),
            Endpoint::FecMedia { sender, .. } => Some(sender.next_activity()),
            Endpoint::Vacant => vacant(),
        }
    }

    /// Feedback packet `pkt` reached the sender, with the report payload
    /// `data` parked when it was emitted (`None` for TCP, whose ACKs
    /// carry everything on the wire). Released data lands in `out`.
    pub(crate) fn on_feedback(
        &mut self,
        pkt: &PacketBuf,
        data: Option<FbData>,
        now: Instant,
        out: &mut Released,
    ) -> SenderUpdate {
        let mut up = SenderUpdate {
            srtt: None,
            finished: false,
            rate_estimate_bps: None,
        };
        match self {
            Endpoint::Tcp { sender, .. } => {
                sender.on_packet_into(pkt, now, &mut out.pkts);
                up.srtt = sender.srtt();
                up.finished = sender.finished();
                up.rate_estimate_bps = sender.rate_estimate_bps();
            }
            Endpoint::Scream { sender, .. } => {
                if let Some(FbData::Scream(fb)) = data {
                    sender.on_feedback(&fb, now);
                    up.srtt = Some(sender.srtt());
                }
                sender.poll_into(now, &mut out.pkts);
            }
            Endpoint::UdpPrague { sender, .. } => {
                if let Some(FbData::Prague(fb)) = data {
                    sender.on_feedback(&fb, now);
                    up.srtt = sender.srtt();
                }
                sender.poll_into(now, &mut out.pkts);
            }
            Endpoint::FecMedia { sender, receiver } => {
                if let Some(FbData::Fec(fb)) = data {
                    sender.on_feedback(&fb, now);
                    receiver.recycle(fb);
                    up.srtt = sender.leg_srtt(0);
                }
                sender.poll_into(now, &mut out.leg_pkts);
            }
            Endpoint::Vacant => vacant(),
        }
        up
    }

    /// Data packet `pkt` reached the receiver on the bonded leg stamped
    /// on it (0 for unbonded flows). `coupled` is the world's
    /// shared-bottleneck verdict for bonded flows, which FEC media
    /// echoes to its sender.
    pub(crate) fn on_data(
        &mut self,
        pkt: &PacketBuf,
        coupled: Option<bool>,
        now: Instant,
    ) -> Delivery {
        let (mut tcp_watermark, mut frame_captured) = (None, None);
        let feedback = match self {
            Endpoint::Tcp { receiver, .. } => {
                let ack = receiver.on_packet(pkt, now);
                tcp_watermark = Some(receiver.received);
                ack.map(|pkt| Feedback { pkt, data: None })
            }
            Endpoint::Scream { sender, receiver } => {
                frame_captured = pkt.frame_end().map(|frame| sender.frame_captured(frame));
                Feedback::report(receiver.on_packet(pkt, now), FbData::Scream)
            }
            Endpoint::UdpPrague { receiver, .. } => {
                Feedback::report(receiver.on_packet(pkt, now), FbData::Prague)
            }
            Endpoint::FecMedia { receiver, .. } => {
                if let Some(c) = coupled {
                    receiver.set_coupled(c);
                }
                Feedback::report(receiver.on_packet(pkt, pkt.leg(), now), FbData::Fec)
            }
            Endpoint::Vacant => vacant(),
        };
        Delivery {
            feedback,
            tcp_watermark,
            frame_captured,
        }
    }

    /// Emit a report the prohibit interval suppressed, once it is due.
    /// UDP receivers have no ack clock of their own; without this a
    /// window-limited sender can deadlock.
    pub(crate) fn flush_feedback(&mut self, now: Instant) -> Option<Feedback> {
        match self {
            Endpoint::Tcp { .. } => None,
            Endpoint::Scream { receiver, .. } => {
                Feedback::report(receiver.poll(now), FbData::Scream)
            }
            Endpoint::UdpPrague { receiver, .. } => {
                Feedback::report(receiver.poll(now), FbData::Prague)
            }
            Endpoint::FecMedia { receiver, .. } => {
                Feedback::report(receiver.poll(now), FbData::Fec)
            }
            Endpoint::Vacant => vacant(),
        }
    }

    /// A driving application offers `bytes` more; `false` when the
    /// stream is sealed (or the transport takes no application bytes).
    pub(crate) fn offer(&mut self, bytes: u64) -> bool {
        match self {
            Endpoint::Tcp { sender, .. } => sender.offer(bytes),
            Endpoint::Vacant => vacant(),
            _ => false,
        }
    }

    /// The driving application is done: seal the stream so the flow can
    /// report finished.
    pub(crate) fn close_app(&mut self) {
        match self {
            Endpoint::Tcp { sender, .. } => sender.close_app(),
            Endpoint::Vacant => vacant(),
            _ => {}
        }
    }

    /// Drain the congestion controller's typed transitions.
    pub(crate) fn take_cc_events(&mut self) -> Vec<CcEvent> {
        match self {
            Endpoint::Tcp { sender, .. } => sender.take_cc_events(),
            Endpoint::UdpPrague { sender, .. } => sender.take_events(),
            Endpoint::Vacant => vacant(),
            _ => Vec::new(),
        }
    }

    /// Frames generated by a media source that lives inside the sender.
    pub(crate) fn frames_generated(&self) -> Option<u64> {
        match self {
            Endpoint::Scream { sender, .. } => Some(sender.frames_generated),
            Endpoint::Vacant => vacant(),
            _ => None,
        }
    }

    /// End of run: close an FEC media stream at `end` — so delivered +
    /// repaired + abandoned covers everything the sender offered — and
    /// snapshot both codecs' ledgers as flow `flow`'s record.
    pub(crate) fn close_fec(&mut self, flow: u16, end: Instant) -> Option<FecStat> {
        let (sender, receiver) = match self {
            Endpoint::FecMedia { sender, receiver } => (sender, receiver),
            Endpoint::Vacant => vacant(),
            _ => return None,
        };
        let offered = sender.codec().offered;
        receiver.close(offered, end);
        let rc = receiver.codec();
        Some(FecStat {
            flow,
            offered,
            delivered: rc.delivered,
            repaired: rc.repaired,
            abandoned: rc.abandoned,
            duplicates: rc.duplicates,
            retx: sender.codec().retx,
            repairs: sender.codec().repairs,
            repairs_unused: rc.repairs_unused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l4span_cc::{CcKind, WanLink};

    fn tcp_flow() -> FlowSpec {
        FlowSpec::new(
            0,
            AppProfile::bulk(),
            TransportSpec::tcp(CcKind::Cubic),
            WanLink::east(),
            Instant::ZERO,
        )
    }

    #[test]
    #[should_panic(expected = "flow 15536: port space exhausted")]
    fn flow_index_past_the_port_block_is_a_named_panic() {
        // 50 000 + 15 536 = 65 536: one past the last port.
        build(15_536, &tcp_flow(), &mut FxHashMap::default());
    }

    #[test]
    #[should_panic(expected = "flow 3: five-tuple")]
    fn registering_the_same_five_tuple_twice_panics() {
        let mut tuples = FxHashMap::default();
        build(3, &tcp_flow(), &mut tuples);
        build(3, &tcp_flow(), &mut tuples);
    }
}
