//! Byte-for-byte pin of the per-VC data path.
//!
//! Each scenario drives one corner of the transport data path over the
//! simulated network with telemetry (capacity `1 << 20`) and causal
//! tracing switched on, and records every user indication, tap callback
//! and application read with its simulated time. Three FNV-1a digests
//! are pinned per scenario: the indication log, the telemetry JSONL and
//! the rendered `cm-obs` report. Together the scenarios cover:
//!
//! - the rate-based profile with detect + correct over a lossy link (NACK
//!   repair, fragmentation, and a cache-evicted sequence answered with
//!   `Dropped`);
//! - the window-based profile over a lossy link (RTO go-back-N);
//! - a group VC with a mid-stream joiner (`start_seq > 0`), per-receiver
//!   unicast repair and group credit held back by a gated member;
//! - a gated sink whose receive buffer overfills: pending delivery, the
//!   producer park, the drain on release and credit after each read;
//! - QoS-monitor violations (user indication plus the report relayed to
//!   the source) and a credit stall;
//! - `pause_source`/`resume_source`, `set_rate_factor`, `source_drop_one`,
//!   the VC control channel and `flush_local` at both ends.
//!
//! The goldens were captured before the data path became a sans-I/O
//! machine; the refactor must leave every digest unchanged.

use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::DisconnectReason;
use cm_core::media::MediaProfile;
use cm_core::osdu::{Opdu, Payload};
use cm_core::qos::{ErrorRate, QosParams, QosRequirement};
use cm_core::rng::DetRng;
use cm_core::service_class::{ErrorControlClass, ProtocolProfile, ServiceClass};
use cm_core::time::{Bandwidth, SimDuration, SimTime};
use cm_obs::Obs;
use cm_transport::tpdu::{ControlMsg, DataTpdu};
use cm_transport::{EntityConfig, QosReport, TransportService, TransportUser, VcTap};
use netsim::{two_node, Engine, LinkParams, Network, NodeClock};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt::Write;
use std::rc::Rc;

type Log = Rc<RefCell<String>>;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn note(log: &Log, now: SimTime, args: std::fmt::Arguments<'_>) {
    writeln!(log.borrow_mut(), "{now} {args}").unwrap();
}

/// Records every indication and accepts every connect.
struct PinUser {
    tag: &'static str,
    log: Log,
}

impl TransportUser for PinUser {
    fn t_connect_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        triple: AddressTriple,
        _class: ServiceClass,
        _qos: QosRequirement,
    ) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} connect_ind {vc:?} from {:?}", self.tag, triple.source),
        );
        svc.t_connect_response(vc, true).expect("respond");
    }

    fn t_connect_confirm(
        &self,
        svc: &TransportService,
        vc: VcId,
        result: Result<QosParams, DisconnectReason>,
    ) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} confirm {vc:?} {result:?}", self.tag),
        );
    }

    fn t_disconnect_indication(&self, svc: &TransportService, vc: VcId, reason: DisconnectReason) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} disconnect {vc:?} {reason:?}", self.tag),
        );
    }

    fn t_qos_indication(&self, svc: &TransportService, report: QosReport) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} qos {report:?}", self.tag),
        );
    }

    fn t_error_indication(&self, svc: &TransportService, vc: VcId, seq: u64) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} error {vc:?} seq={seq}", self.tag),
        );
    }

    fn t_group_join_confirm(
        &self,
        svc: &TransportService,
        vc: VcId,
        member: TransportAddr,
        result: Result<QosParams, DisconnectReason>,
    ) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} join {vc:?} {member:?} {result:?}", self.tag),
        );
    }

    fn t_group_leave_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        member: TransportAddr,
        reason: DisconnectReason,
    ) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} leave {vc:?} {member:?} {reason:?}", self.tag),
        );
    }

    fn t_group_qos_indication(
        &self,
        svc: &TransportService,
        vc: VcId,
        member: NetAddr,
        report: QosReport,
    ) {
        note(
            &self.log,
            svc.now(),
            format_args!("{} group_qos {vc:?} {member:?} {report:?}", self.tag),
        );
    }
}

/// Records every tap callback with the engine time.
struct PinTap {
    tag: &'static str,
    log: Log,
    net: Network,
}

impl VcTap for PinTap {
    fn on_osdu_arrived(&self, vc: VcId, opdu: Opdu) {
        let now = self.net.engine().now();
        note(
            &self.log,
            now,
            format_args!("{} tap_arrived {vc:?} {opdu:?}", self.tag),
        );
    }

    fn on_control(&self, vc: VcId, payload: Rc<dyn Any>) {
        let now = self.net.engine().now();
        let v = payload.downcast_ref::<u64>().copied();
        note(
            &self.log,
            now,
            format_args!("{} tap_control {vc:?} {v:?}", self.tag),
        );
    }

    fn on_loss_indicated(&self, vc: VcId, seq: u64) {
        let now = self.net.engine().now();
        note(
            &self.log,
            now,
            format_args!("{} tap_loss {vc:?} seq={seq}", self.tag),
        );
    }
}

/// One simulated network with tracing on and a shared indication log.
struct World {
    net: Network,
    obs: Obs,
    log: Log,
    svcs: Vec<TransportService>,
    nodes: Vec<NetAddr>,
}

impl World {
    fn new(net: Network, nodes: Vec<NetAddr>) -> World {
        net.engine().telemetry().enable(1 << 20);
        let obs = Obs::disabled();
        obs.enable();
        let log: Log = Rc::new(RefCell::new(String::new()));
        let tags = ["n0", "n1", "n2", "n3", "n4"];
        let mut svcs = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let cfg = EntityConfig {
                obs: obs.clone(),
                ..EntityConfig::default()
            };
            let svc = TransportService::install(&net, node, cfg);
            let user = Rc::new(PinUser {
                tag: tags[i],
                log: log.clone(),
            });
            svc.bind(Tsap(1), user).expect("bind");
            svcs.push(svc);
        }
        World {
            net,
            obs,
            log,
            svcs,
            nodes,
        }
    }

    fn pair(params: LinkParams, seed: u64) -> World {
        let (net, a, b) = two_node(Engine::new(), params, seed);
        World::new(net, vec![a, b])
    }

    fn addr(&self, i: usize) -> TransportAddr {
        TransportAddr {
            node: self.nodes[i],
            tsap: Tsap(1),
        }
    }

    fn now(&self) -> SimTime {
        self.net.engine().now()
    }

    fn run_ms(&self, ms: u64) {
        self.net.engine().run_for(SimDuration::from_millis(ms));
    }

    /// Run `f` at `ms` milliseconds from now.
    fn at_ms(&self, ms: u64, f: impl FnOnce() + 'static) {
        self.net
            .engine()
            .schedule_in(SimDuration::from_millis(ms), move |_| f());
    }

    /// Open a point-to-point VC from node 0 to node 1.
    fn open(&self, class: ServiceClass, req: QosRequirement) -> VcId {
        let triple = AddressTriple::conventional(self.addr(0), self.addr(1));
        let vc = self.svcs[0]
            .t_connect_request(triple, class, req)
            .expect("request");
        self.run_ms(50);
        assert!(self.svcs[0].is_open(vc), "VC failed to open");
        vc
    }

    fn tap(&self, i: usize, vc: VcId, tag: &'static str) {
        let tap = Rc::new(PinTap {
            tag,
            log: self.log.clone(),
            net: self.net.clone(),
        });
        self.svcs[i].register_tap(vc, tap).expect("tap");
    }

    fn log_line(&self, args: std::fmt::Arguments<'_>) {
        note(&self.log, self.now(), args);
    }

    /// `(indication log, telemetry JSONL, obs report)` digests.
    fn digests(&self) -> (u64, u64, u64) {
        let tel = self.net.engine().telemetry();
        assert_eq!(tel.overflow(), 0, "telemetry ring overflowed");
        let report = cm_obs::render_report(&[self.obs.finish_report(
            0,
            self.now().as_micros(),
            tel.overflow(),
        )]);
        (
            fnv1a(self.log.borrow().as_bytes()),
            fnv1a(tel.export_jsonl().as_bytes()),
            fnv1a(report.as_bytes()),
        )
    }
}

/// Write `total` OSDUs as fast as the send buffer admits them, parking on
/// the buffer when it is full.
fn drive_writer(svc: TransportService, vc: VcId, total: u64, size: fn(u64) -> usize) {
    fn step(
        svc: TransportService,
        vc: VcId,
        total: u64,
        size: fn(u64) -> usize,
        written: Rc<Cell<u64>>,
    ) {
        while written.get() < total {
            let n = written.get();
            match svc.write_osdu(vc, Payload::synthetic(n, size(n)), Some(n)) {
                Ok(true) => written.set(n + 1),
                Ok(false) => {
                    let buf = svc.send_handle(vc).expect("send handle");
                    let now = svc.now();
                    let engine = svc.network().engine().clone();
                    buf.park_producer(now, move || {
                        engine.schedule_in(SimDuration::ZERO, move |_| {
                            step(svc, vc, total, size, written)
                        });
                    });
                    return;
                }
                Err(_) => return,
            }
        }
    }
    step(svc, vc, total, size, Rc::new(Cell::new(0)));
}

/// Read eagerly, logging every OSDU with its read time.
fn drive_reader(svc: TransportService, vc: VcId, tag: &'static str, log: Log) {
    while let Ok(Some(osdu)) = svc.read_osdu(vc) {
        note(
            &log,
            svc.now(),
            format_args!("{tag} read {vc:?} seq={}", osdu.seq()),
        );
    }
    let Ok(buf) = svc.recv_handle(vc) else { return };
    if !svc.is_open(vc) {
        return;
    }
    let now = svc.now();
    let engine = svc.network().engine().clone();
    buf.park_consumer(now, move || {
        engine.schedule_in(SimDuration::ZERO, move |_| drive_reader(svc, vc, tag, log));
    });
}

fn clean() -> LinkParams {
    LinkParams::clean(Bandwidth::mbps(10), SimDuration::from_millis(1))
}

fn lossy(p: f64) -> LinkParams {
    let mut params = clean();
    params.loss = ErrorRate::from_prob(p);
    params
}

fn tolerate_loss(mut req: QosRequirement) -> QosRequirement {
    req.tolerance.preferred.packet_error_rate = ErrorRate::from_prob(0.10);
    req.tolerance.worst.packet_error_rate = ErrorRate::from_prob(0.20);
    req
}

fn telephone() -> QosRequirement {
    MediaProfile::audio_telephone().requirement()
}

fn check(name: &str, got: (u64, u64, u64), want: (u64, u64, u64)) {
    eprintln!(
        "{name}: log={:#018x} telemetry={:#018x} report={:#018x}",
        got.0, got.1, got.2
    );
    assert_eq!(got, want, "{name}: pinned data-path surface moved");
}

#[test]
fn rate_profile_nack_repair_and_evicted_seq_is_pinned() {
    let w = World::pair(lossy(0.05), 42);
    let req = tolerate_loss(MediaProfile::video_mono().requirement());
    let vc = w.open(ServiceClass::reliable_cm(), req);
    w.tap(1, vc, "sink");
    // Every third OSDU spans three fragments.
    drive_writer(w.svcs[0].clone(), vc, 150, |n| {
        if n % 3 == 0 {
            9_000
        } else {
            1_200
        }
    });
    drive_reader(w.svcs[1].clone(), vc, "n1", w.log.clone());
    w.run_ms(10_000);
    // A late NACK for sequences long evicted from the retransmission
    // cache is answered with a `Dropped` notice.
    let sink = w.nodes[1];
    w.svcs[0].inject_control(
        sink,
        ControlMsg::Nack {
            vc,
            seqs: vec![0, 1],
        },
    );
    w.run_ms(500);
    let (charged, dropped, next) = w.svcs[0].source_progress(vc).expect("progress");
    w.log_line(format_args!("source {charged} {dropped} {next}"));
    w.log_line(format_args!(
        "sink {}",
        w.svcs[1].sink_progress(vc).expect("progress")
    ));
    check(
        "rate_nack",
        w.digests(),
        (0x2725202f085e8658, 0x3bea143b7cf10b77, 0x26ee65b1e2e72add),
    );
}

#[test]
fn window_profile_rto_go_back_n_is_pinned() {
    let w = World::pair(lossy(0.05), 7);
    let class = ServiceClass {
        profile: ProtocolProfile::WindowBased,
        error_control: ErrorControlClass::DetectCorrect,
    };
    let vc = w.open(class, tolerate_loss(telephone()));
    w.tap(1, vc, "sink");
    drive_writer(w.svcs[0].clone(), vc, 200, |_| 80);
    drive_reader(w.svcs[1].clone(), vc, "n1", w.log.clone());
    w.run_ms(30_000);
    let stats = w.svcs[0].take_end_stats(vc).expect("stats");
    w.log_line(format_args!("source stats {stats:?}"));
    check(
        "window_rto",
        w.digests(),
        (0xd6dd4e32ab5e9b22, 0xe3e1999183500610, 0x7a7eeed97da042b4),
    );
}

#[test]
fn group_mid_stream_join_and_group_credit_is_pinned() {
    // Star: sender n0 — hub n1 — receivers n2 (clean) and n3 (lossy
    // downlink, clean uplink so feedback is lossless).
    let net = Network::new(Engine::new());
    let mut rng = DetRng::from_seed(11);
    let nodes: Vec<NetAddr> = (0..4).map(|_| net.add_node(NodeClock::perfect())).collect();
    net.add_duplex(nodes[0], nodes[1], clean(), &mut rng);
    net.add_duplex(nodes[1], nodes[2], clean(), &mut rng);
    net.add_link(nodes[1], nodes[3], lossy(0.05), rng.fork("fwd3"));
    net.add_link(nodes[3], nodes[1], clean(), rng.fork("rev3"));
    let w = World::new(net, nodes);
    let vc = w.svcs[0]
        .t_group_open(
            Tsap(1),
            ServiceClass::reliable_cm(),
            tolerate_loss(telephone()),
        )
        .expect("group open");
    w.svcs[0]
        .t_group_add_receiver(vc, w.addr(2))
        .expect("invite n2");
    w.run_ms(20);
    w.tap(2, vc, "r2");
    drive_writer(w.svcs[0].clone(), vc, 300, |_| 80);
    drive_reader(w.svcs[2].clone(), vc, "n2", w.log.clone());
    w.run_ms(1_000);
    // Mid-stream join: n3's stream starts at the sender's charged count.
    w.svcs[0]
        .t_group_add_receiver(vc, w.addr(3))
        .expect("invite n3");
    w.run_ms(20);
    w.tap(3, vc, "r3");
    // n3 holds its buffer closed for a while: group credit follows the
    // slowest member, so the sender stalls until n3 drains.
    w.svcs[3].set_recv_gate(vc, true).expect("gate");
    drive_reader(w.svcs[3].clone(), vc, "n3", w.log.clone());
    let s3 = w.svcs[3].clone();
    w.at_ms(1_500, move || s3.set_recv_gate(vc, false).expect("ungate"));
    w.run_ms(8_000);
    let (charged, dropped, next) = w.svcs[0].source_progress(vc).expect("progress");
    w.log_line(format_args!("source {charged} {dropped} {next}"));
    check(
        "group_join",
        w.digests(),
        (0x550c9ddf836eef65, 0x40c2feef80c4615f, 0x0ba1d230bafc72bd),
    );
}

#[test]
fn gated_sink_overfill_pending_delivery_is_pinned() {
    let w = World::pair(clean(), 3);
    let vc = w.open(ServiceClass::cm_default(), telephone());
    w.svcs[0].pause_source(vc).expect("pause");
    w.tap(1, vc, "sink");
    w.svcs[1].set_recv_gate(vc, true).expect("gate");
    // Overfill the 25-slot receive buffer behind the gate: the surplus
    // waits as pending delivery with the protocol producer parked.
    for seq in 0..30u64 {
        let svc = w.svcs[1].clone();
        w.at_ms(seq * 5, move || {
            let now = svc.now();
            svc.inject_data(
                DataTpdu {
                    vc,
                    osdu_seq: seq,
                    frag_index: 0,
                    frag_count: 1,
                    frag_bytes: 80,
                    opdu: Opdu {
                        seq,
                        event: Some(seq),
                    },
                    payload: Some(Payload::synthetic(seq, 80)),
                    osdu_sent_at: now,
                },
                false,
            );
        });
    }
    w.run_ms(1_000);
    let recv = w.svcs[1].recv_handle(vc).expect("recv");
    w.log_line(format_args!(
        "recv len={} full={}",
        recv.len(),
        recv.is_full()
    ));
    // Prime release: open the gate and read everything; each read
    // credits the freed slot and drains the pending queue.
    w.svcs[1].set_recv_gate(vc, false).expect("ungate");
    drive_reader(w.svcs[1].clone(), vc, "n1", w.log.clone());
    w.run_ms(3_000);
    let stats = w.svcs[1].take_end_stats(vc).expect("stats");
    w.log_line(format_args!("sink stats {stats:?}"));
    check(
        "gated_fill",
        w.digests(),
        (0x3dfb0130a5a08d9e, 0x6f9314828d2cf4ee, 0x85c616ca7916af44),
    );
}

#[test]
fn qos_violation_and_credit_stall_are_pinned() {
    let w = World::pair(clean(), 5);
    let vc = w.open(ServiceClass::cm_default(), telephone());
    w.tap(1, vc, "sink");
    w.svcs[1].set_recv_gate(vc, true).expect("gate");
    drive_writer(w.svcs[0].clone(), vc, 120, |_| 80);
    drive_reader(w.svcs[1].clone(), vc, "n1", w.log.clone());
    // The gated sink fills, credit runs out, the sender stalls and the
    // monitor reports starved periods at both ends.
    let s1 = w.svcs[1].clone();
    w.at_ms(3_000, move || s1.set_recv_gate(vc, false).expect("ungate"));
    w.run_ms(7_000);
    let (attempts, repairs) = w.svcs[0].heal_stats(vc);
    w.log_line(format_args!("heal {attempts} {repairs}"));
    check(
        "qos_violation",
        w.digests(),
        (0xf121a16cec4402f2, 0x7cc188828dff2e38, 0x0ccef14f86176014),
    );
}

#[test]
fn orchestration_hooks_are_pinned() {
    let w = World::pair(clean(), 9);
    let vc = w.open(ServiceClass::cm_default(), telephone());
    w.tap(1, vc, "sink");
    drive_writer(w.svcs[0].clone(), vc, 150, |_| 80);
    drive_reader(w.svcs[1].clone(), vc, "n1", w.log.clone());
    let (src, snk, log) = (w.svcs[0].clone(), w.svcs[1].clone(), w.log.clone());
    let hooks: Vec<(u64, Box<dyn Fn()>)> = vec![
        (200, {
            let s = src.clone();
            Box::new(move || s.pause_source(vc).expect("pause"))
        }),
        (500, {
            let s = src.clone();
            Box::new(move || s.resume_source(vc).expect("resume"))
        }),
        (700, {
            let s = src.clone();
            Box::new(move || s.set_rate_factor(vc, 1, 2).expect("slow"))
        }),
        (900, {
            let (s, log) = (src.clone(), log.clone());
            Box::new(move || {
                let r = s.source_drop_one(vc).expect("drop");
                note(&log, s.now(), format_args!("drop_one {r}"));
            })
        }),
        (1_000, {
            let (s, log) = (src.clone(), log.clone());
            Box::new(move || {
                let n = s.flush_local(vc).expect("flush");
                note(&log, s.now(), format_args!("source flush {n}"));
            })
        }),
        (1_100, {
            let s = snk.clone();
            Box::new(move || s.set_recv_gate(vc, true).expect("gate"))
        }),
        (1_400, {
            let (s, log) = (snk.clone(), log.clone());
            Box::new(move || {
                let n = s.flush_local(vc).expect("flush");
                note(&log, s.now(), format_args!("sink flush {n}"));
            })
        }),
        (1_500, {
            let s = snk.clone();
            Box::new(move || s.set_recv_gate(vc, false).expect("ungate"))
        }),
        (1_600, {
            let s = src.clone();
            Box::new(move || s.set_rate_factor(vc, 2, 1).expect("fast"))
        }),
        (1_700, {
            let s = src.clone();
            Box::new(move || s.send_vc_control(vc, Rc::new(7u64)).expect("control"))
        }),
        (1_800, {
            let s = snk.clone();
            Box::new(move || s.set_release_limit(vc, Some(120)).expect("limit"))
        }),
    ];
    for (ms, f) in hooks {
        w.at_ms(ms, f);
    }
    w.run_ms(6_000);
    for (i, svc) in w.svcs.iter().enumerate() {
        let stats = svc.take_end_stats(vc).expect("stats");
        w.log_line(format_args!("n{i} stats {stats:?}"));
    }
    check(
        "hooks",
        w.digests(),
        (0x22ed1b93badcf937, 0xac34b06b49df9255, 0xe25da4097584af6a),
    );
}
