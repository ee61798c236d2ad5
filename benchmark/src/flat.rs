//! The flat replayer: a [`CitySchedule`] replayed on one engine
//! through the stack's public APIs only (`Session::create_room`,
//! `Room::join`/`publish`/`leave`, `TransportService::write_osdu` and
//! `send_handle`, `Engine::run`).
//!
//! It schedules exactly what the trajectory's flat executor schedules,
//! in the same order, so the simulation is the same one (the parity
//! tests pin `events_executed`, `joins_ok`, `osdus_delivered` and
//! `sim_ms`). On top it gives every member its own handler, records
//! each OSDU's write and delivery instant by its synthetic tag, times
//! every join to its verdict, and checks the delivery order.

use crate::probe::{Op, Probe};
use crate::report::Fnv;
use cm_core::address::{NetAddr, VcId};
use cm_core::media::MediaProfile;
use cm_core::osdu::{Osdu, Payload};
use cm_core::qos::{GuaranteeMode, QosRequirement};
use cm_core::rng::DetRng;
use cm_core::service_class::ServiceClass;
use cm_core::time::{Bandwidth, SimDuration};
use cm_core::FastMap;
use cm_obs::Obs;
use cm_platform::Platform;
use cm_session::{PeerId, Room, RoomMember, Session};
use cm_testkit::{CityConfig, CityEvent, CityMedia, CitySchedule};
use cm_transport::{EntityConfig, TransportService};
use netsim::{Engine, LinkId, LinkParams, Network, NodeClock};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The media profile a schedule's media code stands for.
fn profile_of(media: CityMedia) -> MediaProfile {
    match media {
        CityMedia::AudioTelephone => MediaProfile::audio_telephone(),
        CityMedia::TextCaptions => MediaProfile::text_captions(),
        CityMedia::VideoMono => MediaProfile::video_mono(),
    }
}

/// The star world: a hub and `cfg.nodes` leaves on clean 100 Mbit/s,
/// 1 ms links, every node carrying a transport entity with a 4-slot
/// buffer, and a session over them.
pub struct World {
    /// The engine.
    pub engine: Engine,
    /// The network.
    pub net: Network,
    /// The session layer.
    pub session: Session,
    /// Leaf nodes, schedule node index order.
    pub nodes: Vec<NetAddr>,
    /// The causal-trace registry shared by every entity.
    pub obs: Obs,
}

/// Build the world for `cfg`. With `telemetry` set, telemetry (with that
/// ring capacity) and cm-obs are on from the start.
pub fn build_world(cfg: &CityConfig, telemetry: Option<usize>) -> World {
    let engine = Engine::new();
    let obs = Obs::disabled();
    if let Some(cap) = telemetry {
        engine.telemetry().enable(cap);
        obs.enable();
    }
    let net = Network::new(engine.clone());
    let mut rng = DetRng::from_seed(cfg.seed ^ 0x5ca1_ab1e);
    let hub = net.add_node(NodeClock::perfect());
    let link = LinkParams::clean(Bandwidth::mbps(100), SimDuration::from_millis(1));
    let nodes: Vec<NetAddr> = (0..cfg.nodes)
        .map(|_| {
            let n = net.add_node(NodeClock::perfect());
            net.add_duplex(hub, n, link.clone(), &mut rng);
            n
        })
        .collect();
    let platform = Platform::new(net.clone());
    let entity_cfg = EntityConfig {
        buffer_slots_override: Some(4),
        obs: obs.clone(),
        ..EntityConfig::default()
    };
    platform.install_node_with(hub, entity_cfg.clone());
    for &n in &nodes {
        platform.install_node_with(n, entity_cfg.clone());
    }
    let session = Session::new(&platform);
    World {
        engine,
        net,
        session,
        nodes,
        obs,
    }
}

/// What the replayer observed, in simulated terms.
#[derive(Debug, Default)]
pub struct Observed {
    /// Rooms opened.
    pub rooms_opened: u64,
    /// Joins issued.
    pub joins: u64,
    /// Joins admitted.
    pub joins_ok: u64,
    /// Joins denied.
    pub joins_denied: u64,
    /// Publishes issued.
    pub publishes: u64,
    /// Publishes that returned an error.
    pub publish_errors: u64,
    /// `write_osdu` calls.
    pub write_calls: u64,
    /// Calls that found the send buffer full (`Ok(false)`).
    pub write_full: u64,
    /// Calls that returned an error.
    pub write_errors: u64,
    /// OSDUs accepted for sending.
    pub osdus_written: u64,
    /// OSDUs delivered to members.
    pub osdus_delivered: u64,
    /// Write → `on_media` latencies, µs of simulated time, sorted.
    pub latency_us: Vec<u64>,
    /// `Room::join` → verdict, µs of simulated time, sorted.
    pub join_admit_us: Vec<u64>,
    /// FNV over (room, member, seq, sim µs) in delivery order.
    pub delivery_fnv: Fnv,
    /// Deliveries whose tag named no write, or another room.
    pub stray_tags: u64,
    /// Deliveries that did not raise the member's seq (reordered or
    /// duplicated).
    pub out_of_order: u64,
}

/// Per-run bookkeeping shared by the members and the replay closures.
struct Recorder {
    /// Cleared once the run ends, so no handle outlives the world.
    engine: RefCell<Option<Engine>>,
    /// Sim-µs write instant of every accepted OSDU, `[room][seq]`.
    writes: RefCell<Vec<Vec<u64>>>,
    obs: RefCell<Observed>,
}

impl Recorder {
    fn now_us(&self) -> u64 {
        self.engine
            .borrow()
            .as_ref()
            .map_or(0, |e| e.now().as_micros())
    }
}

/// A room member: one per join, checking and timing what reaches it.
struct Member {
    room: u32,
    member: u32,
    /// Highest seq delivered so far, plus one (0 = none yet).
    next_min: Cell<u64>,
    rec: Rc<Recorder>,
    probe: Rc<Probe>,
}

impl RoomMember for Member {
    fn on_media(&self, _room: &str, _stream: &str, osdu: Osdu) {
        self.probe.callback(Op::Member, || {
            let now = self.rec.now_us();
            let mut o = self.rec.obs.borrow_mut();
            o.osdus_delivered += 1;
            let Some(tag) = osdu.payload.tag() else {
                o.stray_tags += 1;
                return;
            };
            let (room, seq) = ((tag >> 32) as u32, tag & 0xffff_ffff);
            let written = self
                .rec
                .writes
                .borrow()
                .get(room as usize)
                .and_then(|w| w.get(seq as usize).copied());
            match written {
                Some(at) if room == self.room => o.latency_us.push(now - at),
                _ => o.stray_tags += 1,
            }
            if seq < self.next_min.get() {
                o.out_of_order += 1;
            }
            self.next_min.set(self.next_min.get().max(seq + 1));
            for w in [self.room as u64, self.member as u64, seq, now] {
                o.delivery_fnv.word(w);
            }
        })
    }
}

struct Rt {
    session: Session,
    nodes: Vec<NetAddr>,
    schedule: CitySchedule,
    probe: Rc<Probe>,
    rec: Rc<Recorder>,
    rooms: RefCell<FastMap<u32, Room>>,
    peers: RefCell<FastMap<(u32, u32), PeerId>>,
}

/// Replay `schedule` on `world` until the engine drains. Returns the
/// observations and the host time of `Engine::run`, ns.
pub fn replay(world: &World, schedule: CitySchedule, probe: &Rc<Probe>) -> (Observed, u64) {
    let rec = Rc::new(Recorder {
        engine: RefCell::new(Some(world.engine.clone())),
        writes: RefCell::new(vec![Vec::new(); schedule_rooms(&schedule)]),
        obs: RefCell::new(Observed::default()),
    });
    let rt = Rc::new(Rt {
        session: world.session.clone(),
        nodes: world.nodes.clone(),
        schedule,
        probe: probe.clone(),
        rec: rec.clone(),
        rooms: RefCell::new(FastMap::default()),
        peers: RefCell::new(FastMap::default()),
    });
    arm_batch(&world.engine, rt.clone(), 0);
    let ((), run_ns) = probe.phase("engine.run", || world.engine.run());
    // Release every handle the replayer holds into the world.
    rt.rooms.borrow_mut().clear();
    rt.peers.borrow_mut().clear();
    drop(rt);
    // Members outlive the run if the world leaks; leave nothing of the
    // replayer's in them.
    rec.engine.borrow_mut().take();
    rec.writes.take();
    let mut o = std::mem::take(&mut *rec.obs.borrow_mut());
    o.latency_us.sort_unstable();
    o.join_admit_us.sort_unstable();
    (o, run_ns)
}

fn schedule_rooms(schedule: &CitySchedule) -> usize {
    schedule
        .events
        .iter()
        .map(|e| match *e {
            CityEvent::RoomOpen { room, .. } => room as usize + 1,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Schedule the batch of events starting at `idx` (all sharing one fire
/// time); each batch arms the next.
fn arm_batch(engine: &Engine, rt: Rc<Rt>, idx: usize) {
    let Some(first) = rt.schedule.events.get(idx) else {
        return;
    };
    let now_ms = engine.now().as_micros() / 1_000;
    let delay = SimDuration::from_millis(first.at_ms().saturating_sub(now_ms));
    engine.schedule_in(delay, move |eng| {
        let probe = rt.probe.clone();
        probe.callback(Op::Callback, || {
            let at = rt.schedule.events[idx].at_ms();
            let mut i = idx;
            while let Some(&ev) = rt.schedule.events.get(i) {
                if ev.at_ms() != at {
                    break;
                }
                execute(eng, &rt, ev);
                i += 1;
            }
            arm_batch(eng, rt.clone(), i);
        })
    });
}

fn execute(engine: &Engine, rt: &Rc<Rt>, ev: CityEvent) {
    let probe = &rt.probe;
    match ev {
        CityEvent::RoomOpen {
            room,
            host,
            members,
            ..
        } => {
            let name = format!("r{room}");
            let r = probe.call(Op::CreateRoom, || {
                rt.session
                    .create_room(&name, rt.nodes[host as usize], members as usize)
            });
            rt.rooms.borrow_mut().insert(room, r);
            rt.rec.obs.borrow_mut().rooms_opened += 1;
        }
        CityEvent::Join {
            room, member, node, ..
        } => {
            let Some(r) = rt.rooms.borrow().get(&room).cloned() else {
                return;
            };
            let handler = Rc::new(Member {
                room,
                member,
                next_min: Cell::new(0),
                rec: rt.rec.clone(),
                probe: probe.clone(),
            });
            let name = format!("m{member}");
            let asked = engine.now().as_micros();
            rt.rec.obs.borrow_mut().joins += 1;
            let rt2 = rt.clone();
            probe.call(Op::Join, || {
                r.join(rt.nodes[node as usize], &name, handler, move |res| {
                    let probe = rt2.probe.clone();
                    probe.callback(Op::Callback, || {
                        let waited = rt2.rec.now_us() - asked;
                        let mut o = rt2.rec.obs.borrow_mut();
                        o.join_admit_us.push(waited);
                        match res {
                            Ok(id) => {
                                rt2.peers.borrow_mut().insert((room, member), id);
                                o.joins_ok += 1;
                            }
                            Err(_) => o.joins_denied += 1,
                        }
                    })
                })
            });
        }
        CityEvent::Publish {
            room,
            media,
            writes,
            ..
        } => {
            let Some(r) = rt.rooms.borrow().get(&room).cloned() else {
                return;
            };
            let Some(&publisher) = rt.peers.borrow().get(&(room, 0)) else {
                return;
            };
            let profile = profile_of(media);
            let req = QosRequirement {
                tolerance: profile.tolerance(50),
                guarantee: GuaranteeMode::BestEffort,
                osdu_rate: profile.osdu_rate,
                max_osdu_size: profile.max_osdu_size,
            };
            rt.rec.obs.borrow_mut().publishes += 1;
            let published = probe.call(Op::Publish, || {
                r.publish(publisher, "main", ServiceClass::cm_default(), req)
            });
            let Ok(vc) = published else {
                rt.rec.obs.borrow_mut().publish_errors += 1;
                return;
            };
            let Some(svc) = r.stream_service("main") else {
                return;
            };
            let stream = Stream {
                svc,
                vc,
                room,
                total: writes,
                size: profile.nominal_osdu_size,
                every: profile.osdu_rate.interval(),
            };
            let rt2 = rt.clone();
            // The graft handshake gets a beat before the first write;
            // then writes go at the media rate, the contracted pace.
            engine.schedule_in(SimDuration::from_millis(100), move |_| {
                paced_writes(&rt2, Rc::new(stream), 0);
            });
        }
        CityEvent::Leave { room, member, .. } => {
            let Some(id) = rt.peers.borrow_mut().remove(&(room, member)) else {
                return;
            };
            let Some(r) = rt.rooms.borrow().get(&room).cloned() else {
                return;
            };
            probe.call(Op::Leave, || r.leave(id));
        }
        CityEvent::RoomClose { room, .. } => {
            let Some(r) = rt.rooms.borrow_mut().remove(&room) else {
                return;
            };
            // Listeners first, the publisher (and its stream) last.
            let mut roster = r.peers();
            roster.reverse();
            for (id, _, _) in roster {
                probe.call(Op::Leave, || r.leave(id));
            }
        }
    }
}

/// One published stream's writer state.
struct Stream {
    svc: TransportService,
    vc: VcId,
    room: u32,
    total: u32,
    size: usize,
    every: SimDuration,
}

/// Write one OSDU every `every` of simulated time until `total` are out,
/// parking on the send buffer when it is full. Stops if the VC is gone.
fn paced_writes(rt: &Rc<Rt>, s: Rc<Stream>, done: u32) {
    let probe = rt.probe.clone();
    probe.callback(Op::Callback, || {
        if done >= s.total {
            return;
        }
        let tag = ((s.room as u64) << 32) | done as u64;
        let res = probe.call(Op::WriteOsdu, || {
            s.svc
                .write_osdu(s.vc, Payload::synthetic(tag, s.size), None)
        });
        rt.rec.obs.borrow_mut().write_calls += 1;
        match res {
            Ok(true) => {
                let now = s.svc.now().as_micros();
                rt.rec.writes.borrow_mut()[s.room as usize].push(now);
                rt.rec.obs.borrow_mut().osdus_written += 1;
                let engine = s.svc.network().engine().clone();
                let rt2 = rt.clone();
                let every = s.every;
                engine.schedule_in(every, move |_| paced_writes(&rt2, s, done + 1));
            }
            Ok(false) => {
                rt.rec.obs.borrow_mut().write_full += 1;
                let Ok(buf) = s.svc.send_handle(s.vc) else {
                    return;
                };
                let now = s.svc.now();
                let engine = s.svc.network().engine().clone();
                let rt2 = rt.clone();
                buf.park_producer(now, move || {
                    engine.schedule_in(SimDuration::ZERO, move |_| paced_writes(&rt2, s, done));
                });
            }
            Err(_) => rt.rec.obs.borrow_mut().write_errors += 1,
        }
    })
}

/// Sums of every link's counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkTotals {
    /// Packets submitted.
    pub submitted: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (queue overflow and loss).
    pub dropped: u64,
    /// Payload bytes accepted.
    pub bytes: u64,
}

/// Sum `Network::link_counters` over all links.
pub fn link_totals(net: &Network) -> LinkTotals {
    let mut t = LinkTotals::default();
    for id in 0..net.link_count() {
        let c = net.link_counters(LinkId(id as u32));
        t.submitted += c.submitted;
        t.delivered += c.delivered;
        t.dropped += c.dropped_overflow + c.dropped_loss;
        t.bytes += c.bytes;
    }
    t
}
