//! cm-session: multicast group sessions — the room/peer layer over 1:N
//! group VCs.
//!
//! The paper's platform serves *sessions*, not sockets: a language lab, a
//! seminar, a conference is a set of peers sharing a set of continuous
//! media streams. This crate provides that abstraction over the transport
//! layer's group VCs ([`cm_transport::TransportService::t_group_open`]):
//!
//! * A [`Room`] is a registry of peers and published streams. Rooms and
//!   their streams are exported through the platform [`Trader`]
//!   (`room/<name>`, `room/<name>/stream/<s>`), so peers discover them in
//!   the ANSA location-independent fashion (paper §2.2).
//! * Joining a room subscribes the peer to every published stream via the
//!   transport's group admission path — which consults the shared-tree
//!   path QoS and branch reservations *before* admitting. A peer whose
//!   path cannot carry a stream's worst-acceptable tolerance is denied
//!   with a typed [`JoinDenied`] reason and the admitted receivers are
//!   untouched (§3.2).
//! * Join/leave events are delivered to every member
//!   ([`RoomMember::on_peer_joined`] / [`RoomMember::on_peer_left`]).
//! * Health is typed, not silent: per-member QoS violations, recovery,
//!   and involuntary member loss surface as [`HealthEvent`]s on every
//!   member's [`RoomMember::on_health`] (DESIGN.md §9).
//! * Per-room orchestration ([`RoomOrchestrator`]) issues
//!   Prime/Start/Stop/Regulate room-wide: source-side actions on the
//!   publisher plus one control OPDU fanned out to every member over the
//!   group VC's shared tree — the 1:N analogue of the pairwise LLO
//!   control connections (§5).
//!
//! [`Trader`]: cm_platform::Trader

#![warn(missing_docs)]

mod control;
mod health;
mod room;
mod session;

pub use control::{RoomCtl, RoomOrchestrator};
pub use health::HealthEvent;
pub use room::{JoinDenied, PeerId, Room, RoomMember};
pub use session::Session;
