//! # cm-transport — the continuous-media transport service (paper §3–4)
//!
//! A from-scratch implementation of the Lancaster CM transport service:
//! simplex VCs with five-parameter QoS contracts, full end-to-end option
//! negotiation, remote (three-party) connection establishment, soft-
//! guarantee monitoring with `T-QoS.indication`, in-place QoS
//! renegotiation, selectable protocol profiles (rate-based CM protocol vs
//! the window-based baseline) and error-control classes, shared circular
//! buffer data transfer with blocking-time accounting, and the
//! orchestration-facing hooks of §5–6.
//!
//! Entry point: [`TransportService::install`] per node; applications
//! implement [`TransportUser`] and bind to TSAPs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
mod datapath;
pub mod entity;
pub mod group;
pub mod heal;
pub mod monitor;
pub mod rate;
pub mod receiver;
pub mod service;
pub mod sync_buffer;
pub mod tpdu;
pub mod vc;
pub mod window;
pub mod wire;

pub use buffer::{BufferHandle, BufferStats, PushOutcome};
pub use group::{GroupEnd, GroupReceiver};
pub use heal::HealReason;
pub use service::{EgressTap, EntityConfig, TransportService, TransportUser, VcTap};
pub use sync_buffer::SyncCircularBuffer;
pub use tpdu::{QosReport, DEFAULT_MTU};
pub use vc::{EndStats, VcRole};
pub use wire::{TpduHeader, TpduParseError};
