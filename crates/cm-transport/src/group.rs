//! Sender-side state and operations for 1:N group VCs.
//!
//! The paper's CM multicast "is a simple 1:N topology" (§3.1): one source
//! end drives a set of receivers over a network-layer multicast group. The
//! sending entity holds a single [`crate::vc::Vc`] in the `Source` role
//! whose [`GroupEnd`] carries the per-receiver book-keeping; each receiver
//! holds an ordinary sink end under the *same* `VcId`, so the whole data
//! path, buffering, monitoring and orchestration machinery is reused
//! unchanged.
//!
//! Heterogeneous receivers (§3.2): each joining member negotiates the
//! sender's tolerance against *its own branch* of the shared tree. A member
//! whose branch cannot meet the worst-acceptable level is denied with a
//! typed reason — without disturbing admitted receivers. Admitted members
//! may hold weaker contracts than the preferred level; the sender degrades
//! its pacing to the slowest acceptable contract in force and restores it
//! when the constraining member leaves.
//!
//! Per-receiver error control (§3.4): retransmission requests are answered
//! with a *unicast* resend to the requesting member only, so one lossy
//! branch never re-multicasts to the whole group. Credit is likewise
//! tracked per receiver; the sender paces against the slowest member.

use crate::datapath::Indication;
use crate::entity::TransportEntity;
use crate::tpdu::ControlMsg;
use crate::vc::{SourceEnd, Vc, VcRole};
use cm_core::address::{AddressTriple, NetAddr, TransportAddr, Tsap, VcId};
use cm_core::error::{DisconnectReason, ServiceError};
use cm_core::qos::{GuaranteeMode, QosParams, QosRequirement};
use cm_core::service_class::{ProtocolProfile, ServiceClass};
use cm_core::time::Bandwidth;
use netsim::GroupId;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One admitted receiver of a group VC, as seen by the sender.
pub struct GroupReceiver {
    /// The member's transport address.
    pub addr: TransportAddr,
    /// The per-receiver contract negotiated against this member's branch.
    pub contract: QosParams,
    /// The member's receive-buffer capacity (its initial credit).
    pub capacity: u64,
    /// Cumulative freed count last reported by this member.
    pub freed: u64,
    /// The sender's charged count when this member joined — its stream
    /// origin; credit is measured relative to it.
    pub base_charged: u64,
}

impl GroupReceiver {
    /// OSDUs charged against this member's buffer and not yet freed.
    pub fn in_flight(&self, charged: u64) -> u64 {
        charged.saturating_sub(self.base_charged + self.freed)
    }
}

/// A member invited but not yet confirmed.
pub(crate) struct PendingReceiver {
    pub(crate) addr: TransportAddr,
    pub(crate) base_charged: u64,
}

/// Sender-side group state attached to the source [`Vc`].
pub struct GroupEnd {
    /// The network-layer multicast group carrying the data path.
    pub group: GroupId,
    /// Admitted receivers, in deterministic (node) order.
    pub receivers: BTreeMap<NetAddr, GroupReceiver>,
    /// Invited members awaiting their `GroupConnectResponse`.
    pub(crate) pending: BTreeMap<NetAddr, PendingReceiver>,
}

impl TransportEntity {
    /// Open the sending end of a group VC at `tsap`: creates the
    /// network-layer group (reserving the worst-acceptable throughput per
    /// tree branch as members join) and arms the source machinery. The VC
    /// starts with no receivers; data written before any member joins is
    /// paced out normally and simply fans out to nobody.
    pub(crate) fn t_group_open(
        self: &Rc<Self>,
        tsap: Tsap,
        class: ServiceClass,
        requirement: QosRequirement,
    ) -> Result<VcId, ServiceError> {
        if !requirement.tolerance.is_well_formed() {
            return Err(ServiceError::BadArgument(
                "preferred QoS weaker than worst-acceptable",
            ));
        }
        if class.profile != ProtocolProfile::RateBasedCm {
            return Err(ServiceError::BadArgument(
                "group VCs support the rate-based CM profile only",
            ));
        }
        if !self.state.borrow().users.contains_key(&tsap) {
            return Err(ServiceError::TsapUnbound);
        }
        let vc = self.alloc_vc();
        let reserve = if requirement.guarantee == GuaranteeMode::BestEffort {
            Bandwidth::ZERO
        } else {
            requirement.tolerance.worst.throughput
        };
        let group = self.net.create_group(self.node, reserve);
        let me = TransportAddr {
            node: self.node,
            tsap,
        };
        let slots = self.buffer_slots(&requirement);
        // No receivers yet: credit never gates; recomputed per join.
        let source = SourceEnd::new(
            slots,
            requirement.osdu_rate,
            self.local_now(),
            None,
            u64::MAX,
            slots * 4,
        );
        let v = Vc {
            id: vc,
            triple: AddressTriple {
                initiator: me,
                source: me,
                destination: me,
            },
            class,
            requirement,
            contract: requirement.tolerance.preferred,
            role: VcRole::Source,
            peer_node: self.node,
            local_tsap: tsap,
            source: Some(source),
            sink: None,
            group: Some(GroupEnd {
                group,
                receivers: BTreeMap::new(),
                pending: BTreeMap::new(),
            }),
            pending_reneg: None,
        };
        // Register the preferred contract with the auditor; joins that
        // weaken the group contract re-register through
        // `recompute_group`.
        if self.obs.enabled() {
            let preferred = requirement.tolerance.preferred;
            self.obs.set_contract(
                vc.0,
                preferred.delay.as_micros(),
                preferred.packet_error_rate.as_ppb() / 1_000,
            );
        }
        let h = self.state.borrow_mut().vcs.insert(vc, v);
        self.open_entry(h);
        Ok(vc)
    }

    /// Invite `to` into group VC `vc`. Synchronous errors cover only
    /// misuse; admission outcomes — branch QoS below the acceptable floor,
    /// reservation denial, unreachable member, the member's own refusal —
    /// arrive through `t_group_join_confirm` with a typed reason, leaving
    /// admitted receivers untouched.
    pub(crate) fn t_group_add_receiver(
        self: &Rc<Self>,
        vc: VcId,
        to: TransportAddr,
    ) -> Result<(), ServiceError> {
        let (group, class, requirement, local_tsap, start_seq) = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            let ge = v
                .group
                .as_ref()
                .ok_or(ServiceError::WrongState("not a group VC"))?;
            if to.node == self.node {
                return Err(ServiceError::BadArgument(
                    "the sending node cannot be a group receiver",
                ));
            }
            if ge.receivers.contains_key(&to.node) || ge.pending.contains_key(&to.node) {
                return Err(ServiceError::WrongState("node already in the group"));
            }
            let s = v.source.as_ref().expect("group source end");
            (ge.group, v.class, v.requirement, v.local_tsap, s.charged)
        };
        let deny = |reason: DisconnectReason| {
            self.indicate(
                local_tsap,
                Indication::GroupJoinConfirm(vc, to, Err(reason)),
            );
        };
        // Per-receiver negotiation against this member's branch of the
        // shared tree (§3.2 heterogeneous tolerance levels).
        let Some(achievable) = self.net.group_path_qos(group, to.node, self.config.mtu) else {
            deny(DisconnectReason::Unreachable);
            return Ok(());
        };
        let agreed = match requirement.tolerance.negotiate(&achievable) {
            Ok(a) => a,
            Err(violations) => {
                deny(DisconnectReason::from_violations(&violations));
                return Ok(());
            }
        };
        // Graft the branch: reserves only the links the new member adds.
        match self.net.group_join(group, to.node) {
            None => {
                deny(DisconnectReason::Unreachable);
                return Ok(());
            }
            Some(Err(_)) => {
                deny(DisconnectReason::AdmissionDenied);
                return Ok(());
            }
            Some(Ok(())) => {}
        }
        {
            let mut st = self.state.borrow_mut();
            if let Some(ge) = st.vcs.get_mut(&vc).and_then(|v| v.group.as_mut()) {
                ge.pending.insert(
                    to.node,
                    PendingReceiver {
                        addr: to,
                        base_charged: start_seq,
                    },
                );
            }
        }
        let me = TransportAddr {
            node: self.node,
            tsap: local_tsap,
        };
        self.send_control(
            to.node,
            ControlMsg::GroupConnectRequest {
                vc,
                group,
                triple: AddressTriple {
                    initiator: me,
                    source: me,
                    destination: to,
                },
                class,
                requirement,
                agreed,
                start_seq,
            },
        );
        Ok(())
    }

    /// The invited member's answer arrived at the sender.
    pub(crate) fn on_group_connect_response(
        self: &Rc<Self>,
        vc: VcId,
        member: TransportAddr,
        result: Result<(QosParams, u32), DisconnectReason>,
    ) {
        let (pending, group, local_tsap) = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let tsap = v.local_tsap;
            let Some(ge) = v.group.as_mut() else { return };
            let g = ge.group;
            (ge.pending.remove(&member.node), g, tsap)
        };
        let Some(pending) = pending else { return };
        match result {
            Ok((agreed, capacity)) => {
                {
                    let mut st = self.state.borrow_mut();
                    if let Some(ge) = st.vcs.get_mut(&vc).and_then(|v| v.group.as_mut()) {
                        ge.receivers.insert(
                            member.node,
                            GroupReceiver {
                                addr: member,
                                contract: agreed,
                                capacity: capacity as u64,
                                freed: 0,
                                base_charged: pending.base_charged,
                            },
                        );
                    }
                }
                self.recompute_group(vc);
                self.indicate(
                    local_tsap,
                    Indication::GroupJoinConfirm(vc, member, Ok(agreed)),
                );
            }
            Err(reason) => {
                // Roll the branch reservation back.
                self.net.group_leave(group, member.node);
                self.indicate(
                    local_tsap,
                    Indication::GroupJoinConfirm(vc, member, Err(reason)),
                );
            }
        }
    }

    /// A member released its end (receiver-initiated leave): prune its
    /// branch, restore the group contract, tell the sending user.
    pub(crate) fn group_member_left(
        self: &Rc<Self>,
        vc: VcId,
        member: NetAddr,
        reason: DisconnectReason,
    ) {
        let (gone, group, local_tsap) = {
            let mut st = self.state.borrow_mut();
            let Some(v) = st.vcs.get_mut(&vc) else { return };
            let tsap = v.local_tsap;
            let Some(ge) = v.group.as_mut() else { return };
            let gone = ge
                .receivers
                .remove(&member)
                .map(|r| r.addr)
                .or_else(|| ge.pending.remove(&member).map(|p| p.addr));
            (gone, ge.group, tsap)
        };
        let Some(addr) = gone else { return };
        self.net.group_leave(group, member);
        self.recompute_group(vc);
        self.indicate(local_tsap, Indication::GroupLeave(vc, addr, reason));
    }

    /// Sender-initiated removal of a member.
    pub(crate) fn t_group_remove_receiver(
        self: &Rc<Self>,
        vc: VcId,
        member: NetAddr,
    ) -> Result<(), ServiceError> {
        let group = {
            let mut st = self.state.borrow_mut();
            let v = st.vcs.get_mut(&vc).ok_or(ServiceError::UnknownVc)?;
            let ge = v
                .group
                .as_mut()
                .ok_or(ServiceError::WrongState("not a group VC"))?;
            if ge.receivers.remove(&member).is_none() && ge.pending.remove(&member).is_none() {
                return Err(ServiceError::BadArgument("node is not a group member"));
            }
            ge.group
        };
        self.send_control(
            member,
            ControlMsg::Disconnect {
                vc,
                reason: DisconnectReason::UserRelease,
                notify: None,
            },
        );
        self.net.group_leave(group, member);
        self.recompute_group(vc);
        Ok(())
    }

    /// Close the whole group VC: release every member, the shared-tree
    /// reservations and the local source end.
    pub(crate) fn t_group_close(self: &Rc<Self>, vc: VcId) -> Result<(), ServiceError> {
        let (group, members) = {
            let st = self.state.borrow();
            let v = st.vcs.get(&vc).ok_or(ServiceError::UnknownVc)?;
            let ge = v
                .group
                .as_ref()
                .ok_or(ServiceError::WrongState("not a group VC"))?;
            let members: Vec<NetAddr> = ge
                .receivers
                .keys()
                .chain(ge.pending.keys())
                .copied()
                .collect();
            (ge.group, members)
        };
        for m in members {
            self.send_control(
                m,
                ControlMsg::Disconnect {
                    vc,
                    reason: DisconnectReason::UserRelease,
                    notify: None,
                },
            );
        }
        self.net.group_release(group);
        self.teardown_local(vc, DisconnectReason::UserRelease, false);
        Ok(())
    }

    /// Re-derive the group-wide contract, credit line and pacing factor
    /// from the current receiver set (the data path's regroup input).
    pub(crate) fn recompute_group(self: &Rc<Self>, vc: VcId) {
        self.drive(vc, |e, cx, ob| e.vc.regroup(cx, ob));
    }
}
