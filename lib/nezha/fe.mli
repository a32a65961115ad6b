(** The vNIC frontend (FE): an idle vSwitch serving a remote vNIC's
    stateless rule tables and cached flows (§3.2.1).

    One FE service is installed per vSwitch (as its net hook); it can
    serve many vNICs, each with a replica of the vNIC's rule tables, its
    own cached-flow region, and the BE location config.

    RX workflow: resolve pre-actions (cached flows, rule lookup on miss),
    piggyback them — and the preserved original outer source — in the NSH
    header, and forward to the BE.

    TX workflow: the packet arrives from the BE carrying the session
    state; combine it with the pre-actions to produce the final action and
    forward toward the peer.  When a rule-table lookup reveals that the
    BE's rule-table-involved state is stale (the statistics policy
    changed), send a notify packet (§3.2.2).

    FEs are completely stateless with respect to sessions: any FE can
    process any packet of the vNIC, which is what makes plain 5-tuple
    hashing sufficient for load balancing and active-active failover
    free of synchronization (§3.2.3). *)

open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch

type t

val install : Vswitch.t -> t
(** Registers the vSwitch's net hook (single and batched forms).  One
    service per vSwitch. *)

val vswitch : t -> Vswitch.t

val process :
  t -> Packet.t -> outer:Packet.vxlan option -> [ `Handled | `Continue ]
(** The net-hook entry: classify a decapsulated underlay packet
    ([outer] is its original outer header) and run the matching
    workflow.  [`Continue] means the packet concerns no served vNIC. *)

val process_batch : t -> Pbatch.t -> Pbatch.t option
(** Vectored net-hook entry (also wired as the vSwitch's batch net
    hook).  Takes ownership of the still-encapsulated burst, handles
    every packet of a served vNIC under one SmartNIC charge, and
    returns the still-encapsulated leftover it declined — ownership of
    which transfers back to the caller — or [None] when everything was
    consumed. *)

val serve : t -> vnic:Vnic.t -> ruleset:Ruleset.t -> be:Ipv4.t -> Admission.t
(** Configure this FE for a vNIC: reserves memory for the rule-table
    replica ([Error `No_memory] when it does not fit).  Replaces any
    previous config for the same vNIC. *)

val unserve : t -> Vnic.Addr.t -> unit
(** Stop serving: releases the rule replica and cached flows. *)

val reset : t -> unit
(** Crash semantics: every served blob vanished with the process, so
    release all its NIC reservations and forget the table.  Pair with
    {!reattach} + controller re-provisioning on reboot. *)

val reattach : t -> unit
(** Re-install this FE's packet hooks on its vSwitch (they are volatile
    and cleared by {!Vswitch.wipe_volatile}); part of reboot
    reconciliation. *)

val serves : t -> Vnic.Addr.t -> bool
val served_count : t -> int
val served_vnics : t -> Vnic.Addr.t list

val set_be : t -> Vnic.Addr.t -> Ipv4.t -> unit
(** Update the BE location (VM live migration, §7.2: takes effect in
    under a millisecond because only this config changes). *)

val ruleset_of : t -> Vnic.Addr.t -> Ruleset.t option
(** The served rule-table replica (the controller mutates it on tenant
    config changes). *)

val invalidate_cached_flows : t -> Vnic.Addr.t -> unit
(** Drop cached flows made stale by a rule-table change. *)

(** {1 Attribution and counters} *)

type counters = {
  remote_cycles : Stats.Counter.t;
      (** CPU cycles this vSwitch spent on FE (remote) work — the signal
          that distinguishes scale-out from scale-in pressure (§4.3,
          Fig. 8). *)
  rule_lookups : Stats.Counter.t;
  fast_hits : Stats.Counter.t;
  notify_sent : Stats.Counter.t;
  rx_forwarded : Stats.Counter.t;
  tx_finalized : Stats.Counter.t;
  hop_acks_sent : Stats.Counter.t;
      (** hop-level acks echoed back for BE loss tracking *)
}

val counters : t -> counters

val cached_flow_count : t -> int

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** Publish every counter (plus cached-flow and served-vNIC gauges)
    under [fe/<vswitch-name>/...]. *)
