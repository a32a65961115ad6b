open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch

type cached = { pre : Pre_action.t; generation : int }

type served = {
  vnic : Vnic.t;
  ruleset : Ruleset.t;
  mutable be : Ipv4.t;
  flows : cached Flow_table.t;
  mutable rule_bytes : int;
}

type counters = {
  remote_cycles : Stats.Counter.t;
  rule_lookups : Stats.Counter.t;
  fast_hits : Stats.Counter.t;
  notify_sent : Stats.Counter.t;
  rx_forwarded : Stats.Counter.t;
  tx_finalized : Stats.Counter.t;
  hop_acks_sent : Stats.Counter.t;
}

(* A served packet's workflow (§3.2.1), as classified on arrival. *)
type work =
  | To_be of Ipv4.t option  (* RX: forward to the BE with the preserved outer source *)
  | To_peer of Packet.nsh * State.t  (* TX: the NSH metadata and the carried state *)

(* Where a packet's pre-actions came from. *)
type route = Cached | Looked_up | Unroutable

type t = {
  vs : Vswitch.t;
  served : served Vnic.Addr.Table.t;
  counters : counters;
  (* [resolve]'s per-packet findings, copied out by the driver before
     the next packet resolves. *)
  mutable found_route : route;
  mutable found_pre : Pre_action.t;
}

let params t = Vswitch.params t.vs

let flow_entry_bytes t = (params t).Params.session_entry_overhead

(* All FE work is charged through here so the controller can attribute
   this vSwitch's load to remote serving vs. local vNICs. *)
let charge t ~cycles k =
  Stats.Counter.add t.counters.remote_cycles cycles;
  Vswitch.charge t.vs ~cycles k

let key_of pkt = Flow_key.of_packet_fields ~vpc:pkt.Packet.vpc ~flow:pkt.Packet.flow

(* FE stage spans are the remote share of a flow's latency — the work that
   exists only because the vNIC is load-shared.  The [cached] detail says
   whether pre-actions came from the cached-flow table or a rule lookup. *)
let trace_stage t pkt ~name ~cached ~t0 =
  if Vswitch.traced t.vs pkt then
    Vswitch.trace_span t.vs pkt ~name ~component:("fe/" ^ Vswitch.name t.vs)
      ~site:Nezha_telemetry.Trace.Remote
      ~args:[ ("cached", if cached then "true" else "false") ]
      ~t0 ()

let send_notify t s pkt pre =
  Stats.Counter.incr t.counters.notify_sent;
  Vswitch.count_notify t.vs;
  let notify =
    Packet.create ~vpc:pkt.Packet.vpc
      ~flow:(Five_tuple.reverse pkt.Packet.flow)
      ~direction:Packet.Rx ~flags:Packet.no_flags ()
  in
  Packet.set_nsh notify
    { Packet.empty_nsh with Packet.notify = true;
      carried_pre_actions = Some (Pre_action.encode pre) };
  Packet.encap_vxlan notify ~vni:(Ruleset.vni s.ruleset)
    ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst:s.be;
  Vswitch.emit t.vs (Vswitch.To_net notify)

(* Hop-level ack for the BE's loss tracker: echo the sequence back on a
   bare control packet.  Sent regardless of the rule verdict — the ack
   acknowledges the hop, not the delivery. *)
let send_hop_ack t s pkt seq =
  Stats.Counter.incr t.counters.hop_acks_sent;
  let ack =
    Packet.create ~vpc:pkt.Packet.vpc
      ~flow:(Five_tuple.reverse pkt.Packet.flow)
      ~direction:Packet.Rx ~flags:Packet.no_flags ()
  in
  Packet.set_nsh ack { Packet.empty_nsh with Packet.hop_ack = Some seq };
  Packet.encap_vxlan ack ~vni:(Ruleset.vni s.ruleset)
    ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst:s.be;
  Vswitch.emit t.vs (Vswitch.To_net ack)

(* The FE pipeline, shared by the single and batch drivers.  [resolve]
   runs at submission: it finds the pre-actions — from the cached-flow
   table, or a rule lookup that caches them — and returns the packet's
   cycles, leaving the route and pre-actions in [t.found_*].  The
   cached-flow table memoises a burst's repeats: a lookup inserts
   synchronously, so the next packet of the flow hits.  [finish] runs
   the workflow once the cycles are spent, sending into [out] when a
   batch driver collects its burst there. *)
let workflow_cycles p work pkt ~lookup_cycles =
  let ack_cycles =
    match work with
    | To_peer ({ Packet.hop_seq = Some _; _ }, _) -> p.Params.encap_cycles
    | To_peer _ | To_be _ -> 0
  in
  Params.packet_cycles p ~wire_bytes:(Packet.wire_size pkt)
  + lookup_cycles + p.Params.encap_cycles + ack_cycles

let resolve t s work pkt =
  let p = params t in
  let key = key_of pkt in
  let now = Sim.now (Vswitch.sim t.vs) in
  let generation = Ruleset.generation s.ruleset in
  match Flow_table.find s.flows key with
  | Some c when c.generation = generation ->
    Stats.Counter.incr t.counters.fast_hits;
    ignore (Flow_table.touch s.flows ~now key : bool);
    t.found_route <- Cached;
    t.found_pre <- c.pre;
    workflow_cycles p work pkt ~lookup_cycles:p.Params.split_fast_path_cycles
  | Some _ | None -> (
    Stats.Counter.incr t.counters.rule_lookups;
    let flow_tx =
      match work with
      | To_be _ -> Five_tuple.reverse pkt.Packet.flow
      | To_peer _ -> pkt.Packet.flow
    in
    match Vswitch.slow_path t.vs s.ruleset ~vpc:s.vnic.Vnic.vpc ~flow_tx with
    | None ->
      t.found_route <- Unroutable;
      p.Params.table_base_cycles
    | Some { Ruleset.pre; cycles } ->
      let bytes = flow_entry_bytes t in
      if Smartnic.mem_reserve (Vswitch.nic t.vs) bytes then begin
        match Flow_table.insert s.flows ~now key { pre; generation } with
        | Ok () -> ()
        | Error _ -> Smartnic.mem_release (Vswitch.nic t.vs) bytes
      end;
      t.found_route <- Looked_up;
      t.found_pre <- pre;
      (* Creating the bidirectional cached flow is the expensive share of
         session setup, and it now happens here, not at the BE. *)
      workflow_cycles p work pkt ~lookup_cycles:(cycles + p.Params.flow_cache_cycles))

let finish t s work ~route ~pre ~t0 ~out pkt =
  match (route, work) with
  | Unroutable, _ -> Vswitch.count_drop t.vs Nf.No_route
  | (Cached | Looked_up), To_be orig_outer_src ->
    (* RX (§3.2.1 blue flow): piggyback the pre-actions and the
       preserved outer source, forward to the BE. *)
    trace_stage t pkt ~name:"fe_rx" ~cached:(route = Cached) ~t0;
    Stats.Counter.incr t.counters.rx_forwarded;
    Packet.set_nsh pkt
      {
        Packet.empty_nsh with
        Packet.carried_pre_actions = Some (Pre_action.encode pre);
        orig_outer_src;
      };
    Packet.encap_vxlan pkt ~vni:(Ruleset.vni s.ruleset)
      ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst:s.be;
    Vswitch.forward t.vs ~out pkt
  | (Cached | Looked_up), To_peer (nsh, state) -> (
    (* TX (§3.2.1 red flow): the packet carries the state; combine it
       with the pre-actions and finalize. *)
    trace_stage t pkt ~name:"fe_tx" ~cached:(route = Cached) ~t0;
    (match nsh.Packet.hop_seq with Some seq -> send_hop_ack t s pkt seq | None -> ());
    (* Notify the BE when the rule lookup's rule-table-involved state
       disagrees with what the packet carried (§3.2.2): a notify fires
       only on fresh lookups, and only on an actual difference — both
       conditions keep the notify rate low. *)
    (if route = Looked_up then begin
       let be_has_stats = state.State.stats <> None in
       let rules_want_stats = pre.Pre_action.stats <> None in
       if be_has_stats <> rules_want_stats then send_notify t s pkt pre
     end);
    let verdict, _state_out =
      Nf.process ~pre ~state:(Some state) ~dir:Packet.Tx ~flags:pkt.Packet.flags
        ~proto:pkt.Packet.flow.Five_tuple.proto ~wire_bytes:(Packet.wire_size pkt) ()
    in
    Stats.Counter.incr t.counters.tx_finalized;
    match verdict with
    | Nf.Deliver ->
      Vswitch.maybe_mirror t.vs pre pkt;
      Vswitch.encap_to_peer t.vs pre pkt;
      Vswitch.forward t.vs ~out pkt
    | Nf.Drop reason -> Vswitch.count_drop t.vs reason)

let outer_src_of = function Some v -> Some v.Packet.outer_src | None -> None

let served_by t pkt ip = Vnic.Addr.Table.find_opt t.served { Vnic.Addr.vpc = pkt.Packet.vpc; ip }

let run_one t s work pkt =
  let t0 = Sim.now (Vswitch.sim t.vs) in
  let cycles = resolve t s work pkt in
  let route = t.found_route and pre = t.found_pre in
  charge t ~cycles (fun _ -> finish t s work ~route ~pre ~t0 ~out:None pkt)

(* The single-packet driver, as the net hook: [pkt] arrives decapped,
   [outer] is its original outer header. *)
let process t pkt ~outer =
  match served_by t pkt pkt.Packet.flow.Five_tuple.dst with
  | Some s ->
    run_one t s (To_be (outer_src_of outer)) pkt;
    `Handled
  | None -> (
    match served_by t pkt pkt.Packet.flow.Five_tuple.src with
    | Some s -> (
      match Packet.clear_nsh pkt with
      | Some ({ Packet.carried_state = Some blob; _ } as nsh) ->
        (match State.decode blob with
        | Error _ -> Vswitch.count_drop t.vs Nf.No_route
        | Ok state -> run_one t s (To_peer (nsh, state)) pkt);
        `Handled
      | Some _ | None -> `Continue)
    | None -> `Continue)

(* The batch driver, as the batch net hook.  [batch] arrives still
   encapsulated: classification reads the inner and NSH fields, decaps
   only the packets it keeps, and hands the still-encapsulated leftover
   back.  The kept packets resolve in order under one SmartNIC charge
   and finish in order into one outgoing burst. *)
let process_batch t batch =
  if Pbatch.is_empty batch then begin
    Pbatch.recycle batch;
    None
  end
  else begin
    let t0 = Sim.now (Vswitch.sim t.vs) in
    let leftover = ref None in
    let cycles = ref 0 and handled = ref 0 and steps = ref [] in
    let run s work pkt =
      incr handled;
      cycles := !cycles + resolve t s work pkt;
      let route = t.found_route and pre = t.found_pre in
      steps := (fun out -> finish t s work ~route ~pre ~t0 ~out pkt) :: !steps
    in
    Pbatch.iter batch (fun pkt ->
        match served_by t pkt pkt.Packet.flow.Five_tuple.dst with
        | Some s -> run s (To_be (outer_src_of (Packet.decap_vxlan pkt))) pkt
        | None -> (
          match (served_by t pkt pkt.Packet.flow.Five_tuple.src, pkt.Packet.nsh) with
          | Some s, Some { Packet.carried_state = Some blob; _ } -> (
            ignore (Packet.decap_vxlan pkt : Packet.vxlan option);
            let nsh = match Packet.clear_nsh pkt with Some m -> m | None -> Packet.empty_nsh in
            match State.decode blob with
            | Error _ -> Vswitch.count_drop t.vs Nf.No_route
            | Ok state -> run s (To_peer (nsh, state)) pkt)
          | (Some _ | None), _ ->
            let lb =
              match !leftover with
              | Some lb -> lb
              | None ->
                let lb = Pbatch.alloc () in
                leftover := Some lb;
                lb
            in
            Pbatch.push lb pkt));
    if !handled = 0 then Pbatch.recycle batch
    else begin
      Stats.Counter.add t.counters.remote_cycles !cycles;
      let steps = List.rev !steps in
      let accepted =
        Vswitch.charge_batch t.vs ~cycles:!cycles ~npkts:!handled (fun _ ->
            let burst = Pbatch.alloc () in
            let out = Some burst in
            List.iter (fun step -> step out) steps;
            Vswitch.emit_batch t.vs burst;
            Pbatch.recycle batch)
      in
      if not accepted then Pbatch.recycle batch
    end;
    !leftover
  end

let reattach t =
  Vswitch.set_net_hook t.vs (Some (fun pkt ~outer -> process t pkt ~outer));
  Vswitch.set_net_hook_batch t.vs (Some (fun batch -> process_batch t batch))

let install vs =
  let t =
    {
      vs;
      served = Vnic.Addr.Table.create 8;
      counters =
        {
          remote_cycles = Stats.Counter.create ();
          rule_lookups = Stats.Counter.create ();
          fast_hits = Stats.Counter.create ();
          notify_sent = Stats.Counter.create ();
          rx_forwarded = Stats.Counter.create ();
          tx_finalized = Stats.Counter.create ();
          hop_acks_sent = Stats.Counter.create ();
        };
      found_route = Unroutable;
      found_pre = Pre_action.default ~vni:0;
    }
  in
  reattach t;
  (* Cached-flow aging pump for the served regions. *)
  let p = Vswitch.params vs in
  Sim.every (Vswitch.sim vs) ~period:(p.Params.flow_aging /. 4.0) (fun sim ->
      let now = Sim.now sim in
      Vnic.Addr.Table.iter
        (fun _ s ->
          ignore
            (Flow_table.expire s.flows ~now ~on_expire:(fun _ _ ->
                 Smartnic.mem_release (Vswitch.nic vs) (flow_entry_bytes t))
              : int))
        t.served;
      true);
  t

let vswitch t = t.vs

let release_served t s =
  Flow_table.iter s.flows (fun _ _ ->
      Smartnic.mem_release (Vswitch.nic t.vs) (flow_entry_bytes t));
  Flow_table.clear s.flows;
  Smartnic.mem_release (Vswitch.nic t.vs) s.rule_bytes

let serve t ~vnic ~ruleset ~be =
  let addr = Vnic.addr vnic in
  (match Vnic.Addr.Table.find_opt t.served addr with
  | Some old -> release_served t old
  | None -> ());
  Vnic.Addr.Table.remove t.served addr;
  let bytes = Ruleset.memory_bytes ruleset in
  if Smartnic.mem_reserve (Vswitch.nic t.vs) bytes then begin
    let p = params t in
    let s =
      {
        vnic;
        ruleset;
        be;
        flows =
          Flow_table.create ~entry_overhead:0
            ~value_bytes:(fun _ -> flow_entry_bytes t)
            ~default_aging:p.Params.flow_aging ();
        rule_bytes = bytes;
      }
    in
    Vnic.Addr.Table.replace t.served addr s;
    Admission.ok
  end
  else Admission.no_memory

let unserve t addr =
  match Vnic.Addr.Table.find_opt t.served addr with
  | None -> ()
  | Some s ->
    release_served t s;
    Vnic.Addr.Table.remove t.served addr

(* The hosting process died: every served blob (pushed rules + cached
   flows) was in process/NIC memory and is gone, so its reservations
   must be released *now* to keep the SmartNIC ledger honest.  The Fe
   object survives — [reattach] rewires the packet hooks the vSwitch
   wipe cleared, and the controller re-[serve]s on reconciliation. *)
let reset t =
  Vnic.Addr.Table.iter (fun _ s -> release_served t s) t.served;
  Vnic.Addr.Table.reset t.served

let serves t addr = Vnic.Addr.Table.mem t.served addr
let served_count t = Vnic.Addr.Table.length t.served
let served_vnics t = Vnic.Addr.Table.fold (fun a _ acc -> a :: acc) t.served []

let set_be t addr be =
  match Vnic.Addr.Table.find_opt t.served addr with
  | Some s -> s.be <- be
  | None -> ()

let ruleset_of t addr =
  Option.map (fun s -> s.ruleset) (Vnic.Addr.Table.find_opt t.served addr)

let invalidate_cached_flows t addr =
  match Vnic.Addr.Table.find_opt t.served addr with
  | None -> ()
  | Some s ->
    let current = Ruleset.generation s.ruleset in
    let victims = ref [] in
    Flow_table.iter s.flows (fun k c -> if c.generation <> current then victims := k :: !victims);
    List.iter
      (fun k ->
        if Flow_table.remove s.flows k then
          Smartnic.mem_release (Vswitch.nic t.vs) (flow_entry_bytes t))
      !victims

let counters t = t.counters

let cached_flow_count t =
  Vnic.Addr.Table.fold (fun _ s acc -> acc + Flow_table.length s.flows) t.served 0

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  let prefix = "fe/" ^ Vswitch.name t.vs ^ "/" in
  let counter name c = T.attach_counter reg ~name:(prefix ^ name) c in
  counter "remote_cycles" t.counters.remote_cycles;
  counter "rule_lookups" t.counters.rule_lookups;
  counter "fast_hits" t.counters.fast_hits;
  counter "notify_sent" t.counters.notify_sent;
  counter "rx_forwarded" t.counters.rx_forwarded;
  counter "tx_finalized" t.counters.tx_finalized;
  counter "hop_acks_sent" t.counters.hop_acks_sent;
  T.register_gauge reg ~name:(prefix ^ "cached_flows") (fun () ->
      float_of_int (cached_flow_count t));
  T.register_gauge reg ~name:(prefix ^ "served_vnics") (fun () ->
      float_of_int (served_count t))
