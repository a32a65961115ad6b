(* Controller edge cases: error paths, idempotence guards, capacity
   limits, and bookkeeping invariants. *)

open Nezha_engine
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let is_error = function Error _ -> true | Ok _ -> false

let offload_now t =
  Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
    ~vnic:Testbed.heavy_vnic_id ()

(* ------------------------------------------------------------------ *)

let test_double_offload_rejected () =
  let t = Testbed.create () in
  (match offload_now t with Ok _ -> () | Error e -> Alcotest.fail e);
  check_bool "second offload rejected" true (is_error (offload_now t));
  Sim.run t.Testbed.sim ~until:5.0;
  check_bool "still rejected after completion" true (is_error (offload_now t));
  check_int "only one offload event" 1 (Controller.offload_events t.Testbed.ctl)

let test_offload_unknown_vnic () =
  let t = Testbed.create () in
  check_bool "unknown vnic" true
    (is_error
       (Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
          ~vnic:(Vnic.id_of_int 777) ()));
  check_bool "bad server" true
    (is_error (Controller.offload_vnic t.Testbed.ctl ~server:9999 ~vnic:Testbed.heavy_vnic_id ()))

let test_double_fallback_rejected () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "second fallback rejected while in progress" true
    (is_error (Controller.fallback_vnic t.Testbed.ctl o));
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_bool "and after completion (offload gone)" true
    (is_error (Controller.fallback_vnic t.Testbed.ctl o))

let test_offload_after_fallback_works () =
  (* The full round trip is repeatable. *)
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  let o2 = Testbed.offload t () in
  check_int "four FEs again" 4 (List.length (Controller.offload_fe_servers o2));
  check_int "two offload events" 2 (Controller.offload_events t.Testbed.ctl)

let test_migrate_errors () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  check_bool "target without vswitch" true
    (is_error (Controller.migrate_be t.Testbed.ctl o ~to_server:9999));
  (* A server can't re-host the vNIC it already has. *)
  check_bool "same server rejected" true
    (is_error (Controller.migrate_be t.Testbed.ctl o ~to_server:t.Testbed.heavy_server));
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_bool "migrate after fallback rejected" true
    (is_error (Controller.migrate_be t.Testbed.ctl o ~to_server:5))

let test_pin_errors () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  let flow =
    Nezha_net.Five_tuple.make ~src:Testbed.heavy_ip
      ~dst:t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.ip ~src_port:1 ~dst_port:2
      ~proto:Nezha_net.Five_tuple.Udp
  in
  check_bool "pin on inactive offload rejected" true
    (is_error (Controller.pin_elephant t.Testbed.ctl o flow))

let test_scale_out_limits () =
  let t = Testbed.create ~racks:2 ~servers_per_rack:4 ~clients:2 () in
  (* 8 servers: any idle vSwitch but the BE qualifies, clients included
     (they are barely loaded) — 7 candidates. *)
  let o = Testbed.offload t ~num_fes:4 () in
  check_int "zero add is zero" 0 (Controller.scale_out t.Testbed.ctl o ~add:0);
  let added = Controller.scale_out t.Testbed.ctl o ~add:10 in
  check_int "supply-bounded" 3 added;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_int "seven FEs total" 7 (List.length (Controller.offload_fe_servers o))

let test_offload_more_fes_than_pool () =
  let t = Testbed.create ~racks:2 ~servers_per_rack:4 ~clients:2 () in
  match
    Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
      ~vnic:Testbed.heavy_vnic_id ~num_fes:64 ()
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Sim.run t.Testbed.sim ~until:5.0;
    check_int "capped at the candidate supply" 7 (List.length (Controller.offload_fe_servers o))

let test_completion_bookkeeping () =
  let t = Testbed.create () in
  for _ = 1 to 3 do
    let o = Testbed.offload t () in
    (match Controller.fallback_vnic t.Testbed.ctl o with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0)
  done;
  check_int "three completions recorded" 3
    (Stats.Histogram.count (Controller.completion_times_ms t.Testbed.ctl));
  check_int "three events" 3 (Controller.offload_events t.Testbed.ctl);
  check_int "twelve FEs provisioned" 12 (Controller.fes_provisioned t.Testbed.ctl);
  let avg = Stats.Histogram.mean (Controller.completion_times_ms t.Testbed.ctl) in
  check_bool "activation on the second scale" true (avg > 200.0 && avg < 5000.0)

let test_utilization_views_sane () =
  let t = Testbed.create () in
  List.iter
    (fun s ->
      let cpu = Controller.last_cpu t.Testbed.ctl s and mem = Controller.last_mem t.Testbed.ctl s in
      check_bool "cpu in range" true (cpu >= 0.0 && cpu <= 1.0);
      check_bool "mem in range" true (mem >= 0.0 && mem <= 1.0))
    (Topology.servers (Fabric.topology t.Testbed.fabric));
  check_bool "unknown server pessimistic" true (Controller.last_cpu t.Testbed.ctl 9999 >= 1.0)

let test_update_rules_during_dual_running () =
  let t = Testbed.create () in
  match offload_now t with
  | Error e -> Alcotest.fail e
  | Ok o ->
    (* Still configuring: BE tables local, no FE replicas yet.  The
       update must not crash and must reach the master copy. *)
    Controller.update_tenant_rules t.Testbed.ctl o (fun rs ->
        Ruleset.add_route rs (Nezha_net.Ipv4.Prefix.make (Nezha_net.Ipv4.of_octets 172 16 0 0) 12));
    Sim.run t.Testbed.sim ~until:5.0;
    check_bool "offload still completed" true (Controller.offload_stage o = Be.Final);
    (* The FE replicas were cloned from the updated master. *)
    let addr = { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip } in
    let probe =
      Nezha_net.Five_tuple.make ~src:Testbed.heavy_ip
        ~dst:(Nezha_net.Ipv4.of_octets 172 16 0 5) ~src_port:1000 ~dst_port:80
        ~proto:Nezha_net.Five_tuple.Tcp
    in
    List.iter
      (fun s ->
        match Controller.fe_service t.Testbed.ctl s with
        | Some fe -> (
          match Fe.ruleset_of fe addr with
          | Some replica ->
            check_bool "replica has the new route" true
              (Ruleset.lookup replica ~params:Params.scaled ~vpc:t.Testbed.vpc ~flow_tx:probe
              <> None)
          | None -> Alcotest.fail "replica missing")
        | None -> ())
      (Controller.offload_fe_servers o)

(* ------------------------------------------------------------------ *)
(* p2c placement policy and the SLO loop (ROADMAP item 4) *)

let test_p2c_policy_places_offload () =
  let cfg =
    { Controller.default_config with Controller.placement = Placement.Power_of_two }
  in
  let t = Testbed.create ~controller_config:cfg () in
  Controller.start t.Testbed.ctl;
  let o = Testbed.offload t () in
  let fes = Controller.offload_fe_servers o in
  check_int "four FEs" 4 (List.length fes);
  check_int "distinct FEs" 4 (List.length (List.sort_uniq compare fes));
  check_bool "BE is not an FE" true (not (List.mem t.Testbed.heavy_server fes));
  List.iter
    (fun s ->
      check_bool "load signal non-negative" true
        (Controller.load_signal t.Testbed.ctl s >= 0.0))
    fes;
  (* Same seed, same draw: p2c placement is deterministic. *)
  let t2 = Testbed.create ~controller_config:cfg () in
  Controller.start t2.Testbed.ctl;
  let o2 = Testbed.offload t2 () in
  Alcotest.(check (list int)) "seed-deterministic placement" fes
    (Controller.offload_fe_servers o2)

let test_slo_loop_scales_out_on_tight_budget () =
  (* A 1 µs budget no real hop can meet: every post-warmup tick wants
     capacity, so the pool must climb to the candidate supply. *)
  let slo =
    {
      Slo.default_config with
      Slo.target_p99 = 1e-6;
      cooldown = 2.0;
      warmup = 1.0;
      min_pool = 2;
      max_pool = 7;
      max_step = 1;
    }
  in
  let cfg = { Controller.default_config with Controller.slo = Some slo } in
  let t = Testbed.create ~racks:2 ~servers_per_rack:4 ~clients:2 ~controller_config:cfg () in
  Controller.start t.Testbed.ctl;
  let o = Testbed.offload t () in
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:12.0 () : Nezha_workloads.Tcp_crr.t);
  let slo_state = Option.get (Controller.slo t.Testbed.ctl) in
  check_bool "scale-outs happened" true (Slo.scale_outs slo_state > 0);
  check_bool "pool grew beyond the initial four" true
    (List.length (Controller.offload_fe_servers o) > 4);
  check_bool "pool gauge agrees" true (Controller.slo_pool_size t.Testbed.ctl > 4)

let test_slo_loop_scales_in_to_the_floor () =
  (* A 10 s budget every hop beats: the loop must drain the pool, and
     stop exactly at the serving minimum. *)
  let slo =
    {
      Slo.default_config with
      Slo.target_p99 = 10.0;
      cooldown = 2.0;
      warmup = 1.0;
      min_pool = 2;
      max_pool = 8;
      max_step = 1;
    }
  in
  let cfg =
    { Controller.default_config with Controller.slo = Some slo; min_fes = 2 }
  in
  let t = Testbed.create ~controller_config:cfg () in
  Controller.start t.Testbed.ctl;
  let o = Testbed.offload t () in
  check_int "starts at four FEs" 4 (List.length (Controller.offload_fe_servers o));
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:15.0 () : Nezha_workloads.Tcp_crr.t);
  let slo_state = Option.get (Controller.slo t.Testbed.ctl) in
  check_bool "scale-ins happened" true (Slo.scale_ins slo_state > 0);
  check_int "drained exactly to the serving minimum" 2
    (List.length (Controller.offload_fe_servers o))

(* A scale-out whose config RPC is abandoned must not leave the
   candidate configured outside the FE set: the replica was installed
   before the RPC, so the abandoned join has to release it (and stop
   probing a server that no longer hosts any FE). *)
let test_scale_out_abandoned_rpc_releases () =
  let t = Testbed.create ~seed:3 () in
  let ctl = t.Testbed.ctl in
  let o = Testbed.offload t () in
  let members = Controller.offload_fe_servers o in
  let servers = Topology.servers (Fabric.topology t.Testbed.fabric) in
  List.iter
    (fun s ->
      if not (List.mem s members) then
        Faults.cut_link t.Testbed.faults ~src:Faults.Gateway ~dst:(Faults.Server s))
    servers;
  ignore (Controller.scale_out ctl o ~add:1 : int);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 20.0);
  let fes = Controller.offload_fe_servers o in
  let addr = { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip } in
  let orphans =
    List.filter
      (fun s ->
        (not (List.mem s fes))
        &&
        match Controller.fe_service ctl s with
        | Some fe -> Fe.serves fe addr
        | None -> false)
      servers
  in
  Alcotest.(check (list int)) "no replica outside the FE set" [] orphans;
  check_bool "the config RPC was abandoned" true (Controller.rpc_failures ctl >= 1);
  check_int "monitor watches only the FE set" (List.length fes)
    (Monitor.watched (Controller.monitor ctl))

(* ------------------------------------------------------------------ *)
(* Behaviour fingerprint: one scripted run through every control
   mechanic (offload, scale-out, targeted and whole-server scale-in,
   monitor failover, BE migration, elephant pinning, crash and
   reconcile, anti-entropy repair of an FE replica and of the BE
   tracker, HA takeover), pinned to the exact FE sets and counters it
   produces.  No RPC is abandoned on this path. *)

let test_control_fingerprint () =
  let t = Testbed.create ~seed:5 () in
  let sim = t.Testbed.sim and fabric = t.Testbed.fabric in
  let primary = t.Testbed.ctl in
  let standby =
    Controller.create ~config:(Controller.config primary) ~fabric
      ~rng:(Rng.split t.Testbed.rng) ()
  in
  let ha = Ha.create ~fabric ~primary ~standby () in
  Ha.start ha;
  let run dt = Sim.run sim ~until:(Sim.now sim +. dt) in
  let addr = { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip } in
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let ints l = String.concat ";" (List.map string_of_int l) in
  let o = Testbed.offload t () in
  let fes () = Controller.offload_fe_servers o in
  note "offload %s" (ints (fes ()));
  note "scale_out %d" (Controller.scale_out primary o ~add:1);
  run 2.0;
  note "after scale_out %s" (ints (fes ()));
  note "scale_in_offload %d" (Controller.scale_in_offload primary o ~remove:1);
  run 1.0;
  note "after scale_in_offload %s" (ints (fes ()));
  Controller.scale_in_server primary (List.hd (fes ()));
  run 2.0;
  note "after scale_in_server %s" (ints (fes ()));
  let victim = List.nth (fes ()) 1 in
  Smartnic.crash (Vswitch.nic (Fabric.vswitch fabric victim));
  run 3.0;
  note "after failover of %d: %s" victim (ints (fes ()));
  let target =
    List.find
      (fun s ->
        s <> Controller.offload_be_server o
        && (not (List.mem s (fes ())))
        && s <> victim
        && Fabric.vswitch_opt fabric s <> None)
      (Topology.servers (Fabric.topology fabric))
  in
  (match Controller.migrate_be primary o ~to_server:target with
  | Ok () -> note "migrated BE to %d" target
  | Error e -> Alcotest.fail e);
  run 1.0;
  let flow =
    Nezha_net.Five_tuple.make ~src:Testbed.heavy_ip
      ~dst:t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.ip ~src_port:4000 ~dst_port:80
      ~proto:Nezha_net.Five_tuple.Tcp
  in
  (match Controller.pin_elephant primary o flow with
  | Ok s -> note "pinned on %d" s
  | Error e -> Alcotest.fail e);
  run 1.0;
  let crashed = List.hd (fes ()) in
  Faults.crash_server t.Testbed.faults ~reboot_after:0.2 crashed;
  run 2.0;
  note "after crash of %d: %s conservation %b" crashed (ints (fes ()))
    (Controller.check_conservation primary);
  (match Controller.fe_service primary (List.nth (fes ()) 2) with
  | Some fe -> Fe.unserve fe addr
  | None -> Alcotest.fail "no FE service");
  Be.crash (Controller.offload_be o);
  run 3.0;
  note "after anti-entropy %s conservation %b" (ints (fes ()))
    (Controller.check_conservation primary);
  let counters name c =
    let h = Controller.completion_times_ms c in
    note "%s offloads %d scale_outs %d fes %d rpcs %d failed %d reconciles %d repairs %d \
          watched %d completions %d mean %.6f"
      name (Controller.offload_events c) (Controller.scale_out_events c)
      (Controller.fes_provisioned c) (Controller.rpc_attempts c) (Controller.rpc_failures c)
      (Controller.reconciles c) (Controller.repairs c)
      (Monitor.watched (Controller.monitor c)) (Stats.Histogram.count h)
      (if Stats.Histogram.count h = 0 then 0.0 else Stats.Histogram.mean h)
  in
  counters "primary" primary;
  Ha.crash_primary ha;
  run 3.0;
  note "takeovers %d registry %d" (Ha.takeovers ha)
    (Controller.Registry.entries (Ha.registry ha));
  (match Controller.offloads standby with
  | [ o' ] ->
    note "adopted %s be %d" (ints (Controller.offload_fe_servers o'))
      (Controller.offload_be_server o');
    note "standby scale_out %d" (Controller.scale_out standby o' ~add:1);
    run 2.0;
    note "standby fes %s conservation %b"
      (ints (Controller.offload_fe_servers o'))
      (Controller.check_conservation standby);
    (match Controller.fallback_vnic standby o' with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    run 1.0;
    let serving =
      List.filter
        (fun s ->
          match Controller.fe_service standby s with
          | Some fe -> Fe.serves fe addr
          | None -> false)
        (Topology.servers (Fabric.topology fabric))
    in
    note "after fallback offloads %d serving [%s] registry %d"
      (List.length (Controller.offloads standby)) (ints serving)
      (Controller.Registry.entries (Ha.registry ha))
  | l -> Alcotest.failf "standby adopted %d offloads" (List.length l));
  counters "standby" standby;
  Alcotest.(check (list string)) "fingerprint"
    [
      "offload 3;2;1;4";
      "scale_out 1";
      "after scale_out 3;2;1;4;5";
      "scale_in_offload 1";
      "after scale_in_offload 2;1;4;5";
      "after scale_in_server 1;4;5;6";
      "after failover of 4: 1;5;6;7";
      "migrated BE to 2";
      "pinned on 0";
      "after crash of 1: 1;5;6;7 conservation true";
      "after anti-entropy 1;5;6;7 conservation true";
      "primary offloads 1 scale_outs 3 fes 7 rpcs 9 failed 0 reconciles 1 repairs 3 \
       watched 5 completions 1 mean 882.012564";
      "takeovers 1 registry 1";
      "adopted 1;5;6;7 be 2";
      "standby scale_out 1";
      "standby fes 1;5;6;7;0 conservation true";
      "after fallback offloads 0 serving [] registry 0";
      "standby offloads 0 scale_outs 1 fes 1 rpcs 2 failed 0 reconciles 1 repairs 0 \
       watched 5 completions 0 mean 0.000000";
    ]
    (List.rev !log)

let () =
  Alcotest.run "controller"
    [
      ( "errors",
        [
          Alcotest.test_case "double offload rejected" `Quick test_double_offload_rejected;
          Alcotest.test_case "unknown vnic/server" `Quick test_offload_unknown_vnic;
          Alcotest.test_case "double fallback rejected" `Quick test_double_fallback_rejected;
          Alcotest.test_case "migrate errors" `Quick test_migrate_errors;
          Alcotest.test_case "pin errors" `Quick test_pin_errors;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "scale-out limits" `Quick test_scale_out_limits;
          Alcotest.test_case "offload capped at pool" `Quick test_offload_more_fes_than_pool;
          Alcotest.test_case "abandoned scale-out RPC releases the replica" `Quick
            test_scale_out_abandoned_rpc_releases;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "offload after fallback" `Quick test_offload_after_fallback_works;
          Alcotest.test_case "completion histogram" `Quick test_completion_bookkeeping;
          Alcotest.test_case "utilization views" `Quick test_utilization_views_sane;
          Alcotest.test_case "rule update during dual-running" `Quick
            test_update_rules_during_dual_running;
          Alcotest.test_case "control mechanics fingerprint" `Quick test_control_fingerprint;
        ] );
      ( "slo",
        [
          Alcotest.test_case "p2c policy places offloads" `Quick
            test_p2c_policy_places_offload;
          Alcotest.test_case "tight budget scales the pool out" `Quick
            test_slo_loop_scales_out_on_tight_budget;
          Alcotest.test_case "loose budget scales in to the floor" `Quick
            test_slo_loop_scales_in_to_the_floor;
        ] );
    ]
