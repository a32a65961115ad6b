(* Allocation budgets of the packet path's building blocks, as exact
   minor-heap word counts.  Each probe runs its operation [reps] times
   and compares [Gc.minor_words] before and after, so a single stray
   word per call shows up as [reps] words. *)

open Nezha_engine
open Nezha_net
open Nezha_tables

let reps = 1000

(* Words allocated per call of [f], measured over [reps] calls.  The
   counter itself is read unboxed, so an empty [f] measures 0. *)
let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let check_words name expected f =
  Alcotest.(check (float 0.0)) name expected (words_per_call f)

let ip = Ipv4.of_string_exn

(* A non-canonical tuple (source above destination) exercises the
   swapped-order hash. *)
let flow =
  Five_tuple.make ~src:(ip "10.0.0.9") ~dst:(ip "10.0.0.2") ~src_port:5555 ~dst_port:80
    ~proto:Five_tuple.Tcp

let key = Flow_key.of_packet_fields ~vpc:(Vpc.make 7) ~flow
let key' = Flow_key.of_packet_fields ~vpc:(Vpc.make 7) ~flow:(Five_tuple.reverse flow)

let sink = ref 0

let test_probe_is_exact () = check_words "empty probe" 0.0 (fun () -> ())

let test_hashes () =
  check_words "Five_tuple.hash" 0.0 (fun () -> sink := Five_tuple.hash flow);
  check_words "Five_tuple.session_hash" 0.0 (fun () -> sink := Five_tuple.session_hash flow);
  check_words "Flow_key.hash" 0.0 (fun () -> sink := Flow_key.hash key);
  check_words "Flow_key.equal" 0.0 (fun () ->
      if Flow_key.equal key key' then incr sink)

let noop (_ : Sim.t) = ()

let test_sim_post_step () =
  let sim = Sim.create () in
  (* Warm: the event pool holds a record and the heap has its array. *)
  Sim.post sim ~delay:1.0 noop;
  ignore (Sim.step sim : bool);
  (* [noop] is a static closure and the delay a constant, so whatever
     is left is the boxed event time — the engine itself adds nothing. *)
  check_words "post + step" 2.0 (fun () ->
      Sim.post sim ~delay:1.0 noop;
      ignore (Sim.step sim : bool));
  check_words "post_at + step" 0.0 (fun () ->
      Sim.post_at sim ~time:(Sim.now sim) noop;
      ignore (Sim.step sim : bool))

let test_flow_table_touch_same_slot () =
  let t =
    Flow_table.create ~entry_overhead:0 ~value_bytes:(fun _ -> 0) ~default_aging:8.0 ()
  in
  ignore (Flow_table.insert t ~now:0.0 key () : Admission.t);
  let now = 0.01 in
  (* The deadline moves within its 1 s slot: the timer is reused, and
     the only words are the boxed deadline handed to the wheel. *)
  check_words "same-slot touch" 2.0 (fun () ->
      if not (Flow_table.touch t ~now key) then Alcotest.fail "entry vanished");
  check_words "get" 0.0 (fun () -> Flow_table.get t key')

(* Live words of a table built fresh and never used.  The session
   table, its aging wheel and the megaflow cache allocate their storage
   on the first insert, so the thousands of idle vSwitches of a region
   hold empty placeholders only.  Sized eagerly, the same three held
   303, 1,350 and 432 words. *)
let live_words v = Obj.reachable_words (Obj.repr v)

let test_idle_footprint () =
  let open Nezha_vswitch in
  let wheel : unit Timer_wheel.t = Timer_wheel.create ~tick:1.0 ~slots:256 in
  Alcotest.(check int) "idle timer wheel" 15 (live_words wheel);
  let t =
    Flow_table.create ~entry_overhead:0 ~value_bytes:(fun _ -> 0) ~default_aging:8.0 ()
  in
  Alcotest.(check int) "idle flow table" 55 (live_words t);
  Alcotest.(check int) "idle ruleset" 193 (live_words (Ruleset.create ~vni:1 ()));
  (* The first insert sizes the table; it then behaves as before. *)
  Alcotest.(check bool) "insert" true (Flow_table.insert t ~now:0.0 key 7 = Admission.ok);
  Alcotest.(check bool) "storage allocated" true (live_words t > 1000);
  Alcotest.(check (option int)) "find" (Some 7) (Flow_table.find t key');
  Alcotest.(check bool) "touch" true (Flow_table.touch t ~now:4.0 key);
  let expired = ref [] in
  let on_expire _ v = expired := v :: !expired in
  Alcotest.(check int) "alive before its aging" 0 (Flow_table.expire t ~now:11.0 ~on_expire);
  Alcotest.(check int) "expires after" 1 (Flow_table.expire t ~now:14.0 ~on_expire);
  Alcotest.(check (list int)) "expired value" [ 7 ] !expired;
  Alcotest.(check (option int)) "gone" None (Flow_table.find t key)

(* One warm local TX fast-path packet end to end: [Vswitch.from_vm]
   (session hit, cycle accounting, SmartNIC submission), the job's
   completion (NF step, in-place state write, encapsulation) and the
   emit into a no-op sink.  The packet is reused, with its outer header
   cleared, so the probe counts only what the datapath allocates. *)
let test_local_tx_fast_path () =
  let open Nezha_vswitch in
  let sim = Sim.create () in
  let vs =
    Vswitch.create ~sim ~params:Params.default ~name:"vs0" ~underlay_ip:(ip "192.168.0.1")
      ~gateway:(ip "192.168.255.254") ()
  in
  Vswitch.set_sink vs { Vswitch.on_output = ignore; on_net_batch = Pbatch.recycle };
  let vpc = Vpc.make 7 in
  let vnic = Vnic.make ~id:1 ~vpc ~ip:(ip "10.0.0.9") ~mac:(Mac.of_int64 1L) in
  let rs = Ruleset.create ~vni:7 () in
  Ruleset.add_route rs (Ipv4.Prefix.make (ip "10.0.0.0") 8);
  Ruleset.add_mapping rs { Vnic.Addr.vpc; ip = ip "10.0.0.2" } (ip "192.168.0.2");
  (match Vswitch.add_vnic vs vnic rs with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "vnic must fit");
  let pkt = Packet.create ~vpc ~flow ~direction:Packet.Tx ~flags:Packet.ack () in
  (* Fire the aging pump's first sweep, so each step below runs the
     SmartNIC job of the packet just sent. *)
  Sim.run sim ~until:0.0;
  let send () =
    pkt.Packet.vxlan <- None;
    Vswitch.from_vm vs vnic.Vnic.id pkt;
    ignore (Sim.step sim : bool)
  in
  (* The first packet takes the slow path and stores the session; the
     next few grow the engine's event pool and heap to their working
     size. *)
  for _ = 1 to 8 do
    send ()
  done;
  let c = Vswitch.counters vs in
  let hits0 = Stats.Counter.value c.Vswitch.fast_path_hits in
  (* Measured before the dataplane stages shared one pipeline between
     the single-packet and batch drivers; a reused batch-of-1 or a
     wider continuation closure shows up here. *)
  check_words "from_vm + job + emit" 44.0 send;
  Alcotest.(check int)
    "every probe packet hit the fast path" (reps + 1)
    (Stats.Counter.value c.Vswitch.fast_path_hits - hits0);
  Alcotest.(check int) "every probe packet was forwarded" (reps + 9)
    (Stats.Counter.value c.Vswitch.forwarded)

let () =
  Alcotest.run "alloc"
    [
      ( "words",
        [
          Alcotest.test_case "probe is exact" `Quick test_probe_is_exact;
          Alcotest.test_case "flow hashes and equality" `Quick test_hashes;
          Alcotest.test_case "sim post + step" `Quick test_sim_post_step;
          Alcotest.test_case "flow table same-slot touch" `Quick
            test_flow_table_touch_same_slot;
          Alcotest.test_case "local TX fast-path packet" `Quick test_local_tx_fast_path;
          Alcotest.test_case "idle table footprint" `Quick test_idle_footprint;
        ] );
    ]
