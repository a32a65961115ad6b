(* Chaos walkthrough: run the offloaded testbed on a deliberately nasty
   underlay — probabilistic loss, an FE SmartNIC crash and a hard server
   partition — and watch the loss-recovery machinery hold the line: BE
   hop retransmissions re-steer around dead FEs, the monitor detects and
   replaces them, and healing drains the damage.

     dune exec examples/chaos_demo.exe *)

open Nezha_engine
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_harness
open Nezha_workloads

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  let t = Testbed.create ~seed:42 () in
  let o = Testbed.offload t () in
  Controller.start t.Testbed.ctl;
  let t0 = Sim.now t.Testbed.sim in
  let faults = t.Testbed.faults in
  let fes0 = Controller.offload_fe_servers o in
  say "Offloaded to FEs on servers %s; fault plane armed (seed 42)."
    (String.concat ", " (List.map string_of_int fes0));

  (* Steady connection load through the pool. *)
  Array.iter
    (fun client ->
      ignore
        (Tcp_crr.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
           ~client ~server:t.Testbed.server ~rate:300.0 ~duration:12.0 ()
          : Tcp_crr.t))
    t.Testbed.clients;

  (* The scripted schedule, relative to the post-offload clock. *)
  Faults.at faults ~time:(t0 +. 1.0) (fun f ->
      say "t=1.0s  IMPAIR: every underlay hop now drops 0.5%% of packets";
      Faults.set_default f (Faults.impair ~loss:0.005 ()));
  let victim = List.hd fes0 in
  Sim.post_at t.Testbed.sim ~time:(t0 +. 3.0) (fun sim ->
      say "t=%.1fs  CRASH: SmartNIC on FE server %d dies" (Sim.now sim -. t0) victim;
      Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric victim)));
  let cut = ref (-1) in
  Faults.at faults ~time:(t0 +. 6.0) (fun f ->
      match Controller.offload_fe_servers o with
      | s :: _ ->
        cut := s;
        say "t=6.0s  PARTITION: server %d unreachable in both directions" s;
        Faults.cut_server f s
      | [] -> ());
  Faults.at faults ~time:(t0 +. 9.0) (fun f ->
      if !cut >= 0 then begin
        say "t=9.0s  HEAL: partition repaired";
        Faults.heal_server f !cut
      end);
  Faults.at faults ~time:(t0 +. 11.0) (fun f ->
      say "t=11.0s PERFECT: impairments cleared";
      Faults.set_default f Faults.perfect);

  (* Narrate the FE set as failover reshapes it. *)
  let last_fes = ref fes0 in
  Sim.every t.Testbed.sim ~period:0.5 (fun sim ->
      let now = Sim.now sim -. t0 in
      if now <= 13.0 then begin
        let fes = Controller.offload_fe_servers o in
        if fes <> !last_fes then begin
          say "t=%.1fs  FE set changed: %s -> %s" now
            (String.concat "," (List.map string_of_int !last_fes))
            (String.concat "," (List.map string_of_int fes));
          last_fes := fes
        end;
        true
      end
      else false);

  Sim.run t.Testbed.sim ~until:(t0 +. 14.0);

  let be = Controller.offload_be o in
  let c = Be.counters be in
  let v n = Stats.Counter.value n in
  let mon = Controller.monitor t.Testbed.ctl in
  say "";
  say "BE hop tracker: %d tracked = %d acked + %d local fallback + %d dropped + %d outstanding"
    (v c.Be.offload_tracked) (v c.Be.offload_acked) (v c.Be.local_fallback)
    (v c.Be.offload_dropped) (Be.outstanding be);
  say "Recovery: %d timeouts, %d retransmissions (%d re-steered to another FE)"
    (v c.Be.offload_timeouts) (v c.Be.offload_retx) (v c.Be.offload_resteered);
  say "Fault plane: %d probabilistic drops, %d partition drops"
    (Faults.drops_injected faults) (Faults.partition_drops faults);
  say "Monitor: %d probes missed, %d failure(s) declared"
    (Monitor.probes_missed mon) (Monitor.failures_declared mon);
  say "Connections accepted end-to-end: %d — chaos absorbed, no blackhole."
    (Vm.connections_accepted t.Testbed.server.Tcp_crr.vm)
