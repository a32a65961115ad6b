open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_workloads
open Nezha_harness

type kind = Crr_local | Crr_offload | Flows_offload | Region_day

let kinds = [ Crr_local; Crr_offload; Flows_offload; Region_day ]

let name = function
  | Crr_local -> "crr_local"
  | Crr_offload -> "crr_offload"
  | Flows_offload -> "flows_offload"
  | Region_day -> "region_day"

let of_name s = List.find_opt (fun k -> name k = s) kinds

let layers = [| "setup"; "offload"; "sim_run"; "fabric"; "be"; "fe" |]
let l_setup = 0
let l_offload = 1
let l_sim = 2
let l_fabric = 3
let l_be = 4
let l_fe = 5

type sample = {
  host_s : float;
  wall_s : float;
  words : float;
  ops : float;
  sim : (string * float) list;
  checks : (string * bool) list;
  sim_attempted : int;
  sim_failed : int;
}

(* Fig. 9's configuration: the CPS point of [Experiments.nezha_cps] and
   the #flows point of [Experiments.measure_flows]. *)
let num_fes = 4
let crr_concurrency = 1024
let crr_duration = 3.0
let crr_drain = 3.0
let flows_target = 140_000
let flows_ramp = 25_000.0
let flows_window = 9.0

let region_config seed = { Region_sim.default_config with Region_sim.seed }

let bracket tracer layer f =
  match tracer with
  | None -> f ()
  | Some tr ->
    Span.enter tr layer;
    let r = f () in
    Span.leave tr;
    r

let ratio num den = if den = 0.0 then 0.0 else num /. den
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* The 6 MB (scaled) rule table of the #flows experiment: it leaves
   ~4.7 MB for sessions locally, and offloading frees it for states. *)
let flows_ruleset () =
  let rs = Ruleset.create ~vni:9 ~fixed_overhead_bytes:(6 * 1024 * 1024 / 4) () in
  Ruleset.add_route rs (Ipv4.Prefix.make (Ipv4.of_octets 10 0 0 0) 8);
  rs

let create kind ~seed =
  match kind with
  | Flows_offload -> Testbed.create ~seed ~ruleset:(flows_ruleset ()) ~clients:4 ()
  | Crr_local | Crr_offload | Region_day -> Testbed.create ~seed ()

let vswitches tb =
  let fabric = tb.Testbed.fabric in
  List.filter_map
    (fun sid -> Option.map (fun vs -> (sid, vs)) (Fabric.vswitch_opt fabric sid))
    (Topology.servers (Fabric.topology fabric))

(* The fabric's own sink, re-assembled from its public delivery
   functions with a span around each call. *)
let wrap_sinks tr tb =
  let fabric = tb.Testbed.fabric in
  List.iter
    (fun (sid, vs) ->
      Vswitch.set_sink vs
        {
          Vswitch.on_output =
            (fun out ->
              Span.enter tr l_fabric;
              (match out with
              | Vswitch.To_net pkt -> Fabric.deliver_to_server fabric ~src:sid pkt
              | Vswitch.To_vm (vid, pkt) -> (
                match Fabric.vm_of fabric sid vid with Some vm -> Vm.deliver vm pkt | None -> ()));
              Span.leave tr);
          on_net_batch =
            (fun batch ->
              Span.enter tr l_fabric;
              Fabric.deliver_batch_to_server fabric ~src:sid batch;
              Span.leave tr);
        })
    (vswitches tb)

let wrap_be tr tb o =
  let be = Controller.offload_be o in
  let traced ctx pkt =
    Span.enter tr l_be;
    let r = Be.Ingress_impl.ingest be ~ctx pkt in
    Span.leave tr;
    r
  in
  Vswitch.set_intercept tb.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id
    (Some
       {
         Vswitch.on_tx = traced Packet.Tx;
         on_rx = traced Packet.Rx;
         on_tx_batch =
           Some
             (fun batch ->
               Span.enter tr l_be;
               Be.handle_tx_batch be batch;
               Span.leave tr);
       })

let fe_services tb o =
  List.filter_map (Controller.fe_service tb.Testbed.ctl) (Controller.offload_fe_servers o)

let wrap_fes tr tb o =
  List.iter
    (fun fe ->
      let vs = Fe.vswitch fe in
      Vswitch.set_net_hook vs
        (Some
           (fun pkt ~outer ->
             Span.enter tr l_fe;
             let r = Fe.process fe pkt ~outer in
             Span.leave tr;
             r));
      Vswitch.set_net_hook_batch vs
        (Some
           (fun batch ->
             Span.enter tr l_fe;
             let r = Fe.process_batch fe batch in
             Span.leave tr;
             r)))
    (fe_services tb o)

let setup_testbed kind ~seed ~tracer =
  let tb = bracket tracer l_setup (fun () -> create kind ~seed) in
  Option.iter (fun tr -> wrap_sinks tr tb) tracer;
  let off =
    match kind with
    | Crr_local | Region_day -> None
    | Crr_offload | Flows_offload ->
      Some (bracket tracer l_offload (fun () -> Testbed.offload tb ~num_fes ()))
  in
  (match (tracer, off) with
  | Some tr, Some o ->
    wrap_be tr tb o;
    wrap_fes tr tb o
  | _ -> ());
  (tb, off)

let setup_only kind ~seed =
  let c0 = Sys.time () in
  (match kind with
  | Region_day ->
    ignore (Region_sim.run { (region_config seed) with Region_sim.duration = 0.0 } : Region_sim.result)
  | Crr_local | Crr_offload | Flows_offload -> ignore (setup_testbed kind ~seed ~tracer:None));
  Sys.time () -. c0

(* ------------------------------------------------------------------ *)
(* Counters read before and after the measured window *)

type snap = {
  delivered : int;
  events : int;
  pool_reused : int;
  pool_fresh : int;
  fast : int;
  slow : int;
  fast_all : int;
  slow_all : int;
  heavy_busy : float;
  fe_busy : float list;
  jobs_dropped : int;
  drops : int;
  lost : int;
  mf_hits : int;
  mf_misses : int;
  fe_fast : int;
  fe_lookups : int;
}

let vms tb =
  tb.Testbed.server.Tcp_crr.vm
  :: List.map (fun c -> c.Tcp_crr.vm) (Array.to_list tb.Testbed.clients)

let rulesets tb off =
  let local = Option.to_list (Vswitch.ruleset tb.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id) in
  match off with
  | None -> local
  | Some o ->
    let addr = Vnic.addr (Be.vnic (Controller.offload_be o)) in
    local @ List.filter_map (fun fe -> Fe.ruleset_of fe addr) (fe_services tb o)

let snapshot tb off =
  let heavy = tb.Testbed.server.Tcp_crr.vs in
  let c = Vswitch.counters heavy in
  let all = List.map snd (vswitches tb) in
  let fes = match off with None -> [] | Some o -> fe_services tb o in
  let rs = rulesets tb off in
  let reused, fresh = Sim.pool_stats tb.Testbed.sim in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  {
    delivered = sum Vm.packets_delivered (vms tb);
    events = Sim.events_executed tb.Testbed.sim;
    pool_reused = reused;
    pool_fresh = fresh;
    fast = Stats.Counter.value c.Vswitch.fast_path_hits;
    slow = Stats.Counter.value c.Vswitch.slow_path_execs;
    fast_all = sum (fun vs -> Stats.Counter.value (Vswitch.counters vs).Vswitch.fast_path_hits) all;
    slow_all = sum (fun vs -> Stats.Counter.value (Vswitch.counters vs).Vswitch.slow_path_execs) all;
    heavy_busy = Smartnic.total_busy_seconds (Vswitch.nic heavy);
    fe_busy = List.map (fun fe -> Smartnic.total_busy_seconds (Vswitch.nic (Fe.vswitch fe))) fes;
    jobs_dropped = sum (fun vs -> Smartnic.jobs_dropped (Vswitch.nic vs)) all;
    drops = sum Vswitch.total_drops all;
    lost = Fabric.lost tb.Testbed.fabric;
    mf_hits = sum Ruleset.megaflow_hits rs;
    mf_misses = sum Ruleset.megaflow_misses rs;
    fe_fast = sum (fun fe -> Stats.Counter.value (Fe.counters fe).Fe.fast_hits) fes;
    fe_lookups = sum (fun fe -> Stats.Counter.value (Fe.counters fe).Fe.rule_lookups) fes;
  }

let layer_counters ~(before : snap) ~(after : snap) ~window ~conns =
  let d f = fi (f after - f before) in
  let pkts = d (fun s -> s.delivered) in
  let reused = d (fun s -> s.pool_reused) and fresh = d (fun s -> s.pool_fresh) in
  let fast = d (fun s -> s.fast) and slow = d (fun s -> s.slow) in
  let fast_all = d (fun s -> s.fast_all) and slow_all = d (fun s -> s.slow_all) in
  let hits = d (fun s -> s.mf_hits) and misses = d (fun s -> s.mf_misses) in
  let fe_fast = d (fun s -> s.fe_fast) and fe_lookups = d (fun s -> s.fe_lookups) in
  let fe_busy_max =
    List.fold_left2 (fun acc b a -> Float.max acc (a -. b)) 0.0 before.fe_busy after.fe_busy
  in
  [
    ("engine.events_per_op", ratio (d (fun s -> s.events)) pkts);
    ("engine.pool_reuse_ratio", ratio reused (reused +. fresh));
    ("vswitch.fast_path_ratio", ratio fast (fast +. slow));
    ("vswitch.fast_path_ratio.all", ratio fast_all (fast_all +. slow_all));
    ("vswitch.slow_path_per_conn", ratio slow conns);
    ("ruleset.megaflow_hit_ratio", ratio hits (hits +. misses));
    ("smartnic.busy_frac.heavy", (after.heavy_busy -. before.heavy_busy) /. window);
    ("smartnic.busy_frac.fe_max", fe_busy_max /. window);
    ("smartnic.jobs_dropped", d (fun s -> s.jobs_dropped));
    ("vswitch.drops", d (fun s -> s.drops));
    ("fabric.lost", d (fun s -> s.lost));
    ("fe.fast_hit_ratio", ratio fe_fast (fe_fast +. fe_lookups));
  ]

let be_metrics tb off =
  match off with
  | None -> ([], [])
  | Some o ->
    let be = Controller.offload_be o in
    let c = Be.counters be in
    let v x = Stats.Counter.value x in
    let tracked = v c.Be.offload_tracked and acked = v c.Be.offload_acked in
    let retx = v c.Be.offload_retx and fallback = v c.Be.local_fallback in
    let dropped = v c.Be.offload_dropped and outstanding = Be.outstanding be in
    let hop = Summary.histogram_percentile (Be.hop_latency_hist be) 99.0 in
    let offload_ms = Stats.Histogram.mean (Controller.completion_times_ms tb.Testbed.ctl) in
    let cached = List.fold_left (fun a fe -> a + Fe.cached_flow_count fe) 0 (fe_services tb o) in
    ( [
        ("be.tracked", fi tracked);
        ("be.acked", fi acked);
        ("be.retx", fi retx);
        ("be.retx_per_tracked", ratio (fi retx) (fi tracked));
        ("be.ack_ratio", ratio (fi acked) (fi (tracked + retx)));
        ("be.hop_rtt_p99_ms", hop.Summary.value *. 1000.0);
        ("be.hop_rtt_samples", fi hop.Summary.samples);
        ("be.local_fallback", fi fallback);
        ("fe.cached_flows", fi cached);
        ("controller.offload_sim_ms", offload_ms);
      ],
      [
        ("be_conservation", tracked = acked + fallback + dropped + outstanding);
        ("controller_conservation", Controller.check_conservation tb.Testbed.ctl);
      ] )

(* ------------------------------------------------------------------ *)
(* One repeat *)

let run_testbed kind ~seed ~tracer =
  let tb, off = setup_testbed kind ~seed ~tracer in
  let sim = tb.Testbed.sim in
  Gc.compact ();
  let before = snapshot tb off in
  let w0 = Gc.minor_words () and c0 = Sys.time () and n0 = Span.now_ns () in
  let window, finish =
    match kind with
    | Crr_local | Crr_offload ->
      (* [Testbed.measure_cps]'s closed loop, keeping the generators. *)
      let n = Array.length tb.Testbed.clients in
      let gens =
        Array.map
          (fun client ->
            Tcp_crr.start_closed ~sim ~rng:(Rng.split tb.Testbed.rng) ~vpc:tb.Testbed.vpc ~client
              ~server:tb.Testbed.server ~concurrency:(crr_concurrency / n) ~duration:crr_duration ())
          tb.Testbed.clients
      in
      let window = crr_duration +. crr_drain in
      bracket tracer l_sim (fun () -> Sim.run sim ~until:(Sim.now sim +. window));
      (window, `Crr gens)
    | Flows_offload ->
      let gen =
        Persistent.start ~sim ~rng:(Rng.split tb.Testbed.rng) ~vpc:tb.Testbed.vpc
          ~client:tb.Testbed.clients.(0) ~server:tb.Testbed.server ~target:flows_target
          ~ramp_rate:flows_ramp ()
      in
      bracket tracer l_sim (fun () -> Sim.run sim ~until:(Sim.now sim +. flows_window));
      (flows_window, `Flows gen)
    | Region_day -> assert false
  in
  let n1 = Span.now_ns () and c1 = Sys.time () and w1 = Gc.minor_words () in
  let after = snapshot tb off in
  let pkts = fi (after.delivered - before.delivered) in
  let outcome, conns, checks, attempted, failed =
    match finish with
    | `Crr gens ->
      let sum f = Array.fold_left (fun acc g -> acc + f g) 0 gens in
      let completed = sum Tcp_crr.completed and established = sum Tcp_crr.established in
      let offered = sum Tcp_crr.offered and lost_conns = sum Tcp_crr.failed in
      let lat = Stats.Histogram.create () in
      Array.iter (fun g -> Stats.Histogram.merge_into ~dst:lat ~src:(Tcp_crr.latencies g)) gens;
      let p50 = Summary.histogram_percentile lat 50.0 and p99 = Summary.histogram_percentile lat 99.0 in
      ( [
          ("sim_cps", fi completed /. crr_duration);
          ("sim_conn_p50_ms", p50.Summary.value *. 1000.0);
          ("sim_conn_p99_ms", p99.Summary.value *. 1000.0);
          ("sim_conn_samples", fi p99.Summary.samples);
          ("sim_conn_p99_beyond", fi p99.Summary.beyond);
          ("crr.offered", fi offered);
          ("crr.established", fi established);
          ("crr.completed", fi completed);
          ("crr.failed", fi lost_conns);
        ],
        fi completed,
        [
          ( "completed_le_established_le_offered",
            Array.for_all
              (fun g ->
                Tcp_crr.completed g <= Tcp_crr.established g
                && Tcp_crr.established g <= Tcp_crr.offered g)
              gens );
        ],
        offered,
        lost_conns )
    | `Flows gen ->
      let live = Persistent.live_flows gen () and opened = Persistent.opened gen in
      let rejected = Persistent.rejected gen in
      Persistent.stop gen;
      ( [
          ("sim_live_flows", fi live);
          ("persistent.opened", fi opened);
          ("persistent.rejected", fi rejected);
        ],
        fi opened,
        [ ("flows_opened_eq_target", opened = flows_target); ("live_le_opened", live <= opened) ],
        opened,
        rejected )
  in
  let be_sim, be_checks = be_metrics tb off in
  {
    host_s = c1 -. c0;
    wall_s = fi (n1 - n0) *. 1e-9;
    words = w1 -. w0;
    ops = pkts;
    sim =
      (("sim_ops_per_s", pkts /. window) :: outcome)
      @ layer_counters ~before ~after ~window ~conns
      @ be_sim;
    checks = (("packets_delivered", pkts > 0.0) :: checks) @ be_checks;
    sim_attempted = attempted;
    sim_failed = failed;
  }

let run_region ~seed ~tracer =
  let cfg = region_config seed in
  Gc.compact ();
  let w0 = Gc.minor_words () and c0 = Sys.time () and n0 = Span.now_ns () in
  let r = bracket tracer l_sim (fun () -> Region_sim.run cfg) in
  let n1 = Span.now_ns () and c1 = Sys.time () and w1 = Gc.minor_words () in
  let ticks = fi r.Region_sim.ticks in
  {
    host_s = c1 -. c0;
    wall_s = fi (n1 - n0) *. 1e-9;
    words = w1 -. w0;
    ops = ticks;
    sim =
      [
        ( "sim_ops_per_s",
          fi (r.Region_sim.ticks - r.Region_sim.overload_ticks) /. cfg.Region_sim.duration );
        ("region.packets_modeled", r.Region_sim.packets_modeled);
        ("sim_overloads", fi r.Region_sim.overloads);
        ("region.overload_ticks", fi r.Region_sim.overload_ticks);
        ("region.ticks", fi r.Region_sim.ticks);
        ("region.detections", fi r.Region_sim.detections);
        ("region.activations", fi r.Region_sim.activations);
        ("region.events", fi r.Region_sim.events);
        ("region.messages", fi r.Region_sim.messages);
        ("region.late_blackholed", fi r.Region_sim.late_blackholed);
        ("region.digest", fi r.Region_sim.digest);
        ("engine.events_per_op", ratio (fi r.Region_sim.events) ticks);
        ( "engine.pool_reuse_ratio",
          ratio (fi r.Region_sim.pool_reused)
            (fi (r.Region_sim.pool_reused + r.Region_sim.pool_fresh)) );
      ];
    checks =
      [
        ("late_blackholed_zero", r.Region_sim.late_blackholed = 0);
        ("events_run", r.Region_sim.events > 0);
      ];
    sim_attempted = r.Region_sim.ticks;
    sim_failed = r.Region_sim.overload_ticks;
  }

let run kind ~seed ?tracer () =
  match kind with
  | Region_day -> run_region ~seed ~tracer
  | Crr_local | Crr_offload | Flows_offload -> run_testbed kind ~seed ~tracer

let is_host_time name =
  List.exists
    (fun suffix -> String.ends_with ~suffix name)
    [ ".ns_per_pkt"; "_ns_per_op"; ".offload_s" ]

let layer_metrics tr sample =
  let totals = Span.self_times tr in
  let per_pkt x = ratio x sample.ops in
  (* A layer the workload never entered is left out, not reported 0. *)
  let entered l = totals.(l).Span.calls > 0 in
  let layer l =
    let t = totals.(l) in
    if not (entered l) then []
    else
      [
        (layers.(l) ^ ".ns_per_pkt", per_pkt (fi t.Span.self_ns));
        (layers.(l) ^ ".words_per_pkt", per_pkt t.Span.self_words);
        (layers.(l) ^ ".calls_per_pkt", per_pkt (fi t.Span.calls));
      ]
  in
  let sim_run = totals.(l_sim) in
  [
    ("engine.residual_ns_per_op", per_pkt (fi sim_run.Span.self_ns));
    ("engine.sim_run_ns_per_op", per_pkt (fi sim_run.Span.total_ns));
  ]
  @ (if entered l_offload then [ ("controller.offload_s", fi totals.(l_offload).Span.total_ns *. 1e-9) ]
     else [])
  @ layer l_fabric @ layer l_be @ layer l_fe
