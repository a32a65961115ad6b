(* The benchmark's own tests: span self-time arithmetic, order
   statistics, and a smoke run of the real workloads. *)

open Perfbench
module Json = Nezha_telemetry.Json
module Histogram = Nezha_engine.Stats.Histogram

let layers = [| "root"; "a"; "b" |]
let rec_ layer parent start_ns end_ns words = { Span.layer; parent; start_ns; end_ns; words }
let close = Alcotest.float 1e-9

let self_of totals l = totals.(l).Span.self_ns

let test_nested () =
  (* root [0,100) holds a [10,40) which holds b [20,30); a second b at
     [50,60) hangs off root directly. *)
  let t =
    Span.of_records ~layers
      [| rec_ 0 (-1) 0 100 50.0; rec_ 1 0 10 40 20.0; rec_ 2 1 20 30 5.0; rec_ 2 0 50 60 4.0 |]
  in
  let totals = Span.self_times t in
  Alcotest.(check int) "root self" 60 (self_of totals 0);
  Alcotest.(check int) "a self" 20 (self_of totals 1);
  Alcotest.(check int) "b self" 20 (self_of totals 2);
  Alcotest.(check int) "b calls" 2 totals.(2).Span.calls;
  Alcotest.(check int) "self times add up to the root" 100
    (Array.fold_left (fun acc l -> acc + l.Span.self_ns) 0 totals);
  Alcotest.check close "root self words" 26.0 totals.(0).Span.self_words;
  Alcotest.check close "a self words" 15.0 totals.(1).Span.self_words

let test_overlap_and_clip () =
  (* Children overlapping each other count once; a child running past
     its parent's end is clipped to it. *)
  let t =
    Span.of_records ~layers
      [| rec_ 0 (-1) 0 100 0.0; rec_ 1 0 10 50 0.0; rec_ 1 0 30 70 0.0; rec_ 2 0 90 130 0.0 |]
  in
  let totals = Span.self_times t in
  Alcotest.(check int) "root self" 30 (self_of totals 0)

let test_live_recorder () =
  let t = Span.create ~layers in
  Span.enter t 0;
  Span.enter t 1;
  ignore (Sys.opaque_identity (Array.make 100 0));
  Span.leave t;
  Span.leave t;
  Alcotest.(check int) "two spans" 2 (Span.count t);
  Alcotest.(check int) "parent link" 0 (Span.get t 1).Span.parent;
  Alcotest.(check bool) "child inside parent" true
    ((Span.get t 1).Span.start_ns >= (Span.get t 0).Span.start_ns
    && (Span.get t 1).Span.end_ns <= (Span.get t 0).Span.end_ns);
  Alcotest.(check bool) "allocation seen" true ((Span.get t 1).Span.words >= 101.0);
  Alcotest.check_raises "unbalanced leave" (Invalid_argument "Span.leave: no open span") (fun () ->
      Span.leave t)

let test_quartiles () =
  let s = Summary.of_samples [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "n" 4 s.Summary.n;
  Alcotest.check close "q1" 1.75 s.Summary.q1;
  Alcotest.check close "median" 2.5 s.Summary.median;
  Alcotest.check close "q3" 3.25 s.Summary.q3;
  let one = Summary.of_samples [ 7.0 ] in
  Alcotest.check close "single sample" 7.0 one.Summary.q1

let test_histogram_percentile () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h (float_of_int i)
  done;
  let p = Summary.histogram_percentile h 99.0 in
  Alcotest.(check int) "samples" 1000 p.Summary.samples;
  Alcotest.(check int) "beyond" 10 p.Summary.beyond;
  Alcotest.(check bool) "value within 1%" true (Float.abs (p.Summary.value -. 990.0) <= 9.9)

(* ------------------------------------------------------------------ *)
(* Smoke: the real workloads through the runner. *)

let field path j =
  List.fold_left (fun j k -> Option.get (Json.member k j)) j path |> Json.to_float_opt |> Option.get

let test_smoke_crr_local () =
  let out =
    Runner.run
      { Runner.kind = Workload.Crr_local; seed = 1; seconds = 0.0; trace = true; spans_out = None }
  in
  Alcotest.(check bool) "correct" true (Json.member "correct" out = Some (Json.Bool true));
  let pl name = Json.member name (Option.get (Json.member "per_layer" out)) in
  Alcotest.(check bool) "fabric costed" true (field [ "per_layer"; "fabric.ns_per_pkt" ] out > 0.0);
  Alcotest.(check bool) "no BE on the local path" true (pl "be.ns_per_pkt" = None);
  Alcotest.(check bool) "no FE on the local path" true (pl "fe.ns_per_pkt" = None);
  let tb = Nezha_harness.Testbed.create ~seed:1 () in
  Alcotest.check close "sim_cps is Testbed.measure_cps"
    (Nezha_harness.Testbed.measure_cps tb ~concurrency:1024 ())
    (field [ "sim"; "sim_cps" ] out)

let test_offload_matches_measure_cps () =
  let s = Workload.run Workload.Crr_offload ~seed:1 () in
  let tb = Nezha_harness.Testbed.create ~seed:1 () in
  ignore (Nezha_harness.Testbed.offload tb ~num_fes:4 () : Nezha_core.Controller.offload);
  Alcotest.check close "sim_cps is Testbed.measure_cps after offload"
    (Nezha_harness.Testbed.measure_cps tb ~concurrency:1024 ())
    (List.assoc "sim_cps" s.Workload.sim);
  Alcotest.(check bool) "checks pass" true (List.for_all snd s.Workload.checks)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "nested self time" `Quick test_nested;
          Alcotest.test_case "overlap and clip" `Quick test_overlap_and_clip;
          Alcotest.test_case "live recorder" `Quick test_live_recorder;
        ] );
      ( "summary",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "crr_local traced run" `Quick test_smoke_crr_local;
          Alcotest.test_case "crr_offload matches measure_cps" `Slow test_offload_matches_measure_cps;
        ] );
    ]
