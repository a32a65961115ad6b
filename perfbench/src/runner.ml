module Json = Nezha_telemetry.Json

type config = {
  kind : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
  spans_out : string option;
}

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let median l = (Summary.of_samples l).Summary.median
let wall () = float_of_int (Span.now_ns ()) *. 1e-9

let ns_per_op (s : Workload.sample) = s.Workload.host_s *. 1e9 /. s.Workload.ops

(* Medians of each named value across association lists that share
   their names and order. *)
let median_by_name = function
  | [] -> []
  | first :: _ as lists ->
    List.map (fun (name, _) -> (name, median (List.map (List.assoc name) lists))) first

let run cfg =
  let t_start = wall () in
  let ref_samples = ref [ Reference.measure () ] in
  (* About one reference sample per second of measured work, and at
     least one after each step, so the run's median follows its load. *)
  let timed f =
    let t0 = wall () in
    let x = f () in
    for _ = 1 to max 1 (int_of_float (Float.round (wall () -. t0))) do
      ref_samples := Reference.measure () :: !ref_samples
    done;
    x
  in
  (* Set-up samples are taken in batches spread over the run, so their
     median sees the same host load as the repeats.  The first batch
     comes before any repeat and has a fixed size, so that every run
     allocates the same before its first repeat: peak RSS then depends
     on the seed alone. *)
  let setups = ref [] in
  let setup_batch () =
    let n = match cfg.kind with Workload.Region_day -> 3 | _ -> 20 in
    setups :=
      timed (fun () -> List.init n (fun _ -> Workload.setup_only cfg.kind ~seed:cfg.seed))
      @ !setups
  in
  setup_batch ();
  let untraced = ref [] and traced = ref [] and rss = ref None in
  (* Repeat until at least [seconds] have been spent. *)
  let rec loop () =
    untraced := timed (fun () -> Workload.run cfg.kind ~seed:cfg.seed ()) :: !untraced;
    if !rss = None then rss := Some (peak_rss_mb ());
    if cfg.trace then begin
      let tr = Span.create ~layers:Workload.layers in
      let s = timed (fun () -> Workload.run cfg.kind ~seed:cfg.seed ~tracer:tr ()) in
      (* Spans are summarised (and the first repeat's written out) at
         once, so only one repeat's spans are ever held. *)
      if !traced = [] then
        Option.iter (fun path -> Span.write_tsv tr ~path ~limit:200_000) cfg.spans_out;
      traced := (s, Workload.layer_metrics tr s) :: !traced
    end;
    setup_batch ();
    if wall () < t_start +. cfg.seconds then loop ()
  in
  loop ();
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let ref_samples = List.rev !ref_samples in
  let scale = Reference.scale (median ref_samples) in
  let first = List.hd untraced in
  (* Checks: each repeat's own, plus determinism across repeats and
     equality of the traced run's simulated numbers. *)
  let same_sim (s : Workload.sample) = s.Workload.sim = first.Workload.sim in
  let checks =
    List.concat_map (fun (s : Workload.sample) -> s.Workload.checks) untraced
    @ List.concat_map (fun ((s : Workload.sample), _) -> s.Workload.checks) traced
    @ List.mapi
        (fun i s -> (Printf.sprintf "repeat_%d_matches_first" (i + 1), same_sim s))
        (List.tl untraced)
    @ List.mapi (fun i (s, _) -> (Printf.sprintf "traced_%d_matches_untraced" i, same_sim s)) traced
  in
  let n_checks = List.length checks in
  let n_failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let fail_ratio =
    float_of_int (first.Workload.sim_failed + n_failed)
    /. float_of_int (first.Workload.sim_attempted + n_checks)
  in
  let host_ns = List.map ns_per_op untraced and setup_s = !setups in
  let window_host_s = List.map (fun (s : Workload.sample) -> s.Workload.host_s) untraced in
  let sim = first.Workload.sim in
  let end_to_end =
    [
      ("host_ns_per_op", median host_ns *. scale);
      ("host_words_per_op", first.Workload.words /. first.Workload.ops);
      ("peak_rss_mb", Option.value !rss ~default:0.0);
      ("setup_s", median setup_s *. scale);
      ("sim_ops_per_s", List.assoc "sim_ops_per_s" sim);
      ("success_ratio", 1.0 -. fail_ratio);
    ]
  in
  let per_layer =
    if not cfg.trace then []
    else begin
      let region =
        match cfg.kind with
        | Workload.Region_day ->
          let host_s = median window_host_s in
          [
            ("region_host_s", host_s);
            ("region.events_per_s", List.assoc "region.events" sim /. host_s);
          ]
        | Workload.Crr_local | Workload.Crr_offload | Workload.Flows_offload -> []
      in
      sim
      @ List.map
          (fun (name, v) -> (name, if Workload.is_host_time name then v *. scale else v))
          (median_by_name (List.map snd traced))
      @ region
      @ [
          ("fail_ratio", fail_ratio);
          ( "trace.overhead_ratio",
            median (List.map (fun (s, _) -> ns_per_op s) traced) /. median host_ns );
          ("host.raw_ns_per_op", median host_ns);
          ("host.ref_ns_per_lookup", median ref_samples);
        ]
    end
  in
  let summary name l =
    let fields =
      match Summary.to_json (Summary.of_samples l) with Json.Obj f -> f | j -> [ ("summary", j) ]
    in
    (name, Json.Obj (fields @ [ ("samples", Json.List (List.map (fun x -> Json.Float x) l)) ]))
  in
  let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Json.Obj
    [
      ("workload", Json.String (Workload.name cfg.kind));
      ("end_to_end", num_obj end_to_end);
      ("per_layer", num_obj per_layer);
      ( "host",
        Json.Obj
          [
            summary "host_ns_per_op_raw" host_ns;
            summary "setup_s_raw" setup_s;
            summary "ref_ns_per_lookup" ref_samples;
            summary "window_host_s" window_host_s;
            summary "window_wall_s"
              (List.map (fun (s : Workload.sample) -> s.Workload.wall_s) untraced);
          ] );
      ("sim", num_obj sim);
      ("checks", Json.Obj (List.map (fun (k, ok) -> (k, Json.Bool ok)) checks));
      ("attempted", Json.Int n_checks);
      ("failed", Json.Int n_failed);
      ("correct", Json.Bool (n_failed = 0));
      ( "provenance",
        Json.Obj
          [
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("word_size", Json.Int Sys.word_size);
            ("seed", Json.Int cfg.seed);
            ("seconds", Json.Float cfg.seconds);
            ("untraced_repeats", Json.Int (List.length untraced));
            ("traced_repeats", Json.Int (List.length traced));
            ("setup_samples", Json.Int (List.length setup_s));
            ("reference_nominal_ns_per_lookup", Json.Float Reference.nominal_ns_per_lookup);
            ("reference_scale", Json.Float scale);
          ] );
    ]
