(* The benchmark's measuring process: runs one workload for one seed
   and prints one JSON object with its end-to-end metrics, per-layer
   metrics (with --trace 1), checks and provenance.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--spans FILE] *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME crr_local | crr_offload | flows_offload | region_day" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 add traced repeats and per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE write the first traced repeat's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Perfbench.Workload.of_name !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some kind ->
    let result =
      Perfbench.Runner.run
        {
          Perfbench.Runner.kind;
          seed = !seed;
          seconds = !seconds;
          trace = !trace <> 0;
          spans_out = (if !spans = "" then None else Some !spans);
        }
    in
    print_endline (Nezha_telemetry.Json.to_string result)
