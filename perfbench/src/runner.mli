(** One benchmark invocation: set-up samples, then measured repeats of
    one workload until the time budget is spent, then the checks and
    the summary.

    The invocation is one process, so peak RSS and GC state belong to
    this workload alone.  Untraced repeats give every host-cost number;
    with [trace], traced repeats alternate with untraced ones and give
    the per-layer numbers and the tracing overhead. *)

type config = {
  kind : Workload.kind;
  seed : int;
  seconds : float;  (** measurement budget; at least one repeat always runs *)
  trace : bool;
  spans_out : string option;  (** where to write the first traced repeat's spans *)
}

val run : config -> Nezha_telemetry.Json.t
(** Run and summarise.  The result object holds:
    - [end_to_end]: every end-to-end metric by name;
    - [per_layer]: the per-layer metrics (with [trace] only);
    - [host]: min/quartiles/median/max and repeat count of each host
      metric;
    - [sim]: the simulated outcomes and layer counters of the seed;
    - [checks], [attempted], [failed], [correct];
    - [provenance]: OCaml version, word size, seed, repeat counts. *)
