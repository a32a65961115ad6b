(** The benchmark's four workloads, driven through the public
    [Testbed] / [Region_sim] entry points only.

    Each workload takes the seed and builds everything from it.  One
    {!run} is one repeat: a fresh set-up followed by one measured window
    of fixed simulated length, so every simulated number repeats exactly
    for a fixed seed while host time and memory vary with the machine. *)

type kind =
  | Crr_local  (** closed-loop TCP_CRR, 1024 connections, no offload *)
  | Crr_offload  (** the same load after offloading to 4 FEs *)
  | Flows_offload  (** persistent flows ramped to 140k after offload *)
  | Region_day  (** 2,000 vSwitches over one compressed day, Nezha on *)

val name : kind -> string
val of_name : string -> kind option

val layers : string array
(** The span layers of the traced run: ["setup"; "offload"; "sim_run";
    "fabric"; "be"; "fe"]. *)

type sample = {
  host_s : float;  (** host CPU seconds of the measured window *)
  wall_s : float;  (** host wall seconds of the measured window *)
  words : float;  (** minor-heap words allocated in the window *)
  ops : float;
      (** the window's operations: packets delivered to VMs on the
          testbed workloads; server demand ticks on [Region_day] *)
  sim : (string * float) list;
      (** simulated outcomes and layer counters, in a fixed order;
          identical for every repeat of one seed *)
  checks : (string * bool) list;  (** correctness checks on this repeat *)
  sim_attempted : int;  (** operations the simulated workload attempted *)
  sim_failed : int;  (** of which failed or were refused *)
}

val setup_only : kind -> seed:int -> float
(** Host CPU seconds of one set-up ([Testbed.create] plus the offload,
    or a zero-length day of the region config), with no measured
    window. *)

val run : kind -> seed:int -> ?tracer:Span.t -> unit -> sample
(** One repeat.  With [tracer], the set-up, offload and every
    simulation run are bracketed, and every vSwitch sink, FE net hook
    and the BE intercept are re-installed as wrappers that record a
    span around the original public entry point. *)

val layer_metrics : Span.t -> sample -> (string * float) list
(** The host-side per-layer numbers of a traced repeat: self ns, self
    minor words and calls per packet for the fabric, BE and FE, the
    engine residual (simulation-run self time), and the offload span. *)

val is_host_time : string -> bool
(** Whether a {!layer_metrics} name is a host time (and so is
    normalised with {!Reference.scale}). *)
