(** Order statistics over a run's repeats and a histogram's samples. *)

type t = {
  n : int;  (** sample count *)
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

val of_samples : float list -> t
(** Quartiles by linear interpolation between closest ranks (the
    "inclusive" definition: [q1] of two samples is a quarter of the way
    from the smaller to the larger).
    @raise Invalid_argument on an empty list. *)

type percentile = { value : float; samples : int; beyond : int }
(** A histogram percentile with the sample count it rests on and the
    number of samples strictly above it (the tail that supports it). *)

val histogram_percentile : Nezha_engine.Stats.Histogram.t -> float -> percentile
(** [histogram_percentile h p] with [p] in \[0,100\]; [beyond] is
    [count - ceil (count * p / 100)], the samples ranked above the
    percentile. *)

val to_json : t -> Nezha_telemetry.Json.t
