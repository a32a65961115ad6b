(** An in-memory span recorder for the benchmark's traced run.

    The benchmark brackets calls into each layer from the outside
    (wrapped vSwitch sinks, FE net hooks, the BE intercept, and the
    harness entry points).  Every bracket records one span: its layer,
    start and end on the host's monotonic clock, minor-heap words at
    both ends, and the span that was open when it started (its parent).
    Spans live in growable arrays until the run ends; nothing is
    written while the simulation runs.

    A span's self time is its duration minus the part of it that its
    children cover; self words subtract the children's words the same
    way.  Summed over layers, self times add up to the root spans'
    total, so the per-layer ledger closes by construction. *)

type t

val create : layers:string array -> t
(** A recorder for the named layers; layer [i] is [layers.(i)]. *)

val enter : t -> int -> unit
(** Open a span of the given layer as a child of the innermost open
    span.  Allocates nothing on the minor heap once the arrays have
    grown to size. *)

val leave : t -> unit
(** Close the innermost open span.
    @raise Invalid_argument when no span is open. *)

val count : t -> int
(** Spans recorded (closed or still open). *)

val now_ns : unit -> int
(** The host monotonic clock, in nanoseconds. *)

(** {1 Offline analysis} *)

type record = {
  layer : int;
  parent : int;  (** index of the parent span, [-1] for a root *)
  start_ns : int;
  end_ns : int;
  words : float;  (** minor words allocated between enter and leave *)
}

val get : t -> int -> record

val of_records : layers:string array -> record array -> t
(** Rebuild a recorder from explicit records (for tests); records must
    be in start order with parents before children. *)

type layer_total = {
  calls : int;
  total_ns : int;  (** sum of span durations *)
  self_ns : int;  (** durations minus the time covered by children *)
  self_words : float;
}

val self_times : t -> layer_total array
(** Per-layer totals, indexed like the layer names.  A child's interval
    is clipped to its parent's before it is subtracted, and overlapping
    children are counted once. *)

val write_tsv : t -> path:string -> limit:int -> unit
(** Write the first [limit] spans as tab-separated
    [index layer parent start_ns end_ns words] lines under a header
    that says how many spans were recorded in all. *)
