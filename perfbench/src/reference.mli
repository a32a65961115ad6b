(** A fixed reference workload for normalising host time.

    The benchmark shares its machine with other tenants.  On the 2-core
    VM it was written on, their load moved this process's CPU time for
    one fixed simulation by up to 1.4x, in regimes lasting minutes —
    longer than a run, so no statistic over a run's repeats removes
    them.  They come from contention for caches and memory, not from
    the clock: a compute-bound loop held within 4% meanwhile.

    So the benchmark also times this kernel, about once per second of
    measured work, and expresses host times at the speed the kernel
    runs at nominally.  A slowdown that hits the kernel and the
    simulator alike cancels; a change to the simulator's own cost does
    not, since the kernel runs no code from the repository.  Over 170
    back-to-back [region_day] runs, the median-of-15 host time spread
    19% (interquartile range over median) raw and 9% normalised.

    The kernel is a million [Hashtbl.find] on a 131,072-entry table of
    ints (about 6 MB, like the simulator's larger tables), built once
    per process.  Lookups allocate nothing, so the kernel neither
    triggers nor depends on the simulator's garbage collection. *)

val nominal_ns_per_lookup : float
(** The per-lookup time the normalised numbers are expressed at: 60 ns,
    roughly the kernel's time on that VM when it was quiet. *)

val measure : unit -> float
(** Host CPU ns per lookup, now (one run of the kernel, 50-100 ms). *)

val scale : float -> float
(** [scale measured] is [nominal_ns_per_lookup /. measured]: multiply a
    host time taken while the kernel ran at [measured] ns per lookup by
    this to express it at the nominal speed. *)
