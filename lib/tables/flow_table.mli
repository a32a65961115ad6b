(** Exact-match session/flow table with aging and memory accounting.

    This is the fast-path table of §2.1: one bidirectional entry per
    session, found by exact match on {!Flow_key.t}.  Entries age out on a
    timer wheel; the per-entry aging time is overridable so incomplete
    (SYN-state) sessions can be expired early (§7.3).  Memory is accounted
    as a fixed per-entry overhead plus a caller-supplied variable part, and
    insertion fails when a capacity budget would be exceeded — which is
    precisely the mechanism that caps #concurrent flows on a SmartNIC. *)

type 'v t

val create :
  ?capacity_bytes:int ->
  ?value_aging:('v -> float) ->
  entry_overhead:int ->
  value_bytes:('v -> int) ->
  default_aging:float ->
  unit ->
  'v t
(** [capacity_bytes] omitted means unbounded.  [default_aging] is the idle
    time after which an untouched entry expires; [value_aging], when
    given, replaces it with a per-value idle time (a session still
    establishing ages faster), evaluated whenever an entry is armed.
    @raise Invalid_argument if [default_aging <= 0]. *)

val insert : 'v t -> now:float -> ?aging:float -> Flow_key.t -> 'v -> Admission.t
(** Insert or replace, armed with [aging] or else the value's aging.
    [Error `Table_full] when the entry does not fit in the remaining
    budget (existing binding, if any, is left untouched). *)

val find : 'v t -> Flow_key.t -> 'v option

val get : 'v t -> Flow_key.t -> 'v
(** [find] without the option: allocates nothing.
    @raise Not_found if absent. *)

val touch : 'v t -> now:float -> Flow_key.t -> bool
(** Refresh the aging deadline of an entry to its value's aging from
    [now]; [false] if absent.  A refresh that stays within the entry's
    wheel slot reuses its timer. *)

val update : 'v t -> now:float -> Flow_key.t -> ('v -> 'v) -> bool
(** Replace the value with [f] of it (memory accounting is refreshed) and
    touch it; [false] if absent. *)

val remove : 'v t -> Flow_key.t -> bool

val expire : 'v t -> now:float -> on_expire:(Flow_key.t -> 'v -> unit) -> int
(** Evict every entry idle past its aging time; returns the count.  Must
    be called with non-decreasing [now]. *)

val length : 'v t -> int
val memory_bytes : 'v t -> int
val capacity_bytes : 'v t -> int option
val iter : 'v t -> (Flow_key.t -> 'v -> unit) -> unit
val clear : 'v t -> unit
