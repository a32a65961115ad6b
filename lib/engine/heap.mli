(** Array-backed binary min-heap, specialised by a comparison function.

    Used as the event queue of the simulator: O(log n) insert and
    extract-min, O(1) top, amortised O(1) space reuse. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp] makes an empty heap ordered by [cmp] (smallest first).
    [capacity] is a pre-sizing hint for the first backing allocation;
    growth past it stays amortised (doubling). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val top : 'a t -> 'a
(** Smallest element without removal.  Allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val drop : 'a t -> unit
(** Remove the smallest element.  Allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** All elements in unspecified order (for inspection in tests). *)
