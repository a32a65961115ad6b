(** Hashed timer wheel for mass expirations.

    The session table ages out millions of entries; a binary-heap timer per
    entry would dominate the event queue.  A timer wheel gives O(1)
    insert/cancel and amortised O(1) expiry at a fixed tick granularity,
    which matches how flow-aging hardware works (coarse timestamps, lazy
    sweeps). *)

type 'a t

type 'a timer
(** A scheduled expiration carrying a payload of type ['a]. *)

val create : tick:float -> slots:int -> 'a t
(** [create ~tick ~slots] covers a horizon of [tick *. slots] seconds per
    revolution; longer deadlines simply survive extra revolutions.
    @raise Invalid_argument if [tick <= 0] or [slots <= 0]. *)

val add : 'a t -> now:float -> deadline:float -> 'a -> 'a timer
(** Schedule [payload] to expire at the first slot boundary at or after
    [deadline] — within one tick of it.  Deadlines in the past (below
    [now], or in an already-swept slot) fire on the next sweep. *)

val cancel : 'a timer -> unit
(** O(1); expired or already-cancelled timers are no-ops. *)

val retarget : 'a timer -> now:float -> deadline:float -> 'a timer
(** [retarget timer ~now ~deadline] moves a pending timer to a new
    deadline and returns the timer that now carries its payload.  When
    the new deadline files under the same wheel slot the record is
    reused in place and nothing is allocated; otherwise (a different
    slot, or a timer that already fired or was cancelled) the old timer
    is cancelled and a fresh one added.  Either way the wheel fires
    exactly as after [cancel] + [add]: at the same sweep, and in the
    same order within the slot. *)

val cancelled : 'a timer -> bool

val payload : 'a timer -> 'a

val next_sweep_at : 'a t -> float
(** Earliest time at which [advance] would sweep another slot, i.e. the
    end of the cursor's current window.  A conservative lower bound on
    the next expiry: no pending timer can fire strictly before it.
    Slot boundaries are exact multiples of [tick] (derived from an
    integer slot counter), so the value is identical however the wheel
    was advanced to its current position. *)

val advance : 'a t -> now:float -> ('a -> unit) -> int
(** [advance t ~now f] fires [f] on every timer whose deadline is
    [<= now], in deadline-slot order and, within a slot, most recently
    armed first; returns the count fired.  A callback may add, cancel or
    retarget timers, including ones in the slot being swept.  Must be
    called with monotonically non-decreasing [now]. *)

val pending : 'a t -> int
(** Live (non-cancelled, non-fired) timers. *)
