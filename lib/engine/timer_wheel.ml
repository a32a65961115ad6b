type 'a timer = {
  (* Arming order while pending: every [add] and every in-place
     [retarget] takes the next (positive) stamp, and a slot fires its
     due timers newest stamp first — the order a cancel-and-re-add
     would produce.  [cancelled_stamp] or [fired_stamp] once the timer
     is done.
     Folding the state in keeps the record at four fields: the region
     simulator keeps tens of thousands of these in flight. *)
  mutable stamp : int;
  mutable deadline : float;
  value : 'a;
  owner : 'a t;
}

and 'a t = {
  tick : float;
  slots : int;
  (* Per-slot buckets, newest first unless marked.  Both arrays stay
     empty until the first [add]: most wheels in a region belong to
     idle session tables and never file a timer. *)
  mutable wheel : 'a timer list array;
  (* A slot is marked when a retarget left a timer out of stamp order
     in it; its sweep then sorts the due timers before firing. *)
  mutable disordered : Bytes.t;
  (* Absolute slot index since t=0; the concrete slot is
     [cursor_abs mod slots] and the window start is
     [float cursor_abs *. tick].  Deriving every boundary from the
     integer counter (rather than accumulating [+. tick]) keeps slot
     boundaries bit-identical no matter how the wheel was advanced —
     which the sharded simulator relies on for cross-shard-count
     determinism. *)
  mutable cursor_abs : int;
  mutable next_sweep : float; (* [(cursor_abs + 1) * tick], boxed once per move *)
  mutable stamps : int;
  mutable live : int;
  mutable fired : int; (* fired by the current [advance] *)
}

let cancelled_stamp = -1
let fired_stamp = -2

let create ~tick ~slots =
  if tick <= 0.0 then invalid_arg "Timer_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timer_wheel.create: slots must be positive";
  {
    tick;
    slots;
    wheel = [||];
    disordered = Bytes.empty;
    cursor_abs = 0;
    next_sweep = tick;
    stamps = 0;
    live = 0;
    fired = 0;
  }

(* Cached so the simulator can read it every turn without boxing a
   fresh float. *)
let next_sweep_at t = t.next_sweep

let natural_slot t deadline = int_of_float (deadline /. t.tick)

let next_stamp t =
  t.stamps <- t.stamps + 1;
  t.stamps

let add t ~now ~deadline value =
  if Array.length t.wheel = 0 then begin
    t.wheel <- Array.make t.slots [];
    t.disordered <- Bytes.make t.slots '\000'
  end;
  let deadline = if deadline < now then now else deadline in
  let timer = { stamp = next_stamp t; deadline; value; owner = t } in
  (* File by absolute slot, clamped to the cursor so a deadline whose
     natural slot has already been swept lands in the very next sweep
     instead of waiting a full revolution. *)
  let k = natural_slot t deadline in
  let s = (if k < t.cursor_abs then t.cursor_abs else k) mod t.slots in
  t.wheel.(s) <- timer :: t.wheel.(s);
  t.live <- t.live + 1;
  timer

(* Cancellation is O(1): the timer stays in its slot and the sweep
   discards it lazily, but the live count drops immediately. *)
let cancel timer =
  if timer.stamp > 0 then begin
    timer.stamp <- cancelled_stamp;
    timer.owner.live <- timer.owner.live - 1
  end

(* A pending timer whose new deadline files under the same absolute
   slot keeps its record and its place in the bucket: a slot fires only
   when its whole window has passed, so the deadline's position inside
   the window never changes when the timer fires.  Only the stamp moves,
   which keeps the slot's firing order equal to a cancel-and-re-add.
   Reuse needs the old natural slot not yet swept: then it is the slot
   the timer is filed under (clamping only applies below the cursor). *)
let retarget timer ~now ~deadline =
  let t = timer.owner in
  let deadline = if deadline < now then now else deadline in
  let k = natural_slot t timer.deadline in
  if timer.stamp > 0 && k >= t.cursor_abs && natural_slot t deadline = k then begin
    timer.deadline <- deadline;
    timer.stamp <- next_stamp t;
    let s = k mod t.slots in
    (match t.wheel.(s) with
    | head :: _ when head == timer -> ()
    | _ -> Bytes.unsafe_set t.disordered s '\001');
    timer
  end
  else begin
    cancel timer;
    add t ~now ~deadline timer.value
  end

let cancelled timer = timer.stamp = cancelled_stamp

let payload timer = timer.value

let newest_first a b = Int.compare b.stamp a.stamp

let fire t f timer =
  timer.stamp <- fired_stamp;
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  f timer.value

(* Fire the due timers of a bucket in list order and return the ones
   still pending, sharing the longest unchanged tail so a sweep that
   fires nothing allocates nothing.  A timer is checked when the walk
   reaches it, so callbacks may cancel timers further down. *)
let rec sweep_in_order t ~now f = function
  | [] -> []
  | timer :: rest as bucket ->
    if timer.stamp < 0 then sweep_in_order t ~now f rest
    else if timer.deadline <= now then begin
      fire t f timer;
      sweep_in_order t ~now f rest
    end
    else begin
      let rest' = sweep_in_order t ~now f rest in
      if rest' == rest then bucket else timer :: rest'
    end

(* A bucket holding retargeted timers is out of stamp order: fire its
   due timers sorted, re-checking each (an earlier callback may have
   cancelled it). *)
let sweep_sorted t ~now f bucket =
  let ready, keep =
    List.partition (fun timer -> timer.stamp > 0 && timer.deadline <= now) bucket
  in
  List.iter
    (fun timer -> if timer.stamp > 0 then fire t f timer)
    (List.stable_sort newest_first ready);
  List.filter (fun timer -> timer.stamp > 0) keep

(* The slot is detached while it is swept and the cursor has already
   moved past it, so a callback that re-arms lands in a live bucket: one
   revolution out it joins the slot's fresh list, anything earlier
   clamps to the next slot. *)
let sweep_slot t ~now f s =
  let bucket = t.wheel.(s) in
  t.wheel.(s) <- [];
  let keep =
    if Bytes.unsafe_get t.disordered s = '\000' then sweep_in_order t ~now f bucket
    else begin
      Bytes.unsafe_set t.disordered s '\000';
      let keep = sweep_sorted t ~now f bucket in
      if keep <> [] then Bytes.unsafe_set t.disordered s '\001';
      keep
    end
  in
  t.wheel.(s) <- (match t.wheel.(s) with [] -> keep | fresh -> fresh @ keep)

(* Sweep whole slots whose time window has fully passed; within each,
   fire due timers and retain the rest (they belong to later
   revolutions). *)
let rec sweep_until t ~now f =
  if float_of_int (t.cursor_abs + 1) *. t.tick <= now then begin
    if t.live = 0 then begin
      (* Nothing can fire: fast-forward the cursor to just short of
         [now] instead of sweeping every empty slot on the way.  Stale
         (cancelled/fired) records left in skipped slots are filtered
         by state on a later sweep. *)
      let target = int_of_float (now /. t.tick) - 1 in
      if target > t.cursor_abs then t.cursor_abs <- target
    end;
    let s = t.cursor_abs mod t.slots in
    t.cursor_abs <- t.cursor_abs + 1;
    if Array.length t.wheel > 0 then sweep_slot t ~now f s;
    sweep_until t ~now f
  end

let advance t ~now f =
  let start = t.cursor_abs and fired_before = t.fired in
  sweep_until t ~now f;
  if t.cursor_abs <> start then t.next_sweep <- float_of_int (t.cursor_abs + 1) *. t.tick;
  t.fired - fired_before

let pending t = t.live
