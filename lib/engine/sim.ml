(* Event records are mutable and recycled through a per-simulation free
   list: the hot loop (pop, run, schedule) reuses the same records
   instead of allocating one per scheduled event.  A record is owned by
   the heap while queued and by the pool while free; nothing else may
   hold on to one. *)
type event = {
  mutable time : float;
  mutable order : int;
  mutable action : t -> unit;
}

and t = {
  mutable clock : float;
  mutable seq : int;
  mutable executed : int;
  queue : event Heap.t;
  mutable pool : event array; (* stack of recycled event records *)
  mutable pool_n : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  timer_tick : float;
  timer_slots : int;
  mutable wheel : (t -> unit) Timer_wheel.t option; (* created lazily *)
  mutable shard : shard option;
  mutable run_timer : (t -> unit) -> unit; (* one closure for every wheel firing *)
}

and shard = { cluster : cluster; shard_id : int; mutable msg_seq : int }

and cluster = {
  members : t array;
  lookahead : float;
  mail : msg list ref array; (* per destination shard, newest first *)
  mutable delivered : int;
}

and msg = { at_time : float; src : int; mseq : int; act : t -> unit }

let no_action : t -> unit = fun _ -> ()
let dummy_event = { time = 0.0; order = 0; action = no_action }

let cmp_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.order b.order

let create ?(capacity = 256) ?(timer_tick = 1e-3) ?(timer_slots = 1024) () =
  if timer_tick <= 0.0 then invalid_arg "Sim.create: timer_tick must be positive";
  if timer_slots <= 0 then invalid_arg "Sim.create: timer_slots must be positive";
  let t =
    {
      clock = 0.0;
      seq = 0;
      executed = 0;
      queue = Heap.create ~capacity ~cmp:cmp_event ();
      pool = [||];
      pool_n = 0;
      pool_hits = 0;
      pool_misses = 0;
      timer_tick;
      timer_slots;
      wheel = None;
      shard = None;
      run_timer = ignore;
    }
  in
  t.run_timer <-
    (fun act ->
      t.executed <- t.executed + 1;
      act t);
  t

let now t = t.clock

let alloc_event t ~time ~action =
  t.seq <- t.seq + 1;
  if t.pool_n > 0 then begin
    t.pool_n <- t.pool_n - 1;
    let ev = t.pool.(t.pool_n) in
    t.pool.(t.pool_n) <- dummy_event;
    ev.time <- time;
    ev.order <- t.seq;
    ev.action <- action;
    t.pool_hits <- t.pool_hits + 1;
    ev
  end
  else begin
    t.pool_misses <- t.pool_misses + 1;
    { time; order = t.seq; action }
  end

let recycle_event t ev =
  (* Clear the closure slot so the pool never keeps dead captures
     alive. *)
  ev.action <- no_action;
  let cap = Array.length t.pool in
  if t.pool_n = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let np = Array.make ncap dummy_event in
    Array.blit t.pool 0 np 0 cap;
    t.pool <- np
  end;
  t.pool.(t.pool_n) <- ev;
  t.pool_n <- t.pool_n + 1

let pool_stats t = (t.pool_hits, t.pool_misses)

let enqueue t ~time action = Heap.push t.queue (alloc_event t ~time ~action)

let post_at t ~time action =
  let time = if time < t.clock then t.clock else time in
  enqueue t ~time action

let post t ~delay action =
  let delay = if delay < 0.0 then 0.0 else delay in
  post_at t ~time:(t.clock +. delay) action

let every t ~period f =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  (* One tick closure serves every firing: each period re-arms by
     re-enqueueing a pooled event record rather than allocating a fresh
     closure. *)
  let rec tick sim = if f sim then enqueue sim ~time:(sim.clock +. period) tick in
  enqueue t ~time:t.clock tick

(* ---- wheel-backed timers ------------------------------------------- *)

let get_wheel t =
  match t.wheel with
  | Some w -> w
  | None ->
    let w = Timer_wheel.create ~tick:t.timer_tick ~slots:t.timer_slots in
    (* Skip the cursor up to the current clock while the wheel is still
       empty, so the first real sweep doesn't walk every slot since 0. *)
    if t.clock > 0.0 then ignore (Timer_wheel.advance w ~now:t.clock (fun _ -> ()) : int);
    t.wheel <- Some w;
    w

let timeout t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  let w = get_wheel t in
  ignore (Timer_wheel.add w ~now:t.clock ~deadline:(t.clock +. delay) f : _ Timer_wheel.timer)

(* ---- the engine turn ------------------------------------------------ *)

(* The turn reads both sources' next times as the floats already
   stored in the event record and the wheel — no option, no fresh box —
   so a turn allocates nothing of its own. *)
let heap_next t = if Heap.is_empty t.queue then infinity else (Heap.top t.queue).time

let wheel_next t =
  match t.wheel with
  | Some w when Timer_wheel.pending w > 0 -> Timer_wheel.next_sweep_at w
  | Some _ | None -> infinity

let next_event_time t =
  let hn = heap_next t and wn = wheel_next t in
  if wn <= hn then wn else hn

let run_heap_event t =
  let ev = Heap.top t.queue in
  Heap.drop t.queue;
  t.clock <- ev.time;
  let act = ev.action in
  recycle_event t ev;
  t.executed <- t.executed + 1;
  act t

let run_wheel_slot t =
  match t.wheel with
  | None -> ()
  | Some w ->
    let boundary = Timer_wheel.next_sweep_at w in
    let now' = if boundary > t.clock then boundary else t.clock in
    t.clock <- now';
    ignore (Timer_wheel.advance w ~now:now' t.run_timer : int)

(* One engine turn: either sweep the next due wheel slot or pop one heap
   event, whichever comes first (wheel wins ties so coarse timers never
   lag an equal-time event). *)
let step t =
  let hn = heap_next t and wn = wheel_next t in
  if hn = infinity && wn = infinity then false
  else begin
    if wn <= hn then run_wheel_slot t else run_heap_event t;
    true
  end

(* Core loop shared by [run] and the sharded window executor: execute
   turns while the next event time is [< limit_ex] and [<= limit_in]. *)
let exec t ~limit_ex ~limit_in =
  let rec loop () =
    let nxt = next_event_time t in
    if nxt < limit_ex && nxt <= limit_in then if step t then loop ()
  in
  loop ()

let run ?until t =
  let limit_in = match until with None -> infinity | Some u -> u in
  exec t ~limit_ex:infinity ~limit_in;
  match until with
  | Some stop when t.clock < stop && next_event_time t > stop -> t.clock <- stop
  | Some _ | None -> ()

let pending t =
  Heap.length t.queue
  + (match t.wheel with Some w -> Timer_wheel.pending w | None -> 0)

let events_executed t = t.executed

(* ---- sharded conservative-sync cluster ------------------------------ *)

module Sharded = struct
  type nonrec cluster = cluster

  let create ?capacity ?timer_tick ?timer_slots ~shards ~lookahead () =
    if shards <= 0 then invalid_arg "Sim.Sharded.create: shards must be positive";
    if lookahead <= 0.0 then
      invalid_arg "Sim.Sharded.create: lookahead must be positive";
    let members =
      Array.init shards (fun _ -> create ?capacity ?timer_tick ?timer_slots ())
    in
    let c =
      {
        members;
        lookahead;
        mail = Array.init shards (fun _ -> ref []);
        delivered = 0;
      }
    in
    Array.iteri
      (fun i m -> m.shard <- Some { cluster = c; shard_id = i; msg_seq = 0 })
      members;
    c

  let shard c i = c.members.(i)
  let shard_id t = match t.shard with None -> None | Some s -> Some s.shard_id
  let messages_delivered c = c.delivered

  let send src ~dst ~delay act =
    match src.shard with
    | None -> post src ~delay act
    | Some sh ->
      let c = sh.cluster in
      if dst < 0 || dst >= Array.length c.members then
        invalid_arg "Sim.Sharded.send: no such shard";
      if dst = sh.shard_id then post src ~delay act
      else begin
        if delay < c.lookahead then
          invalid_arg "Sim.Sharded.send: cross-shard delay below lookahead";
        sh.msg_seq <- sh.msg_seq + 1;
        let box = c.mail.(dst) in
        box :=
          { at_time = src.clock +. delay; src = sh.shard_id; mseq = sh.msg_seq; act }
          :: !box
      end

  let cmp_msg a b =
    let c = Float.compare a.at_time b.at_time in
    if c <> 0 then c
    else
      let c = Int.compare a.src b.src in
      if c <> 0 then c else Int.compare a.mseq b.mseq

  (* Drain every mailbox into its destination heap.  Messages are sorted
     by (arrival time, source shard, source sequence) so the delivery
     order — and hence the destination's tie-breaking sequence numbers —
     is independent of the order shards executed in. *)
  let deliver c =
    Array.iteri
      (fun d box ->
        match !box with
        | [] -> ()
        | msgs ->
          box := [];
          let sorted = List.sort cmp_msg msgs in
          let dst = c.members.(d) in
          List.iter
            (fun m ->
              c.delivered <- c.delivered + 1;
              post_at dst ~time:m.at_time m.act)
            sorted)
      c.mail

  let run ?until c =
    let stop = match until with None -> infinity | Some u -> u in
    let rec loop () =
      deliver c;
      let m =
        Array.fold_left
          (fun acc s -> Float.min acc (next_event_time s))
          infinity c.members
      in
      if m = infinity || m > stop then begin
        match until with
        | Some u ->
          Array.iter (fun s -> if s.clock < u then s.clock <- u) c.members
        | None -> ()
      end
      else begin
        (* Conservative window [m, m + lookahead): any cross-shard send
           from inside the window arrives at >= m + lookahead, so every
           shard may execute the whole window without hearing from the
           others. *)
        let wend = m +. c.lookahead in
        Array.iter (fun s -> exec s ~limit_ex:wend ~limit_in:stop) c.members;
        loop ()
      end
    in
    loop ()

  let events_executed c =
    Array.fold_left (fun acc s -> acc + s.executed) 0 c.members
end

let cross src dst ~delay act =
  if src == dst then post src ~delay act
  else
    match (src.shard, dst.shard) with
    | Some a, Some b when a.cluster == b.cluster ->
      Sharded.send src ~dst:b.shard_id ~delay act
    | _ -> invalid_arg "Sim.cross: simulations are not in the same cluster"
