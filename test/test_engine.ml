(* Tests for the discrete-event engine: heap, rng, stats, sim, timer wheel. *)

open Nezha_engine

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap *)

let pop h =
  if Heap.is_empty h then None
  else begin
    let x = Heap.top h in
    Heap.drop h;
    Some x
  end

let peek h = if Heap.is_empty h then None else Some (Heap.top h)

let test_heap_order () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  let out = ref [] in
  let rec drain () =
    match pop h with
    | None -> ()
    | Some x ->
      out := x :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare () in
  check_bool "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (pop h);
  Alcotest.(check (option int)) "peek" None (peek h);
  Alcotest.check_raises "top" (Invalid_argument "Heap.top: empty heap") (fun () ->
      ignore (Heap.top h : int));
  Alcotest.check_raises "drop" (Invalid_argument "Heap.drop: empty heap") (fun () ->
      Heap.drop h)

let test_heap_interleaved () =
  let h = Heap.create ~cmp:Int.compare () in
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "min" (Some 1) (pop h);
  Heap.push h 0;
  Alcotest.(check (option int)) "new min" (Some 0) (peek h);
  check_int "len" 2 (Heap.length h);
  Heap.clear h;
  check_int "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* Drawing from [b] must not change [a]'s stream relative to a replay. *)
  let a' = Rng.create 7 in
  let _ = Rng.split a' in
  for _ = 1 to 10 do
    ignore (Rng.bits64 b : int64)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "a unchanged by b" (Rng.bits64 a') (Rng.bits64 a)
  done

let test_rng_int_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    check_bool "in closed range" true (v >= 5 && v <= 9)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0 : int))

let test_rng_uniformity () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check_bool "bucket near 10%" true (frac > 0.09 && frac < 0.11))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.create 5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let m = !sum /. float_of_int n in
  check_bool "mean near 2.0" true (m > 1.9 && m < 2.1)

let test_rng_zipf_rank1_dominates () =
  let r = Rng.create 3 in
  let counts = Array.make 101 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf r ~n:100 ~s:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 1 most frequent" true (counts.(1) > counts.(2));
  check_bool "rank 2 beats rank 50" true (counts.(2) > counts.(50))

let test_rng_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mean:10.0 ~stddev:3.0) in
  check_bool "mean" true (Float.abs (Stats.mean samples -. 10.0) < 0.1);
  check_bool "stddev" true (Float.abs (Stats.stddev samples -. 3.0) < 0.1)

let test_rng_pick_shuffle () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  let v = Rng.pick r a in
  check_bool "picked member" true (Array.exists (( = ) v) a)

let prop_chance_extremes =
  QCheck.Test.make ~name:"chance 0 and 1 are certain" ~count:100 QCheck.int
    (fun seed ->
      let r = Rng.create seed in
      Rng.chance r 1.0 && not (Rng.chance r 0.0))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_percentile_simple () =
  let xs = Array.init 101 float_of_int in
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p25" 25.0 (Stats.percentile xs 25.0)

let test_percentile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  check_float "p50 midpoint" 15.0 (Stats.percentile xs 50.0)

let test_percentiles_batch () =
  let xs = Array.init 11 (fun i -> float_of_int (10 - i)) in
  let out = Stats.percentiles xs [ 0.0; 100.0 ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "batch" [ (0.0, 0.0); (100.0, 10.0) ] out

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty samples")
    (fun () -> ignore (Stats.percentile [||] 50.0 : float));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 150.0 : float))

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 10;
  check_int "value" 11 (Stats.Counter.value c);
  Stats.Counter.reset c;
  check_int "reset" 0 (Stats.Counter.value c)

let test_histogram_accuracy () =
  let h = Stats.Histogram.create () in
  for i = 1 to 10_000 do
    Stats.Histogram.record h (float_of_int i)
  done;
  check_int "count" 10_000 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.percentile h 50.0 in
  check_bool "p50 within 2%" true (Float.abs (p50 -. 5000.0) /. 5000.0 < 0.02);
  let p99 = Stats.Histogram.percentile h 99.0 in
  check_bool "p99 within 2%" true (Float.abs (p99 -. 9900.0) /. 9900.0 < 0.02);
  check_float "max exact" 10_000.0 (Stats.Histogram.max_value h);
  check_float "min exact" 1.0 (Stats.Histogram.min_value h)

let test_histogram_empty_and_merge () =
  let a = Stats.Histogram.create () in
  check_float "empty percentile" 0.0 (Stats.Histogram.percentile a 99.0);
  let b = Stats.Histogram.create () in
  Stats.Histogram.record_n a 5.0 10;
  Stats.Histogram.record_n b 50.0 10;
  Stats.Histogram.merge_into ~dst:a ~src:b;
  check_int "merged count" 20 (Stats.Histogram.count a);
  check_float "merged max" 50.0 (Stats.Histogram.max_value a);
  let p25 = Stats.Histogram.percentile a 25.0 in
  check_bool "low half is 5" true (Float.abs (p25 -. 5.0) /. 5.0 < 0.02)

let test_histogram_negative_clamped () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h (-3.0);
  check_float "clamped to 0" 0.0 (Stats.Histogram.max_value h)

let prop_histogram_percentile_close =
  QCheck.Test.make ~name:"histogram percentile tracks exact percentile" ~count:50
    QCheck.(make Gen.(list_size (int_range 100 1000) (float_range 0.1 1e6)))
    (fun xs ->
      let arr = Array.of_list xs in
      let h = Stats.Histogram.create () in
      Array.iter (Stats.Histogram.record h) arr;
      List.for_all
        (fun p ->
          let exact = Stats.percentile arr p in
          let est = Stats.Histogram.percentile h p in
          (* With 2 significant digits the bucket error is ~1%; allow 3%
             plus interpolation slack between neighbouring samples. *)
          exact = 0.0 || Float.abs (est -. exact) /. exact < 0.05)
        [ 50.0; 90.0; 99.0 ])

let test_series () =
  let s = Stats.Series.create ~name:"cpu" in
  Stats.Series.add s ~time:0.0 1.0;
  Stats.Series.add s ~time:1.0 2.0;
  Stats.Series.add s ~time:2.0 3.0;
  check_int "len" 3 (Stats.Series.length s);
  Alcotest.(check string) "name" "cpu" (Stats.Series.name s);
  (match Stats.Series.last s with
  | Some (t, v) ->
    check_float "last t" 2.0 t;
    check_float "last v" 3.0 v
  | None -> Alcotest.fail "expected last");
  let pts = Stats.Series.points s in
  check_int "points" 3 (Array.length pts)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag _ = log := tag :: !log in
  Sim.post sim ~delay:3.0 (note "c");
  Sim.post sim ~delay:1.0 (note "a");
  Sim.post sim ~delay:2.0 (note "b");
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 3.0 (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.post sim ~delay:1.0 (fun _ -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick s =
    incr count;
    Sim.post s ~delay:1.0 tick
  in
  Sim.post sim ~delay:1.0 tick;
  Sim.run ~until:10.5 sim;
  check_int "ticks up to 10.5" 10 !count;
  check_float "clock parked at until" 10.5 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.post sim ~delay:1.0 (fun s ->
      log := "outer" :: !log;
      Sim.post s ~delay:0.0 (fun _ -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_sim_every_stops () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.every sim ~period:1.0 (fun _ ->
      incr count;
      !count < 5);
  Sim.run sim;
  check_int "stopped after 5" 5 !count

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let t = ref (-1.0) in
  Sim.post sim ~delay:5.0 (fun s -> Sim.post s ~delay:(-3.0) (fun s' -> t := Sim.now s'));
  Sim.run sim;
  check_float "fires now, not in the past" 5.0 !t

(* ------------------------------------------------------------------ *)
(* Timer wheel *)

let test_wheel_fires_in_window () =
  let w = Timer_wheel.create ~tick:0.1 ~slots:64 in
  let fired = ref [] in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:1.0 "a" : string Timer_wheel.timer);
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:2.0 "b" : string Timer_wheel.timer);
  check_int "pending" 2 (Timer_wheel.pending w);
  let n = Timer_wheel.advance w ~now:1.5 (fun v -> fired := v :: !fired) in
  check_int "one fired" 1 n;
  Alcotest.(check (list string)) "a fired" [ "a" ] !fired;
  let n2 = Timer_wheel.advance w ~now:2.5 (fun v -> fired := v :: !fired) in
  check_int "second fired" 1 n2;
  check_int "none pending" 0 (Timer_wheel.pending w)

let test_wheel_cancel () =
  let w = Timer_wheel.create ~tick:0.1 ~slots:16 in
  let t = Timer_wheel.add w ~now:0.0 ~deadline:0.5 42 in
  Timer_wheel.cancel t;
  check_bool "cancelled" true (Timer_wheel.cancelled t);
  check_int "pending drops immediately" 0 (Timer_wheel.pending w);
  let n = Timer_wheel.advance w ~now:1.0 (fun _ -> Alcotest.fail "must not fire") in
  check_int "no fires" 0 n

let test_wheel_multi_revolution () =
  (* Deadline far beyond one revolution must survive sweeps until due. *)
  let w = Timer_wheel.create ~tick:0.1 ~slots:4 in
  let fired = ref 0 in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:3.0 () : unit Timer_wheel.timer);
  ignore (Timer_wheel.advance w ~now:1.0 (fun () -> incr fired) : int);
  check_int "not yet" 0 !fired;
  ignore (Timer_wheel.advance w ~now:2.9 (fun () -> incr fired) : int);
  check_int "still not" 0 !fired;
  ignore (Timer_wheel.advance w ~now:3.2 (fun () -> incr fired) : int);
  check_int "fired on time" 1 !fired

let test_wheel_min_one_tick () =
  let w = Timer_wheel.create ~tick:1.0 ~slots:8 in
  let fired = ref 0 in
  (* Deadline in the past is clamped one tick ahead, never dropped. *)
  ignore (Timer_wheel.add w ~now:5.0 ~deadline:1.0 () : unit Timer_wheel.timer);
  ignore (Timer_wheel.advance w ~now:7.0 (fun () -> incr fired) : int);
  check_int "fired after clamp" 1 !fired

(* A callback that re-arms exactly one revolution out lands in the slot
   being swept; the sweep must not overwrite it with its filtered list. *)
let test_wheel_rearm_into_swept_slot () =
  let w = Timer_wheel.create ~tick:1.0 ~slots:4 in
  let fired = ref [] in
  let on_fire deadline =
    fired := deadline :: !fired;
    if deadline < 1.0 then
      ignore (Timer_wheel.add w ~now:deadline ~deadline:4.5 4.5 : float Timer_wheel.timer)
  in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:0.5 0.5 : float Timer_wheel.timer);
  ignore (Timer_wheel.advance w ~now:1.0 on_fire : int);
  check_int "re-armed timer pending" 1 (Timer_wheel.pending w);
  ignore (Timer_wheel.advance w ~now:5.0 on_fire : int);
  Alcotest.(check (list (float 0.0))) "both fired" [ 4.5; 0.5 ] !fired;
  check_int "none pending" 0 (Timer_wheel.pending w)

(* A callback arming a timer that is already due clamps it to the next
   slot instead of the one being swept. *)
let test_wheel_due_rearm_fires_next_slot () =
  let w = Timer_wheel.create ~tick:1.0 ~slots:4 in
  let fired = ref 0 in
  let on_fire first =
    incr fired;
    if first then ignore (Timer_wheel.add w ~now:0.5 ~deadline:0.5 false : bool Timer_wheel.timer)
  in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:0.5 true : bool Timer_wheel.timer);
  ignore (Timer_wheel.advance w ~now:1.0 on_fire : int);
  check_int "first fired" 1 !fired;
  ignore (Timer_wheel.advance w ~now:2.0 on_fire : int);
  check_int "re-armed fired on the next sweep" 2 !fired

(* Besides firing everything, a wheel first advanced to [start] before
   its first [add] (its storage is still unallocated) must behave like
   one whose storage was forced at t = 0 by an add and a cancel: the
   same deadlines fire in the same [advance] call and in the same
   order.  Some deadlines fall below [start] and must clamp alike. *)
let prop_wheel_fires_everything =
  QCheck.Test.make ~name:"timer wheel fires every non-cancelled timer" ~count:100
    QCheck.(
      make
        ~print:Print.(pair float (list float))
        Gen.(
          pair (float_range 0.0 20.0)
            (list_size (int_range 1 200) (float_range 0.01 50.0))))
    (fun (start, deadlines) ->
      let lazy_w = Timer_wheel.create ~tick:0.25 ~slots:32 in
      let forced_w = Timer_wheel.create ~tick:0.25 ~slots:32 in
      Timer_wheel.cancel (Timer_wheel.add forced_w ~now:0.0 ~deadline:1.0 (-1));
      let run w =
        ignore (Timer_wheel.advance w ~now:start ignore : int);
        List.iteri
          (fun i d ->
            let deadline = start -. 1.0 +. d in
            ignore (Timer_wheel.add w ~now:start ~deadline i : int Timer_wheel.timer))
          deadlines;
        let log = ref [] in
        for step = 1 to 100 do
          let now = start +. (0.7 *. float_of_int step) in
          ignore (Timer_wheel.advance w ~now (fun i -> log := (step, i) :: !log) : int)
        done;
        (List.rev !log, Timer_wheel.pending w)
      in
      let lazy_log, lazy_pending = run lazy_w in
      let forced_log, forced_pending = run forced_w in
      List.length lazy_log = List.length deadlines
      && lazy_pending = 0 && forced_pending = 0 && lazy_log = forced_log)

let test_sim_pool_reuse () =
  (* A chain of events scheduled one-at-a-time recycles a single pooled
     record: the first firing's record is free again by the time the
     handler schedules the next. *)
  let sim = Sim.create () in
  let rec tick n s = if n < 100 then Sim.post s ~delay:1.0 (tick (n + 1)) in
  Sim.post sim ~delay:1.0 (tick 1);
  Sim.run sim;
  let reused, fresh = Sim.pool_stats sim in
  check_int "one fresh record" 1 fresh;
  check_int "rest reused" 99 reused

let test_sim_every_pool () =
  (* [every] must not grow the pool: all re-arms go through the one
     recycled record. *)
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.every sim ~period:1.0 (fun _ ->
      incr count;
      !count < 50);
  Sim.run sim;
  let _, fresh = Sim.pool_stats sim in
  check_int "fired every period" 50 !count;
  check_bool "at most one fresh record" true (fresh <= 1)

let test_sim_timeout_fires_coarse () =
  let sim = Sim.create ~timer_tick:0.1 () in
  let fired_at = ref nan in
  Sim.timeout sim ~delay:0.42 (fun s -> fired_at := Sim.now s);
  Sim.run sim;
  check_bool "at or after the deadline" true (!fired_at >= 0.42);
  check_bool "within one tick of it" true (!fired_at <= 0.42 +. 0.1)

let prop_timeout_matches_schedule =
  (* Wheel-vs-heap equivalence: the same set of delays scheduled through
     [timeout] fires completely, in deadline order, each firing within
     one wheel tick at-or-after the exact time the heap would use. *)
  QCheck.Test.make ~name:"timeout fires like schedule, within one tick" ~count:100
    QCheck.(
      make
        ~print:Print.(list float)
        Gen.(list_size (int_range 1 100) (float_range 0.01 20.0)))
    (fun delays ->
      let tick = 0.05 in
      let wheel_sim = Sim.create ~timer_tick:tick () in
      let heap_sim = Sim.create () in
      let n = List.length delays in
      let wheel_t = Array.make n nan and heap_t = Array.make n nan in
      List.iteri
        (fun i d ->
          Sim.timeout wheel_sim ~delay:d (fun s -> wheel_t.(i) <- Sim.now s);
          Sim.post heap_sim ~delay:d (fun s -> heap_t.(i) <- Sim.now s))
        delays;
      Sim.run wheel_sim;
      Sim.run heap_sim;
      let ok = ref true in
      for i = 0 to n - 1 do
        ok :=
          !ok
          && (not (Float.is_nan wheel_t.(i)))
          && (not (Float.is_nan heap_t.(i)))
          && wheel_t.(i) >= heap_t.(i)
          && wheel_t.(i) <= heap_t.(i) +. tick
      done;
      !ok && Sim.pending wheel_sim = 0)

(* ------------------------------------------------------------------ *)
(* Sharded clusters *)

let test_sharded_send_and_determinism () =
  let run () =
    let c = Sim.Sharded.create ~shards:2 ~lookahead:0.1 () in
    let s0 = Sim.Sharded.shard c 0 in
    let log = ref [] in
    let rec ping n sim =
      log := (Sim.Sharded.shard_id sim, n, Sim.now sim) :: !log;
      if n < 20 then
        Sim.Sharded.send sim ~dst:(if sim == s0 then 1 else 0) ~delay:0.1 (ping (n + 1))
    in
    Sim.post s0 ~delay:0.0 (ping 0);
    Sim.Sharded.run c;
    (List.rev !log, Sim.Sharded.events_executed c, Sim.Sharded.messages_delivered c)
  in
  let (log, events, msgs) = run () in
  check_int "21 hops" 21 (List.length log);
  check_bool "alternates shards" true
    (List.for_all (fun (shard, n, _) -> shard = Some (n mod 2)) log);
  check_bool "messages crossed" true (msgs >= 20);
  check_bool "bit-for-bit rerun" true ((log, events, msgs) = run ())

let test_sharded_lookahead_enforced () =
  let c = Sim.Sharded.create ~shards:2 ~lookahead:0.1 () in
  let s0 = Sim.Sharded.shard c 0 in
  Alcotest.check_raises "below-lookahead cross-shard send"
    (Invalid_argument "Sim.Sharded.send: cross-shard delay below lookahead") (fun () ->
      Sim.Sharded.send s0 ~dst:1 ~delay:0.05 (fun _ -> ()));
  (* Same-shard sends may use any delay. *)
  let fired = ref false in
  Sim.Sharded.send s0 ~dst:0 ~delay:0.0 (fun _ -> fired := true);
  Sim.Sharded.run c;
  check_bool "same-shard send fired" true !fired

let test_cross_rejects_unrelated () =
  let a = Sim.create () and b = Sim.create () in
  Alcotest.check_raises "unrelated simulations"
    (Invalid_argument "Sim.cross: simulations are not in the same cluster") (fun () ->
      Sim.cross a b ~delay:1.0 (fun _ -> ()))

let test_sim_determinism () =
  (* Two identically-seeded simulations execute identical schedules. *)
  let run () =
    let sim = Sim.create () in
    let rng = Rng.create 99 in
    let log = ref [] in
    let rec tick n s =
      if n < 200 then begin
        log := (Sim.now s, n) :: !log;
        Sim.post s ~delay:(Rng.exponential rng ~mean:0.01) (tick (n + 1))
      end
    in
    Sim.post sim ~delay:0.0 (tick 0);
    Sim.run sim;
    (!log, Sim.events_executed sim)
  in
  let a = run () and b = run () in
  check_bool "identical traces" true (a = b)

let test_series_pp_table () =
  let s = Stats.Series.create ~name:"latency" in
  for i = 0 to 199 do
    Stats.Series.add s ~time:(float_of_int i) (float_of_int (i * i))
  done;
  let rendered = Format.asprintf "%a" (Stats.Series.pp_table ~limit:10) s in
  check_bool "has header" true (String.length rendered > 0);
  (* Downsampled to roughly the limit. *)
  let lines = String.split_on_char '\n' rendered in
  check_bool "downsampled" true (List.length lines <= 15)

let test_token_bucket_in_engine () =
  (* Smoke: the engine-level bucket integrates with simulated time. *)
  let b = Token_bucket.create ~rate_bytes_per_s:100.0 ~burst_bytes:100.0 in
  check_bool "initial burst" true (Token_bucket.take b ~now:0.0 ~bytes:100);
  check_bool "rate accessor" true (Token_bucket.rate b = 100.0);
  check_bool "burst accessor" true (Token_bucket.burst b = 100.0)

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "engine"
    [
      ( "heap",
        [
          Alcotest.test_case "drains sorted" `Quick test_heap_order;
          Alcotest.test_case "empty ops" `Quick test_heap_empty;
          Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
        ]
        @ qsuite [ prop_heap_sorts ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int ranges" `Quick test_rng_int_range;
          Alcotest.test_case "invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_rank1_dominates;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "pick and shuffle" `Quick test_rng_pick_shuffle;
        ]
        @ qsuite [ prop_chance_extremes ] );
      ( "stats",
        [
          Alcotest.test_case "percentile simple" `Quick test_percentile_simple;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolates;
          Alcotest.test_case "percentiles batch" `Quick test_percentiles_batch;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram accuracy" `Quick test_histogram_accuracy;
          Alcotest.test_case "histogram merge" `Quick test_histogram_empty_and_merge;
          Alcotest.test_case "histogram clamps negatives" `Quick test_histogram_negative_clamped;
          Alcotest.test_case "series" `Quick test_series;
        ]
        @ qsuite [ prop_histogram_percentile_close ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "every stops on false" `Quick test_sim_every_stops;
          Alcotest.test_case "negative delay clamped" `Quick test_sim_negative_delay_clamped;
          Alcotest.test_case "bit-for-bit determinism" `Quick test_sim_determinism;
          Alcotest.test_case "event pool reuse" `Quick test_sim_pool_reuse;
          Alcotest.test_case "every reuses one record" `Quick test_sim_every_pool;
          Alcotest.test_case "timeout fires coarsely" `Quick test_sim_timeout_fires_coarse;
        ]
        @ qsuite [ prop_timeout_matches_schedule ] );
      ( "sharded",
        [
          Alcotest.test_case "send + determinism" `Quick test_sharded_send_and_determinism;
          Alcotest.test_case "lookahead enforced" `Quick test_sharded_lookahead_enforced;
          Alcotest.test_case "cross rejects unrelated" `Quick test_cross_rejects_unrelated;
        ] );
      ( "misc",
        [
          Alcotest.test_case "series table rendering" `Quick test_series_pp_table;
          Alcotest.test_case "token bucket accessors" `Quick test_token_bucket_in_engine;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "fires in window" `Quick test_wheel_fires_in_window;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "multi revolution" `Quick test_wheel_multi_revolution;
          Alcotest.test_case "past deadline clamped" `Quick test_wheel_min_one_tick;
          Alcotest.test_case "re-arm into swept slot" `Quick test_wheel_rearm_into_swept_slot;
          Alcotest.test_case "due re-arm fires next slot" `Quick
            test_wheel_due_rearm_fires_next_slot;
        ]
        @ qsuite [ prop_wheel_fires_everything ] );
    ]
