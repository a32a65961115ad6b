open Nezha_engine

type t = {
  sim : Sim.t;
  params : Params.t;
  name : string;
  mutable busy_until : float;
  mutable queued : int;
  mutable busy_acc : float; (* total seconds of service completed or committed *)
  mutable last_sample_time : float;
  mutable last_sample_busy : float;
  (* Trailing-window bookkeeping for [peek_utilization]: ring of recent
     (time, busy_acc) snapshots taken on submissions, allocated with the
     first one (a region holds thousands of NICs that never see a job). *)
  mutable snap_times : float array;
  mutable snap_busy : float array;
  mutable snap_head : int;
  mutable snap_len : int;
  mutable completed : int;
  mutable dropped : int;
  mutable mem_used : int;
  mutable crashed : bool;
}

let snap_capacity = 512

let create ~sim ~params ~name =
  {
    sim;
    params;
    name;
    busy_until = 0.0;
    queued = 0;
    busy_acc = 0.0;
    last_sample_time = 0.0;
    last_sample_busy = 0.0;
    snap_times = [||];
    snap_busy = [||];
    snap_head = 0;
    snap_len = 0;
    completed = 0;
    dropped = 0;
    mem_used = 0;
    crashed = false;
  }

let name t = t.name
let params t = t.params

let cpu_time t ~cycles = float_of_int cycles /. t.params.Params.cpu_hz

let record_snapshot t now =
  if Array.length t.snap_times = 0 then begin
    t.snap_times <- Array.make snap_capacity 0.0;
    t.snap_busy <- Array.make snap_capacity 0.0
  end;
  let i = (t.snap_head + t.snap_len) mod snap_capacity in
  t.snap_times.(i) <- now;
  t.snap_busy.(i) <- t.busy_acc;
  if t.snap_len < snap_capacity then t.snap_len <- t.snap_len + 1
  else t.snap_head <- (t.snap_head + 1) mod snap_capacity

let submit t ~cycles k =
  if t.crashed then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else if t.queued >= t.params.Params.queue_capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let now = Sim.now t.sim in
    let start = if t.busy_until > now then t.busy_until else now in
    let dur = cpu_time t ~cycles in
    t.busy_until <- start +. dur;
    t.busy_acc <- t.busy_acc +. dur;
    t.queued <- t.queued + 1;
    record_snapshot t now;
    Sim.post_at t.sim ~time:t.busy_until (fun sim ->
        t.queued <- t.queued - 1;
        t.completed <- t.completed + 1;
        if not t.crashed then k sim);
    true
  end

let queue_depth t = t.queued

(* Busy seconds actually elapsed by [now]: committed service time minus
   the part of the backlog that lies in the future. *)
let busy_elapsed t now =
  let future = if t.busy_until > now then t.busy_until -. now else 0.0 in
  t.busy_acc -. future

let utilization_since_last_sample t =
  let now = Sim.now t.sim in
  let busy = busy_elapsed t now in
  let dt = now -. t.last_sample_time in
  let util = if dt <= 0.0 then 0.0 else (busy -. t.last_sample_busy) /. dt in
  t.last_sample_time <- now;
  t.last_sample_busy <- busy;
  Float.max 0.0 (Float.min 1.0 util)

let peek_utilization t ~window =
  let now = Sim.now t.sim in
  let cutoff = now -. window in
  (* Oldest snapshot at or after the cutoff. *)
  let rec probe i best =
    if i >= t.snap_len then best
    else begin
      let idx = (t.snap_head + i) mod snap_capacity in
      if t.snap_times.(idx) >= cutoff then Some idx else probe (i + 1) best
    end
  in
  match probe 0 None with
  | None ->
    (* No recent activity recorded: busy only if backlogged. *)
    if t.busy_until > now then 1.0 else 0.0
  | Some idx ->
    let t0 = Float.max cutoff t.snap_times.(idx) in
    let b0 = t.snap_busy.(idx) in
    let dt = now -. t0 in
    if dt <= 1e-12 then if t.busy_until > now then 1.0 else 0.0
    else Float.max 0.0 (Float.min 1.0 ((busy_elapsed t now -. b0) /. dt))

let total_busy_seconds t = busy_elapsed t (Sim.now t.sim)
let jobs_completed t = t.completed
let jobs_dropped t = t.dropped

let mem_capacity t = t.params.Params.mem_bytes
let mem_used t = t.mem_used

let mem_utilization t =
  if t.params.Params.mem_bytes = 0 then 1.0
  else float_of_int t.mem_used /. float_of_int t.params.Params.mem_bytes

let mem_reserve t bytes =
  if t.mem_used + bytes <= t.params.Params.mem_bytes then begin
    t.mem_used <- t.mem_used + bytes;
    true
  end
  else false

let mem_release t bytes =
  if bytes > t.mem_used then invalid_arg "Smartnic.mem_release: more than reserved";
  t.mem_used <- t.mem_used - bytes

let crash t = t.crashed <- true
let recover t = t.crashed <- false
let is_crashed t = t.crashed

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  let prefix = "smartnic/" ^ t.name ^ "/" in
  (* cpu_util must stay non-consuming: the controller's report path owns
     the consuming [utilization_since_last_sample]. *)
  T.register_gauge reg ~name:(prefix ^ "cpu_util") (fun () ->
      peek_utilization t ~window:1.0);
  T.register_gauge reg ~name:(prefix ^ "queue_depth") (fun () ->
      float_of_int t.queued);
  T.register_gauge reg ~name:(prefix ^ "mem_util") (fun () -> mem_utilization t);
  T.register_counter reg ~name:(prefix ^ "mem_used_bytes") (fun () -> t.mem_used);
  T.register_counter reg ~name:(prefix ^ "jobs_completed") (fun () -> t.completed);
  T.register_counter reg ~name:(prefix ^ "jobs_dropped") (fun () -> t.dropped)
