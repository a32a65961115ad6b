open Nezha_engine
open Nezha_net
module Trace = Nezha_telemetry.Trace

type kernel = {
  per_core_hz : float;
  contention : float;
  packet_cycles : int;
  connection_cycles : int;
  backlog : int;
}

let default_kernel =
  {
    per_core_hz = 2.5e9;
    contention = 0.085;
    packet_cycles = 8_000;
    connection_cycles = 120_000;
    backlog = 4096;
  }

type t = {
  sim : Sim.t;
  name : string;
  vcpus : int;
  kernel : kernel;
  effective_hz : float;
  mutable busy_until : float;
  mutable queued : int;
  mutable busy_acc : float;
  mutable last_sample_time : float;
  mutable last_sample_busy : float;
  mutable app : Sim.t -> Packet.t -> unit;
  mutable delivered : int;
  mutable dropped : int;
  mutable accepted : int;
  mutable tracer : Trace.t option;
}

let saturating_cores ~vcpus ~contention =
  float_of_int vcpus /. (1.0 +. (contention *. float_of_int (vcpus - 1)))

let create ~sim ~name ~vcpus ?(kernel = default_kernel) () =
  if vcpus <= 0 then invalid_arg "Vm.create: vcpus must be positive";
  let effective_hz =
    kernel.per_core_hz *. saturating_cores ~vcpus ~contention:kernel.contention
  in
  {
    sim;
    name;
    vcpus;
    kernel;
    effective_hz;
    busy_until = 0.0;
    queued = 0;
    busy_acc = 0.0;
    last_sample_time = 0.0;
    last_sample_busy = 0.0;
    app = (fun _ _ -> ());
    delivered = 0;
    dropped = 0;
    accepted = 0;
    tracer = None;
  }

let name t = t.name
let vcpus t = t.vcpus
let effective_hz t = t.effective_hz

let max_cps t = t.effective_hz /. float_of_int t.kernel.connection_cycles

let set_app t f = t.app <- f

let set_tracer t tr = t.tracer <- tr

let deliver t pkt =
  if t.queued >= t.kernel.backlog then begin
    t.dropped <- t.dropped + 1;
    match t.tracer with
    | Some tr when pkt.Packet.trace_id <> 0 ->
      Trace.mark tr ~id:pkt.Packet.trace_id ~name:"vm_backlog_drop"
        ~component:("vm/" ^ t.name) ~now:(Sim.now t.sim) ()
    | Some _ | None -> ()
  end
  else begin
    let is_new_conn = pkt.Packet.flags.Packet.syn in
    let cycles =
      t.kernel.packet_cycles + if is_new_conn then t.kernel.connection_cycles else 0
    in
    let now = Sim.now t.sim in
    let start = if t.busy_until > now then t.busy_until else now in
    let dur = float_of_int cycles /. t.effective_hz in
    t.busy_until <- start +. dur;
    t.busy_acc <- t.busy_acc +. dur;
    t.queued <- t.queued + 1;
    (* The kernel stage covers queue wait + processing: arrival to app
       invocation — where the trace ends (the packet reached its VM). *)
    (match t.tracer with
    | Some tr when pkt.Packet.trace_id <> 0 ->
      Trace.add_span tr ~id:pkt.Packet.trace_id ~name:"vm_kernel"
        ~component:("vm/" ^ t.name) ~t0:now ~t1:t.busy_until ()
    | Some _ | None -> ());
    Sim.post_at t.sim ~time:t.busy_until (fun sim ->
        t.queued <- t.queued - 1;
        t.delivered <- t.delivered + 1;
        if is_new_conn then t.accepted <- t.accepted + 1;
        (match t.tracer with
        | Some tr when pkt.Packet.trace_id <> 0 ->
          Trace.end_trace tr ~id:pkt.Packet.trace_id ~now:(Sim.now sim)
        | Some _ | None -> ());
        t.app sim pkt)
  end

let packets_delivered t = t.delivered
let packets_dropped t = t.dropped
let connections_accepted t = t.accepted

let utilization_since_last_sample t =
  let now = Sim.now t.sim in
  let future = if t.busy_until > now then t.busy_until -. now else 0.0 in
  let busy = t.busy_acc -. future in
  let dt = now -. t.last_sample_time in
  let u = if dt <= 0.0 then 0.0 else (busy -. t.last_sample_busy) /. dt in
  t.last_sample_time <- now;
  t.last_sample_busy <- busy;
  Float.max 0.0 (Float.min 1.0 u)
