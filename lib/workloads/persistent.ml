open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric

type t = {
  sim : Sim.t;
  rng : Rng.t;
  vpc : Vpc.t;
  client : Tcp_crr.endpoint;
  server : Tcp_crr.endpoint;
  keepalive : float;
  mutable opened : int;
  mutable stopped : bool;
  live : unit -> int;
  rejected : unit -> int;
}

let flow_of t i =
  (* Spread flows over source ports and, past 60k, source addresses. *)
  Five_tuple.make
    ~src:(Ipv4.add t.client.Tcp_crr.ip (i / 60_000))
    ~dst:t.server.Tcp_crr.ip
    ~src_port:(1024 + (i mod 60_000))
    ~dst_port:80 ~proto:Five_tuple.Tcp

let keepalive_loop t flow =
  let rec tick sim =
    if not t.stopped then begin
      let pkt =
        Packet.create ~vpc:t.vpc ~flow ~direction:Packet.Tx ~flags:Packet.ack ~payload_len:16 ()
      in
      Vswitch.from_vm t.client.Tcp_crr.vs t.client.Tcp_crr.vnic pkt;
      Sim.post sim ~delay:t.keepalive tick
    end
  in
  (* Jittered phase so keep-alives do not arrive as one burst. *)
  Sim.post t.sim ~delay:(Rng.float t.rng t.keepalive) tick

let open_flow t i =
  t.opened <- t.opened + 1;
  let flow = flow_of t i in
  let pkt = Packet.create ~vpc:t.vpc ~flow ~direction:Packet.Tx ~flags:Packet.syn () in
  Vswitch.from_vm t.client.Tcp_crr.vs t.client.Tcp_crr.vnic pkt;
  (* Complete the handshake shortly after so the session leaves the
     short-aged SYN state. *)
  Sim.post t.sim ~delay:0.002 (fun _ ->
      if not t.stopped then begin
        let ack =
          Packet.create ~vpc:t.vpc ~flow ~direction:Packet.Tx ~flags:Packet.ack
            ~payload_len:8 ()
        in
        Vswitch.from_vm t.client.Tcp_crr.vs t.client.Tcp_crr.vnic ack
      end);
  keepalive_loop t flow

let start ~sim ~rng ~vpc ~client ~server ~target ?(ramp_rate = 2000.0) ?(keepalive = 3.0) () =
  if target <= 0 then invalid_arg "Persistent.start: target must be positive";
  let server_vs = server.Tcp_crr.vs and server_vnic = server.Tcp_crr.vnic in
  let t =
    {
      sim;
      rng;
      vpc;
      client;
      server;
      keepalive;
      opened = 0;
      stopped = false;
      live = (fun () -> Vswitch.session_count server_vs server_vnic);
      rejected = (fun () -> Vswitch.drop_count server_vs Nf.Table_full);
    }
  in
  (* The server absorbs; replies are not needed to hold sessions open. *)
  Vm.set_app server.Tcp_crr.vm (fun _ _ -> ());
  let rec ramp i sim' =
    if i < target && not t.stopped then begin
      open_flow t i;
      Sim.post sim' ~delay:(1.0 /. ramp_rate) (ramp (i + 1))
    end
  in
  Sim.post sim ~delay:0.0 (ramp 0);
  t

let opened t = t.opened
let live_flows t = t.live
let rejected t = t.rejected ()
let stop t = t.stopped <- true
