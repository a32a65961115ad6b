open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric

type t = { mutable sent : int }

let start ~sim ~rng ~vpc ~attacker ~victim ~rate ~duration () =
  if rate <= 0.0 || duration <= 0.0 then invalid_arg "Syn_flood.start: rate and duration positive";
  let t = { sent = 0 } in
  (* The victim never answers: half-open connections only. *)
  Vm.set_app victim.Tcp_crr.vm (fun _ _ -> ());
  let t_end = Sim.now sim +. duration in
  let rec arrival sim' =
    if Sim.now sim' < t_end then begin
      t.sent <- t.sent + 1;
      let flow =
        Five_tuple.make
          ~src:(Ipv4.add attacker.Tcp_crr.ip (t.sent / 60_000))
          ~dst:victim.Tcp_crr.ip
          ~src_port:(1024 + (t.sent mod 60_000))
          ~dst_port:80 ~proto:Five_tuple.Tcp
      in
      let pkt = Packet.create ~vpc ~flow ~direction:Packet.Tx ~flags:Packet.syn () in
      Vswitch.from_vm attacker.Tcp_crr.vs attacker.Tcp_crr.vnic pkt;
      Sim.post sim' ~delay:(Rng.exponential rng ~mean:(1.0 /. rate)) arrival
    end
  in
  Sim.post sim ~delay:0.0 arrival;
  t

let sent t = t.sent
