(** The shape of a packet-ingress point on the dataplane, implemented
    by the BE intercept ([Be.Ingress_impl]): a single-packet [ingest]
    that can decline ([`Continue]) and a vectored [ingest_batch] that
    consumes the whole batch (taking ownership — the implementation
    recycles it; anything it cannot handle it routes through its own
    fallback).  [ctx] carries the component's side channel (the packet
    direction for the BE intercept), identically placed in both
    variants. *)

module type S = sig
  type t
  type ctx

  val ingest : t -> ctx:ctx -> Nezha_net.Packet.t -> [ `Handled | `Continue ]
  val ingest_batch : t -> ctx:ctx -> Nezha_net.Pbatch.t -> unit
end
