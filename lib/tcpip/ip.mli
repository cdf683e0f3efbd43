(** IP: the x-kernel Internet Protocol layer — header construction and
    checksum on output, validation and protocol demultiplexing on input,
    plus fragmentation and reassembly.  The latency-sensitive 1-byte
    segments never fragment, which is why the paper outlines that path;
    it is nevertheless fully implemented here. *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim

type t

val create :
  Ns.Host_env.t ->
  Vnet.t ->
  my_ip:int ->
  ?mtu:int ->
  map_cache_inline:bool ->
  unit ->
  t

val my_ip : t -> int

val register : t -> proto:int -> (hdr:Ip_hdr.t -> Xk.Msg.t -> unit) -> unit
(** Register a transport protocol's demux handler. *)

val demux : t -> src_mac:int -> Xk.Msg.t -> unit
(** Input path (installed as VNET's upper handler by [create]): validate,
    reassemble and deliver to the registered protocol.  A runt, a
    checksum-bad or non-IPv4 header, a header length past the bytes
    delivered, an unregistered protocol and a datagram with a fragment
    past its length are counted drops; bytes past the header length are
    trimmed. *)

val push : t -> dst:int -> proto:int -> Xk.Msg.t -> unit
(** Prepend an IP header (with checksum) and route via VNET. *)

val packets_in : t -> int

val packets_dropped : t -> int

val datagrams_fragmented : t -> int

val datagrams_reassembled : t -> int

val reset : t -> unit
(** Drop crash-volatile state: every partially reassembled datagram.
    Protocol registrations and counters survive (the counters belong to
    the observer, not the host). *)
