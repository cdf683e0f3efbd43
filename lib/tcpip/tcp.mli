(** TCP: BSD-derived x-kernel TCP (§2.1).

    The full segment path is real — sequence/ack arithmetic, checksums over
    the wire bytes, the three-way handshake, retransmission and delayed-ack
    timers, congestion and advertised windows.  The latency-relevant
    optimizations are behavioral toggles from {!Opts}:
    - [avoid_muldiv]: congestion-window common-case test and the 33%
      shift/add advertised-window update (vs 35% with multiply/divide);
    - [header_prediction]: BSD header prediction, which on a bidirectional
      connection merely adds a dozen instructions;
    - [word_fields] and the rest affect only the cost model ({!Specs}). *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim

type t

type session

val create : Ns.Host_env.t -> Ip.t -> opts:Opts.t -> t

val connect :
  t ->
  local_port:int ->
  remote_ip:int ->
  remote_port:int ->
  receive:(session -> bytes -> unit) ->
  session
(** Sends the SYN; the handshake completes as the simulation runs. *)

val listen : t -> port:int -> receive:(session -> bytes -> unit) -> unit

val send : session -> bytes -> unit
(** Send application data on an established connection (tcp_send →
    tcp_output). *)

val send_msg : session -> Xk.Msg.t -> unit
(** Like {!send} but with a caller-owned message buffer (the test protocols
    reuse one buffer so the steady-state d-cache stream is realistic). *)

val close : session -> unit
(** Orderly close: send FIN from [Established]/[Close_wait].  Closing a
    session still in the handshake ([Syn_sent]/[Syn_received]) deletes
    the TCB immediately, RFC 793-style — otherwise an abandoned SYN
    keeps retransmitting and can complete into an ownerless session once
    a crashed peer returns. *)

val state : session -> Tcb.state

val tcb : session -> Tcb.t

val session_count : t -> int

val map_counters : t -> Xk.Map.counters
(** Operation counters of the PCB demux map (resolves, one-entry cache
    hits, key compares, buckets scanned by traversals). *)

val map_nonempty_buckets : t -> int
(** Current length of the PCB map's lazily maintained non-empty-bucket
    list (§2.2.1), including abandoned entries. *)

val sweep : t -> int
(** Housekeeping walk over every PCB (tcp_slowtimo style): closes sessions
    left in [Close_wait] by a departed peer, and reaps sessions stuck in
    [Fin_wait_2] past the finwait2 timeout — the peer that owes them a FIN
    may have crashed and lost the connection entirely.  Returns the number
    of sessions visited.  Uses {!Xk.Map.traverse}, so its cost — and the
    [buckets_scanned] counter — follows the non-empty-bucket list. *)

val abort_all : t -> int
(** Host crash: drop every PCB — cancel its timers, flush its send /
    retransmit / reassembly queues, move it to [Closed], unbind it — and
    forget all listeners.  Peers discover the loss through retransmission
    timeouts and the RST-less reconnect path, exactly as with a real
    power failure.  Returns the number of sessions destroyed. *)

val set_receive : session -> (session -> bytes -> unit) -> unit

val set_nodelay : session -> bool -> unit
(** Disable the Nagle algorithm (small-segment coalescing while data is in
    flight).  Like BSD, Nagle is on by default; the latency ping-pong is
    unaffected because it never has unacknowledged data when it sends. *)

val retransmits : t -> int

val persist_probes : t -> int
(** Zero-window probes sent (the persist timer, RFC 1122). *)

val segments_dropped : t -> int
(** Segments dropped on input because the IP payload was shorter than a
    TCP header. *)
