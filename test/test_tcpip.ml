module T = Protolat_tcpip
module Ns = Protolat_netsim
module Xk = Protolat_xkernel
module Checksum = T.Checksum
module Seq = T.Seq

(* ----- checksum ----------------------------------------------------------- *)

let test_checksum_rfc_example () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 2ddf0, cksum ~ddf2 *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "raw sum" 0x2DDF0 (Checksum.sum b 0 8);
  (* folded sum ddf2, complemented 220d *)
  Alcotest.(check int) "complemented" 0x220D (Checksum.compute b 0 8);
  Alcotest.(check bool) "verify with embedded" true
    (let c = Checksum.compute b 0 8 in
     let full = Bytes.cat b (Bytes.of_string (Printf.sprintf "%c%c" (Char.chr (c lsr 8)) (Char.chr (c land 0xFF)))) in
     Checksum.verify full 0 10)

let prop_checksum_verify =
  QCheck.Test.make ~name:"computed checksum always verifies" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 1 200))
    (fun s ->
      let data = Bytes.of_string s in
      let c = Checksum.compute data 0 (Bytes.length data) in
      let tail = Bytes.create 2 in
      Bytes.set tail 0 (Char.chr (c lsr 8 land 0xFF));
      Bytes.set tail 1 (Char.chr (c land 0xFF));
      (* even-length data: appending the checksum must verify *)
      Bytes.length data mod 2 = 1
      || Checksum.verify (Bytes.cat data tail) 0 (Bytes.length data + 2))

let prop_checksum_detects_corruption =
  QCheck.Test.make ~name:"checksum detects single-byte corruption" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 2 100)) small_nat)
    (fun (s, pos) ->
      QCheck.assume (String.length s mod 2 = 0);
      let data = Bytes.of_string s in
      let c = Checksum.compute data 0 (Bytes.length data) in
      let tail = Bytes.create 2 in
      Bytes.set tail 0 (Char.chr (c lsr 8 land 0xFF));
      Bytes.set tail 1 (Char.chr (c land 0xFF));
      let full = Bytes.cat data tail in
      let i = pos mod Bytes.length data in
      let orig = Bytes.get full i in
      Bytes.set full i (Char.chr (Char.code orig lxor 0x5A));
      not (Checksum.verify full 0 (Bytes.length full)))

(* ----- headers ----------------------------------------------------------- *)

let prop_ip_hdr_roundtrip =
  QCheck.Test.make ~name:"IP header marshal roundtrip" ~count:200
    QCheck.(quad (int_bound 0xFFFF) (int_bound 0xFF) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (len, proto, src, dst) ->
      let h = T.Ip_hdr.make ~total_len:len ~proto ~src ~dst () in
      let b = T.Ip_hdr.to_bytes h in
      let h' = T.Ip_hdr.of_bytes b in
      T.Ip_hdr.valid_checksum b
      && h'.T.Ip_hdr.total_len = len
      && h'.T.Ip_hdr.proto = proto
      && h'.T.Ip_hdr.src = src
      && h'.T.Ip_hdr.dst = dst)

let prop_tcp_hdr_roundtrip =
  QCheck.Test.make ~name:"TCP header marshal roundtrip" ~count:200
    QCheck.(quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0x3FFFFFFF) (int_bound 0x3F))
    (fun (sport, dport, seq, flags) ->
      let h = T.Tcp_hdr.make ~flags ~sport ~dport ~seq ~ack:(seq / 2) () in
      let h' = T.Tcp_hdr.of_bytes (T.Tcp_hdr.to_bytes h) in
      h'.T.Tcp_hdr.sport = sport
      && h'.T.Tcp_hdr.dport = dport
      && h'.T.Tcp_hdr.seq = seq
      && h'.T.Tcp_hdr.flags = flags)

let test_ip_hdr_bad_version () =
  Alcotest.check_raises "bad version"
    (Invalid_argument "Ip_hdr.of_bytes: bad version/IHL") (fun () ->
      ignore (T.Ip_hdr.of_bytes (Bytes.make 20 '\x60')))

(* ----- sequence arithmetic ------------------------------------------------ *)

let test_seq_wraparound () =
  let near_max = 0xFFFF_FFF0 in
  Alcotest.(check int) "add wraps" 0x10 (Seq.add near_max 0x20);
  Alcotest.(check bool) "lt across wrap" true (Seq.lt near_max 0x10);
  Alcotest.(check bool) "gt across wrap" true (Seq.gt 0x10 near_max);
  Alcotest.(check int) "sub across wrap" 0x20 (Seq.sub 0x10 near_max);
  Alcotest.(check bool) "window across wrap" true
    (Seq.in_window ~seq:0x5 ~lo:near_max ~size:0x40)

let prop_seq_antisymmetric =
  QCheck.Test.make ~name:"seq lt/gt antisymmetric" ~count:300
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) ->
      if a = b then (not (Seq.lt a b)) && not (Seq.gt a b)
      else Seq.lt a b <> Seq.gt a b || Seq.sub a b = -0x8000_0000)

(* ----- TCB ----------------------------------------------------------------- *)

let test_rtt_estimator () =
  let cb =
    T.Tcb.create (Xk.Simmem.create ()) ~local_ip:1 ~local_port:1 ~remote_ip:2
      ~remote_port:2 ~iss:100
  in
  T.Tcb.update_rtt cb 4;
  Alcotest.(check int) "first sample srtt = rtt<<3" (4 lsl 3) cb.T.Tcb.srtt;
  let rto1 = T.Tcb.rto_ticks cb in
  for _ = 1 to 20 do
    T.Tcb.update_rtt cb 1
  done;
  Alcotest.(check bool) "rto adapts downward" true (T.Tcb.rto_ticks cb <= rto1);
  Alcotest.(check bool) "rto floor" true (T.Tcb.rto_ticks cb >= 2)

let test_tcb_key () =
  let k1 = T.Tcb.key ~local_port:80 ~remote_ip:5 ~remote_port:1000 in
  let k2 = T.Tcb.key ~local_port:80 ~remote_ip:5 ~remote_port:1001 in
  Alcotest.(check bool) "distinct" true (k1 <> k2)

(* ----- end-to-end TCP --------------------------------------------------------- *)

let establish ?client_opts ?server_opts ~rounds () =
  let copts = Option.value ~default:T.Opts.improved client_opts in
  let sopts = Option.value ~default:T.Opts.improved server_opts in
  let pair =
    T.Stack.pair_of_net
      (T.Stack.make_net
         ~opts_for:(fun i -> if i = 0 then copts else sopts)
         ~topology:(Ns.Topology.pair ()) ())
  in
  let c, s = T.Stack.establish pair ~rounds in
  (pair, c, s)

let test_handshake () =
  let pair, client, _ = establish ~rounds:1 () in
  match T.Tcptest.session client with
  | Some s ->
    Alcotest.(check string) "established" "ESTABLISHED"
      (T.Tcb.state_string (T.Tcp.state s));
    Alcotest.(check int) "one session each side" 1
      (T.Tcp.session_count pair.T.Stack.client.T.Stack.tcp)
  | None -> Alcotest.fail "no session"

let run_pingpong ?client_opts ?server_opts rounds =
  let pair, client, _ = establish ?client_opts ?server_opts ~rounds () in
  T.Tcptest.start client;
  ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.T.Stack.sim +. 4.0e6) pair.T.Stack.sim);
  (pair, client)

let test_pingpong () =
  let pair, client = run_pingpong 20 in
  Alcotest.(check int) "all rounds" 20 (T.Tcptest.rounds_completed client);
  Alcotest.(check int) "no retransmits" 0
    (T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp);
  Alcotest.(check int) "no drops" 0
    (T.Ip.packets_dropped pair.T.Stack.client.T.Stack.ip)

let test_pingpong_all_opts () =
  (* every §2.2 toggle combination of interest still works end to end *)
  List.iter
    (fun opts ->
      let _, client = run_pingpong ~client_opts:opts ~server_opts:opts 5 in
      Alcotest.(check int) "rounds" 5 (T.Tcptest.rounds_completed client))
    [ T.Opts.original;
      T.Opts.improved;
      { T.Opts.improved with T.Opts.header_prediction = true };
      { T.Opts.improved with T.Opts.avoid_muldiv = false };
      { T.Opts.improved with T.Opts.usc_lance = false } ]

let test_retransmission_on_loss () =
  let pair =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let client, _ = T.Stack.establish pair ~rounds:3 in
  (* drop the first data frame on the wire *)
  let dropped = ref false in
  Ns.Ether.Link.set_filter pair.T.Stack.link (fun f ->
      if (not !dropped) && Bytes.length f.Ns.Ether.payload >= 55 then begin
        dropped := true;
        true
      end
      else false);
  T.Tcptest.start client;
  ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.T.Stack.sim +. 6.0e6) pair.T.Stack.sim);
  Alcotest.(check bool) "frame was dropped" true !dropped;
  Alcotest.(check int) "rounds complete despite loss" 3
    (T.Tcptest.rounds_completed client);
  Alcotest.(check bool) "retransmitted" true
    (T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp > 0)

let test_delayed_ack_one_way () =
  (* a one-way send (no application reply) must still get acked: the
     delayed-ack timer fires *)
  let pair =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let got = ref 0 in
  let server_tcp = pair.T.Stack.server.T.Stack.tcp in
  T.Tcp.listen server_tcp ~port:9 ~receive:(fun _ _ -> incr got);
  let session =
    T.Tcp.connect pair.T.Stack.client.T.Stack.tcp ~local_port:2000
      ~remote_ip:pair.T.Stack.server.T.Stack.ip_addr ~remote_port:9
      ~receive:(fun _ _ -> ())
  in
  ignore (Ns.Sim.run ~until:50_000.0 pair.T.Stack.sim);
  Alcotest.(check string) "established" "ESTABLISHED"
    (T.Tcb.state_string (T.Tcp.state session));
  T.Tcp.send session (Bytes.of_string "one-way");
  ignore (Ns.Sim.run ~until:5.0e6 pair.T.Stack.sim);
  Alcotest.(check int) "delivered" 1 !got;
  let cb = T.Tcp.tcb session in
  Alcotest.(check bool) "acked (delayed ack arrived)" true
    (Seq.geq cb.T.Tcb.snd_una cb.T.Tcb.snd_nxt);
  Alcotest.(check int) "no spurious retransmit" 0
    (T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp)

let test_fin_teardown () =
  let pair, client = run_pingpong 2 in
  match T.Tcptest.session client with
  | None -> Alcotest.fail "no session"
  | Some s ->
    T.Tcp.close s;
    ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.T.Stack.sim +. 1.0e6) pair.T.Stack.sim);
    let st = T.Tcp.state s in
    Alcotest.(check bool) "left ESTABLISHED" true (st <> T.Tcb.Established)

let test_window_update_variants_agree () =
  (* the 35% mul/div and 33% shift/add thresholds are operationally close *)
  let run opts =
    let _, client =
      run_pingpong ~client_opts:opts ~server_opts:opts 10
    in
    T.Tcptest.rounds_completed client
  in
  Alcotest.(check int) "same behaviour" (run T.Opts.improved)
    (run { T.Opts.improved with T.Opts.avoid_muldiv = false })

let test_bidirectional_seq_progress () =
  let _, client = run_pingpong 8 in
  match T.Tcptest.session client with
  | None -> Alcotest.fail "no session"
  | Some s ->
    let cb = T.Tcp.tcb s in
    (* 8 pings of 1 byte each, plus the SYN *)
    Alcotest.(check int) "snd progress" 9 (Seq.sub cb.T.Tcb.snd_nxt cb.T.Tcb.iss);
    Alcotest.(check int) "rcv progress" 9 (Seq.sub cb.T.Tcb.rcv_nxt cb.T.Tcb.irs);
    (* the client additionally sends the SYN, the handshake ACK and a final
       delayed ack, so it emits a few more segments than it receives *)
    let extra = cb.T.Tcb.segments_out - cb.T.Tcb.segments_in in
    Alcotest.(check bool) "segment balance" true (extra >= 1 && extra <= 3)

(* frames a wire can deliver that no sender here makes: each is a
   counted drop, never an exception *)
let test_ip_malformed_frames_dropped () =
  let pair =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let host = pair.T.Stack.server in
  let ip = host.T.Stack.ip in
  let simmem = host.T.Stack.env.Ns.Host_env.simmem in
  let dropped0 = T.Ip.packets_dropped ip in
  let fragment ~frag_off ~flags payload =
    let hdr =
      { (T.Ip_hdr.make ~ident:7
           ~total_len:(T.Ip_hdr.size + String.length payload)
           ~proto:T.Ip_hdr.proto_tcp ~src:1 ~dst:(T.Ip.my_ip ip) ())
        with
        T.Ip_hdr.frag_off;
        T.Ip_hdr.flags }
    in
    let msg = Xk.Msg.of_string simmem payload in
    Xk.Msg.push msg (T.Ip_hdr.to_bytes hdr);
    msg
  in
  T.Ip.demux ip ~src_mac:0 (Xk.Msg.of_string simmem (String.make 10 'x'));
  (* MF set at byte offset 800, then the last fragment at offset 8,
     which fixes the datagram length at 16 bytes *)
  T.Ip.demux ip ~src_mac:0 (fragment ~frag_off:100 ~flags:1 "fragment");
  T.Ip.demux ip ~src_mac:0 (fragment ~frag_off:1 ~flags:0 "fragment");
  Alcotest.(check int) "runt and overlong datagram dropped" 2
    (T.Ip.packets_dropped ip - dropped0);
  Alcotest.(check int) "nothing reassembled" 0
    (T.Ip.datagrams_reassembled ip);
  (* a checksum-valid header that is not IPv4 without options *)
  let v6 = Xk.Msg.of_string simmem "payload" in
  let raw = Bytes.make T.Ip_hdr.size '\000' in
  Bytes.set raw 0 '\x60';
  let c = Checksum.compute raw 0 T.Ip_hdr.size in
  Bytes.set raw 10 (Char.chr (c lsr 8));
  Bytes.set raw 11 (Char.chr (c land 0xFF));
  Xk.Msg.push v6 raw;
  T.Ip.demux ip ~src_mac:0 v6;
  Alcotest.(check int) "bad version dropped" 3
    (T.Ip.packets_dropped ip - dropped0)

(* An unfragmented datagram with [payload] behind a checksum-valid header
   that claims [total_len] bytes (default: exactly the header and
   payload). *)
let datagram ip simmem ?total_len ~proto payload =
  let total_len =
    Option.value total_len ~default:(T.Ip_hdr.size + String.length payload)
  in
  let hdr =
    T.Ip_hdr.make ~ident:9 ~total_len ~proto ~src:1 ~dst:(T.Ip.my_ip ip) ()
  in
  let msg = Xk.Msg.of_string simmem payload in
  Xk.Msg.push msg (T.Ip_hdr.to_bytes hdr);
  msg

let server_host () =
  (T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ()))
    .T.Stack.server

(* An IP payload shorter than a TCP header is a counted TCP drop, not an
   exception out of the demux. *)
let test_tcp_runt_dropped () =
  let host = server_host () in
  let ip = host.T.Stack.ip in
  let simmem = host.T.Stack.env.Ns.Host_env.simmem in
  let dropped0 = T.Tcp.segments_dropped host.T.Stack.tcp in
  T.Ip.demux ip ~src_mac:0
    (datagram ip simmem ~proto:T.Ip_hdr.proto_tcp "8 bytes!");
  Alcotest.(check int) "8-byte segment dropped by tcp" 1
    (T.Tcp.segments_dropped host.T.Stack.tcp - dropped0);
  Alcotest.(check int) "ip delivered it" 0 (T.Ip.packets_dropped ip)

(* The header's total length against the bytes delivered: a datagram
   claiming more is a counted drop; bytes past it, such as Ethernet
   minimum-frame padding, are trimmed before delivery. *)
let test_ip_total_len () =
  let host = server_host () in
  let ip = host.T.Stack.ip in
  let simmem = host.T.Stack.env.Ns.Host_env.simmem in
  let proto = 0x99 in
  let got = ref [] in
  T.Ip.register ip ~proto (fun ~hdr:_ msg ->
      got := Bytes.to_string (Xk.Msg.contents msg) :: !got);
  T.Ip.demux ip ~src_mac:0
    (datagram ip simmem ~total_len:(T.Ip_hdr.size + 40) ~proto "only ten!!");
  Alcotest.(check int) "total_len past the bytes delivered: dropped" 1
    (T.Ip.packets_dropped ip);
  Alcotest.(check (list string)) "nothing delivered" [] !got;
  T.Ip.demux ip ~src_mac:0
    (datagram ip simmem ~total_len:(T.Ip_hdr.size + 5) ~proto
       ("hello" ^ String.make 21 '\000'));
  Alcotest.(check int) "padded datagram not dropped" 1
    (T.Ip.packets_dropped ip);
  Alcotest.(check (list string)) "padding trimmed" [ "hello" ] !got

let suite =
  ( "tcpip",
    [ Alcotest.test_case "checksum rfc" `Quick test_checksum_rfc_example;
      QCheck_alcotest.to_alcotest prop_checksum_verify;
      QCheck_alcotest.to_alcotest prop_checksum_detects_corruption;
      QCheck_alcotest.to_alcotest prop_ip_hdr_roundtrip;
      QCheck_alcotest.to_alcotest prop_tcp_hdr_roundtrip;
      Alcotest.test_case "ip bad version" `Quick test_ip_hdr_bad_version;
      Alcotest.test_case "seq wraparound" `Quick test_seq_wraparound;
      QCheck_alcotest.to_alcotest prop_seq_antisymmetric;
      Alcotest.test_case "rtt estimator" `Quick test_rtt_estimator;
      Alcotest.test_case "tcb key" `Quick test_tcb_key;
      Alcotest.test_case "handshake" `Quick test_handshake;
      Alcotest.test_case "pingpong" `Quick test_pingpong;
      Alcotest.test_case "pingpong all opts" `Quick test_pingpong_all_opts;
      Alcotest.test_case "retransmission on loss" `Quick
        test_retransmission_on_loss;
      Alcotest.test_case "delayed ack one-way" `Quick test_delayed_ack_one_way;
      Alcotest.test_case "fin teardown" `Quick test_fin_teardown;
      Alcotest.test_case "window update variants" `Quick
        test_window_update_variants_agree;
      Alcotest.test_case "bidirectional seq" `Quick
        test_bidirectional_seq_progress;
      Alcotest.test_case "ip malformed frames dropped" `Quick
        test_ip_malformed_frames_dropped;
      Alcotest.test_case "tcp runt segment dropped" `Quick
        test_tcp_runt_dropped;
      Alcotest.test_case "ip total length checked" `Quick test_ip_total_len ] )
