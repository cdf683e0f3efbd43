module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter
module Msg = Xk.Msg

type partial = {
  mutable frags : (int * bytes) list;  (* (byte offset, data), sorted *)
  mutable total_len : int;  (* -1 until the last fragment arrives *)
  mutable have : int;
  proto : int;
  src : int;
}

type t = {
  env : Ns.Host_env.t;
  vnet : Vnet.t;
  my_ip : int;
  inline : bool;
  mtu : int;
  protos : (hdr:Ip_hdr.t -> Msg.t -> unit) Xk.Map.t;
  reass : partial Xk.Map.t;
  mutable ident : int;
  mutable packets_in : int;
  mutable dropped : int;
  mutable fragmented : int;
  mutable reassembled : int;
}

let protok proto = Printf.sprintf "ipp%02x" proto

let reass_key ~src ~ident = Printf.sprintf "%08x:%04x" src ident

let mf_flag = 1 (* more-fragments, stored in the low flag bit we use *)

let demux t ~src_mac:_ msg =
  let m = t.env.Ns.Host_env.meter in
  Meter.fn m "ip_demux" (fun () ->
      t.packets_in <- t.packets_in + 1;
      m.Meter.block "ip_demux" "validate"
        ~reads:[ Meter.range ~base:(Msg.sim_addr msg) ~len:Ip_hdr.size () ];
      (* a runt cannot hold a header: dropped before it is read *)
      if Msg.len msg < Ip_hdr.size then t.dropped <- t.dropped + 1
      else
      let raw = Msg.peek msg 0 Ip_hdr.size in
      m.Meter.call "ip_demux" "validate" 0;
      let csum_ok =
        Cksum_meter.verify m ~metrics:t.env.Ns.Host_env.metrics ~sim_base:(Msg.sim_addr msg) raw 0 Ip_hdr.size
      in
      (* a checksum-valid header of another version/IHL is dropped too, and
         so is one whose total length is short of a header or claims more
         bytes than were delivered *)
      let hdr =
        if not csum_ok then None
        else
          match Ip_hdr.of_bytes raw with
          | h
            when h.Ip_hdr.total_len < Ip_hdr.size
                 || h.Ip_hdr.total_len > Msg.len msg ->
            None
          | h -> Some h
          | exception Invalid_argument _ -> None
      in
      let fragmented =
        match hdr with
        | Some h -> h.Ip_hdr.frag_off <> 0 || h.Ip_hdr.flags land 1 <> 0
        | None -> false
      in
      m.Meter.cold ~triggered:false "ip_demux" "options";
      m.Meter.cold ~triggered:fragmented "ip_demux" "frag_reass";
      match hdr with
      | None -> t.dropped <- t.dropped + 1
      | Some h -> (
        (* bytes past the header's length (link-layer padding) are not
           part of the datagram *)
        if Msg.len msg > h.Ip_hdr.total_len then
          Msg.truncate msg h.Ip_hdr.total_len;
        if fragmented then begin
          (* reassembly (the outlined path, but fully functional) *)
          ignore (Msg.pop msg Ip_hdr.size);
          let key = reass_key ~src:h.Ip_hdr.src ~ident:h.Ip_hdr.ident in
          let p =
            match Xk.Map.resolve t.reass key with
            | Some p -> p
            | None ->
              let p =
                { frags = []; total_len = -1; have = 0;
                  proto = h.Ip_hdr.proto; src = h.Ip_hdr.src }
              in
              Xk.Map.bind t.reass key p;
              p
          in
          let off = h.Ip_hdr.frag_off * 8 in
          let data = Msg.contents msg in
          if not (List.mem_assoc off p.frags) then begin
            p.frags <- List.sort compare ((off, data) :: p.frags);
            p.have <- p.have + Bytes.length data
          end;
          if h.Ip_hdr.flags land mf_flag = 0 then
            p.total_len <- off + Bytes.length data;
          if p.total_len >= 0 && p.have >= p.total_len then begin
            ignore (Xk.Map.unbind t.reass key);
            (* the last fragment fixed the length; a fragment reaching
               past it makes the whole datagram a drop *)
            if List.exists
                 (fun (o, d) -> o + Bytes.length d > p.total_len)
                 p.frags
            then t.dropped <- t.dropped + 1
            else begin
              t.reassembled <- t.reassembled + 1;
              let whole = Bytes.create p.total_len in
              List.iter
                (fun (o, d) -> Bytes.blit d 0 whole o (Bytes.length d))
                p.frags;
              let out = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
              Msg.set_payload out whole;
              match
                Xk.Demux.lookup m ~inline:t.inline ~caller:"ip_demux" t.protos
                  (protok p.proto)
              with
              | None -> t.dropped <- t.dropped + 1
              | Some f ->
                m.Meter.block "ip_demux" "deliver";
                m.Meter.call "ip_demux" "deliver" 0;
                f ~hdr:{ h with Ip_hdr.frag_off = 0; Ip_hdr.flags = 0 } out
            end
          end
        end
        else
          let handler =
            Xk.Demux.lookup m ~inline:t.inline ~caller:"ip_demux" t.protos
              (protok h.Ip_hdr.proto)
          in
          match handler with
          | None -> t.dropped <- t.dropped + 1
          | Some f ->
            ignore (Msg.pop msg Ip_hdr.size);
            m.Meter.block "ip_demux" "deliver";
            m.Meter.call "ip_demux" "deliver" 0;
            f ~hdr:h msg))

let create env vnet ~my_ip ?(mtu = 1500) ~map_cache_inline () =
  let t =
    { env;
      vnet;
      my_ip;
      inline = map_cache_inline;
      mtu;
      protos = Xk.Map.create ~buckets:16 ();
      reass = Xk.Map.create ~buckets:16 ();
      ident = 1;
      packets_in = 0;
      dropped = 0;
      fragmented = 0;
      reassembled = 0 }
  in
  Vnet.set_upper vnet (fun ~src_mac msg -> demux t ~src_mac msg);
  t

let my_ip t = t.my_ip

let register t ~proto f = Xk.Map.bind t.protos (protok proto) f

let push t ~dst ~proto msg =
  let m = t.env.Ns.Host_env.meter in
  Meter.fn m "ip_push" (fun () ->
      m.Meter.block "ip_push" "route"
        ~reads:[ Meter.range ~base:(Msg.sim_addr msg) ~len:16 () ];
      let routed = Vnet.has_route t.vnet ~ip:dst in
      m.Meter.cold ~triggered:(not routed) "ip_push" "noroute";
      if not routed then t.dropped <- t.dropped + 1
      else
      let total_len = Ip_hdr.size + Msg.len msg in
      let needs_frag = total_len > t.mtu in
      m.Meter.cold ~triggered:needs_frag "ip_push" "fragment";
      let ident = t.ident in
      t.ident <- (t.ident + 1) land 0xFFFF;
      if needs_frag then begin
        (* fragment: payload split at 8-byte-aligned boundaries *)
        t.fragmented <- t.fragmented + 1;
        let data = Msg.contents msg in
        let unit_ = (t.mtu - Ip_hdr.size) / 8 * 8 in
        let len = Bytes.length data in
        let rec send_frag off =
          if off < len then begin
            let this = min unit_ (len - off) in
            let last = off + this >= len in
            let hdr =
              { (Ip_hdr.make ~ident ~total_len:(Ip_hdr.size + this) ~proto
                   ~src:t.my_ip ~dst ())
                with
                Ip_hdr.frag_off = off / 8;
                Ip_hdr.flags = (if last then 0 else mf_flag) }
            in
            let frag = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
            Msg.set_payload frag (Bytes.sub data off this);
            Msg.push frag (Ip_hdr.to_bytes hdr);
            Vnet.push t.vnet ~dst_ip:dst frag;
            send_frag (off + this)
          end
        in
        send_frag 0
      end
      else begin
        let hdr =
          Ip_hdr.make ~ident ~total_len ~proto ~src:t.my_ip ~dst ()
        in
        m.Meter.block "ip_push" "hdr"
          ~writes:[ Meter.range ~base:(Msg.sim_addr msg) ~len:Ip_hdr.size () ];
        m.Meter.call "ip_push" "hdr" 0;
        (* to_bytes computes the header checksum; emit the cksum trace *)
        let bytes = Ip_hdr.to_bytes hdr in
        let _ =
          Cksum_meter.sum m ~metrics:t.env.Ns.Host_env.metrics ~sim_base:(Msg.sim_addr msg) bytes 0 Ip_hdr.size
        in
        Msg.push msg bytes;
        m.Meter.block "ip_push" "send";
        m.Meter.call "ip_push" "send" 0;
        Vnet.push t.vnet ~dst_ip:dst msg
      end)

let packets_in t = t.packets_in

let packets_dropped t = t.dropped

let datagrams_fragmented t = t.fragmented

let datagrams_reassembled t = t.reassembled

let reset t =
  (* host crash: partially reassembled datagrams die in kernel memory *)
  let keys = ref [] in
  Xk.Map.traverse t.reass (fun key _ -> keys := key :: !keys);
  List.iter (fun key -> ignore (Xk.Map.unbind t.reass key)) !keys
