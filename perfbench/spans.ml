(* Spans around the benchmark's calls into each layer, and the loopback
   client constructor they are attached to.

   The constructor reproduces [Interweave.loopback_client] step for step —
   [Iw_transport.loopback] + [crc_conn] + [Iw_proto.demux_link] +
   [Iw_client.connect], the Enable_crc negotiation, framed byte accounting,
   notifications, and reconnect — so the benchmark drives the same program a
   facade user gets.  It differs only in two thin wrappers: one around the
   client's [link.call] (the proto span) and one around the server's end of
   the connection (the server span, from [recv] returning a request to
   [send] returning its reply).  With tracing off both wrappers are a single
   branch and a call-through, so the traced and untraced runs measure one
   program and their difference is the tracing overhead. *)

let enabled = ref false
(* Flipped only between measurement windows, while no load thread runs. *)

(* Seconds on the monotonic clock, with nanosecond resolution: cache-served
   read locks take a few microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One accumulator per client.  Each client is driven by exactly one load
   thread, so the fields need no lock. *)
type ctx = {
  mutable rpc_s : float;  (* total time inside link.call *)
  mutable op_s : float;  (* total time inside op spans *)
  mutable op_rpc_s : float;  (* RPC time that fell inside op spans *)
  mutable app_s : float;  (* the workload's own accesses inside critical sections *)
}

let ctx () = { rpc_s = 0.; op_s = 0.; op_rpc_s = 0.; app_s = 0. }

(* Server spans arrive on the server's connection threads. *)
let srv_m = Mutex.create ()

let srv_s = ref 0.

let srv_n = ref 0

let server_totals () =
  Mutex.lock srv_m;
  let r = (!srv_s, !srv_n) in
  Mutex.unlock srv_m;
  r

(* An op span: [f] is one lock-protected critical section.  Returns the
   op's wall time, which is the end-to-end latency sample and is taken
   whether or not tracing is on. *)
let op ctx f =
  let rpc0 = ctx.rpc_s in
  let t0 = now () in
  f ();
  let dt = now () -. t0 in
  if !enabled then begin
    ctx.op_s <- ctx.op_s +. dt;
    ctx.op_rpc_s <- ctx.op_rpc_s +. (ctx.rpc_s -. rpc0)
  end;
  dt

(* The workload's own loads and stores inside a critical section. *)
let app ctx f =
  if !enabled then begin
    let t0 = now () in
    let r = f () in
    ctx.app_s <- ctx.app_s +. (now () -. t0);
    r
  end
  else f ()

let traced_link ctx (link : Iw_proto.link) =
  let call ?ctx:tc req =
    if !enabled then begin
      let t0 = now () in
      Fun.protect
        ~finally:(fun () -> ctx.rpc_s <- ctx.rpc_s +. (now () -. t0))
        (fun () -> link.Iw_proto.call ?ctx:tc req)
    end
    else link.Iw_proto.call ?ctx:tc req
  in
  { link with Iw_proto.call }

(* Response frames carry tag 0 or 2, notifications tag 1; a CRC-protected
   frame puts a marker byte and four CRC bytes in front of the tag. *)
let is_response s =
  let tag_at = if String.length s > 0 && s.[0] = '\xc3' then 5 else 0 in
  String.length s > tag_at && (s.[tag_at] = '\000' || s.[tag_at] = '\002')

let traced_server_conn (conn : Iw_transport.conn) =
  (* Only the serving thread calls recv and sends replies; notification
     pushes from other threads carry tag 1 and leave [arrived] alone. *)
  let arrived = ref 0. in
  let recv () =
    let s = conn.Iw_transport.recv () in
    if !enabled then arrived := now ();
    s
  in
  let send s =
    conn.Iw_transport.send s;
    if !enabled && !arrived > 0. && is_response s then begin
      let dt = now () -. !arrived in
      arrived := 0.;
      Mutex.lock srv_m;
      srv_s := !srv_s +. dt;
      incr srv_n;
      Mutex.unlock srv_m
    end
  in
  { conn with Iw_transport.recv; send }

(* [Interweave.loopback_client] with the two span wrappers attached. *)
let loopback_client ~arch ~ctx server =
  let client = ref None in
  let pre_sent = ref 0 and pre_received = ref 0 in
  let on_notify n =
    match !client with Some c -> Iw_client.handle_notification c n | None -> ()
  in
  let on_io ~dir bytes =
    match (!client, dir) with
    | Some c, `Sent ->
      let s = Iw_client.stats c in
      s.Iw_client.bytes_sent <- s.Iw_client.bytes_sent + bytes
    | Some c, `Received ->
      let s = Iw_client.stats c in
      s.Iw_client.bytes_received <- s.Iw_client.bytes_received + bytes
    | None, `Sent -> pre_sent := !pre_sent + bytes
    | None, `Received -> pre_received := !pre_received + bytes
  in
  let dial () =
    let client_end, server_end = Iw_transport.loopback () in
    let serve () = Iw_server.serve_conn server (traced_server_conn server_end) in
    ignore (Thread.create serve () : Thread.t);
    client_end
  in
  let mk () =
    let conn, crc = Iw_transport.crc_conn (dial ()) in
    let link =
      traced_link ctx (Iw_proto.demux_link ~on_io ~call_timeout:30.0 conn ~on_notify)
    in
    match link.Iw_proto.call (Iw_proto.Enable_crc { session = 0 }) with
    | Iw_proto.R_ok ->
      Iw_transport.enable_send crc;
      link
    | Iw_proto.R_error _ -> link
    | _ -> failwith "Enable_crc: unexpected response"
  in
  let c = Iw_client.connect ~arch ~busy_wait:(Some 0.002) (mk ()) in
  client := Some c;
  let s = Iw_client.stats c in
  s.Iw_client.bytes_sent <- s.Iw_client.bytes_sent + !pre_sent;
  s.Iw_client.bytes_received <- s.Iw_client.bytes_received + !pre_received;
  Iw_client.set_framed_byte_accounting c true;
  Iw_client.enable_notifications c;
  Iw_client.set_reconnect c ~dial:mk;
  c
