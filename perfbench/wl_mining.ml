(* mining_poll: the paper's Fig. 7 application.  A little-endian 32-bit
   database client feeds customers through [Lattice.update] in small
   increments (support bumps, malloc of newly frequent sequences), and a
   64-bit mining client at Delta 2 coherence answers four top-k queries per
   increment, with default client options (auto-subscribe included).
   Relaxed coherence, the client cache, notifications, and the server's
   diff cache do the work.

   The lattice grows as customers accumulate, so the stream is cut into
   epochs of one pass over a database: at the end of a pass the database
   client frees every block of the segment and starts a new lattice, and
   the mining client re-attaches.  Epochs cycle through [dbs] databases
   generated from the seed, so a run's cost per op depends neither on how
   many ops it got through nor much on the luck of one database.  The reset
   is scaffolding and is kept out of the measurements. *)

open Common
module Gen = Iw_seqmine.Gen
module Lattice = Iw_seqmine.Lattice

let seg_name = "mining/summary"

let k = 10

let queries = 4

let scale = 0.02

let increments = 50

let dbs = 4

(* Reads the database client's own copy, which is exactly the version its
   last release published; no lock is taken, so the record costs no
   traffic. *)
let record chk l =
  let g = Lattice.segment l in
  let version = Iw_client.segment_version g in
  if version > Checker.acked chk ~seg:seg_name then begin
    Checker.commit chk ~seg:seg_name ~version (Lattice.top l k);
    Checker.ack chk ~seg:seg_name ~version
  end

let setup ~seed ~work_dir:_ =
  let params = Gen.scaled scale in
  let dbs = Array.init dbs (fun i -> Gen.generate { params with Gen.seed = (seed * dbs) + i }) in
  let epoch = ref 0 in
  let customers = params.Gen.customers in
  let min_support = max 5 (customers / 250) in
  let step_size = max 1 (customers / increments) in
  let server = Iw_server.create ~domains:1 () in
  let wctx = Spans.ctx () and rctx = Spans.ctx () in
  let writer = Spans.loopback_client ~arch:Iw_arch.x86_32 ~ctx:wctx server in
  let reader = Spans.loopback_client ~arch:Iw_arch.alpha64 ~ctx:rctx server in
  let chk = Checker.create () in
  let commits = ref 0 in
  let wl = ref (Lattice.create writer ~segment:seg_name ~min_support) in
  record chk !wl;
  let rseg = Iw_client.open_segment ~create:false reader seg_name in
  let attach () =
    (* Attach unsubscribed at Full coherence, so the acquire fetches the new
       root even if a change notification is still in flight; then relax.
       The client re-subscribes by itself after repeated wasted polls. *)
    Iw_client.unsubscribe rseg;
    Iw_client.set_coherence rseg Iw_proto.Full;
    let l = Lattice.attach reader ~segment:seg_name in
    Iw_client.set_coherence rseg (Iw_proto.Delta 2);
    l
  in
  let rl = ref (attach ()) in
  let next_customer = ref 0 in
  let reset () =
    let g = Lattice.segment !wl in
    Iw_client.wl_acquire g;
    List.iter
      (fun b -> if not b.Iw_mem.b_freed then Iw_client.free writer b.Iw_mem.b_addr)
      (Iw_client.blocks g);
    Iw_client.wl_release g;
    wl := Lattice.create writer ~segment:seg_name ~min_support;
    record chk !wl;
    rl := attach ();
    incr epoch;
    next_customer := 0
  in
  let step _ lane =
    if !next_customer >= customers then scaffold lane reset;
    let from_customer = !next_customer in
    let to_customer = min customers (from_customer + step_size) in
    next_customer := to_customer;
    if
      op lane Write wctx (fun () ->
          Lattice.update !wl dbs.(!epoch mod Array.length dbs) ~from_customer ~to_customer)
    then
      excluded lane (fun () ->
          record chk !wl;
          incr commits);
    for _ = 1 to queries do
      let acked_before = Checker.acked chk ~seg:seg_name in
      let version = ref 0 in
      let observed = ref [] in
      let ok, round_trip =
        read_op lane rctx reader (fun () ->
            Iw_client.rl_acquire rseg;
            version := Iw_client.segment_version rseg;
            observed := Spans.app rctx (fun () -> Lattice.top !rl k);
            Iw_client.rl_release rseg)
      in
      if ok then
        excluded lane (fun () ->
            Checker.observe chk ~reader:"alpha64" ~seg:seg_name ~version:!version ~round_trip
              ~acked_before ~bound:2 ~check:(fun expected ->
                Checker.top ~expected ~observed:!observed))
    done
  in
  let finish () =
    (* R4: a fresh, cacheless client of a third architecture must see the
       final acknowledged summary, and the whole lattice must match the
       database client's copy node for node. *)
    let c = Spans.loopback_client ~arch:Iw_arch.sparc32 ~ctx:(Spans.ctx ()) server in
    let l = Lattice.attach c ~segment:seg_name in
    let g = Lattice.segment l in
    Iw_client.rl_acquire g;
    let version = Iw_client.segment_version g in
    let top = Lattice.top l k and all = Lattice.top l max_int in
    Iw_client.rl_release g;
    Iw_client.disconnect c;
    let writer_all = Lattice.top !wl max_int in
    Checker.final chk ~seg:seg_name ~version ~check:(fun expected ->
        match Checker.top ~expected ~observed:top with
        | Some _ as bad -> bad
        | None -> Checker.top ~expected:writer_all ~observed:all)
  in
  {
    threads = 1;
    warmup = 20;
    step;
    clients = [ (writer, wctx); (reader, rctx) ];
    server = (fun () -> server);
    store_dir = None;
    fsync = "none (no store)";
    user_bytes = (fun () -> 0);
    commits = (fun () -> !commits);
    finish;
    tally = Checker.tally chk;
    teardown =
      (fun () ->
        Iw_client.disconnect writer;
        Iw_client.disconnect reader;
        Iw_server.shutdown server);
  }

let workload = { name = "mining_poll"; setup }
