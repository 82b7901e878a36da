(* small_txn: two load threads, one client each, over 64 one-block
   segments of 16 ints on a durable store with the server's default fsync
   policy (each segment's log fsyncs at most once a second).  Thread k owns
   the segments with index ≡ k (mod 2) and is their only writer, so there
   are no write-write conflicts.  Each op picks a write critical section on
   an owned segment (one word plus a sequence number) or a Full-coherence
   read critical section on any segment, with equal odds.  Per-request cost
   dominates: proto, transport, server dispatch, the shard lock, and the
   WAL append.  A fsync per write would dominate instead, and its latency
   on a shared disk varies too much from minute to minute to gate on. *)

open Common

let nseg = 64

let words = 16

let seq_word = words - 1

let block = Interweave.Desc.(array int words)

let seg_name s = Printf.sprintf "txn/%02d" s

let archs = [| Iw_arch.x86_32; Iw_arch.sparc32 |]

let owner s = s mod 2

let word_offsets c = Array.init words (fun w -> fst (Interweave.offset c block [ Interweave.I w ]))

let base g = (Option.get (Iw_client.find_named_block g "w")).Iw_mem.b_addr

(* Read all of one segment with a fresh client (R4). *)
let read_all chk server arch =
  let c = Spans.loopback_client ~arch ~ctx:(Spans.ctx ()) server in
  let offs = word_offsets c in
  for s = 0 to nseg - 1 do
    let g = Iw_client.open_segment ~create:false c (seg_name s) in
    Iw_client.rl_acquire g;
    let b = base g in
    let version = Iw_client.segment_version g in
    let observed = Array.map (fun o -> Iw_client.read_int c (b + o)) offs in
    Iw_client.rl_release g;
    Checker.final chk ~seg:(seg_name s) ~version ~check:(fun expected ->
        Checker.words ~expected ~observed)
  done;
  Iw_client.disconnect c

let instances = ref 0

let setup ~seed ~work_dir =
  incr instances;
  let dir =
    Filename.concat work_dir (Printf.sprintf "small_txn-%d-%d" (Unix.getpid ()) !instances)
  in
  rm_rf dir;
  mkdir_p dir;
  let mk_server () =
    Iw_server.create ~checkpoint_dir:dir ~domains:1 ~fsync:(Iw_store.Interval 1.0) ()
  in
  let server = ref (mk_server ()) in
  let chk = Checker.create ~keep:256 () in
  let ctxs = Array.map (fun _ -> Spans.ctx ()) archs in
  let clients = Array.mapi (fun k arch -> Spans.loopback_client ~arch ~ctx:ctxs.(k) !server) archs in
  let rngs = Array.mapi (fun k _ -> Random.State.make [| seed; 0x7a; k |]) archs in
  let offs = Array.map word_offsets clients in
  (* What each owner last published, per segment; touched only by its owner. *)
  let model = Array.make nseg [||] in
  let commits = Array.make (Array.length archs) 0 in
  let segs = Array.make_matrix (Array.length archs) nseg None in
  let bases = Array.make_matrix (Array.length archs) nseg 0 in
  let seg k s = Option.get segs.(k).(s) in
  (* One write critical section: the owner records the state it is about to
     publish under the version the release will create, and acknowledges it
     once the release returns. *)
  let write k s st f =
    let name = seg_name s in
    Checker.commit chk ~seg:name ~version:st.(seq_word) st;
    let ok = f () in
    if ok then begin
      Checker.ack chk ~seg:name ~version:(Iw_client.segment_version (seg k s));
      model.(s) <- st;
      commits.(k) <- commits.(k) + 1
    end
  in
  for s = 0 to nseg - 1 do
    let k = owner s in
    let c = clients.(k) in
    let g = Iw_client.open_segment c (seg_name s) in
    segs.(k).(s) <- Some g;
    let st = Array.init words (fun _ -> Random.State.bits rngs.(k)) in
    st.(seq_word) <- 1;
    write k s st (fun () ->
        Iw_client.wl_acquire g;
        let b = Iw_client.malloc ~name:"w" g block in
        bases.(k).(s) <- b;
        Array.iteri (fun w o -> Iw_client.write_int c (b + o) st.(w)) offs.(k);
        Iw_client.wl_release g;
        true)
  done;
  Array.iteri
    (fun k c ->
      for s = 0 to nseg - 1 do
        if owner s <> k then begin
          let g = Iw_client.open_segment ~create:false c (seg_name s) in
          segs.(k).(s) <- Some g;
          Iw_client.rl_acquire g;
          bases.(k).(s) <- base g;
          Iw_client.rl_release g
        end
      done)
    clients;
  let step k lane =
    let rng = rngs.(k) and c = clients.(k) and ctx = ctxs.(k) in
    if Random.State.bool rng then begin
      let s = (2 * Random.State.int rng (nseg / 2)) + k in
      let g = seg k s and b = bases.(k).(s) in
      let w = Random.State.int rng seq_word in
      let st = Array.copy model.(s) in
      st.(w) <- Random.State.bits rng;
      st.(seq_word) <- model.(s).(seq_word) + 1;
      write k s st (fun () ->
          op lane Write ctx (fun () ->
              Iw_client.wl_acquire g;
              Spans.app ctx (fun () ->
                  Iw_client.write_int c (b + offs.(k).(w)) st.(w);
                  Iw_client.write_int c (b + offs.(k).(seq_word)) st.(seq_word));
              Iw_client.wl_release g))
    end
    else begin
      let s = Random.State.int rng nseg in
      let g = seg k s and b = bases.(k).(s) in
      let name = seg_name s in
      let acked_before = Checker.acked chk ~seg:name in
      let version = ref 0 in
      let observed = Array.make words 0 in
      let ok, round_trip =
        read_op lane ctx c (fun () ->
            Iw_client.rl_acquire g;
            version := Iw_client.segment_version g;
            Spans.app ctx (fun () ->
                Array.iteri (fun w o -> observed.(w) <- Iw_client.read_int c (b + o)) offs.(k));
            Iw_client.rl_release g)
      in
      if ok then
        excluded lane (fun () ->
            Checker.observe chk ~reader:archs.(k).Iw_arch.name ~seg:name ~version:!version
              ~round_trip ~acked_before ~bound:0 ~check:(fun expected ->
                Checker.words ~expected ~observed))
    end
  in
  let commits () = Array.fold_left ( + ) 0 commits in
  let disconnect_all () = Array.iter (fun c -> try Iw_client.disconnect c with _ -> ()) clients in
  {
    threads = Array.length archs;
    warmup = 200;
    step;
    clients = Array.to_list (Array.mapi (fun k c -> (c, ctxs.(k))) clients);
    server = (fun () -> !server);
    store_dir = Some dir;
    fsync = "interval 1s";
    (* Each write stores two 4-byte ints. *)
    user_bytes = (fun () -> commits () * 8);
    commits;
    finish =
      (fun () ->
        read_all chk !server Iw_arch.alpha64;
        (* Every acknowledged version must survive a restart on the same
           directory. *)
        disconnect_all ();
        Iw_server.shutdown !server;
        server := mk_server ();
        read_all chk !server Iw_arch.alpha64);
    tally = Checker.tally chk;
    teardown =
      (fun () ->
        disconnect_all ();
        Iw_server.shutdown !server;
        rm_rf dir);
  }

let workload = { name = "small_txn"; setup }
