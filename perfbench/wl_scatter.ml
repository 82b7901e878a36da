(* hetero_scatter: a big-endian 32-bit writer and a little-endian 64-bit
   reader share one array of pointer-rich structs.  Each iteration the
   writer rewrites [key] and re-points [next] in every 4th struct (a
   different quarter each time), and the reader read-locks and reads back
   every changed element.  Twin/word diff, translation with byte swapping,
   pointer swizzling, and the server's master-copy apply/collect do nearly
   all the work. *)

open Common

let n = 4096

let every = 4

let node =
  Interweave.Desc.(
    structure [ field "key" int; field "val" double; field "next" (ptr "node") ])

let array_desc = Interweave.Desc.array node n

let seg_name = "scatter/array"

type layout = {
  base : int;
  stride : int;
  o_key : int;
  o_val : int;
  o_next : int;
}

let layout c base =
  let off path = fst (Interweave.offset c array_desc path) in
  let f name = off [ Interweave.I 0; Interweave.F name ] in
  {
    base;
    stride = off [ Interweave.I 1 ] - off [ Interweave.I 0 ];
    o_key = f "key";
    o_val = f "val";
    o_next = f "next";
  }

let addr l i = l.base + (i * l.stride)

(* Exact in binary floating point, so any translation error shows. *)
let val_of i = float_of_int ((i * 7919) mod 100_003) /. 8.

(* A fresh client reads all of [seg_name] and checks it against the final
   acknowledged state (R4). *)
let final_check chk server arch =
  let c = Spans.loopback_client ~arch ~ctx:(Spans.ctx ()) server in
  let g = Iw_client.open_segment ~create:false c seg_name in
  Iw_client.rl_acquire g;
  let l =
    layout c (Option.get (Iw_client.find_named_block g "array")).Iw_mem.b_addr
  in
  let version = Iw_client.segment_version g in
  let observed =
    Array.init n (fun i ->
        let a = addr l i in
        {
          Checker.e_index = i;
          e_key = Iw_client.read_int c (a + l.o_key);
          e_val = Iw_client.read_double c (a + l.o_val);
          e_next = Iw_client.read_ptr c (a + l.o_next);
        })
  in
  Iw_client.rl_release g;
  Iw_client.disconnect c;
  Checker.final chk ~seg:seg_name ~version ~check:(fun expected ->
      Checker.scatter ~val_of ~addr_of:(addr l) expected observed)

let setup ~seed ~work_dir:_ =
  let server = Iw_server.create ~domains:1 () in
  let wctx = Spans.ctx () and rctx = Spans.ctx () in
  let writer = Spans.loopback_client ~arch:Iw_arch.sparc32 ~ctx:wctx server in
  let reader = Spans.loopback_client ~arch:Iw_arch.alpha64 ~ctx:rctx server in
  let chk = Checker.create ~keep:64 () in
  let rng = Random.State.make [| seed; 0x5ca7 |] in
  let state =
    ref
      {
        Checker.keys = Array.init n (fun _ -> Random.State.bits rng);
        nexts = Array.init n (fun _ -> Random.State.int rng n);
      }
  in
  let commits = ref 0 in
  (* The writer records the state it is about to publish under the version
     the release will create, then acknowledges it once the release
     returns. *)
  let record st =
    let version = Checker.acked chk ~seg:seg_name + 1 in
    Checker.commit chk ~seg:seg_name ~version st;
    state := st
  in
  let acknowledge g =
    Checker.ack chk ~seg:seg_name ~version:(Iw_client.segment_version g);
    incr commits
  in
  let wseg = Iw_client.open_segment writer seg_name in
  Iw_client.wl_acquire wseg;
  let wl = layout writer (Iw_client.malloc ~name:"array" wseg array_desc) in
  let st0 = !state in
  for i = 0 to n - 1 do
    let a = addr wl i in
    Iw_client.write_int writer (a + wl.o_key) st0.keys.(i);
    Iw_client.write_double writer (a + wl.o_val) (val_of i);
    Iw_client.write_ptr writer (a + wl.o_next) (addr wl st0.nexts.(i))
  done;
  record st0;
  Iw_client.wl_release wseg;
  acknowledge wseg;
  let rseg = Iw_client.open_segment ~create:false reader seg_name in
  Iw_client.rl_acquire rseg;
  let rl = layout reader (Option.get (Iw_client.find_named_block rseg "array")).Iw_mem.b_addr in
  Iw_client.rl_release rseg;
  let iter = ref 0 in
  let changed = n / every in
  let step _ lane =
    let phase = !iter mod every in
    incr iter;
    let idx k = (k * every) + phase in
    let next =
      excluded lane (fun () ->
          let st = { Checker.keys = Array.copy !state.keys; nexts = Array.copy !state.nexts } in
          for k = 0 to changed - 1 do
            st.keys.(idx k) <- Random.State.bits rng;
            st.nexts.(idx k) <- Random.State.int rng n
          done;
          record st;
          st)
    in
    let wrote =
      op lane Write wctx (fun () ->
          Iw_client.wl_acquire wseg;
          Spans.app wctx (fun () ->
              for k = 0 to changed - 1 do
                let i = idx k in
                let a = addr wl i in
                Iw_client.write_int writer (a + wl.o_key) next.keys.(i);
                Iw_client.write_ptr writer (a + wl.o_next) (addr wl next.nexts.(i))
              done);
          Iw_client.wl_release wseg)
    in
    if wrote then excluded lane (fun () -> acknowledge wseg);
    let acked_before = Checker.acked chk ~seg:seg_name in
    let version = ref 0 in
    let observed = Array.make changed { Checker.e_index = 0; e_key = 0; e_val = 0.; e_next = 0 } in
    let ok, round_trip =
      read_op lane rctx reader (fun () ->
          Iw_client.rl_acquire rseg;
          version := Iw_client.segment_version rseg;
          Spans.app rctx (fun () ->
              for k = 0 to changed - 1 do
                let i = idx k in
                let a = addr rl i in
                observed.(k) <-
                  {
                    Checker.e_index = i;
                    e_key = Iw_client.read_int reader (a + rl.o_key);
                    e_val = Iw_client.read_double reader (a + rl.o_val);
                    e_next = Iw_client.read_ptr reader (a + rl.o_next);
                  }
              done);
          Iw_client.rl_release rseg)
    in
    if ok then
      excluded lane (fun () ->
          Checker.observe chk ~reader:"alpha64" ~seg:seg_name ~version:!version ~round_trip
            ~acked_before ~bound:0 ~check:(fun expected ->
              Checker.scatter ~val_of ~addr_of:(addr rl) expected observed))
  in
  {
    threads = 1;
    warmup = 20;
    step;
    clients = [ (writer, wctx); (reader, rctx) ];
    server = (fun () -> server);
    store_dir = None;
    fsync = "none (no store)";
    user_bytes = (fun () -> !commits * changed * 8);
    commits = (fun () -> !commits);
    finish = (fun () -> final_check chk server Iw_arch.x86_32);
    tally = Checker.tally chk;
    teardown =
      (fun () ->
        Iw_client.disconnect writer;
        Iw_client.disconnect reader;
        Iw_server.shutdown server);
  }

let workload = { name = "hetero_scatter"; setup }
