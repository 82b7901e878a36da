(* Bechamel micro-benchmarks: one Test.make per paper table/figure, all in
   one grouped suite.  These measure the steady-state core operation of each
   experiment on reduced sizes; the paper-style tables (default subcommands)
   use the library's internal timers on full sizes. *)

open Bechamel
open Toolkit

(* Figure 4 core op: translate a fully modified 64 KB int array to wire
   format (no-diff mode: collect block). *)
let fig4_case () =
  let server = Interweave.start_server () in
  let c = Interweave.direct_client server in
  (Iw_client.options c).Iw_client.auto_no_diff <- false;
  let seg = Interweave.open_segment c "bechamel/fig4" in
  Iw_client.wl_acquire seg;
  let addr = Interweave.malloc seg (Iw_types.Array (Prim Iw_arch.Int, 16384)) in
  Iw_client.wl_release seg;
  Iw_client.set_no_diff seg true;
  let sp = Iw_client.space c in
  let iter = ref 0 in
  Staged.stage (fun () ->
      incr iter;
      Iw_client.wl_acquire seg;
      for i = 0 to 16383 do
        Iw_mem.store_prim sp Iw_arch.Int (addr + (i * 4)) (i + !iter)
      done;
      Iw_client.wl_release seg)

(* Figure 5 core op: sparse modification (every 64th word) with twin-based
   diff collection. *)
let fig5_case () =
  let server = Interweave.start_server () in
  let c = Interweave.direct_client server in
  (Iw_client.options c).Iw_client.auto_no_diff <- false;
  let seg = Interweave.open_segment c "bechamel/fig5" in
  Iw_client.wl_acquire seg;
  let addr = Interweave.malloc seg (Iw_types.Array (Prim Iw_arch.Int, 16384)) in
  Iw_client.wl_release seg;
  let sp = Iw_client.space c in
  let iter = ref 0 in
  Staged.stage (fun () ->
      incr iter;
      Iw_client.wl_acquire seg;
      let i = ref 0 in
      while !i < 16384 do
        Iw_mem.store_prim sp Iw_arch.Int (addr + (!i * 4)) (!i + !iter);
        i := !i + 64
      done;
      Iw_client.wl_release seg)

(* Figure 6 core ops: swizzle and unswizzle one pointer into a segment of
   1024 blocks. *)
let fig6_env () =
  let server = Interweave.start_server () in
  let c = Interweave.direct_client server in
  let seg = Interweave.open_segment c "bechamel/fig6" in
  Iw_client.wl_acquire seg;
  let addrs = Array.init 1024 (fun _ -> Interweave.malloc seg (Iw_types.Prim Iw_arch.Int)) in
  Iw_client.wl_release seg;
  (c, addrs.(512))

let fig6_swizzle () =
  let c, addr = fig6_env () in
  Staged.stage (fun () -> ignore (Iw_client.ptr_to_mip c addr : string))

let fig6_unswizzle () =
  let c, addr = fig6_env () in
  let mip = Iw_client.ptr_to_mip c addr in
  Staged.stage (fun () -> ignore (Iw_client.mip_to_ptr c mip : int))

(* Figure 7 core op: one 1% database increment through the lattice plus a
   coherent read. *)
let fig7_case () =
  let params = Iw_seqmine.Gen.scaled 0.01 in
  let db = Iw_seqmine.Gen.generate params in
  let server = Interweave.start_server () in
  let dbc = Interweave.direct_client server in
  let lattice = Iw_seqmine.Lattice.create dbc ~segment:"bechamel/fig7" ~min_support:8 in
  Iw_seqmine.Lattice.update lattice db ~from_customer:0 ~to_customer:(params.customers / 2);
  let mc = Interweave.direct_client server in
  let miner = Iw_seqmine.Lattice.attach mc ~segment:"bechamel/fig7" in
  let seg = Iw_seqmine.Lattice.segment miner in
  let one_pct = max 1 (params.customers / 100) in
  let pos = ref (params.customers / 2) in
  Staged.stage (fun () ->
      let from = !pos in
      pos := from + one_pct;
      if !pos > params.customers then pos := params.customers / 2;
      Iw_seqmine.Lattice.update lattice db ~from_customer:from
        ~to_customer:(min params.customers (from + one_pct));
      Iw_client.rl_acquire seg;
      Iw_client.rl_release seg)

(* Server request path: one up-to-date Read_lock through [Iw_server.handle]
   (a direct link: no transport), with the server's metrics registry on and
   off.  The gap is what the server's own per-request bookkeeping costs. *)
let server_read_lock ~metrics =
  let server = Iw_server.create () in
  Iw_metrics.set_enabled (Iw_server.metrics server) metrics;
  let session =
    match Iw_server.handle server (Iw_proto.Hello { arch = "x86_32" }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> failwith "server_read_lock: hello refused"
  in
  let name = "bechamel/server" in
  ignore (Iw_server.handle server (Iw_proto.Open_segment { session; name; create = true }));
  let req = Iw_proto.Read_lock { session; name; version = 0; coherence = Iw_proto.Full } in
  Staged.stage (fun () -> ignore (Iw_server.handle server req : Iw_proto.response))

let tests () =
  Test.make_grouped ~name:"interweave"
    [
      Test.make ~name:"fig4: collect block 64KB" (fig4_case ());
      Test.make ~name:"fig5: collect diff ratio-64 64KB" (fig5_case ());
      Test.make ~name:"fig6: swizzle (1024 blocks)" (fig6_swizzle ());
      Test.make ~name:"fig6: unswizzle (1024 blocks)" (fig6_unswizzle ());
      Test.make ~name:"fig7: 1% mining increment" (fig7_case ());
      Test.make ~name:"server handle: read_lock, metrics on"
        (server_read_lock ~metrics:true);
      Test.make ~name:"server handle: read_lock, metrics off"
        (server_read_lock ~metrics:false);
    ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~stabilize:false ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let run () =
  let results = benchmark () in
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> print_endline "no results"
  | Some tbl ->
    Printf.printf "\nBechamel estimates (monotonic clock):\n";
    let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] ->
          if ns > 1e6 then Printf.printf "  %-40s %10.3f ms/run\n" name (ns /. 1e6)
          else Printf.printf "  %-40s %10.1f ns/run\n" name ns
        | _ -> Printf.printf "  %-40s (no estimate)\n" name)
      (List.sort compare rows)
