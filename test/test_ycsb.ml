(* End-to-end smoke of the workload observatory: the real bench/ycsb.exe
   driver (open-loop YCSB macro-benchmark), the BENCH JSON it writes, and
   the live-inspection surface behind it — the server's sampled slow-request
   log and the iw-admin slowlog/top commands — all exercised the way
   operators run them.  Plus unit tests of the Iw_slowlog ring itself. *)

module J = Iw_obs_json
module SL = Iw_slowlog

let ycsb_exe = "../bench/ycsb.exe"

let admin_exe = "../bin/iw_admin.exe"

let server_exe = "../bin/iw_server_main.exe"

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* (exit code, stdout) of a spawned executable, stderr passed through. *)
let run_exe exe args =
  let out = Filename.temp_file "iwycsb" ".out" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out Unix.stderr
  in
  Unix.close fd_out;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  let stdout = read_all out in
  Sys.remove out;
  (code, stdout)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let obj_field row k =
  match row with J.Obj fs -> List.assoc_opt k fs | _ -> None

let num_field row k =
  match obj_field row k with
  | Some (J.Num v) -> v
  | _ -> Alcotest.failf "row missing numeric field %S" k

let find_series rows name =
  match
    List.find_opt (fun r -> obj_field r "series" = Some (J.Str name)) rows
  with
  | Some r -> r
  | None -> Alcotest.failf "no %S series row" name

(* The driver smoke: a short loopback run must exit 0, write a parseable
   BENCH document, and its ycsb section must carry the schema the
   regression gate relies on — plus genuinely nonzero staleness for the
   relaxed-coherence clients (the instrument's whole point). *)
let test_driver_smoke () =
  let json = Filename.temp_file "ycsb" ".json" in
  let code, _ =
    run_exe ycsb_exe
      [
        "--clients"; "8"; "--rate"; "600"; "--duration"; "2"; "--segments"; "2";
        "--read-pct"; "80"; "--mix"; "full=1,delta=1,temporal=2";
        "--json"; json; "--quiet";
      ]
  in
  Alcotest.(check int) "driver exit 0" 0 code;
  let doc =
    match J.parse (read_all json) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "invalid JSON: %s" e
  in
  Sys.remove json;
  let rows =
    match J.member "figures" doc with
    | Some (J.Obj figs) -> (
      match List.assoc_opt "ycsb" figs with
      | Some (J.Arr rows) -> rows
      | _ -> Alcotest.fail "figures.ycsb missing")
    | _ -> Alcotest.fail "figures missing"
  in
  let overall = find_series rows "overall" in
  Alcotest.(check bool) "ops > 0" true (num_field overall "ops" > 0.);
  Alcotest.(check bool) "throughput > 0" true
    (num_field overall "throughput_ops_per_s" > 0.);
  Alcotest.(check bool) "errors = 0" true (num_field overall "errors" = 0.);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " > 0") true (num_field overall k > 0.))
    [ "p50_us"; "p99_us"; "p999_us"; "bytes_sent"; "bytes_received" ];
  Alcotest.(check bool) "percentile ladder monotone" true
    (num_field overall "p50_us" <= num_field overall "p99_us"
    && num_field overall "p99_us" <= num_field overall "p999_us");
  (* Per-coherence-model rows, with observed staleness where the model
     allows staleness: temporal/delta clients must have seen some. *)
  let temporal = find_series rows "coherence:temporal" in
  Alcotest.(check bool) "temporal reads > 0" true (num_field temporal "reads" > 0.);
  Alcotest.(check bool) "temporal staleness nonzero" true
    (num_field temporal "stale_max_us" > 0.);
  let full = find_series rows "coherence:full" in
  Alcotest.(check bool) "full-coherence staleness ~0" true
    (num_field full "stale_max_us" < 1e3);
  ignore (find_series rows "read");
  ignore (find_series rows "write")

(* Slow log + dashboard end to end: load a real server over TCP, then read
   it back with iw-admin the way an operator would. *)
let test_slowlog_and_top_live () =
  let port = Test_durability.free_port () in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--port"; string_of_int port |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let probe = Test_durability.wait_ready port in
      Interweave.Client.disconnect probe;
      let code, _ =
        run_exe ycsb_exe
          [
            "--transport"; "tcp"; "--host"; "127.0.0.1"; "--port"; string_of_int port;
            "--clients"; "6"; "--rate"; "400"; "--duration"; "1";
            "--segments"; "2"; "--read-pct"; "80"; "--quiet";
          ]
      in
      Alcotest.(check int) "ycsb over tcp exit 0" 0 code;
      let host_args = [ "-p"; string_of_int port ] in
      let code, out = run_exe admin_exe ([ "slowlog"; "--json" ] @ host_args) in
      Alcotest.(check int) "slowlog exit 0" 0 code;
      (match J.parse (String.trim out) with
      | Ok (J.Arr (first :: _ as entries)) ->
        (* Slowest first, every entry fully labelled. *)
        List.iter
          (fun k ->
            if obj_field first k = None then
              Alcotest.failf "slowlog entry missing %S" k)
          [ "t"; "latency_us"; "variant"; "segment"; "session"; "trace_id"; "span_id" ];
        let lats = List.map (fun e -> num_field e "latency_us") entries in
        Alcotest.(check bool) "sorted slowest-first" true
          (List.for_all2 ( >= ) lats (List.tl lats @ [ 0. ]))
      | Ok (J.Arr []) -> Alcotest.fail "slow log empty after a loaded run"
      | Ok _ | Error _ -> Alcotest.failf "slowlog --json unparseable: %s" out);
      let code, out = run_exe admin_exe ([ "top"; "--once" ] @ host_args) in
      Alcotest.(check int) "top --once exit 0" 0 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("top shows " ^ needle) true (contains out needle))
        [ "req/s"; "VARIANT"; "P99_US"; "SEGMENT"; "ycsb/seg-0" ])

(* Iw_slowlog unit behaviour: top-K selection, eviction of the fastest,
   limit handling, and the min_us pre-filter. *)
let observe_lat t ?(variant = "read_lock") lat =
  SL.observe t ~variant ~segment:"s" ~session:1 ~seq:0 ~trace_id:0 ~span_id:0 lat

let test_slowlog_topk () =
  let t = SL.create ~k:4 () in
  List.iter (observe_lat t) [ 10.; 50.; 30.; 70.; 20.; 60. ];
  let lats = List.map (fun e -> e.SL.e_latency_us) (SL.snapshot t) in
  Alcotest.(check (list (float 1e-9))) "4 slowest, descending" [ 70.; 60.; 50.; 30. ]
    lats;
  let lats2 = List.map (fun e -> e.SL.e_latency_us) (SL.snapshot ~limit:2 t) in
  Alcotest.(check (list (float 1e-9))) "limit 2" [ 70.; 60. ] lats2

let test_slowlog_min_us () =
  let t = SL.create ~k:8 ~min_us:25. () in
  List.iter (observe_lat t) [ 10.; 50.; 24.9; 25.1 ];
  let lats = List.map (fun e -> e.SL.e_latency_us) (SL.snapshot t) in
  Alcotest.(check (list (float 1e-9))) "pre-filtered" [ 50.; 25.1 ] lats

let test_slowlog_disabled () =
  let t = SL.create ~k:0 () in
  observe_lat t 99.;
  Alcotest.(check int) "k=0 keeps nothing" 0 (List.length (SL.snapshot t))

(* The top K restarts with each window: after a roll, requests faster than
   every survivor of the full previous window are admitted again, and a
   snapshot still shows the previous window next to the new one. *)
let test_slowlog_window_roll () =
  let window_s = 0.2 in
  let t0 = Unix.gettimeofday () in
  let t = SL.create ~k:2 ~window_s () in
  List.iter (observe_lat t) [ 50.; 60.; 70. ];
  Unix.sleepf (window_s *. 1.25);
  List.iter (observe_lat t) [ 5.; 6.; 7. ];
  let lats = List.map (fun e -> e.SL.e_latency_us) (SL.snapshot t) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list (float 1e-9))) "new window keeps its own 2 slowest" [ 7.; 6. ]
    (List.filter (fun l -> l < 10.) lats);
  (* Past two windows of silence the previous window is dropped as stale;
     short of that it must still be there. *)
  if elapsed < 2. *. window_s then
    Alcotest.(check (list (float 1e-9))) "previous window kept" [ 70.; 60.; 7.; 6. ] lats

let suite =
  ( "ycsb",
    [
      Alcotest.test_case "driver smoke: schema + staleness" `Slow test_driver_smoke;
      Alcotest.test_case "slowlog + top live over tcp" `Slow test_slowlog_and_top_live;
      Alcotest.test_case "slowlog top-K and ordering" `Quick test_slowlog_topk;
      Alcotest.test_case "slowlog min_us pre-filter" `Quick test_slowlog_min_us;
      Alcotest.test_case "slowlog k=0 disabled" `Quick test_slowlog_disabled;
      Alcotest.test_case "slowlog top-K across a window roll" `Quick
        test_slowlog_window_roll;
    ] )
