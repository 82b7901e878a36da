(* Observability: histogram bucketing, exposition formats, trace files, the
   disabled-path no-op discipline, and the Server_stats protocol request. *)

open Iw_metrics

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool) (what ^ ": " ^ needle) true (contains ~needle hay)

let hist_of snap name =
  match find snap name with
  | Some (V_hist hv) -> hv
  | _ -> Alcotest.fail ("no histogram " ^ name)

(* Every case runs against a fresh registry and resets it on the way out, so
   no series can leak into a later case even if registries are ever shared. *)
let with_registry ?enabled f =
  let r = create ?enabled () in
  Fun.protect ~finally:(fun () -> reset r) (fun () -> f r)

(* Log2 bucketing: inclusive upper bounds, one overflow bucket. *)
let test_histogram_buckets () =
  with_registry @@ fun r ->
  let h = histogram_us r "iw_test_lat_us" in
  List.iter (observe h) [ 1.0; 1.5; 2.0; 3.0; 100.0; 1e12 ];
  let hv = hist_of (snapshot r) "iw_test_lat_us" in
  Alcotest.(check int) "27 us bounds" 27 (Array.length hv.hv_bounds);
  Alcotest.(check int) "counts = bounds + overflow" 28 (Array.length hv.hv_counts);
  Alcotest.(check (float 0.)) "first bound 1us" 1.0 hv.hv_bounds.(0);
  Alcotest.(check (float 0.)) "last bound ~67s" (float_of_int (1 lsl 26)) hv.hv_bounds.(26);
  Alcotest.(check int) "le=1 gets 1.0" 1 hv.hv_counts.(0);
  Alcotest.(check int) "le=2 gets 1.5 and 2.0" 2 hv.hv_counts.(1);
  Alcotest.(check int) "le=4 gets 3.0" 1 hv.hv_counts.(2);
  Alcotest.(check int) "le=128 gets 100.0" 1 hv.hv_counts.(7);
  Alcotest.(check int) "overflow gets 1e12" 1 hv.hv_counts.(27);
  Alcotest.(check int) "count" 6 hv.hv_count;
  Alcotest.(check (float 1e-6)) "sum" (1.0 +. 1.5 +. 2.0 +. 3.0 +. 100.0 +. 1e12) hv.hv_sum;
  (* Conservative quantiles: the bucket's upper bound. *)
  Alcotest.(check (float 0.)) "p50" 2.0 (hist_quantile hv 0.5);
  Alcotest.(check (float 0.)) "p99 in overflow" infinity (hist_quantile hv 0.99)

let test_quantile_empty () =
  with_registry @@ fun r ->
  let h = histogram_bytes r "iw_test_sz_bytes" in
  ignore (h : histogram);
  let hv = hist_of (snapshot r) "iw_test_sz_bytes" in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (hist_quantile hv 0.5))

let test_prometheus_exposition () =
  with_registry @@ fun r ->
  let c = counter r ~help:"Things that happened." "iw_test_things_total" in
  incr ~by:3 c;
  let g = gauge r "iw_test_depth" in
  set_gauge g 2.5;
  let h = histogram_us r ~help:"Latency." (with_label "iw_test_op_us" "op" "get") in
  observe h 1.0;
  observe h 3.0;
  let text = render_prometheus (snapshot r) in
  check_contains "prom" text "# HELP iw_test_things_total Things that happened.\n";
  check_contains "prom" text "# TYPE iw_test_things_total counter\niw_test_things_total 3\n";
  check_contains "prom" text "# TYPE iw_test_depth gauge\niw_test_depth 2.5\n";
  check_contains "prom" text "# TYPE iw_test_op_us histogram\n";
  (* Cumulative buckets with the le label spliced after existing labels. *)
  check_contains "prom" text "iw_test_op_us_bucket{op=\"get\",le=\"1\"} 1\n";
  check_contains "prom" text "iw_test_op_us_bucket{op=\"get\",le=\"4\"} 2\n";
  check_contains "prom" text "iw_test_op_us_bucket{op=\"get\",le=\"+Inf\"} 2\n";
  check_contains "prom" text "iw_test_op_us_sum{op=\"get\"} 4\n";
  check_contains "prom" text "iw_test_op_us_count{op=\"get\"} 2\n"

let test_with_label () =
  Alcotest.(check string) "fresh" "m{k=\"v\"}" (with_label "m" "k" "v");
  Alcotest.(check string) "extend" "m{a=\"b\",k=\"v\"}" (with_label "m{a=\"b\"}" "k" "v");
  Alcotest.(check string) "escape" "m{k=\"a\\\"b\"}" (with_label "m" "k" "a\"b")

let test_json_roundtrip () =
  with_registry @@ fun r ->
  incr ~by:7 (counter r "iw_test_n_total");
  observe (histogram_bytes r "iw_test_sz_bytes") 100.;
  let doc = render_json (snapshot r) in
  match Iw_obs_json.parse (Iw_obs_json.to_string doc) with
  | Error e -> Alcotest.fail ("metrics JSON does not re-parse: " ^ e)
  | Ok j ->
    (match Option.bind (Iw_obs_json.member "iw_test_n_total" j) (Iw_obs_json.member "value") with
    | Some n ->
      Alcotest.(check (option (float 0.))) "counter value" (Some 7.) (Iw_obs_json.to_float n)
    | None -> Alcotest.fail "counter missing from JSON")

let test_disabled_noop () =
  with_registry ~enabled:false @@ fun r ->
  let c = counter r "iw_test_off_total" in
  let h = histogram_us r "iw_test_off_us" in
  incr c;
  observe h 5.0;
  (match find (snapshot r) "iw_test_off_total" with
  | Some (V_counter v) -> Alcotest.(check (float 0.)) "disabled counter unchanged" 0. v
  | _ -> Alcotest.fail "counter missing");
  Alcotest.(check int) "disabled histogram unchanged" 0
    (hist_of (snapshot r) "iw_test_off_us").hv_count;
  set_enabled r true;
  incr c;
  observe h 5.0;
  (match find (snapshot r) "iw_test_off_total" with
  | Some (V_counter v) -> Alcotest.(check (float 0.)) "enabled counter counts" 1. v
  | _ -> Alcotest.fail "counter missing");
  Alcotest.(check int) "enabled histogram counts" 1
    (hist_of (snapshot r) "iw_test_off_us").hv_count

let test_register_kind_clash () =
  with_registry @@ fun r ->
  ignore (counter r "iw_test_kind" : counter);
  (* Idempotent for the same kind... *)
  ignore (counter r "iw_test_kind" : counter);
  (* ...but a different kind under the same name is a programming error. *)
  match gauge r "iw_test_kind" with
  | (_ : gauge) -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_reset_isolation () =
  let r = create () in
  let c = counter r "iw_test_leaky_total" in
  incr ~by:4 c;
  observe (histogram_us r "iw_test_leaky_us") 2.0;
  Alcotest.(check int) "two series before reset" 2 (List.length (snapshot r));
  reset r;
  Alcotest.(check int) "no series after reset" 0 (List.length (snapshot r));
  (* A stale handle keeps accepting updates without resurrecting the series —
     a later case's snapshot stays clean even if an earlier case leaked the
     handle. *)
  incr c;
  Alcotest.(check int) "stale handle does not resurrect" 0 (List.length (snapshot r));
  (* The name is free again, even as a different kind. *)
  set_gauge (gauge r "iw_test_leaky_total") 1.0;
  match find (snapshot r) "iw_test_leaky_total" with
  | Some (V_gauge v) -> Alcotest.(check (float 0.)) "fresh after reset" 1.0 v
  | _ -> Alcotest.fail "re-registration after reset failed"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_file () =
  let path = Filename.temp_file "iw_trace" ".json" in
  Iw_trace.start ~path ();
  Alcotest.(check bool) "tracing on" true (Iw_trace.enabled ());
  Iw_trace.with_span ~args:[ ("segment", "t/s") ] "outer" (fun () ->
      Iw_trace.with_span "inner" (fun () -> ());
      Iw_trace.instant "mark");
  (* B/E stay balanced even when the traced thunk raises. *)
  (try Iw_trace.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  Iw_trace.stop ();
  Alcotest.(check bool) "tracing off after stop" false (Iw_trace.enabled ());
  let doc =
    match Iw_obs_json.parse (read_file path) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
  in
  Sys.remove path;
  let events =
    match Option.bind (Iw_obs_json.member "traceEvents" doc) Iw_obs_json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str field ev =
    match Iw_obs_json.member field ev with Some (Iw_obs_json.Str s) -> Some s | _ -> None
  in
  let begins = Hashtbl.create 8 and ends = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let instants = ref 0 in
  List.iter
    (fun ev ->
      (match Iw_obs_json.member "ts" ev with
      | Some (Iw_obs_json.Num ts) ->
        Alcotest.(check bool) "timestamp non-negative" true (ts >= 0.)
      | _ -> Alcotest.fail "event without numeric ts");
      match str "ph" ev, str "name" ev with
      | Some "B", Some n -> bump begins n
      | Some "E", Some n -> bump ends n
      | Some "i", Some _ ->
        Stdlib.incr instants;
        Alcotest.(check (option string)) "instant scope" (Some "t") (str "s" ev)
      | _ -> Alcotest.fail "event without ph/name")
    events;
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        ("balanced B/E for " ^ n)
        (Hashtbl.find_opt begins n) (Hashtbl.find_opt ends n))
    [ "outer"; "inner"; "boom" ];
  Alcotest.(check int) "one instant" 1 !instants;
  (* Disabled tracing is a plain call: the thunk runs, nothing is recorded. *)
  Alcotest.(check int) "with_span passthrough" 42 (Iw_trace.with_span "off" (fun () -> 42))

let test_server_stats_roundtrip () =
  (* Wire codec for snapshots, independent of any live server. *)
  let snap =
    [
      { s_name = "a_total"; s_help = "things"; s_value = V_counter 3. };
      { s_name = "g"; s_help = ""; s_value = V_gauge 1.5 };
      {
        s_name = "h_us{op=\"x\"}";
        s_help = "lat";
        s_value =
          V_hist
            {
              hv_unit = "us";
              hv_bounds = [| 1.; 2.; 4. |];
              hv_counts = [| 1; 0; 2; 1 |];
              hv_count = 4;
              hv_sum = 9.25;
            };
      };
    ]
  in
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_response buf (Iw_proto.R_server_stats snap);
  (match Iw_proto.decode_response (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf)) with
  | Iw_proto.R_server_stats snap' ->
    Alcotest.(check bool) "snapshot roundtrips" true (snap = snap')
  | _ -> Alcotest.fail "wrong response variant");
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_request buf (Iw_proto.Server_stats { session = 12 });
  match Iw_proto.decode_request (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf)) with
  | Iw_proto.Server_stats { session } -> Alcotest.(check int) "session" 12 session
  | _ -> Alcotest.fail "wrong request variant"

let test_server_stats_live () =
  (* A real server over the loopback transport: the snapshot arrives with the
     request counters and the per-variant latency histograms filled in. *)
  let server = Iw_server.create () in
  let client_end, server_end = Iw_transport.loopback () in
  let t = Thread.create (fun () -> Iw_server.serve_conn server server_end) () in
  let link = Iw_proto.demux_link client_end ~on_notify:(fun _ -> ()) in
  let session =
    match link.Iw_proto.call (Iw_proto.Hello { arch = "x86_32" }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> Alcotest.fail "handshake failed"
  in
  ignore (link.Iw_proto.call (Iw_proto.Open_segment { session; name = "obs/live"; create = true }));
  ignore (link.Iw_proto.call (Iw_proto.Get_version { session; name = "obs/live" }));
  (match link.Iw_proto.call (Iw_proto.Server_stats { session }) with
  | Iw_proto.R_server_stats snap ->
    (match find snap "iw_server_requests_total" with
    | Some (V_counter v) -> Alcotest.(check bool) "requests counted" true (v >= 3.)
    | _ -> Alcotest.fail "no iw_server_requests_total");
    let hv = hist_of snap "iw_server_request_us{variant=\"hello\"}" in
    Alcotest.(check bool) "hello latency recorded" true (hv.hv_count >= 1);
    Alcotest.(check string) "latency unit" "us" hv.hv_unit;
    (* The merged snapshot also carries the process-global transport side. *)
    (match find snap "iw_transport_frames_received_total" with
    | Some (V_counter v) -> Alcotest.(check bool) "transport frames counted" true (v >= 1.)
    | _ -> Alcotest.fail "no transport metrics in snapshot")
  | _ -> Alcotest.fail "Server_stats failed");
  link.Iw_proto.close ();
  Thread.join t

let test_framed_byte_accounting () =
  (* Over a demultiplexed loopback link, client byte counters reflect actual
     framed bytes in both directions (not re-derived payload estimates). *)
  let server = Interweave.start_server () in
  let c = Interweave.loopback_client server in
  let h = Interweave.open_segment c "obs/bytes" in
  Interweave.wl_acquire h;
  let addr = Interweave.malloc h (Iw_types.Array (Iw_types.Prim Iw_arch.Int, 64)) in
  let sp = Iw_client.space c in
  for i = 0 to 63 do
    Iw_mem.store_prim sp Iw_arch.Int (addr + (i * 4)) i
  done;
  Interweave.wl_release h;
  let st = Iw_client.stats c in
  Alcotest.(check bool) "sent bytes counted" true (st.Iw_client.bytes_sent > 0);
  Alcotest.(check bool) "received bytes counted" true (st.Iw_client.bytes_received > 0);
  Alcotest.(check bool) "round trips counted" true (st.Iw_client.calls > 0);
  Iw_client.reset_stats c;
  let st = Iw_client.stats c in
  Alcotest.(check int) "reset zeroes sent" 0 st.Iw_client.bytes_sent;
  Alcotest.(check int) "reset zeroes received" 0 st.Iw_client.bytes_received;
  Iw_client.disconnect c

(* Raw protocol driving for the request-path cases below: [handle] is what
   a direct link calls. *)
let call t req = Iw_server.handle t req

let session_of t =
  match call t (Iw_proto.Hello { arch = "x86_32" }) with
  | Iw_proto.R_hello { session } -> session
  | _ -> Alcotest.fail "hello failed"

let one_int v =
  let buf = Iw_wire.Buf.create () in
  Iw_wire.Buf.u32 buf v;
  Iw_wire.Buf.contents buf

(* Write-lock [name] at [version] and release [changes]; the new version. *)
let write_cycle t session name ~version changes =
  (match call t (Iw_proto.Write_lock { session; name; version }) with
  | Iw_proto.R_granted _ -> ()
  | _ -> Alcotest.fail "write lock refused");
  let diff =
    { Iw_wire.Diff.from_version = version; to_version = version + 1; new_descs = []; changes }
  in
  match call t (Iw_proto.Write_release { session; name; diff }) with
  | Iw_proto.R_version v -> v
  | _ -> Alcotest.fail "write release failed"

(* A segment holding one 4-int block (serial 1), at version 1. *)
let seeded_segment t session name =
  ignore (call t (Iw_proto.Open_segment { session; name; create = true }));
  let desc_serial =
    match
      call t
        (Iw_proto.Register_desc
           { session; name; desc = Iw_types.Array (Prim Iw_arch.Int, 4) })
    with
    | Iw_proto.R_serial d -> d
    | _ -> Alcotest.fail "register failed"
  in
  write_cycle t session name ~version:0
    [
      Iw_wire.Diff.Create
        { serial = 1; name = None; desc_serial; payload = String.concat "" (List.init 4 one_int) };
    ]

let update_word v =
  Iw_wire.Diff.Update
    { serial = 1; runs = [ { Iw_wire.Diff.start_pu = 0; len_pu = 1; payload = one_int v } ] }

(* Minor words one request costs, over [n] read-lock/read-release pairs and
   [n] write-lock/write-release cycles on a direct link, after a warm-up
   that has already seen every variant and series involved. *)
let words_per_request ~metrics n =
  let t = Iw_server.create () in
  Iw_metrics.set_enabled (Iw_server.metrics t) metrics;
  let session = session_of t in
  let name = "obs/alloc" in
  let version = ref (seeded_segment t session name) in
  let cycles n =
    for i = 1 to n do
      ignore
        (call t
           (Iw_proto.Read_lock
              { session; name; version = !version; coherence = Iw_proto.Full }));
      ignore (call t (Iw_proto.Read_release { session; name }));
      version := write_cycle t session name ~version:!version [ update_word i ]
    done
  in
  cycles 200;
  let w0 = Gc.minor_words () in
  cycles n;
  let words = Gc.minor_words () -. w0 in
  Iw_server.shutdown t;
  words /. float_of_int (4 * n)

(* Per-request metrics are budgeted: resolved handles, no label building
   and no registry lookup once a series exists.  The budget is the gap
   between the registry on and off, so the flight recorder, the slow log
   and the protocol values themselves (the same either way) cancel out. *)
let test_request_alloc_budget () =
  let n = 2000 in
  let on = words_per_request ~metrics:true n in
  let off = words_per_request ~metrics:false n in
  let added = on -. off in
  Printf.printf "metrics add %.0f words per request (on %.0f, off %.0f)\n" added on off;
  if added > 128. then
    Alcotest.failf "metrics add %.0f words per request (on %.0f, off %.0f); budget 128"
      added on off

(* Name and histogram count (-1: counter or gauge) of every series
   [test_series_golden]'s request sequence leaves, as recorded when every
   observation still looked its instrument up by name. *)
let golden_series =
  [
    ("iw_seg_diff_bytes_saved_total{segment=\"obs/golden\"}", -1);
    ("iw_seg_staleness_us{segment=\"obs/golden\"}", 1);
    ("iw_seg_version_lag{segment=\"obs/golden\"}", 5);
    ("iw_seg_wasted_acquire_total{segment=\"obs/golden\"}", -1);
    ("iw_seg_wl_wait_us{segment=\"obs/golden\"}", 1);
    ("iw_server_diff_cache_hits_total", -1);
    ("iw_server_diff_cache_misses_total", -1);
    ("iw_server_diffs_applied_total", -1);
    ("iw_server_diffs_collected_total", -1);
    ("iw_server_expired_total{phase=\"queue\"}", -1);
    ("iw_server_expired_total{phase=\"wal\"}", -1);
    ("iw_server_inflight", -1);
    ("iw_server_lock_hold_us", 15);
    ("iw_server_lock_hold_us{segment=\"obs/golden\"}", 14);
    ("iw_server_lock_hold_us{segment=\"obs/idle\"}", 1);
    ("iw_server_lock_hold_us{variant=\"open_segment\"}", 2);
    ("iw_server_lock_hold_us{variant=\"read_lock\"}", 1);
    ("iw_server_lock_hold_us{variant=\"read_release\"}", 1);
    ("iw_server_lock_hold_us{variant=\"register_desc\"}", 1);
    ("iw_server_lock_hold_us{variant=\"subscribe\"}", 1);
    ("iw_server_lock_hold_us{variant=\"write_lock\"}", 5);
    ("iw_server_lock_hold_us{variant=\"write_release\"}", 4);
    ("iw_server_lock_queue_depth", -1);
    ("iw_server_lock_wait_us", 15);
    ("iw_server_lock_wait_us{segment=\"obs/golden\"}", 14);
    ("iw_server_lock_wait_us{segment=\"obs/idle\"}", 1);
    ("iw_server_lock_wait_us{variant=\"open_segment\"}", 2);
    ("iw_server_lock_wait_us{variant=\"read_lock\"}", 1);
    ("iw_server_lock_wait_us{variant=\"read_release\"}", 1);
    ("iw_server_lock_wait_us{variant=\"register_desc\"}", 1);
    ("iw_server_lock_wait_us{variant=\"subscribe\"}", 1);
    ("iw_server_lock_wait_us{variant=\"write_lock\"}", 5);
    ("iw_server_lock_wait_us{variant=\"write_release\"}", 4);
    ("iw_server_locks_reclaimed_total", -1);
    ("iw_server_overload_state", -1);
    ("iw_server_phase_us{phase=\"decode\"}", 17);
    ("iw_server_phase_us{phase=\"lock_wait\"}", 17);
    ("iw_server_phase_us{phase=\"reply\"}", 17);
    ("iw_server_phase_us{phase=\"service\"}", 17);
    ("iw_server_phase_us{phase=\"wal\"}", 17);
    ("iw_server_pred_hits_total", -1);
    ("iw_server_pred_misses_total", -1);
    ("iw_server_queue_hwm", -1);
    ("iw_server_request_total_us", 17);
    ("iw_server_request_us{variant=\"hello\"}", 2);
    ("iw_server_request_us{variant=\"open_segment\"}", 2);
    ("iw_server_request_us{variant=\"read_lock\"}", 1);
    ("iw_server_request_us{variant=\"read_release\"}", 1);
    ("iw_server_request_us{variant=\"register_desc\"}", 1);
    ("iw_server_request_us{variant=\"subscribe\"}", 1);
    ("iw_server_request_us{variant=\"write_lock\"}", 5);
    ("iw_server_request_us{variant=\"write_release\"}", 4);
    ("iw_server_requests_total", -1);
    ("iw_server_segment_version{segment=\"obs/golden\"}", -1);
    ("iw_server_segments", -1);
    ("iw_server_sessions_resumed_total", -1);
    ("iw_server_shed_total{reason=\"queue_full\"}", -1);
    ("iw_server_shed_total{reason=\"read_only\"}", -1);
    ("iw_server_snapshot_reads_total", -1);
    ("iw_server_version_advances_total", -1);
  ]

(* The series a fixed request sequence leaves in the server registry: every
   name, and each histogram's count.  Series appear when first observed,
   never as zero-count placeholders, and a segment nobody locked has no
   iw_seg_* series at all. *)
let test_series_golden () =
  let t = Iw_server.create () in
  Iw_metrics.set_enabled (Iw_server.metrics t) true;
  let s1 = session_of t and s2 = session_of t in
  let name = "obs/golden" in
  let v1 = seeded_segment t s1 name in
  let v2 = write_cycle t s1 name ~version:v1 [ update_word 7 ] in
  (* Contended write lock: busy while s1 holds it, granted after. *)
  (match call t (Iw_proto.Write_lock { session = s1; name; version = v2 }) with
  | Iw_proto.R_granted _ -> ()
  | _ -> Alcotest.fail "write lock refused");
  (match call t (Iw_proto.Write_lock { session = s2; name; version = 0 }) with
  | Iw_proto.R_busy -> ()
  | _ -> Alcotest.fail "contender not refused");
  let empty = { Iw_wire.Diff.from_version = v2; to_version = v2; new_descs = []; changes = [] } in
  ignore (call t (Iw_proto.Write_release { session = s1; name; diff = empty }));
  ignore (write_cycle t s2 name ~version:0 [ update_word 9 ] : int);
  (* A stale read lock: one version behind. *)
  (match
     call t (Iw_proto.Read_lock { session = s1; name; version = v2; coherence = Iw_proto.Full })
   with
  | Iw_proto.R_update _ -> ()
  | _ -> Alcotest.fail "stale read not updated");
  ignore (call t (Iw_proto.Read_release { session = s1; name }));
  ignore (call t (Iw_proto.Subscribe { session = s2; name }));
  ignore (call t (Iw_proto.Open_segment { session = s2; name = "obs/idle"; create = true }));
  let got =
    List.map
      (fun s ->
        match s.s_value with
        | V_hist hv -> (s.s_name, hv.hv_count)
        | V_counter _ | V_gauge _ -> (s.s_name, -1))
      (snapshot (Iw_server.metrics t))
  in
  Iw_server.shutdown t;
  Alcotest.(check (list (pair string int))) "series and histogram counts" golden_series got

(* Mutates the process environment, so this must run last in the suite:
   registries created later would see the override. *)
let test_env_policy () =
  Unix.putenv "IW_METRICS" "1";
  Alcotest.(check bool) "IW_METRICS=1 on" true (env_enabled ~default:false);
  Unix.putenv "IW_METRICS" "0";
  Alcotest.(check bool) "IW_METRICS=0 off" false (env_enabled ~default:true);
  Unix.putenv "IW_METRICS" "";
  Alcotest.(check bool) "IW_METRICS= off" false (env_enabled ~default:true);
  Unix.putenv "IW_METRICS" "1"

let suite =
  ( "obs",
    [
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "empty quantile" `Quick test_quantile_empty;
      Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
      Alcotest.test_case "label splicing" `Quick test_with_label;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
      Alcotest.test_case "kind clash" `Quick test_register_kind_clash;
      Alcotest.test_case "reset isolation" `Quick test_reset_isolation;
      Alcotest.test_case "trace file" `Quick test_trace_file;
      Alcotest.test_case "server stats codec" `Quick test_server_stats_roundtrip;
      Alcotest.test_case "server stats live" `Quick test_server_stats_live;
      Alcotest.test_case "framed byte accounting" `Quick test_framed_byte_accounting;
      Alcotest.test_case "request alloc budget" `Quick test_request_alloc_budget;
      Alcotest.test_case "series golden" `Quick test_series_golden;
      Alcotest.test_case "env policy" `Quick test_env_policy;
    ] )
