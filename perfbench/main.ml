(* The benchmark's entry point: set a workload up several times, warm it,
   measure one window (four with --trace 1: untraced and traced in turn),
   run the final output checks, and print the result as one JSON line.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--commit ID] [--work-dir DIR]

   Exit code 0 when every output check passed, 1 when one failed, 2 on a
   usage error or a checker that fails its own self-test. *)

open Iwbench
open Common

let workloads = [ Wl_scatter.workload; Wl_txn.workload; Wl_mining.workload ]

let setup_reps = 9

let now = Spans.now

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  work_dir : string;
}

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      Hashtbl.replace get (String.sub flag 2 (String.length flag - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  let str name default =
    match (Hashtbl.find_opt get name, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> die "missing --%s" name
  in
  let int name default =
    let v = str name default in
    match int_of_string_opt v with Some i -> i | None -> die "--%s: not an integer: %s" name v
  in
  let name = str "workload" None in
  let workload =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  let seconds = int "seconds" None in
  if seconds < 1 then die "--seconds must be at least 1";
  {
    workload;
    seed = int "seed" None;
    seconds = float_of_int seconds;
    trace = int "trace" (Some "0") <> 0;
    commit = str "commit" (Some "unknown");
    work_dir = str "work-dir" (Some ".bench_work");
  }

(* {1 Machine fingerprint} *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
    let ls = List.rev (go []) in
    close_in ic;
    ls

let online_cpus () =
  List.length (List.filter (String.starts_with ~prefix:"processor") (read_lines "/proc/cpuinfo"))

let peak_rss_mb () =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> float_of_string kb /. 1024.
        | [] -> acc)
      | _ -> acc)
    0. (read_lines "/proc/self/status")

(* The type of the filesystem holding [dir]: the mountinfo entry whose
   mount point is the longest prefix of its real path. *)
let fs_type dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let under mp = mp = "/" || path = mp || String.starts_with ~prefix:(mp ^ "/") path in
  let best =
    List.fold_left
      (fun ((best_len, _) as acc) l ->
        match String.split_on_char ' ' l with
        | _ :: _ :: _ :: _ :: mp :: rest when under mp && String.length mp > best_len -> (
          let rec after_dash = function "-" :: ty :: _ -> Some ty | _ :: r -> after_dash r | [] -> None in
          match after_dash rest with Some ty -> (String.length mp, ty) | None -> acc)
        | _ -> acc)
      (-1, "unknown")
      (read_lines "/proc/self/mountinfo")
  in
  snd best

(* {1 JSON} *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let str s = Printf.sprintf "%S" s

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

(* {1 Windows} *)

type window = {
  wall : float;
  lanes : lane array;
  d : Counters.t;  (* counter deltas, scaffolding removed *)
}

let run_window inst secs =
  Gc.full_major ();
  let excluded_counters = ref (Counters.zero ()) in
  (scaffold_hook :=
     fun f ->
       let a = Counters.take inst in
       f ();
       excluded_counters := Counters.add !excluded_counters (Counters.diff (Counters.take inst) a));
  let c0 = Counters.take inst in
  let t0 = now () in
  let n = max 1 (int_of_float (Float.ceil (secs /. slice_s))) in
  let lanes = Array.init inst.threads (fun _ -> lane ~t0 ~n) in
  let deadline = t0 +. secs in
  let run k =
    while now () < deadline do
      inst.step k lanes.(k)
    done
  in
  let threads = Array.init inst.threads (Thread.create run) in
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  let c1 = Counters.take inst in
  scaffold_hook := (fun f -> f ());
  { wall; lanes; d = Counters.diff (Counters.diff c1 c0) !excluded_counters }

(* {2 Slices}  End-to-end figures are computed per one-second slice and
   reported as the median over slices, which keeps a burst of outside load
   on a shared machine from moving the whole run. *)

let n_slices w = Array.length w.lanes.(0).slices

(* The last slice ends when the last op of the window does. *)
let slice_len w i =
  if i < n_slices w - 1 then slice_s else w.wall -. (float_of_int (n_slices w - 1) *. slice_s)

let slice_ids w = List.init (n_slices w) Fun.id

(* Latencies in microseconds, sorted, of the given slices, all lanes. *)
let latencies_us ws pick =
  let parts =
    List.concat_map
      (fun (w, ids) ->
        List.concat_map
          (fun l -> List.map (fun i -> Fbuf.to_array (pick l.slices.(i))) ids)
          (Array.to_list w.lanes))
      ws
  in
  let a = Array.map (fun x -> x *. 1e6) (Array.concat parts) in
  Array.sort compare a;
  a

let count ws pick =
  List.fold_left
    (fun acc (w, ids) ->
      Array.fold_left
        (fun acc l -> List.fold_left (fun acc i -> acc + (pick l.slices.(i)).Fbuf.n) acc ids)
        acc w.lanes)
    0 ws

(* Per load thread, its ops over its time in the given slices minus its
   checker work and scaffolding; summed over threads. *)
let ops_per_s ws =
  match ws with
  | [] -> 0.
  | (w0, _) :: _ ->
    let lane_rate k =
      let ops, busy =
        List.fold_left
          (fun acc (w, ids) ->
            List.fold_left
              (fun (ops, busy) i ->
                let s = w.lanes.(k).slices.(i) in
                (ops + s.reads.Fbuf.n + s.writes.Fbuf.n, busy +. slice_len w i -. s.excluded_s))
              acc ids)
          (0, 0.) ws
      in
      float_of_int ops /. Float.max 1e-9 busy
    in
    List.fold_left ( +. ) 0. (List.init (Array.length w0.lanes) lane_rate)

let whole ws = List.map (fun w -> (w, slice_ids w)) ws

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_over_slices w f = median (List.map (fun i -> f [ (w, [ i ]) ]) (slice_ids w))

let ratio a b = if b = 0. then 0. else a /. b

let reads s = s.reads

let writes s = s.writes

let end_to_end ~setup_s w =
  let q pick p = median_over_slices w (fun span -> quantile (latencies_us span pick) p) in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", median_over_slices w ops_per_s, "1/s");
    ("write_p50_us", q writes 0.5, "us");
    ("write_p90_us", q writes 0.9, "us");
    ("read_p50_us", q reads 0.5, "us");
    ("read_p90_us", q reads 0.9, "us");
    ( "wire_bytes_per_op",
      ratio w.d.(Counters.bytes) (float_of_int (count (whole [ w ]) reads + count (whole [ w ]) writes)),
      "B" );
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* {2 The traced run}  Traced and untraced windows alternate, so both see
   the same conditions; figures pool the windows of one kind. *)

let per_layer inst ~untraced ~traced ~stale:(stale_reads, stale_max) =
  let d = List.fold_left (fun acc w -> Counters.add acc w.d) (Counters.zero ()) traced in
  let g i = d.(i) in
  let writes_n = float_of_int (count (whole traced) writes)
  and reads_n = float_of_int (count (whole traced) reads) in
  let ops = writes_n +. reads_n in
  let cache_served =
    List.fold_left (fun acc w -> Array.fold_left (fun acc l -> acc + l.cache_served) acc w.lanes) 0 traced
  in
  let rpcs = g Counters.calls in
  let attributed =
    g Counters.op_rpc_s +. g Counters.word_diff_s +. g Counters.translate_s +. g Counters.apply_s
    +. g Counters.app_s
  in
  let uw = latencies_us (whole untraced) writes and ur = latencies_us (whole untraced) reads in
  let has_store = inst.store_dir <> None in
  [
    ("mem.word_diff_us_per_write", ratio (g Counters.word_diff_s *. 1e6) writes_n, "us");
    ("mem.twin_pages_per_write", ratio (g Counters.twin_pages) writes_n, "count");
    ("wire.translate_us_per_write", ratio (g Counters.translate_s *. 1e6) writes_n, "us");
    ("wire.apply_us_per_read", ratio (g Counters.apply_s *. 1e6) reads_n, "us");
    ("client.op_self_us", ratio ((g Counters.op_s -. g Counters.op_rpc_s) *. 1e6) ops, "us");
    ("client.rpcs_per_op", ratio (g Counters.calls) ops, "count");
    ( "client.cache_serves_frac",
      ratio (float_of_int cache_served) reads_n,
      "ratio" );
    ( "server.diff_cache_hit_frac",
      ratio (g Counters.dc_hits) (g Counters.dc_hits +. g Counters.dc_misses),
      "ratio" );
    ("client.notify_stale_reads", float_of_int stale_reads, "count");
    ("client.notify_stale_max_versions", float_of_int stale_max, "versions");
    ("proto.rpc_us", ratio (g Counters.rpc_s *. 1e6) rpcs, "us");
    ("transport.hop_us_per_rpc", ratio ((g Counters.rpc_s -. g Counters.srv_s) *. 1e6) rpcs, "us");
    ("transport.bytes_per_rpc", ratio (g Counters.transport_bytes) rpcs, "B");
    ("server.handle_us_per_rpc", ratio (g Counters.srv_s *. 1e6) (g Counters.srv_n), "us");
    ("server.lock_wait_us_per_rpc", ratio (g Counters.lock_wait_us) (g Counters.srv_requests), "us");
    ("server.service_us_per_rpc", ratio (g Counters.service_us) (g Counters.srv_requests), "us");
    ("server.wal_us_per_rpc", ratio (g Counters.wal_us) (g Counters.srv_requests), "us");
    ("store.fsyncs_per_commit", ratio (g Counters.fsyncs) (g Counters.commits), "count");
    ("store.fsync_us_per_commit", ratio (g Counters.fsync_us) (g Counters.commits), "us");
    ( "store.wal_bytes_per_user_byte",
      (if has_store then ratio (g Counters.wal_dir_bytes) (g Counters.user_bytes) else 0.),
      "ratio" );
    ("trace.coverage_frac", ratio attributed (g Counters.op_s), "ratio");
    ( "trace.overhead_frac",
      1. -. ratio (ops_per_s (whole traced)) (ops_per_s (whole untraced)),
      "ratio" );
    ("op.write_p99_us", quantile uw 0.99, "us");
    ("op.write_max_us", quantile uw 1.0, "us");
    ("op.read_p99_us", quantile ur 0.99, "us");
    ("op.read_max_us", quantile ur 1.0, "us");
  ]

let () =
  let args = parse_args () in
  (match Selftest.failures () with
  | [] -> ()
  | bad -> die "checker self-test failed, refusing to measure: %s" (String.concat "; " bad));
  mkdir_p args.work_dir;
  (* Set up several times and keep the last: the median is the set-up
     time, which makes work moved into set-up show. *)
  let setup () =
    let t0 = now () in
    let inst = args.workload.setup ~seed:args.seed ~work_dir:args.work_dir in
    (inst, now () -. t0)
  in
  let rec reps k acc =
    let inst, dt = setup () in
    if k = setup_reps then (inst, List.rev (dt :: acc))
    else begin
      inst.teardown ();
      reps (k + 1) (dt :: acc)
    end
  in
  let inst, setup_times = reps 1 [] in
  let setup_s = median setup_times in
  let lanes = Array.init inst.threads (fun _ -> lane ~t0:(now ()) ~n:1) in
  for _ = 1 to inst.warmup do
    for k = 0 to inst.threads - 1 do
      inst.step k lanes.(k)
    done
  done;
  let windows, metrics =
    if not args.trace then begin
      let w = run_window inst args.seconds in
      ([ w ], end_to_end ~setup_s w)
    end
    else begin
      (* Untraced, traced, untraced, traced: a quarter of the time each. *)
      let stale = ref (0, 0) in
      let windows =
        List.init 4 (fun i ->
            let traced = i mod 2 = 1 in
            Checker.reset_stale inst.tally;
            Spans.enabled := traced;
            let w = run_window inst (args.seconds /. 4.) in
            Spans.enabled := false;
            if traced then begin
              let n, mx = !stale in
              stale :=
                (n + inst.tally.Checker.stale_reads, max mx inst.tally.Checker.stale_max)
            end;
            (traced, w))
      in
      let pick t = List.filter_map (fun (tr, w) -> if tr = t then Some w else None) windows in
      let untraced = pick false and traced = pick true in
      let m = per_layer inst ~untraced ~traced ~stale:!stale in
      let value name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) m in
      Printf.printf "trace_summary %s\n"
        (obj
           [
             ("workload", str args.workload.name);
             ("coverage", num (Option.get (value "trace.coverage_frac")));
             ("overhead", num (Option.get (value "trace.overhead_frac")));
             ("untraced_ops_per_s", num (ops_per_s (whole untraced)));
             ("traced_ops_per_s", num (ops_per_s (whole traced)));
           ]);
      (List.map snd windows, m)
    end
  in
  inst.finish ();
  let ok = Checker.ok inst.tally in
  if not ok then begin
    Printf.eprintf "%d output check violation(s) on %s:\n" inst.tally.Checker.n_violations
      args.workload.name;
    List.iter (Printf.eprintf "  %s\n") (List.rev inst.tally.Checker.violations)
  end;
  Printf.printf "fingerprint %s\n"
    (obj
       [
         ("workload", str args.workload.name);
         ("seed", string_of_int args.seed);
         ("seconds", num args.seconds);
         ("trace", if args.trace then "1" else "0");
         ("nproc", string_of_int (online_cpus ()));
         ("cpus_used", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", str Sys.ocaml_version);
         ("store_fs", str (fs_type args.work_dir));
         ("fsync", str inst.fsync);
         ("commit", str args.commit);
         ("setup_runs_s", "[" ^ String.concat ", " (List.map num setup_times) ^ "]");
       ]);
  inst.teardown ();
  (try Unix.rmdir args.work_dir with Unix.Unix_error _ -> ());
  let failed =
    List.fold_left (fun acc w -> Array.fold_left (fun acc l -> acc + l.failed) acc w.lanes) 0 windows
  in
  let attempted = count (whole windows) reads + count (whole windows) writes + failed in
  print_endline
    (obj
       [
         ("correct", if ok then "true" else "false");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           obj (List.map (fun (name, v, unit) -> (name, obj [ ("value", num v); ("unit", str unit) ])) metrics)
         );
       ]);
  exit (if ok then 0 else 1)
