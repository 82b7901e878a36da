(* Before/after snapshots of the counters the program already exports
   ([Iw_client.stats], [Iw_server.stats], [Iw_server.phase_stats], the
   server and transport metric registries) plus the benchmark's own span
   totals.  A window's per-layer numbers are differences of two snapshots. *)

open Common

type t = float array

let calls = 0
let bytes = 1  (* framed bytes, both directions, load clients *)
let twin_pages = 2
let word_diff_s = 3
let translate_s = 4
let apply_s = 5
let srv_requests = 6
let dc_hits = 7
let dc_misses = 8
let lock_wait_us = 9
let service_us = 10
let wal_us = 11
let transport_bytes = 12
let fsyncs = 13
let fsync_us = 14
let wal_dir_bytes = 15
let user_bytes = 16
let commits = 17
let rpc_s = 18
let op_s = 19
let op_rpc_s = 20
let app_s = 21
let srv_s = 22
let srv_n = 23
let size = 24

let hist snap name =
  match Iw_metrics.find snap name with
  | Some (Iw_metrics.V_hist h) -> (float_of_int h.Iw_metrics.hv_count, h.Iw_metrics.hv_sum)
  | _ -> (0., 0.)

let counter snap name =
  match Iw_metrics.find snap name with
  | Some (Iw_metrics.V_counter v | Iw_metrics.V_gauge v) -> v
  | _ -> 0.

let take (inst : instance) : t =
  let a = Array.make size 0. in
  let add i v = a.(i) <- a.(i) +. v in
  List.iter
    (fun (c, (x : Spans.ctx)) ->
      let s = Iw_client.stats c in
      add calls (float_of_int s.Iw_client.calls);
      add bytes (float_of_int (s.Iw_client.bytes_sent + s.Iw_client.bytes_received));
      add twin_pages (float_of_int s.Iw_client.twin_pages);
      add word_diff_s s.Iw_client.word_diff_seconds;
      add translate_s s.Iw_client.translate_seconds;
      add apply_s s.Iw_client.apply_seconds;
      add rpc_s x.Spans.rpc_s;
      add op_s x.Spans.op_s;
      add op_rpc_s x.Spans.op_rpc_s;
      add app_s x.Spans.app_s)
    inst.clients;
  let server = inst.server () in
  let st = Iw_server.stats server in
  add srv_requests (float_of_int st.Iw_server.requests);
  add dc_hits (float_of_int st.Iw_server.diff_cache_hits);
  add dc_misses (float_of_int st.Iw_server.diff_cache_misses);
  let ph = Iw_server.phase_stats server in
  add lock_wait_us (Iw_phase.phase_sum_us ph Iw_phase.Lock_wait);
  add service_us (Iw_phase.phase_sum_us ph Iw_phase.Service);
  add wal_us (Iw_phase.phase_sum_us ph Iw_phase.Wal);
  let tsnap = Iw_metrics.snapshot (Iw_transport.metrics ()) in
  add transport_bytes (counter tsnap "iw_transport_bytes_sent_total");
  let ssnap = Iw_metrics.snapshot (Iw_server.metrics server) in
  let n, sum = hist ssnap "iw_store_fsync_us" in
  add fsyncs n;
  add fsync_us sum;
  add wal_dir_bytes
    (match inst.store_dir with Some d -> float_of_int (dir_bytes d) | None -> 0.);
  add user_bytes (float_of_int (inst.user_bytes ()));
  add commits (float_of_int (inst.commits ()));
  let s, n = Spans.server_totals () in
  add srv_s s;
  add srv_n (float_of_int n);
  a

let diff (b : t) (a : t) : t = Array.map2 ( -. ) b a

let add (a : t) (b : t) : t = Array.map2 ( +. ) a b

let zero () : t = Array.make size 0.
