module Serial_tree = Map.Make (Int)
module Name_tree = Map.Make (String)

type addr = Iw_mem.addr

exception Busy

exception Error of string

exception Lock_lost of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Retry policy for clients with a reconnect path (see [set_reconnect]). *)
type retry = {
  r_attempts : int;  (* re-dial attempts before giving up on the server *)
  r_base_delay : float;  (* first backoff sleep, seconds *)
  r_max_delay : float;  (* backoff cap, seconds *)
  r_call_retries : int;  (* resends of one request across recoveries *)
}

let default_retry =
  { r_attempts = 8; r_base_delay = 0.02; r_max_delay = 1.0; r_call_retries = 4 }

(* How to reach the server again after the link dies.  [rc_dial] must build a
   fresh link end-to-end (socket, demux receiver, fault wrapper). *)
type reconnect = {
  rc_dial : unit -> Iw_proto.link;
  rc_retry : retry;
}

type stats = {
  mutable calls : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable diffs_sent : int;
  mutable diffs_received : int;
  mutable updates_skipped : int;
  mutable notifications : int;
  mutable twin_pages : int;
  mutable pred_hits : int;
  mutable pred_misses : int;
  mutable word_diff_seconds : float;
  mutable translate_seconds : float;
  mutable apply_seconds : float;
}

type options = {
  mutable auto_no_diff : bool;
  mutable prediction : bool;
  mutable isomorphic : bool;
  mutable block_no_diff_threshold : float;
  mutable auto_subscribe : bool;
}

(* Latency and size distributions around the client's hot operations.  The
   flat [stats] record above stays the live store (benchmarks read its fields
   directly); these add distributions the flat counters cannot express.  All
   updates are behind the registry's enabled flag — one branch each when
   metrics are off (the default for clients; IW_METRICS=1 turns them on). *)
type instruments = {
  i_rl_us : Iw_metrics.histogram;
  i_wl_us : Iw_metrics.histogram;
  i_release_us : Iw_metrics.histogram;
  i_collect_us : Iw_metrics.histogram;
  i_apply_us : Iw_metrics.histogram;
  i_diff_sent_bytes : Iw_metrics.histogram;
  i_diff_recv_bytes : Iw_metrics.histogram;
  i_swizzles : Iw_metrics.counter;
  i_unswizzles : Iw_metrics.counter;
  i_reconnects : Iw_metrics.counter;
  i_retries : Iw_metrics.counter;
  i_timeouts : Iw_metrics.counter;
  i_locks_lost : Iw_metrics.counter;
}

type lock_state =
  | Unlocked
  | Read_locked of int
  | Write_locked of int

type lock_op =
  | Op_rl_acquire
  | Op_rl_release
  | Op_wl_acquire
  | Op_wl_release
  | Op_wl_abort

type mode =
  | Diffing
  | No_diff of int  (* write releases left before re-probing with diffs *)

(* A segment's {segment="..."} series, each registered on its first
   observation. *)
type seg_obs = {
  go_version_lag : Iw_metrics.histogram Iw_metrics.slot;
  go_staleness : Iw_metrics.histogram Iw_metrics.slot;
  go_wasted_acquire : Iw_metrics.counter Iw_metrics.slot;
  go_wl_wait : Iw_metrics.histogram Iw_metrics.slot;
}

type seg = {
  g_name : string;
  g_id : int;
  g_client : t;
  g_heap : Iw_mem.heap;
  mutable g_version : int;
  mutable g_valid : bool;  (* false: space reserved, data never fetched *)
  mutable g_blocks : Iw_mem.block Serial_tree.t;  (* blk_number_tree *)
  mutable g_by_name : Iw_mem.block Name_tree.t;  (* blk_name_tree *)
  g_registry : Iw_types.Registry.t;
  g_desc_serials : (Iw_types.desc, int) Hashtbl.t;
  mutable g_next_serial : int;
  mutable g_total_units : int;
  mutable g_lock : lock_state;
  mutable g_coherence : Iw_proto.coherence;
  mutable g_synced_at : float;  (* for Temporal coherence *)
  mutable g_mode : mode;
  mutable g_mode_forced : bool;
  mutable g_full_streak : int;
  g_created : (int, Iw_mem.block) Hashtbl.t;
  (* Blocks freed this critical section.  Their memory is only released at
     commit, so an abort can resurrect them. *)
  g_pending_frees : (int, Iw_mem.block) Hashtbl.t;
  (* Blocks reserved from segment metadata and not yet filled by a Create,
     with the server version that metadata described.  An update reaching
     that version without a Create means the block died in between. *)
  g_placeholders : (int, int) Hashtbl.t;
  mutable g_pred : Iw_mem.block option;  (* apply-side last-block prediction *)
  mutable g_subscribed : bool;
  mutable g_uptodate_streak : int;  (* consecutive wasted polls; drives auto-subscribe *)
  (* The write lock did not survive a reconnect (lease reclaim or fresh
     session): the next wl_release/wl_abort raises [Lock_lost]. *)
  mutable g_lost : bool;
  g_obs : seg_obs;
}

and monitor = {
  mon_lock : seg -> lock_op -> unit;
  mon_malloc : seg -> unit;
  mon_alloc : seg -> Iw_mem.addr -> len:int -> unit;
  mon_free : Iw_mem.addr -> unit;
  mon_read_ptr : Iw_mem.addr -> Iw_mem.addr -> unit;
  mon_swizzled : Iw_mem.addr -> unit;
}

and t = {
  c_space : Iw_mem.space;
  (* Both mutable so a reconnect can swap in a fresh link (and, when the old
     session is gone, a fresh session) without invalidating the client. *)
  mutable c_link : Iw_proto.link;
  mutable c_session : int;
  mutable c_reconnect : reconnect option;
  c_segs : (string, seg) Hashtbl.t;
  c_by_id : (int, seg) Hashtbl.t;
  mutable c_next_seg_id : int;
  c_busy_wait : float option;
  c_stats : stats;
  c_metrics : Iw_metrics.t;
  c_instr : instruments;
  (* When true, bytes_sent/bytes_received are fed actual framed bytes by the
     link's I/O callback, so the payload-based accounting below stands down
     rather than double count. *)
  mutable c_framed_bytes : bool;
  c_options : options;
  c_scratch : Iw_wire.Buf.t;
      (* reused payload-encoding buffer: collection runs are sequential, and
         reusing the buffer avoids re-zeroing megabytes per release *)
  (* Staleness flags set by the notification receiver thread; guarded by a
     mutex because that thread races with the application thread. *)
  c_stale : (string, unit) Hashtbl.t;
  c_stale_mutex : Mutex.t;
  mutable c_notifications_enabled : bool;
  (* Observation hooks for dynamic checkers; one branch per event when
     disabled (the default). *)
  mutable c_monitor : monitor option;
  (* Distributed tracing: the client span currently open (if any) — requests
     issued inside it inherit its trace and name it as parent — and the
     per-link request seq stamped into each outgoing envelope. *)
  mutable c_ctx : Iw_proto.trace_ctx option;
  mutable c_seq : int;
}

let notify_lock g op =
  match g.g_client.c_monitor with None -> () | Some m -> m.mon_lock g op

let now () = Unix.gettimeofday ()

let fresh_stats () =
  {
    calls = 0;
    bytes_sent = 0;
    bytes_received = 0;
    diffs_sent = 0;
    diffs_received = 0;
    updates_skipped = 0;
    notifications = 0;
    twin_pages = 0;
    pred_hits = 0;
    pred_misses = 0;
    word_diff_seconds = 0.;
    translate_seconds = 0.;
    apply_seconds = 0.;
  }

let stats c = c.c_stats

let make_instruments t =
  let h = Iw_metrics.histogram_us t and hb = Iw_metrics.histogram_bytes t in
  {
    i_rl_us = h ~help:"Read-lock acquisition latency" "iw_client_rl_acquire_us";
    i_wl_us = h ~help:"Write-lock acquisition latency" "iw_client_wl_acquire_us";
    i_release_us = h ~help:"Write-lock release (or abort) latency" "iw_client_wl_release_us";
    i_collect_us = h ~help:"Diff collection (word-diff + translate)" "iw_client_collect_us";
    i_apply_us = h ~help:"Diff application (translate + swizzle)" "iw_client_apply_us";
    i_diff_sent_bytes = hb ~help:"Outgoing diff payload size" "iw_client_diff_sent_bytes";
    i_diff_recv_bytes = hb ~help:"Incoming diff payload size" "iw_client_diff_received_bytes";
    i_swizzles =
      Iw_metrics.counter t ~help:"Pointers translated to MIPs" "iw_client_swizzle_total";
    i_unswizzles =
      Iw_metrics.counter t ~help:"MIPs translated to pointers" "iw_client_unswizzle_total";
    i_reconnects =
      Iw_metrics.counter t ~help:"Connections re-established after a failure"
        "iw_client_reconnects_total";
    i_retries =
      Iw_metrics.counter t ~help:"Requests resent after a transport failure"
        "iw_client_request_retries_total";
    i_timeouts =
      Iw_metrics.counter t ~help:"Calls abandoned on their deadline"
        "iw_client_call_timeouts_total";
    i_locks_lost =
      Iw_metrics.counter t ~help:"Write locks lost to lease reclaim or session loss"
        "iw_client_locks_lost_total";
  }

(* Re-back the flat stats record onto the registry as collect-time probes:
   the record stays the store, the snapshot reads it for free. *)
let register_stat_probes t (s : stats) =
  let p name help read = Iw_metrics.probe t ~help ~kind:`Counter name read in
  let i name help read = p name help (fun () -> float_of_int (read ())) in
  i "iw_client_calls_total" "Protocol calls issued" (fun () -> s.calls);
  i "iw_client_bytes_sent_total" "Bytes sent" (fun () -> s.bytes_sent);
  i "iw_client_bytes_received_total" "Bytes received" (fun () -> s.bytes_received);
  i "iw_client_diffs_sent_total" "Diffs sent" (fun () -> s.diffs_sent);
  i "iw_client_diffs_received_total" "Diffs received" (fun () -> s.diffs_received);
  i "iw_client_updates_skipped_total" "Lock acquisitions with no fetch"
    (fun () -> s.updates_skipped);
  i "iw_client_notifications_total" "Change notifications received"
    (fun () -> s.notifications);
  i "iw_client_twin_pages_total" "Pages twinned for diffing" (fun () -> s.twin_pages);
  i "iw_client_pred_hits_total" "Last-block prediction hits" (fun () -> s.pred_hits);
  i "iw_client_pred_misses_total" "Last-block prediction misses" (fun () -> s.pred_misses);
  p "iw_client_word_diff_seconds_total" "Time word-diffing twinned pages"
    (fun () -> s.word_diff_seconds);
  p "iw_client_translate_seconds_total" "Time translating to wire format"
    (fun () -> s.translate_seconds);
  p "iw_client_apply_seconds_total" "Time applying incoming diffs"
    (fun () -> s.apply_seconds)

let metrics c = c.c_metrics

let set_framed_byte_accounting c b = c.c_framed_bytes <- b

let reset_stats c =
  let s = c.c_stats in
  s.calls <- 0;
  s.bytes_sent <- 0;
  s.bytes_received <- 0;
  s.diffs_sent <- 0;
  s.diffs_received <- 0;
  s.updates_skipped <- 0;
  s.notifications <- 0;
  s.twin_pages <- 0;
  s.pred_hits <- 0;
  s.pred_misses <- 0;
  s.word_diff_seconds <- 0.;
  s.translate_seconds <- 0.;
  s.apply_seconds <- 0.

let options c = c.c_options

let register_block g b =
  g.g_blocks <- Serial_tree.add b.Iw_mem.b_serial b g.g_blocks;
  (match b.Iw_mem.b_name with
  | Some n -> g.g_by_name <- Name_tree.add n b g.g_by_name
  | None -> ());
  if b.Iw_mem.b_serial >= g.g_next_serial then g.g_next_serial <- b.Iw_mem.b_serial + 1;
  g.g_total_units <- g.g_total_units + Iw_types.layout_prim_count b.Iw_mem.b_layout

let forget_block g b =
  g.g_blocks <- Serial_tree.remove b.Iw_mem.b_serial g.g_blocks;
  (match b.Iw_mem.b_name with
  | Some n -> g.g_by_name <- Name_tree.remove n g.g_by_name
  | None -> ());
  g.g_total_units <- g.g_total_units - Iw_types.layout_prim_count b.Iw_mem.b_layout

(* Failure recovery.  A dead link is detected by the exceptions below; with a
   reconnect configured (see [set_reconnect]) the client re-dials, resumes or
   re-creates its session, and resends the interrupted request. *)

let transient = function
  | Iw_transport.Closed | Iw_transport.Timeout | Iw_transport.Connect_failed _
  | Iw_transport.Corrupt _ | Unix.Unix_error _ | End_of_file | Sys_error _ ->
    true
  | _ -> false

let backoff_sleep retry k =
  let d = Float.min (retry.r_base_delay *. (2. ** float_of_int k)) retry.r_max_delay in
  (* Jitter so a herd of clients that died together does not re-dial in
     lockstep. *)
  Unix.sleepf (d *. (0.75 +. Random.float 0.5))

(* Roll a segment whose critical section was interrupted back to a coherent
   unlocked state.  Blocks created in the lost section never reached the
   server; blocks freed in it are still live there.  Uncommitted stores may
   linger in the local bytes, so the cached copy is invalidated — the next
   acquisition refetches from scratch. *)
let drop_critical_section g =
  Hashtbl.iter
    (fun _ b ->
      forget_block g b;
      Iw_mem.free_block b)
    g.g_created;
  Hashtbl.reset g.g_created;
  Hashtbl.iter (fun _ b -> register_block g b) g.g_pending_frees;
  Hashtbl.reset g.g_pending_frees;
  g.g_pred <- None;
  g.g_valid <- false;
  g.g_version <- 0;
  g.g_lock <- Unlocked

let lose_lock g =
  Iw_metrics.incr g.g_client.c_instr.i_locks_lost;
  (match g.g_mode with
  | Diffing -> Iw_mem.unprotect g.g_heap
  | No_diff _ -> ());
  drop_critical_section g;
  g.g_lost <- true

(* Re-dial with capped exponential backoff, then [Resume_session] back into
   the old session; a server that no longer knows it (restart, or no lease)
   answers [R_error] and we fall back to a fresh [Hello] — every write lock
   is gone then.  [keep] names a segment whose loss is NOT handled here: a
   retried [Write_release] resolves against the server's release-dedup table
   instead, so its caller learns the precise outcome. *)
let recover c rc ~keep =
  (try c.c_link.Iw_proto.close () with _ -> ());
  let retry = rc.rc_retry in
  let arch_name = (Iw_mem.arch c.c_space).Iw_arch.name in
  let try_once () =
    let link = rc.rc_dial () in
    try
      match
        link.Iw_proto.call
          (Iw_proto.Resume_session { session = c.c_session; arch = arch_name })
      with
      | Iw_proto.R_resumed { held } -> (link, `Resumed held)
      | Iw_proto.R_error _ -> (
        match link.Iw_proto.call (Iw_proto.Hello { arch = arch_name }) with
        | Iw_proto.R_hello { session } -> (link, `Fresh session)
        | _ -> error "reconnect: handshake failed")
      | _ -> error "reconnect: unexpected response to Resume_session"
    with e ->
      (try link.Iw_proto.close () with _ -> ());
      raise e
  in
  let rec dial k =
    if k >= retry.r_attempts then
      error "reconnect: server unreachable after %d attempts" retry.r_attempts;
    if k > 0 then backoff_sleep retry (k - 1);
    match try_once () with
    | result -> result
    | exception e when transient e -> dial (k + 1)
  in
  let link, outcome = dial 0 in
  c.c_link <- link;
  c.c_seq <- 0;
  Iw_metrics.incr c.c_instr.i_reconnects;
  let held = match outcome with
    | `Resumed held -> held
    | `Fresh session ->
      c.c_session <- session;
      []
  in
  (* Anything could have happened while we were gone: every cached copy must
     re-validate on its next acquisition. *)
  Mutex.lock c.c_stale_mutex;
  Hashtbl.iter (fun name _ -> Hashtbl.replace c.c_stale name ()) c.c_segs;
  Mutex.unlock c.c_stale_mutex;
  Hashtbl.iter
    (fun name g ->
      match g.g_lock with
      | Write_locked _ when (not (List.mem name held)) && keep <> Some name ->
        lose_lock g
      | _ -> ())
    c.c_segs;
  (* Server-side subscriptions died with the old connection's session
     cleanup; re-establish them on the raw link (not [call]: recursion). *)
  Hashtbl.iter
    (fun _ g ->
      if g.g_subscribed then
        match
          c.c_link.Iw_proto.call
            (Iw_proto.Subscribe { session = c.c_session; name = g.g_name })
        with
        | _ -> ()
        | exception _ -> g.g_subscribed <- false)
    c.c_segs

(* A garbled request never reached the dispatcher, so resending it is always
   safe. *)
let malformed_reply msg =
  String.length msg >= 10 && String.sub msg 0 10 = "malformed:"

let call c req =
  (* Requests carry a trace-context envelope only while tracing is on, so a
     non-tracing client stays byte-identical to the old wire format. *)
  let mk_ctx () =
    if Iw_trace.enabled () then begin
      c.c_seq <- c.c_seq + 1;
      match c.c_ctx with
      | Some span -> Some { span with Iw_proto.tc_seq = c.c_seq }
      | None ->
        (* No client span open (an uninstrumented call): still give the
           request a trace of its own so the server span is findable. *)
        Some
          {
            Iw_proto.tc_trace_id = Iw_trace.next_id ();
            tc_span_id = Iw_trace.next_id ();
            tc_seq = c.c_seq;
          }
    end
    else None
  in
  (* Overload replies are retried even without a reconnect path — the link
     is healthy, the server is just shedding — under the same per-call
     budget a reconnecting client uses for resends. *)
  let call_retries =
    match c.c_reconnect with
    | Some rc -> rc.rc_retry.r_call_retries
    | None -> default_retry.r_call_retries
  in
  let rec attempt n =
    c.c_stats.calls <- c.c_stats.calls + 1;
    let reply =
      match c.c_link.Iw_proto.call ?ctx:(mk_ctx ()) req with
      | r -> Ok r
      | exception e when transient e -> Error e
    in
    match (reply, c.c_reconnect) with
    | Ok (Iw_proto.R_busy_hint { retry_after_ms }), _ ->
      (* Admission shed: the server refused the request before queueing it
         and told us when contention should have eased.  Honor the hint
         (jittered, so a shed herd does not return in lockstep); once the
         retry budget is gone, surface a plain [R_busy] so the caller's own
         busy handling (the write-lock backoff loop, or {!Busy}) takes
         over. *)
      if n >= call_retries then Iw_proto.R_busy
      else begin
        Iw_metrics.incr c.c_instr.i_retries;
        Unix.sleepf
          (float_of_int (max 1 retry_after_ms) /. 1000.
          *. (0.75 +. Random.float 0.5));
        attempt (n + 1)
      end
    | Ok (Iw_proto.R_expired _), _ ->
      (* Deadline shed: the stamped budget ran out before the server would
         spend work on the request.  Nothing was applied, so resending is
         always safe — and each resend restamps a fresh budget. *)
      if n >= call_retries then begin
        Iw_metrics.incr c.c_instr.i_timeouts;
        raise Iw_transport.Timeout
      end
      else begin
        Iw_metrics.incr c.c_instr.i_retries;
        attempt (n + 1)
      end
    | Ok (Iw_proto.R_error msg), Some rc
      when malformed_reply msg && n < rc.rc_retry.r_call_retries ->
      (* The request was garbled in flight and never applied: resend it. *)
      Iw_metrics.incr c.c_instr.i_retries;
      attempt (n + 1)
    | Ok (Iw_proto.R_error msg), _ -> error "server: %s" msg
    | Ok resp, _ -> resp
    | Error e, None -> raise e
    | Error e, Some rc ->
      if e = Iw_transport.Timeout then Iw_metrics.incr c.c_instr.i_timeouts;
      if n >= rc.rc_retry.r_call_retries then raise e;
      (* All requests are safe to resend after recovery: reads and lock
         traffic are idempotent, and a repeated Write_release is absorbed by
         the server's per-session release-dedup table. *)
      let keep =
        match req with
        | Iw_proto.Write_release { name; _ } -> Some name
        | _ -> None
      in
      recover c rc ~keep;
      Iw_metrics.incr c.c_instr.i_retries;
      attempt (n + 1)
  in
  attempt 0

let set_reconnect ?(retry = default_retry) c ~dial =
  c.c_reconnect <- Some { rc_dial = dial; rc_retry = retry }

let connect ?(arch = Iw_arch.x86_32) ?(busy_wait = None) link =
  let session =
    match link.Iw_proto.call (Iw_proto.Hello { arch = arch.Iw_arch.name }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> raise (Error "handshake failed")
  in
  let c_stats = fresh_stats () in
  let c_metrics =
    Iw_metrics.create ~enabled:(Iw_metrics.env_enabled ~default:false) ()
  in
  register_stat_probes c_metrics c_stats;
  {
    c_space = Iw_mem.create_space arch;
    c_link = link;
    c_session = session;
    c_reconnect = None;
    c_segs = Hashtbl.create 8;
    c_by_id = Hashtbl.create 8;
    c_next_seg_id = 1;
    c_busy_wait = busy_wait;
    c_stats;
    c_metrics;
    c_instr = make_instruments c_metrics;
    c_framed_bytes = false;
    c_options =
      {
        auto_no_diff = true;
        prediction = true;
        isomorphic = true;
        block_no_diff_threshold = 0.9;
        auto_subscribe = true;
      };
    c_scratch = Iw_wire.Buf.create ~capacity:65536 ();
    c_stale = Hashtbl.create 8;
    c_stale_mutex = Mutex.create ();
    c_notifications_enabled = false;
    c_monitor = None;
    c_ctx = None;
    c_seq = 0;
  }

let set_monitor c m = c.c_monitor <- m

let disconnect c = c.c_link.Iw_proto.close ()

let space c = c.c_space

let arch c = Iw_mem.arch c.c_space

let segment_name g = g.g_name

let segment_version g = g.g_version

let coherence g = g.g_coherence

let set_coherence g m = g.g_coherence <- m

let locked g = g.g_lock <> Unlocked

let lock_state g =
  match g.g_lock with
  | Unlocked -> `Unlocked
  | Read_locked n -> `Read n
  | Write_locked n -> `Write n

let no_diff_mode g = match g.g_mode with No_diff _ -> true | Diffing -> false

let find_segment c name = Hashtbl.find_opt c.c_segs name

let segment_of_addr c a =
  match Iw_mem.find_block c.c_space a with
  | Some (b, _) -> Hashtbl.find_opt c.c_by_id (Iw_mem.heap_seg_id b.Iw_mem.b_heap)
  | None -> None

let block_of_addr c a = Iw_mem.find_block c.c_space a

let find_block g ~serial = Serial_tree.find_opt serial g.g_blocks

let find_named_block g name = Name_tree.find_opt name g.g_by_name

let blocks g =
  Serial_tree.fold (fun _ b acc -> b :: acc) g.g_blocks [] |> List.rev

(* Descriptor registration: segment-scoped serials assigned by the server
   (paper, Sec. 3.1).  The isomorphic optimization is applied before
   registration so that both sides translate with the cheaper descriptor. *)
let desc_serial g desc =
  match Hashtbl.find_opt g.g_desc_serials desc with
  | Some s -> s
  | None ->
    let serial =
      match
        call g.g_client
          (Iw_proto.Register_desc { session = g.g_client.c_session; name = g.g_name; desc })
      with
      | Iw_proto.R_serial s -> s
      | _ -> error "unexpected response to Register_desc"
    in
    Iw_types.Registry.adopt g.g_registry serial desc;
    Hashtbl.replace g.g_desc_serials desc serial;
    serial

(* Reserve local space for a block known only from server metadata. *)
let reserve_block g ~serial ~name ~desc_serial =
  let desc =
    match Iw_types.Registry.find g.g_registry desc_serial with
    | Some d -> d
    | None -> error "segment %s: unknown descriptor %d" g.g_name desc_serial
  in
  let lay = Iw_types.layout (Iw_types.local (arch g.g_client)) desc in
  let b = Iw_mem.alloc g.g_heap ~serial ?name ~desc_serial lay in
  register_block g b;
  b

let refresh_meta g =
  match
    call g.g_client (Iw_proto.Segment_meta { session = g.g_client.c_session; name = g.g_name })
  with
  | Iw_proto.R_meta { version; descs; blocks } ->
    List.iter
      (fun (serial, d) ->
        Iw_types.Registry.adopt g.g_registry serial d;
        Hashtbl.replace g.g_desc_serials d serial)
      descs;
    List.iter
      (fun (mb : Iw_proto.meta_block) ->
        if not (Serial_tree.mem mb.mb_serial g.g_blocks) then begin
          ignore
            (reserve_block g ~serial:mb.mb_serial ~name:mb.mb_name
               ~desc_serial:mb.mb_desc_serial
              : Iw_mem.block);
          Hashtbl.replace g.g_placeholders mb.mb_serial version
        end)
      blocks
  | _ -> error "unexpected response to Segment_meta"

let seg_obs m name =
  let label base = Iw_metrics.with_label base "segment" name in
  {
    go_version_lag =
      Iw_metrics.slot (fun () ->
          Iw_metrics.histogram_count m ~help:"Versions behind the server at lock acquire"
            (label "iw_client_version_lag"));
    go_staleness =
      Iw_metrics.slot (fun () ->
          Iw_metrics.histogram_us m
            ~help:"Age of the cached copy when served locally under Temporal coherence"
            (label "iw_client_staleness_us"));
    go_wasted_acquire =
      Iw_metrics.slot (fun () ->
          Iw_metrics.counter m
            ~help:"Acquires that round-tripped to the server for nothing new"
            (label "iw_client_wasted_acquire_total"));
    go_wl_wait =
      Iw_metrics.slot (fun () ->
          Iw_metrics.histogram_us m
            ~help:"Write-lock wait under contention, first busy to grant"
            (label "iw_client_wl_wait_us"));
  }

let open_segment ?(create = true) c name =
  if String.contains name '#' then error "segment name %S contains '#'" name;
  match Hashtbl.find_opt c.c_segs name with
  | Some g -> g
  | None ->
    (match call c (Iw_proto.Open_segment { session = c.c_session; name; create }) with
    | Iw_proto.R_segment _ -> ()
    | _ -> error "unexpected response to Open_segment");
    let g_id = c.c_next_seg_id in
    c.c_next_seg_id <- g_id + 1;
    let g =
      {
        g_name = name;
        g_id;
        g_client = c;
        g_heap = Iw_mem.create_heap c.c_space ~seg_id:g_id;
        g_version = 0;
        g_valid = false;
        g_blocks = Serial_tree.empty;
        g_by_name = Name_tree.empty;
        g_registry = Iw_types.Registry.create ();
        g_desc_serials = Hashtbl.create 16;
        g_next_serial = 1;
        g_total_units = 0;
        g_lock = Unlocked;
        g_coherence = Iw_proto.Full;
        g_synced_at = 0.;
        g_mode = Diffing;
        g_mode_forced = false;
        g_full_streak = 0;
        g_created = Hashtbl.create 8;
        g_pending_frees = Hashtbl.create 8;
        g_placeholders = Hashtbl.create 8;
        g_pred = None;
        g_subscribed = false;
        g_uptodate_streak = 0;
        g_lost = false;
        g_obs = seg_obs c.c_metrics name;
      }
    in
    Hashtbl.replace c.c_segs name g;
    Hashtbl.replace c.c_by_id g_id g;
    (* Reserve space for existing blocks so cross-segment pointers into this
       segment can be swizzled before it is ever locked. *)
    refresh_meta g;
    g

(* MIP handling: "segment#block#offset", offsets in primitive data units and
   omitted when zero; the block part is a serial number or a symbolic name
   (paper, Sec. 2.1). *)

let seg_of_heap c heap =
  match Hashtbl.find_opt c.c_by_id (Iw_mem.heap_seg_id heap) with
  | Some g -> g
  | None -> error "address belongs to no open segment"

let ptr_to_mip c a =
  Iw_metrics.incr c.c_instr.i_swizzles;
  match Iw_mem.find_block c.c_space a with
  | None -> error "ptr_to_mip: address %d is not in a live block" a
  | Some (b, byte_off) ->
    let g = seg_of_heap c b.Iw_mem.b_heap in
    let pu =
      if byte_off = 0 then 0
      else begin
        match Iw_types.index_of_byte b.Iw_mem.b_layout byte_off with
        | -1 -> error "ptr_to_mip: address %d falls on alignment padding" a
        | i -> i
      end
    in
    Iw_wire.Mip.format g.g_name ~serial:b.Iw_mem.b_serial ~unit:pu

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let mip_to_ptr c mip =
  Iw_metrics.incr c.c_instr.i_unswizzles;
  let seg_name, blk, pu =
    match Iw_wire.Mip.parse mip with
    | Some parsed -> parsed
    | None -> error "malformed MIP %S" mip
  in
  let g =
    match Hashtbl.find_opt c.c_segs seg_name with
    | Some g -> g
    | None -> open_segment ~create:false c seg_name
  in
  let b =
    let lookup () =
      match blk with
      | Iw_wire.Mip.Serial serial -> Serial_tree.find_opt serial g.g_blocks
      | Name name -> Name_tree.find_opt name g.g_by_name
    in
    match lookup () with
    | Some b -> Some b
    | None ->
      (* The block may be newer than our metadata; refresh and retry. *)
      refresh_meta g;
      lookup ()
  in
  match b with
  | None -> error "MIP %S: no such block" mip
  | Some b ->
    let a =
      if pu = 0 then b.Iw_mem.b_addr
      else begin
        let loc = Iw_types.locate_prim b.Iw_mem.b_layout pu in
        b.Iw_mem.b_addr + loc.Iw_types.l_off
      end
    in
    (match c.c_monitor with None -> () | Some m -> m.mon_swizzled a);
    a

module Int_tbl = Hashtbl.Make (Int)
module String_tbl = Hashtbl.Make (String)

(* Pointer-rich data keeps referencing the same objects, so swizzling is
   memoized per diff operation: the first occurrence of an address (or MIP)
   pays the metadata-tree search, repeats are a hash probe. *)
let memoized_swizzle c =
  let memo = Int_tbl.create 64 in
  fun a ->
    match Int_tbl.find_opt memo a with
    | Some mip -> mip
    | None ->
      let mip = ptr_to_mip c a in
      Int_tbl.add memo a mip;
      mip

let memoized_unswizzle c =
  let memo = String_tbl.create 64 in
  fun mip ->
    match String_tbl.find_opt memo mip with
    | Some a -> a
    | None ->
      let a = mip_to_ptr c mip in
      String_tbl.add memo mip a;
      a

(* Open a span that joins the client's active trace — inheriting its
   trace_id and naming it as parent, or minting a fresh trace at top level —
   and becomes the trace context inherited by requests issued inside it.
   The previous context is restored on the way out, so nesting (e.g. a
   refresh_meta call during apply_diff inside wl_acquire) chains
   correctly. *)
let traced_span c args span f =
  if Iw_trace.enabled () then begin
    let saved = c.c_ctx in
    let span_id = Iw_trace.next_id () in
    let trace_id =
      match saved with
      | Some parent -> parent.Iw_proto.tc_trace_id
      | None -> Iw_trace.next_id ()
    in
    c.c_ctx <-
      Some { Iw_proto.tc_trace_id = trace_id; tc_span_id = span_id; tc_seq = c.c_seq };
    let args =
      ("trace_id", Iw_trace.pp_id trace_id)
      :: ("span_id", Iw_trace.pp_id span_id)
      :: args
    in
    let args =
      match saved with
      | Some parent -> ("parent_span_id", Iw_trace.pp_id parent.Iw_proto.tc_span_id) :: args
      | None -> args
    in
    Iw_trace.span_begin ~args span;
    Fun.protect
      ~finally:(fun () ->
        Iw_trace.span_end span;
        c.c_ctx <- saved)
      f
  end
  else f ()

(* Per-segment coherence series, labeled {segment="..."} like the server's
   and resolved the same way: once per segment handle, on first
   observation.  Call sites gate on [Iw_metrics.enabled]. *)

let seg_observe_lag g diff =
  Iw_metrics.observe
    (Iw_metrics.resolve g.g_obs.go_version_lag)
    (float_of_int
       (max 0 (diff.Iw_wire.Diff.to_version - diff.Iw_wire.Diff.from_version)))

let seg_observe_staleness g =
  Iw_metrics.observe
    (Iw_metrics.resolve g.g_obs.go_staleness)
    ((now () -. g.g_synced_at) *. 1e6)

let seg_count_wasted g = Iw_metrics.incr (Iw_metrics.resolve g.g_obs.go_wasted_acquire)

let seg_observe_wl_wait g us =
  Iw_metrics.observe (Iw_metrics.resolve g.g_obs.go_wl_wait) us

(* Applying an incoming diff (paper, Sec. 3.1, diff application). *)

let apply_create g ~unswizzle (serial, name, desc_serial, payload) =
  let c = g.g_client in
  Hashtbl.remove g.g_placeholders serial;
  let b =
    match Serial_tree.find_opt serial g.g_blocks with
    | Some b ->
      (* Space was reserved from metadata; fill it. *)
      if b.Iw_mem.b_desc_serial <> desc_serial then
        error "segment %s: block %d descriptor mismatch" g.g_name serial;
      b
    | None -> reserve_block g ~serial ~name ~desc_serial
  in
  let lay = b.Iw_mem.b_layout in
  let pcount = Iw_types.layout_prim_count lay in
  let r = Iw_wire.Reader.of_string payload in
  Iw_mem.with_raw c.c_space b.Iw_mem.b_addr (fun bytes base ->
      Iw_wire.apply_prims r (arch c) lay bytes ~base ~from:0 ~upto:pcount ~unswizzle);
  b

let apply_update g ~unswizzle (serial, runs) =
  let c = g.g_client in
  let b =
    let predicted =
      if not c.c_options.prediction then None
      else
        match g.g_pred with
        | Some p when p.Iw_mem.b_serial = serial && not p.Iw_mem.b_freed -> Some p
        | Some _ | None -> None
    in
    match predicted with
    | Some p ->
      c.c_stats.pred_hits <- c.c_stats.pred_hits + 1;
      p
    | None -> begin
      c.c_stats.pred_misses <- c.c_stats.pred_misses + 1;
      match Serial_tree.find_opt serial g.g_blocks with
      | Some b -> b
      | None -> error "segment %s: update for unknown block %d" g.g_name serial
    end
  in
  (* Predict the next updated block: the next block in memory order, which
     matches the server's version-list order for first-cached layouts
     (paper, Sec. 3.3). *)
  g.g_pred <-
    Option.map snd (Serial_tree.find_first_opt (fun k -> k > serial) g.g_blocks);
  let lay = b.Iw_mem.b_layout in
  let pcount = Iw_types.layout_prim_count lay in
  let arch = arch c in
  Iw_mem.with_raw c.c_space b.Iw_mem.b_addr (fun bytes base ->
      List.iter
        (fun (run : Iw_wire.Diff.run) ->
          let upto = run.start_pu + run.len_pu in
          if upto > pcount then
            error "segment %s: run beyond end of block %d" g.g_name serial;
          Iw_wire.apply_prims (Iw_wire.Reader.of_string run.payload) arch lay bytes ~base
            ~from:run.start_pu ~upto ~unswizzle)
        runs)

let release_dead_placeholders g version =
  Hashtbl.filter_map_inplace
    (fun serial v ->
      if v > version then Some v
      else begin
        (match Serial_tree.find_opt serial g.g_blocks with
        | Some b ->
          forget_block g b;
          Iw_mem.free_block b
        | None -> ());
        None
      end)
    g.g_placeholders

let apply_diff_plain g (diff : Iw_wire.Diff.t) =
  let c = g.g_client in
  let t0 = now () in
  c.c_stats.diffs_received <- c.c_stats.diffs_received + 1;
  if not c.c_framed_bytes then
    c.c_stats.bytes_received <- c.c_stats.bytes_received + Iw_wire.Diff.payload_bytes diff;
  List.iter
    (fun (serial, d) ->
      Iw_types.Registry.adopt g.g_registry serial d;
      Hashtbl.replace g.g_desc_serials d serial)
    diff.new_descs;
  let unswizzle = memoized_unswizzle c in
  List.iter
    (fun (change : Iw_wire.Diff.block_change) ->
      match change with
      | Create { serial; name; desc_serial; payload } ->
        ignore (apply_create g ~unswizzle (serial, name, desc_serial, payload) : Iw_mem.block)
      | Update { serial; runs } -> apply_update g ~unswizzle (serial, runs)
      | Free { serial } -> begin
        match Serial_tree.find_opt serial g.g_blocks with
        | Some b ->
          forget_block g b;
          Iw_mem.free_block b
        | None -> () (* freed before we ever cached it *)
      end)
    diff.changes;
  if Hashtbl.length g.g_placeholders > 0 then release_dead_placeholders g diff.to_version;
  g.g_version <- diff.to_version;
  g.g_valid <- true;
  c.c_stats.apply_seconds <- c.c_stats.apply_seconds +. (now () -. t0)

let apply_diff g (diff : Iw_wire.Diff.t) =
  let c = g.g_client in
  if Iw_metrics.enabled c.c_metrics || Iw_trace.enabled () then begin
    if Iw_metrics.enabled c.c_metrics then seg_observe_lag g diff;
    let t0 = Iw_metrics.now_us () in
    traced_span c
      [
        ("segment", g.g_name);
        ("to_version", string_of_int diff.Iw_wire.Diff.to_version);
      ]
      "client.apply_diff"
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Iw_metrics.observe c.c_instr.i_apply_us (Iw_metrics.now_us () -. t0);
            Iw_metrics.observe c.c_instr.i_diff_recv_bytes
              (float_of_int (Iw_wire.Diff.payload_bytes diff)))
          (fun () -> apply_diff_plain g diff))
  end
  else apply_diff_plain g diff

(* Notifications (paper, Sec. 2.2): the receiver thread flags segments as
   possibly stale; read-lock acquisition on a subscribed, unflagged segment
   skips server communication entirely. *)

let session c = c.c_session

let handle_notification c (n : Iw_proto.notification) =
  Mutex.lock c.c_stale_mutex;
  Hashtbl.replace c.c_stale n.Iw_proto.n_segment ();
  c.c_stats.notifications <- c.c_stats.notifications + 1;
  Mutex.unlock c.c_stale_mutex

let enable_notifications c = c.c_notifications_enabled <- true

let notifications_enabled c = c.c_notifications_enabled

let flagged_stale c name =
  Mutex.lock c.c_stale_mutex;
  let v = Hashtbl.mem c.c_stale name in
  Mutex.unlock c.c_stale_mutex;
  v

(* Cleared BEFORE asking the server, so a change racing with the response
   leaves the flag set for the next acquisition. *)
let clear_stale c name =
  Mutex.lock c.c_stale_mutex;
  Hashtbl.remove c.c_stale name;
  Mutex.unlock c.c_stale_mutex

let subscribe g =
  let c = g.g_client in
  if not c.c_notifications_enabled then
    error "segment %s: this client has no notification channel" g.g_name;
  if not g.g_subscribed then begin
    match call c (Iw_proto.Subscribe { session = c.c_session; name = g.g_name }) with
    | Iw_proto.R_ok -> g.g_subscribed <- true
    | _ -> error "unexpected response to Subscribe"
  end

let unsubscribe g =
  let c = g.g_client in
  if g.g_subscribed then begin
    match call c (Iw_proto.Unsubscribe { session = c.c_session; name = g.g_name }) with
    | Iw_proto.R_ok -> g.g_subscribed <- false
    | _ -> error "unexpected response to Unsubscribe"
  end

let subscribed g = g.g_subscribed

(* Locks. *)

let cached_version g = if g.g_valid then g.g_version else 0

(* Wrap an operation in a latency histogram and a trace span.  Off is the
   default: one branch and a tail call. *)
let instrumented g pick span f =
  let c = g.g_client in
  if Iw_metrics.enabled c.c_metrics || Iw_trace.enabled () then begin
    let t0 = Iw_metrics.now_us () in
    traced_span c
      [ ("segment", g.g_name) ]
      span
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Iw_metrics.observe (pick c.c_instr) (Iw_metrics.now_us () -. t0))
          f)
  end
  else f ()

let rl_acquire_plain g =
  notify_lock g Op_rl_acquire;
  match g.g_lock with
  | Read_locked n -> g.g_lock <- Read_locked (n + 1)
  | Write_locked _ -> error "segment %s: read lock inside write lock" g.g_name
  | Unlocked ->
    let c = g.g_client in
    (* A subscribed segment with no pending change notification is known
       current; a temporal bound is enforced with a client-side timestamp.
       Both avoid server communication entirely (paper, Sec. 2.2). *)
    let subscribed_fresh = g.g_subscribed && g.g_valid && not (flagged_stale c g.g_name) in
    let temporal_fresh =
      match g.g_coherence with
      | Iw_proto.Temporal secs -> g.g_valid && now () -. g.g_synced_at <= secs
      | Full | Delta _ | Diff_pct _ -> false
    in
    if subscribed_fresh || temporal_fresh then begin
      c.c_stats.updates_skipped <- c.c_stats.updates_skipped + 1;
      (* Temporal coherence is the one case where the copy being served is
         knowingly old: its age right now is the realized staleness. *)
      if
        temporal_fresh && (not subscribed_fresh)
        && Iw_metrics.enabled c.c_metrics
      then seg_observe_staleness g
    end
    else begin
      clear_stale c g.g_name;
      match
        call c
          (Iw_proto.Read_lock
             {
               session = c.c_session;
               name = g.g_name;
               version = cached_version g;
               coherence = g.g_coherence;
             })
      with
      | Iw_proto.R_up_to_date ->
        c.c_stats.updates_skipped <- c.c_stats.updates_skipped + 1;
        if Iw_metrics.enabled c.c_metrics then seg_count_wasted g;
        g.g_valid <- true;
        g.g_synced_at <- now ();
        (* Adaptive switch from polling to notification: repeated wasted
           polls mean updates are rarer than reads. *)
        g.g_uptodate_streak <- g.g_uptodate_streak + 1;
        if
          c.c_options.auto_subscribe && c.c_notifications_enabled
          && (not g.g_subscribed)
          && g.g_uptodate_streak >= 4
        then subscribe g
      | Iw_proto.R_update diff ->
        apply_diff g diff;
        g.g_synced_at <- now ();
        g.g_uptodate_streak <- 0
      (* An overloaded shard may shed even a read; surface the typed
         exception so callers can back off, not a generic protocol error. *)
      | Iw_proto.R_busy -> raise Busy
      | _ -> error "unexpected response to Read_lock"
    end;
    g.g_lock <- Read_locked 1

let rl_acquire g =
  instrumented g (fun i -> i.i_rl_us) "client.rl_acquire" (fun () -> rl_acquire_plain g)

let rl_release g =
  notify_lock g Op_rl_release;
  match g.g_lock with
  | Read_locked 1 -> g.g_lock <- Unlocked
  | Read_locked n -> g.g_lock <- Read_locked (n - 1)
  | Write_locked _ | Unlocked -> error "segment %s: read lock not held" g.g_name

let wl_acquire_plain g =
  notify_lock g Op_wl_acquire;
  match g.g_lock with
  | Write_locked n -> g.g_lock <- Write_locked (n + 1)
  | Read_locked _ -> error "segment %s: cannot upgrade read lock" g.g_name
  | Unlocked ->
    let c = g.g_client in
    let busy_since = ref None in
    let busy_k = ref 0 in
    let rec acquire () =
      match
        call c
          (Iw_proto.Write_lock
             { session = c.c_session; name = g.g_name; version = cached_version g })
      with
      | Iw_proto.R_busy -> begin
        if !busy_since = None then busy_since := Some (Iw_metrics.now_us ());
        match c.c_busy_wait with
        | Some d ->
          (* Exponential backoff from the configured base, jittered so that
             contending clients interleave instead of colliding each round;
             capped at the retry policy's ceiling (32x the base without
             one). *)
          let cap =
            match c.c_reconnect with
            | Some rc -> Float.max d rc.rc_retry.r_max_delay
            | None -> d *. 32.
          in
          let delay = Float.min cap (d *. (2. ** float_of_int !busy_k)) in
          incr busy_k;
          Unix.sleepf (delay *. (0.75 +. Random.float 0.5));
          acquire ()
        | None -> raise Busy
      end
      | Iw_proto.R_granted upd ->
        (match !busy_since with
        | Some since when Iw_metrics.enabled c.c_metrics ->
          seg_observe_wl_wait g (Iw_metrics.now_us () -. since)
        | Some _ | None -> ());
        upd
      | _ -> error "unexpected response to Write_lock"
    in
    (match acquire () with
    | Some diff -> apply_diff g diff
    | None -> g.g_valid <- true);
    g.g_lost <- false;
    g.g_synced_at <- now ();
    Hashtbl.reset g.g_created;
    Hashtbl.reset g.g_pending_frees;
    (match g.g_mode with
    | Diffing ->
      (* the paper's mprotect of all subsegment pages *)
      if Iw_trace.enabled () then
        Iw_trace.with_span ~args:[ ("segment", g.g_name) ] "client.twin_protect"
          (fun () -> Iw_mem.protect g.g_heap)
      else Iw_mem.protect g.g_heap
    | No_diff _ -> ());
    g.g_lock <- Write_locked 1

let wl_acquire g =
  instrumented g (fun i -> i.i_wl_us) "client.wl_acquire" (fun () -> wl_acquire_plain g)

(* Allocation. *)

let require_write_lock g op =
  match g.g_lock with
  | Write_locked _ -> ()
  | Read_locked _ | Unlocked -> error "segment %s: %s requires the write lock" g.g_name op

let malloc ?name g desc =
  (match g.g_client.c_monitor with None -> () | Some m -> m.mon_malloc g);
  require_write_lock g "malloc";
  (match Iw_types.validate desc with
  | Ok () -> ()
  | Error msg -> error "invalid descriptor: %s" msg);
  (match name with
  | Some n ->
    if String.contains n '#' then error "block name %S contains '#'" n;
    if is_digits n then error "block name %S is all digits" n;
    if Name_tree.mem n g.g_by_name then
      error "segment %s: block name %S already in use" g.g_name n
  | None -> ());
  let c = g.g_client in
  let desc = if c.c_options.isomorphic then Iw_types.optimize desc else desc in
  let serial_d = desc_serial g desc in
  let lay = Iw_types.layout (Iw_types.local (arch c)) desc in
  let serial = g.g_next_serial in
  let b = Iw_mem.alloc g.g_heap ~serial ?name ~desc_serial:serial_d lay in
  register_block g b;
  Hashtbl.replace g.g_created serial b;
  (match c.c_monitor with
  | None -> ()
  | Some m -> m.mon_alloc g b.Iw_mem.b_addr ~len:b.Iw_mem.b_size);
  b.Iw_mem.b_addr

let free c a =
  (match c.c_monitor with None -> () | Some m -> m.mon_free a);
  match Iw_mem.find_block c.c_space a with
  | None -> error "free: address %d is not in a live block" a
  | Some (b, _) ->
    let g = seg_of_heap c b.Iw_mem.b_heap in
    require_write_lock g "free";
    let serial = b.Iw_mem.b_serial in
    if Hashtbl.mem g.g_pending_frees serial then
      error "free: block %d already freed in this critical section" serial;
    forget_block g b;
    if Hashtbl.mem g.g_created serial then begin
      (* Created and freed in the same critical section: it never existed as
         far as the server is concerned, so reclaim at once. *)
      Hashtbl.remove g.g_created serial;
      Iw_mem.free_block b
    end
    else Hashtbl.replace g.g_pending_frees serial b

(* Diff collection (paper, Sec. 3.1): word-diff twinned pages, map byte runs
   to blocks and primitive-unit ranges, translate to wire format. *)

(* Index of the primitive containing [off], or of the first one after it
   (skipping alignment padding); -1 when only trailing padding remains. *)
let rec index_at_or_after lay off =
  if off >= Iw_types.size lay then -1
  else
    match Iw_types.index_of_byte lay off with
    | -1 -> index_at_or_after lay (off + 1)
    | i -> i

(* Index of the primitive containing [off], or of the last one before it. *)
let rec index_at_or_before lay off =
  if off < 0 then -1
  else
    match Iw_types.index_of_byte lay off with
    | -1 -> index_at_or_before lay (off - 1)
    | i -> i

let ranges_of_runs c byte_runs =
  let per_block = Hashtbl.create 16 in
  (* Created blocks travel whole in a Create change; blocks freed in this
     critical section are not transmitted at all. *)
  let enter b =
    let g = seg_of_heap c b.Iw_mem.b_heap in
    let serial = b.Iw_mem.b_serial in
    let acc =
      if Hashtbl.mem g.g_created serial || Hashtbl.mem g.g_pending_frees serial then None
      else
        match Hashtbl.find_opt per_block serial with
        | Some (_, ranges) -> Some ranges
        | None ->
          let ranges = ref [] in
          Hashtbl.replace per_block serial (b, ranges);
          Some ranges
    in
    (b, acc)
  in
  let cur = ref None in
  let lookup a =
    match !cur with
    | Some (b, _) as hit
      when a >= b.Iw_mem.b_addr && a < b.Iw_mem.b_addr + b.Iw_mem.b_size ->
      hit
    | Some _ | None ->
      cur := Option.map (fun (b, _) -> enter b) (Iw_mem.find_block c.c_space a);
      !cur
  in
  let rec walk a run_end =
    if a < run_end then begin
      match lookup a with
      | Some (b, acc) ->
        let span_end = min run_end (b.Iw_mem.b_addr + b.Iw_mem.b_size) in
        (match acc with
        | None -> ()
        | Some ranges -> (
          let lay = b.Iw_mem.b_layout in
          let lo = index_at_or_after lay (a - b.Iw_mem.b_addr) in
          let hi = index_at_or_before lay (span_end - 1 - b.Iw_mem.b_addr) in
          if lo >= 0 && lo <= hi then ranges := (lo, hi + 1) :: !ranges));
        walk span_end run_end
      | None -> begin
        (* Free space (e.g. a block freed during this critical section):
           jump to the next live block. *)
        match Iw_mem.next_block c.c_space a with
        | Some b when b.Iw_mem.b_addr < run_end -> walk b.Iw_mem.b_addr run_end
        | Some _ | None -> ()
      end
    end
  in
  List.iter (fun (run_addr, run_len) -> walk run_addr (run_addr + run_len)) byte_runs;
  per_block

let encode_block_runs c ~swizzle b ranges =
  let lay = b.Iw_mem.b_layout in
  let pcount = Iw_types.layout_prim_count lay in
  let covered = List.fold_left (fun acc (a, e) -> acc + e - a) 0 ranges in
  let ranges =
    (* Block-level no-diff: translating a whole block is cheaper than
       fragmenting it into many runs (paper, Sec. 3.3). *)
    if float_of_int covered >= c.c_options.block_no_diff_threshold *. float_of_int pcount
    then [ (0, pcount) ]
    else Iw_wire.Diff.normalize_ranges ranges
  in
  let buf = c.c_scratch and arch = arch c in
  ( Iw_mem.with_raw c.c_space b.Iw_mem.b_addr (fun bytes base ->
        List.map
          (fun (from, upto) ->
            Iw_wire.Buf.clear buf;
            Iw_wire.collect_prims buf arch lay bytes ~base ~from ~upto ~swizzle;
            {
              Iw_wire.Diff.start_pu = from;
              len_pu = upto - from;
              payload = Iw_wire.Buf.contents buf;
            })
          ranges),
    covered )

let collect_diff_plain g =
  let c = g.g_client in
  let swizzle = memoized_swizzle c in
  let t0 = now () in
  let byte_runs =
    match g.g_mode with
    | Diffing -> Iw_mem.modified_runs g.g_heap
    | No_diff _ -> []
  in
  c.c_stats.word_diff_seconds <- c.c_stats.word_diff_seconds +. (now () -. t0);
  c.c_stats.twin_pages <- c.c_stats.twin_pages + Iw_mem.twinned_pages g.g_heap;
  let t1 = now () in
  let changes = ref [] in
  let touched = ref 0 in
  (match g.g_mode with
  | No_diff _ ->
    (* Transmit every live block whole; no twins, no diffing. *)
    Serial_tree.iter
      (fun serial b ->
        if not (Hashtbl.mem g.g_created serial) then begin
          let lay = b.Iw_mem.b_layout in
          let pcount = Iw_types.layout_prim_count lay in
          let buf = c.c_scratch in
          Iw_wire.Buf.clear buf;
          Iw_mem.with_raw c.c_space b.Iw_mem.b_addr (fun bytes base ->
              Iw_wire.collect_prims buf (arch c) lay bytes ~base ~from:0 ~upto:pcount
                ~swizzle);
          touched := !touched + pcount;
          changes :=
            Iw_wire.Diff.Update
              {
                serial;
                runs =
                  [
                    {
                      Iw_wire.Diff.start_pu = 0;
                      len_pu = pcount;
                      payload = Iw_wire.Buf.contents buf;
                    };
                  ];
              }
            :: !changes
        end)
      g.g_blocks
  | Diffing ->
    let per_block = ranges_of_runs c byte_runs in
    (* Emit updates in ascending serial order (address order for segments
       laid out at first caching), which is what the server's version-list
       prediction expects. *)
    let entries =
      Hashtbl.fold (fun serial (b, ranges) acc -> (serial, b, !ranges) :: acc) per_block []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    in
    List.iter
      (fun (serial, b, ranges) ->
        let runs, covered = encode_block_runs c ~swizzle b ranges in
        touched := !touched + covered;
        changes := Iw_wire.Diff.Update { serial; runs } :: !changes)
      entries);
  let creates =
    Hashtbl.fold (fun serial b acc -> (serial, b) :: acc) g.g_created []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (serial, b) ->
           let lay = b.Iw_mem.b_layout in
           let pcount = Iw_types.layout_prim_count lay in
           let buf = c.c_scratch in
           Iw_wire.Buf.clear buf;
           Iw_mem.with_raw c.c_space b.Iw_mem.b_addr (fun bytes base ->
               Iw_wire.collect_prims buf (arch c) lay bytes ~base ~from:0 ~upto:pcount
                 ~swizzle);
           touched := !touched + pcount;
           Iw_wire.Diff.Create
             {
               serial;
               name = b.Iw_mem.b_name;
               desc_serial = b.Iw_mem.b_desc_serial;
               payload = Iw_wire.Buf.contents buf;
             })
  in
  let frees =
    Hashtbl.fold (fun serial _ acc -> Iw_wire.Diff.Free { serial } :: acc) g.g_pending_frees []
  in
  let diff =
    {
      Iw_wire.Diff.from_version = g.g_version;
      to_version = g.g_version + 1;
      new_descs = [];
      changes = frees @ creates @ List.rev !changes;
    }
  in
  c.c_stats.translate_seconds <- c.c_stats.translate_seconds +. (now () -. t1);
  (diff, !touched)

let collect_diff g =
  instrumented g (fun i -> i.i_collect_us) "client.collect_diff"
    (fun () -> collect_diff_plain g)

(* Automatic no-diff switching (paper, Sec. 3.3): a client that repeatedly
   modifies most of a segment stops diffing; it periodically switches back to
   capture behaviour changes. *)
let full_modification_fraction = 0.8

let no_diff_streak = 3

let no_diff_period = 8

let update_mode g touched =
  if g.g_mode_forced || not g.g_client.c_options.auto_no_diff then ()
  else
    match g.g_mode with
    | No_diff 1 -> g.g_mode <- Diffing (* re-probe with diffing *)
    | No_diff k -> g.g_mode <- No_diff (k - 1)
    | Diffing ->
      let fraction =
        if g.g_total_units = 0 then 0.
        else float_of_int touched /. float_of_int g.g_total_units
      in
      if fraction >= full_modification_fraction then begin
        g.g_full_streak <- g.g_full_streak + 1;
        if g.g_full_streak >= no_diff_streak then begin
          g.g_mode <- No_diff no_diff_period;
          g.g_full_streak <- 0
        end
      end
      else g.g_full_streak <- 0

let set_no_diff g on =
  g.g_mode_forced <- true;
  g.g_mode <- (if on then No_diff max_int else Diffing)

(* The server answered "write lock not held" to our release: the lock was
   reclaimed (inactivity lease) or belonged to a session the server forgot.
   The critical section is gone; tell the application with a typed error. *)
let release_lost g =
  Iw_metrics.incr g.g_client.c_instr.i_locks_lost;
  drop_critical_section g;
  raise (Lock_lost g.g_name)

let lock_not_held_reply = "server: write lock not held"

let wl_release_plain g =
  notify_lock g Op_wl_release;
  match g.g_lock with
  | Write_locked n when n > 1 -> g.g_lock <- Write_locked (n - 1)
  | Write_locked _ ->
    let c = g.g_client in
    let diff, touched = collect_diff g in
    Iw_mem.unprotect g.g_heap;
    if diff.changes <> [] then begin
      c.c_stats.diffs_sent <- c.c_stats.diffs_sent + 1;
      if not c.c_framed_bytes then
        c.c_stats.bytes_sent <- c.c_stats.bytes_sent + Iw_wire.Diff.payload_bytes diff;
      Iw_metrics.observe c.c_instr.i_diff_sent_bytes
        (float_of_int (Iw_wire.Diff.payload_bytes diff));
      match
        call c (Iw_proto.Write_release { session = c.c_session; name = g.g_name; diff })
      with
      | Iw_proto.R_version v ->
        g.g_version <- v;
        g.g_synced_at <- now ()
      | exception Error msg when msg = lock_not_held_reply -> release_lost g
      | _ -> error "unexpected response to Write_release"
    end
    else begin
      match
        call c
          (Iw_proto.Write_release
             { session = c.c_session; name = g.g_name; diff })
      with
      | Iw_proto.R_version v -> g.g_version <- v
      | exception Error msg when msg = lock_not_held_reply -> release_lost g
      | _ -> error "unexpected response to Write_release"
    end;
    Hashtbl.iter (fun _ b -> Iw_mem.free_block b) g.g_pending_frees;
    Hashtbl.reset g.g_pending_frees;
    Hashtbl.reset g.g_created;
    update_mode g touched;
    g.g_lock <- Unlocked
  | Read_locked _ | Unlocked ->
    if g.g_lost then begin
      g.g_lost <- false;
      raise (Lock_lost g.g_name)
    end
    else error "segment %s: write lock not held" g.g_name

let wl_release g =
  instrumented g (fun i -> i.i_release_us) "client.wl_release"
    (fun () -> wl_release_plain g)

(* Transactional abort (the paper's Section 6 direction): the twins that
   exist for diffing double as an undo log.  Every store since wl_acquire is
   rolled back, created blocks vanish, freed blocks are resurrected, and the
   server lock is released without publishing a version. *)
let wl_abort_plain g =
  notify_lock g Op_wl_abort;
  match g.g_lock with
  | Read_locked _ | Unlocked ->
    if g.g_lost then begin
      g.g_lost <- false;
      raise (Lock_lost g.g_name)
    end
    else error "segment %s: write lock not held" g.g_name
  | Write_locked _ ->
    let c = g.g_client in
    (match g.g_mode with
    | No_diff _ ->
      error "segment %s: cannot abort in no-diff mode (no twins to roll back)" g.g_name
    | Diffing -> ());
    (* Undo stores. *)
    Iw_mem.restore_twins g.g_heap;
    Iw_mem.unprotect g.g_heap;
    (* Vanish blocks created in this critical section. *)
    Hashtbl.iter
      (fun _ b ->
        forget_block g b;
        Iw_mem.free_block b)
      g.g_created;
    Hashtbl.reset g.g_created;
    (* Resurrect blocks freed in this critical section. *)
    Hashtbl.iter (fun _ b -> register_block g b) g.g_pending_frees;
    Hashtbl.reset g.g_pending_frees;
    (* Release the server-side lock without changes. *)
    (match
       call c
         (Iw_proto.Write_release
            {
              session = c.c_session;
              name = g.g_name;
              diff =
                {
                  Iw_wire.Diff.from_version = g.g_version;
                  to_version = g.g_version;
                  new_descs = [];
                  changes = [];
                };
            })
     with
    | Iw_proto.R_version _ -> ()
    | exception Error msg when msg = lock_not_held_reply ->
      (* The rollback above already ran, so local state is coherent; the
         abort still failed as a lock operation, which the caller should
         know. *)
      Iw_metrics.incr c.c_instr.i_locks_lost;
      g.g_valid <- false;
      g.g_version <- 0;
      g.g_lock <- Unlocked;
      raise (Lock_lost g.g_name)
    | _ -> error "unexpected response to Write_release");
    g.g_lock <- Unlocked

let wl_abort g =
  instrumented g (fun i -> i.i_release_us) "client.wl_abort"
    (fun () -> wl_abort_plain g)

(* Typed accessors. *)

let read_int c a = Iw_mem.load_prim c.c_space Iw_arch.Int a

let write_int c a v = Iw_mem.store_prim c.c_space Iw_arch.Int a v

let read_long c a = Iw_mem.load_prim c.c_space Iw_arch.Long a

let write_long c a v = Iw_mem.store_prim c.c_space Iw_arch.Long a v

let read_char c a = Char.chr (Iw_mem.load_prim c.c_space Iw_arch.Char a land 0xff)

let write_char c a v = Iw_mem.store_prim c.c_space Iw_arch.Char a (Char.code v)

let read_short c a = Iw_mem.load_prim c.c_space Iw_arch.Short a

let write_short c a v = Iw_mem.store_prim c.c_space Iw_arch.Short a v

let read_double c a = Iw_mem.load_double c.c_space a

let write_double c a v = Iw_mem.store_double c.c_space a v

let read_float c a = Iw_mem.load_float c.c_space a

let write_float c a v = Iw_mem.store_float c.c_space a v

let read_ptr c a =
  let v = Iw_mem.load_prim c.c_space Iw_arch.Pointer a in
  (match c.c_monitor with None -> () | Some m -> m.mon_read_ptr a v);
  v

let write_ptr c a v = Iw_mem.store_prim c.c_space Iw_arch.Pointer a v

let read_string c ~capacity a = Iw_mem.load_string c.c_space ~capacity a

let write_string c ~capacity a s = Iw_mem.store_string c.c_space ~capacity a s
