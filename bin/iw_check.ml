(* Standalone driver for the analysis tooling: lints IDL files against every
   (or a chosen set of) machine architecture descriptors, model-checks the
   coherence protocol (--model), lints the OCaml tree's lock discipline
   (--race), and compares benchmark result documents (--bench-compare).
   Exit status: 0 when clean (notes never fail a run), 1 when errors — or,
   under --Werror, warnings — were reported, 2 on usage or parse failures. *)

let resolve_arches = function
  | [] -> Ok Iw_arch.all
  | names ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Iw_arch.find n with
        | Some a -> go (a :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown architecture %S (known: %s)" n
               (String.concat ", " (List.map (fun a -> a.Iw_arch.name) Iw_arch.all))))
    in
    go [] names

(* --bench-schema: structural validation of the benchmark harness's JSON
   results document (BENCH_results.json), run as part of `dune build @check`
   so an encoder regression fails the build, not a downstream consumer.
   Expected shape: { suite: str, paper: str, quick: bool, size_bytes: num,
   figures: { figN: [ { field: str|num|bool, ... }, ... ], ... } }. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bench_schema_errors doc =
  let module J = Iw_obs_json in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let field name check =
    match J.member name doc with
    | None -> err "missing top-level field %S" name
    | Some v -> check v
  in
  let expect_str name = function J.Str _ -> () | _ -> err "%S must be a string" name in
  field "suite" (expect_str "suite");
  field "paper" (expect_str "paper");
  field "quick" (function J.Bool _ -> () | _ -> err "\"quick\" must be a bool");
  field "size_bytes" (function J.Num _ -> () | _ -> err "\"size_bytes\" must be a number");
  field "figures" (function
    | J.Obj figs ->
      List.iter
        (fun (fig, rows) ->
          match rows with
          | J.Arr rows ->
            List.iteri
              (fun i row ->
                match row with
                | J.Obj fields ->
                  List.iter
                    (fun (k, v) ->
                      match v with
                      | J.Str _ | J.Num _ | J.Bool _ -> ()
                      | _ -> err "%s[%d].%s: expected scalar" fig i k)
                    fields;
                  if fields = [] then err "%s[%d]: empty row object" fig i
                | _ -> err "%s[%d]: expected an object" fig i)
              rows
          | _ -> err "figure %S must be an array of rows" fig)
        figs;
      (* The ycsb macro-benchmark section, when present, must carry the
         fields the regression gate and the README's worked example rely
         on: an "overall" row with throughput and tail percentiles. *)
      let series row =
        match row with
        | J.Obj fs -> List.assoc_opt "series" fs
        | _ -> None
      in
      (match List.assoc_opt "ycsb" figs with
      | None | Some (J.Arr []) -> ()
      | Some (J.Arr rows) -> (
        match List.find_opt (fun r -> series r = Some (J.Str "overall")) rows with
        | None -> err "ycsb: missing the \"overall\" series row"
        | Some (J.Obj fs) ->
          List.iter
            (fun k ->
              match List.assoc_opt k fs with
              | Some (J.Num _) -> ()
              | _ -> err "ycsb overall row: missing numeric field %S" k)
            [
              "throughput_ops_per_s";
              "accepted_ops_per_s";
              "shed";
              "expired";
              "p50_us";
              "p99_us";
              "p999_us";
            ]
        | Some _ -> ())
      | Some _ -> ());
      (* The phase figure rides with ycsb: the server-side decomposition of
         the latency the run measured.  A document carrying a ycsb section
         must also say where that time went — one row per pipeline phase
         with its share of the total, plus a "phase:total" row whose
         coverage_pct says how much of the measured total the phases
         explain. *)
      (match (List.assoc_opt "ycsb" figs, List.assoc_opt "phase" figs) with
      | (None | Some (J.Arr [])), _ -> ()
      | Some _, None -> err "phase: figure missing (required alongside ycsb)"
      | Some _, Some (J.Arr rows) ->
        let require name keys =
          match List.find_opt (fun r -> series r = Some (J.Str name)) rows with
          | None -> err "phase: missing the %S series row" name
          | Some (J.Obj fs) ->
            List.iter
              (fun k ->
                match List.assoc_opt k fs with
                | Some (J.Num _) -> ()
                | _ -> err "phase %s row: missing numeric field %S" name k)
              keys
          | Some _ -> ()
        in
        List.iter
          (fun ph ->
            require ("phase:" ^ ph)
              [ "count"; "sum_us"; "share_pct"; "p50_us"; "p99_us" ])
          [ "decode"; "lock_wait"; "service"; "wal"; "reply" ];
        require "phase:total" [ "count"; "sum_us"; "phase_sum_us"; "coverage_pct" ]
      | Some _, Some _ -> err "figure \"phase\" must be an array of rows");
      (* The saturation figure, when present, must carry the row identity
         ("series", e.g. "domains:4") and the throughput the
         --bench-compare regression gate rides on. *)
      (match List.assoc_opt "saturation" figs with
      | None | Some (J.Arr []) -> ()
      | Some (J.Arr rows) ->
        List.iteri
          (fun i row ->
            match row with
            | J.Obj fs ->
              (match List.assoc_opt "series" fs with
              | Some (J.Str _) -> ()
              | _ -> err "saturation[%d]: missing string field \"series\"" i);
              List.iter
                (fun k ->
                  match List.assoc_opt k fs with
                  | Some (J.Num _) -> ()
                  | _ -> err "saturation[%d]: missing numeric field %S" i k)
                [ "domains"; "throughput_ops_per_s"; "fsyncs" ]
            | _ -> ())
          rows
      | Some _ -> ())
    | _ -> err "\"figures\" must be an object");
  List.rev !errs

let run_bench_schema path =
  match Iw_obs_json.parse (read_file path) with
  | exception Sys_error msg ->
    Printf.eprintf "iw-check: %s\n" msg;
    2
  | Error e ->
    Printf.eprintf "iw-check: %s: invalid JSON: %s\n" path e;
    1
  | Ok doc -> (
    match bench_schema_errors doc with
    | [] ->
      Printf.printf "%s: bench schema OK\n" path;
      0
    | errs ->
      List.iter (fun m -> Printf.eprintf "iw-check: %s: %s\n" path m) errs;
      1)

(* --overload-smoke: gate for the over-capacity ycsb run that rides with
   @check.  The document must show the overload machinery actually engaged
   (shed + expired > 0 — the run was really over capacity and the server
   refused work instead of queueing without bound), that the server kept
   serving through it (accepted_ops_per_s > 0), and that peak RSS stayed
   bounded (the admission cap, not the offered load, sizes memory). *)
let overload_rss_bound_kb = 1_500_000

let run_overload_smoke path =
  let module J = Iw_obs_json in
  match J.parse (read_file path) with
  | exception Sys_error msg ->
    Printf.eprintf "iw-check: %s\n" msg;
    2
  | Error e ->
    Printf.eprintf "iw-check: %s: invalid JSON: %s\n" path e;
    1
  | Ok doc -> (
    let overall =
      match J.member "figures" doc with
      | Some (J.Obj figs) -> (
        match List.assoc_opt "ycsb" figs with
        | Some (J.Arr rows) ->
          List.find_opt
            (fun r ->
              match r with
              | J.Obj fs -> List.assoc_opt "series" fs = Some (J.Str "overall")
              | _ -> false)
            rows
        | _ -> None)
      | _ -> None
    in
    match overall with
    | None ->
      Printf.eprintf "iw-check: %s: no ycsb \"overall\" row\n" path;
      1
    | Some row ->
      let num name =
        match row with
        | J.Obj fs -> (
          match List.assoc_opt name fs with Some (J.Num v) -> v | _ -> nan)
        | _ -> nan
      in
      let shed = num "shed" and expired = num "expired" in
      let accepted = num "accepted_ops_per_s" and rss = num "rss_hwm_kb" in
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
      if Float.is_nan shed || Float.is_nan expired then
        fail "missing shed/expired cells"
      else if shed +. expired < 1. then
        fail "no work was shed or expired — the run never went over capacity";
      if Float.is_nan accepted || accepted <= 0. then
        fail "accepted_ops_per_s is %g — the server stopped serving" accepted;
      if Float.is_nan rss then fail "missing rss_hwm_kb cell"
      else if rss > float_of_int overload_rss_bound_kb then
        fail "peak RSS %.0f kB exceeds the %d kB bound — queue memory is unbounded"
          rss overload_rss_bound_kb;
      (match List.rev !failures with
      | [] ->
        Printf.printf
          "%s: overload smoke OK (shed %.0f, expired %.0f, accepted %.0f \
           ops/s, rss %.0f kB)\n"
          path shed expired accepted rss;
        0
      | fs ->
        List.iter (fun m -> Printf.eprintf "iw-check: %s: %s\n" path m) fs;
        1))

(* --fault-plan: validate an IW_FAULT / --fault-plan string without running
   anything, so CI and operators can vet a plan before pointing it at a
   server. *)
let run_fault_plan s =
  match Iw_fault.parse s with
  | Ok p ->
    Format.printf "fault plan OK: %a@." Iw_fault.pp p;
    0
  | Error msg ->
    Printf.eprintf "iw-check: invalid fault plan: %s\n" msg;
    1

(* --store: offline validation of a server's durability directory — every
   checkpoint's magic and CRC trailer, every write-ahead-log record's CRC,
   and version continuity from each checkpoint into its segment's log.  A
   torn log tail is reported but does not fail the run (it is the normal
   shape of a crash and recovery truncates it); corrupt records, bad
   checkpoints, version gaps, and checkpoint→log discontinuities do. *)
let run_store dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "iw-check: %s: not a directory\n" dir;
    2
  end
  else begin
    let files = Sys.readdir dir in
    Array.sort compare files;
    let errors = ref 0 in
    let err fmt =
      incr errors;
      Printf.ksprintf (fun m -> Printf.eprintf "iw-check: %s\n" m) fmt
    in
    (* Checkpoint versions by segment name, for continuity against the log. *)
    let ckpt_versions = Hashtbl.create 8 in
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Filename.check_suffix f Iw_store.checkpoint_suffix then begin
          match Iw_store.verify_checkpoint path with
          | Ok (name, version) ->
            Hashtbl.replace ckpt_versions name version;
            Printf.printf "%s: checkpoint OK (%s at version %d)\n" f name version
          | Error msg -> err "%s: %s" f msg
        end
        else if Filename.check_suffix f Iw_store.log_suffix then begin
          match Iw_store.scan_log path with
          | Error msg -> err "%s: %s" f msg
          | Ok r ->
            (match r.Iw_store.lr_tail with
            | Iw_store.Tail_clean -> ()
            | Iw_store.Tail_torn reason ->
              Printf.printf
                "%s: torn tail (%s) — consistent with a crash; recovery will \
                 truncate it\n"
                f reason
            | Iw_store.Tail_corrupt reason -> err "%s: %s" f reason);
            (match r.Iw_store.lr_gap with
            | Some (expected, got) ->
              err "%s: version gap in log: expected %d, found %d" f expected got
            | None -> ());
            (match r.Iw_store.lr_segment with
            | None ->
              if r.Iw_store.lr_records > 0 then err "%s: no header record" f
            | Some name ->
              (* Continuity: the log's first commit must continue its
                 segment's checkpoint (or start from scratch without one).
                 First commits at or below the checkpoint version are stale
                 records the checkpoint already covers — replay skips them. *)
              let ckpt =
                match Hashtbl.find_opt ckpt_versions name with
                | Some v -> v
                | None -> 0
              in
              (match r.Iw_store.lr_first_commit with
              | Some first when first > ckpt + 1 ->
                err
                  "%s: log for %s starts at version %d but its checkpoint \
                   ends at %d (missing %d version(s))"
                  f name first ckpt
                  (first - ckpt - 1)
              | _ -> ());
              Printf.printf
                "%s: log OK (%s, %d record(s), %d commit(s)%s)\n" f name
                r.Iw_store.lr_records r.Iw_store.lr_commits
                (match (r.Iw_store.lr_first_commit, r.Iw_store.lr_last_commit) with
                | Some a, Some b -> Printf.sprintf ", versions %d..%d" a b
                | _ -> ""))
        end
        else if Filename.check_suffix f Iw_store.journal_suffix then begin
          (* A shard journal: group commit's single-fsync file.  A torn tail
             is an interrupted [end_batch] whose releases were never
             acknowledged — normal crash shape, like a torn log tail. *)
          match Iw_store.scan_journal path with
          | Error msg -> err "%s: %s" f msg
          | Ok r ->
            (match r.Iw_store.jr_tail with
            | Iw_store.Tail_clean -> ()
            | Iw_store.Tail_torn reason ->
              Printf.printf
                "%s: torn tail (%s) — an interrupted group commit; recovery \
                 will use the good prefix\n"
                f reason
            | Iw_store.Tail_corrupt reason -> err "%s: %s" f reason);
            Printf.printf
              "%s: journal OK (%d redirect record(s), %d commit(s), %d \
               segment(s))\n"
              f r.Iw_store.jr_records r.Iw_store.jr_commits
              (List.length r.Iw_store.jr_segments)
        end
        else if Filename.check_suffix f ".corrupt" then
          Printf.printf "%s: quarantined file (left by a previous recovery)\n" f)
      files;
    if !errors = 0 then begin
      Printf.printf "%s: store OK\n" dir;
      0
    end
    else 1
  end

(* --model: exhaustively explore the bounded protocol model.  Exit 0 when
   every reachable state satisfies the invariants, 1 with a minimized,
   replayable schedule when one fails, 2 on bad flags. *)
let run_model ~clients ~segments ~depth ~crash ~seed ~broken ~coherence ~queue ~replay_sched =
  let ( let* ) r k =
    match r with
    | Ok v -> k v
    | Error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2
  in
  let* coherences =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | s :: rest -> (
        match Iw_model.coherence_of_string s with
        | Ok c -> go (c :: acc) rest
        | Error e -> Error e)
    in
    match String.split_on_char ',' coherence |> List.filter (fun s -> s <> "") with
    | [] -> Error "empty --coherence list"
    | parts -> go [] parts
  in
  let* broken =
    match broken with
    | None -> Ok None
    | Some s -> Result.map Option.some (Iw_model.broken_of_string s)
  in
  let* () = if clients < 1 then Error "--clients must be at least 1" else Ok () in
  let* () = if segments < 1 then Error "--segments must be at least 1" else Ok () in
  let* () =
    match queue with
    | Some q when q < 1 -> Error "--queue must be at least 1"
    | _ -> Ok ()
  in
  let cfg =
    {
      Iw_model.default_config with
      Iw_model.n_clients = clients;
      n_segments = segments;
      coherences;
      crash;
      queue;
      broken;
    }
  in
  let pp_coh = function
    | Iw_model.Full -> "full"
    | Iw_model.Delta n -> Printf.sprintf "delta:%d" n
    | Iw_model.Temporal -> "temporal"
    | Iw_model.Diff_bound n -> Printf.sprintf "diff:%d" n
  in
  Printf.printf "model: %d client(s), %d segment(s), coherence [%s], lease on, crash %s%s%s\n"
    clients segments
    (String.concat ", "
       (List.init clients (fun i -> pp_coh cfg.Iw_model.coherences.(i mod Array.length cfg.Iw_model.coherences))))
    (if crash then "on" else "off")
    (match queue with
    | Some q -> Printf.sprintf ", mailbox cap %d" q
    | None -> "")
    (match cfg.Iw_model.broken with
    | None -> ""
    | Some _ -> Printf.sprintf ", broken variant injected");
  match replay_sched with
  | Some sched_s -> (
    let* sched = Iw_explore.schedule_of_string sched_s in
    match Iw_explore.replay cfg sched with
    | Error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2
    | Ok None ->
      Printf.printf "replay: %d step(s), no violation\n" (List.length sched);
      0
    | Ok (Some viol) ->
      Printf.printf "replay: violation %s: %s\n" viol.Iw_model.v_code
        viol.Iw_model.v_message;
      1)
  | None -> (
    let r = Iw_explore.explore ?seed ~max_states:depth cfg in
    Printf.printf "explored %d state(s), %d transition(s), max depth %d%s\n"
      r.Iw_explore.r_states r.Iw_explore.r_transitions r.Iw_explore.r_depth
      (if r.Iw_explore.r_truncated then
         Printf.sprintf " — TRUNCATED at the %d-state bound (not exhaustive)" depth
       else if r.Iw_explore.r_violation <> None then " — stopped at first violation"
       else " — exhaustive");
    match r.Iw_explore.r_violation with
    | None ->
      Printf.printf "invariants hold on every explored state\n";
      0
    | Some cx ->
      Printf.printf "VIOLATION %s: %s\n" cx.Iw_explore.cx_code cx.Iw_explore.cx_message;
      Printf.printf "minimized schedule (%d step(s), shrunk from %d):\n  %s\n"
        (List.length cx.Iw_explore.cx_schedule)
        cx.Iw_explore.cx_shrunk_from
        (Iw_explore.schedule_to_string cx.Iw_explore.cx_schedule);
      Printf.printf "replay with: iw-check --model%s --clients %d%s%s --coherence %s%s --replay '%s'\n"
        (if crash then " --crash" else "")
        clients
        (if segments > 1 then Printf.sprintf " --segments %d" segments else "")
        (match queue with
        | Some q -> Printf.sprintf " --queue %d" q
        | None -> "")
        coherence
        (match broken with
        | Some b ->
          Printf.sprintf " --model-broken %s"
            (match b with
            | Iw_model.No_dedup_rebuild -> "no-dedup-rebuild"
            | Iw_model.Ack_before_log -> "ack-before-log"
            | Iw_model.No_lock_check -> "no-lock-check"
            | Iw_model.No_reclaim -> "no-reclaim"
            | Iw_model.Stale_full_reads -> "stale-full-reads"
            | Iw_model.Shed_applied -> "shed-applied")
        | None -> "")
        (Iw_explore.schedule_to_string cx.Iw_explore.cx_schedule);
      1)

(* --race: the source-level lock-discipline lint over .ml trees. *)
let run_race paths werror =
  let paths = if paths = [] then [ "lib"; "bin" ] else paths in
  match Iw_src_lint.lint_files paths with
  | Error msg ->
    Printf.eprintf "iw-check: %s\n" msg;
    2
  | Ok ds -> (
    List.iter (fun d -> Format.printf "%a@." Iw_src_lint.pp_diagnostic d) ds;
    if ds = [] then Printf.printf "race: %s: clean\n" (String.concat " " paths);
    match Iw_src_lint.worst ds with
    | Some Iw_lint.Error -> 1
    | Some Iw_lint.Warning when werror -> 1
    | _ -> 0)

(* --bench-compare: regression gate between two benchmark result documents.
   Per figure, every row of OLD is matched in NEW (by its string/bool
   fields, or its first numeric field when it has none) and each shared
   numeric field contributes the ratio new/old; a figure regresses when the
   median ratio exceeds 1.20 (all benchmark metrics are lower-is-better).
   Rows or figures missing from NEW fail the comparison outright.

   The ycsb macro-benchmark section is noisier than the micro-benchmarks
   (it measures an open-loop distributed workload, not a kernel), so only
   its load-bearing cells are compared at all — throughput and the latency
   percentiles — and of those, the "overall" row's throughput/p50/p90/p99
   are additionally gated individually: a regression there must fail even
   when the figure's median stays flat.  The p999 and per-coherence-model
   cells come from too few tail samples in a quick run to gate one by one;
   they feed only the median.  Throughput is higher-is-better; its ratio
   is inverted (old/new) so the same >1.20 threshold still means
   "regression". *)

let ycsb_compared_fields =
  [
    "throughput_ops_per_s";
    "accepted_ops_per_s";
    "p50_us";
    "p90_us";
    "p99_us";
    "p999_us";
  ]

let ycsb_gated_fields =
  [ "throughput_ops_per_s"; "accepted_ops_per_s"; "p50_us"; "p90_us"; "p99_us" ]

(* Figures where more is better; their new/old ratio is inverted so the
   shared >1.20 threshold still reads "regression".  Shed and expired
   counts are deliberately NOT here (or in the compared list at all): how
   much an overloaded run sheds is a property of the offered load, not a
   quality of the build — what must not regress is the throughput of
   accepted work. *)
let higher_is_better = [ "throughput_ops_per_s"; "accepted_ops_per_s" ]

(* The phase figure's absolute cells (sums, percentiles, counts) scale with
   the run length and offered load, so comparing them across documents is
   noise; only each phase's share of the total is shape-stable, and even
   that feeds the figure median only (a share shifting between phases is a
   diagnosis, not automatically a regression). *)
let phase_compared_fields = [ "share_pct" ]

(* The saturation figure exists to prove Write_release throughput scales
   with --domains; its wall times, fsync counts, and batch depths are
   machine-load diagnostics, not claims.  Compare (and gate, per domain
   count) only the throughput the claim rests on. *)
let saturation_compared_fields = [ "throughput_ops_per_s" ]

let run_bench_compare old_path new_path =
  let module J = Iw_obs_json in
  let parse path =
    match J.parse (read_file path) with
    | exception Sys_error msg -> Error msg
    | Ok doc -> Ok (path, doc)
    | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
  in
  match (parse old_path, parse new_path) with
  | Error e, _ | _, Error e ->
    Printf.eprintf "iw-check: %s\n" e;
    2
  | Ok (_, old_doc), Ok (_, new_doc) -> (
    let figures doc =
      match J.member "figures" doc with
      | Some (J.Obj figs) -> Ok figs
      | _ -> Error "missing \"figures\" object"
    in
    match (figures old_doc, figures new_doc) with
    | Error e, _ ->
      Printf.eprintf "iw-check: %s: %s\n" old_path e;
      2
    | _, Error e ->
      Printf.eprintf "iw-check: %s: %s\n" new_path e;
      2
    | Ok old_figs, Ok new_figs ->
      let failures = ref 0 in
      let fail fmt =
        incr failures;
        Printf.ksprintf (fun m -> Printf.eprintf "iw-check: %s\n" m) fmt
      in
      let rows = function J.Arr rows -> rows | _ -> [] in
      let fields = function J.Obj fs -> fs | _ -> [] in
      (* A row's identity: its scalar non-numeric fields, or its first
         numeric field (e.g. fig5's leading "ratio") when it has none. *)
      let row_key row =
        let fs = fields row in
        match
          List.filter (fun (_, v) -> match v with J.Str _ | J.Bool _ -> true | _ -> false) fs
        with
        | [] -> (
          match List.find_opt (fun (_, v) -> match v with J.Num _ -> true | _ -> false) fs with
          | Some (k, v) -> [ (k, v) ]
          | None -> [])
        | keys -> keys
      in
      let key_to_string key =
        String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=%s" k
                 (match v with
                 | J.Str s -> s
                 | J.Bool b -> string_of_bool b
                 | J.Num n -> Printf.sprintf "%g" n
                 | _ -> "?"))
             key)
      in
      List.iter
        (fun (fig, old_rows) ->
          match List.assoc_opt fig new_figs with
          | None -> fail "figure %s missing from %s" fig new_path
          | Some new_rows ->
            let new_rows = rows new_rows in
            let ratios = ref [] in
            List.iter
              (fun old_row ->
                let key = row_key old_row in
                match
                  List.find_opt (fun r -> row_key r = key) new_rows
                with
                | None ->
                  fail "%s: row [%s] missing from %s" fig (key_to_string key) new_path
                | Some new_row ->
                  List.iter
                    (fun (k, ov) ->
                      match (ov, List.assoc_opt k (fields new_row)) with
                      | J.Num ov, Some (J.Num nv) when not (List.mem_assoc k key) ->
                        if
                          (fig <> "ycsb" || List.mem k ycsb_compared_fields)
                          && (fig <> "phase" || List.mem k phase_compared_fields)
                          && (fig <> "saturation"
                             || List.mem k saturation_compared_fields)
                        then begin
                          let eps = 1e-9 in
                          let r = (nv +. eps) /. (ov +. eps) in
                          let r = if List.mem k higher_is_better then 1. /. r else r in
                          if
                            fig = "ycsb"
                            && List.assoc_opt "series" key = Some (J.Str "overall")
                            && List.mem k ycsb_gated_fields
                            && r > 1.20
                          then
                            fail "ycsb: [%s] %s ratio %.3f exceeds 1.20 — regression"
                              (key_to_string key) k r;
                          if fig = "saturation" && r > 1.20 then
                            fail
                              "saturation: [%s] %s ratio %.3f exceeds 1.20 — \
                               regression"
                              (key_to_string key) k r;
                          ratios := r :: !ratios
                        end
                      | _ -> ())
                    (fields old_row))
              (rows old_rows);
            (match List.sort compare !ratios with
            | [] -> ()
            | sorted ->
              let n = List.length sorted in
              let median =
                if n mod 2 = 1 then List.nth sorted (n / 2)
                else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.
              in
              if median > 1.20 then
                fail "%s: median ratio %.3f over %d cell(s) exceeds 1.20 — regression"
                  fig median n
              else
                Printf.printf "%s: median ratio %.3f over %d cell(s) — OK\n" fig median
                  n))
        old_figs;
      if !failures = 0 then begin
        Printf.printf "bench-compare: %s -> %s: OK\n" old_path new_path;
        0
      end
      else 1)

let run files json werror arch_names =
  match resolve_arches arch_names with
  | Error msg ->
    Printf.eprintf "iw-check: %s\n" msg;
    2
  | Ok arches -> (
    try
      let per_file =
        List.map
          (fun file ->
            let decls = Iw_idl.parse_file file in
            (file, Iw_lint.lint ~arches decls))
          files
      in
      if json then begin
        let entry (file, ds) =
          Printf.sprintf "{\"file\":\"%s\",\"diagnostics\":%s}" file (Iw_lint.to_json ds)
        in
        print_endline ("[" ^ String.concat "," (List.map entry per_file) ^ "]")
      end
      else
        List.iter
          (fun (file, ds) ->
            List.iter
              (fun d -> Format.printf "%a@." (Iw_lint.pp_diagnostic ~file) d)
              ds)
          per_file;
      let worst = Iw_lint.worst (List.concat_map snd per_file) in
      match worst with
      | Some Iw_lint.Error -> 1
      | Some Iw_lint.Warning when werror -> 1
      | _ -> 0
    with
    | Iw_idl.Parse_error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2
    | Sys_error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2)

open Cmdliner

(* plain strings, not Arg.file: each mode reports a missing path itself with
   the documented exit code 2 instead of cmdliner's generic CLI error *)
let files =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:
          "IDL files to lint; .ml trees for --race; OLD.json NEW.json for \
           --bench-compare.")

let bench_schema =
  Arg.(
    value
    & opt (some file) None
    & info [ "bench-schema" ] ~docv:"RESULTS.json"
        ~doc:
          "Validate the structure of a benchmark results document \
           (BENCH_results.json) instead of linting IDL files.")

let overload_smoke =
  Arg.(
    value
    & opt (some file) None
    & info [ "overload-smoke" ] ~docv:"RESULTS.json"
        ~doc:
          "Gate an over-capacity benchmark document: the ycsb \"overall\" \
           row must show shed or expired work (the server refused load \
           instead of queueing it), a nonzero accepted throughput, and a \
           bounded peak RSS.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Validate a fault-injection plan (the IW_FAULT / iw-server \
           --fault-plan syntax, e.g. \
           $(b,seed:7,drop:0.01,delay:5ms,close\\@req=17)) and print its \
           normalized form, instead of linting IDL files.")

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Validate a server durability directory (a --checkpoint-dir): \
           checkpoint magic and CRC trailers, write-ahead-log record CRCs, \
           and version continuity from each checkpoint into its log.  Run \
           it against a stopped (or crashed) server's directory; a torn log \
           tail is reported but passes, since recovery truncates it.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")

let werror =
  Arg.(value & flag & info [ "Werror" ] ~doc:"Treat warnings as errors (exit 1).")

let arch_names =
  Arg.(
    value
    & opt_all string []
    & info [ "arch" ] ~docv:"NAME"
        ~doc:"Architecture(s) to check layouts against (repeatable; default: all).")

(* --lint is the default mode; the flag exists so invocations read naturally
   alongside --model / --race / --bench-compare. *)
let lint_flag =
  Arg.(value & flag & info [ "lint" ] ~doc:"Run the IDL lint pass (the default).")

let model_flag =
  Arg.(
    value & flag
    & info [ "model" ]
        ~doc:
          "Exhaustively explore the bounded protocol model (write locks, \
           leases, release dedup, WAL/checkpoint) and check its invariants \
           (MDL01-MDL06) on every reachable state.  A violation prints a \
           minimized, replayable schedule and exits 1.")

let model_depth =
  Arg.(
    value
    & opt int 200_000
    & info [ "depth" ] ~docv:"N"
        ~doc:"State bound for --model: stop (and report truncation) after exploring $(docv) states.")

let model_crash =
  Arg.(
    value & flag
    & info [ "crash" ]
        ~doc:
          "Enable crash actions in --model: server crash/recover, \
           checkpoint barriers, and client death (lease reclamation fodder).")

let model_clients =
  Arg.(
    value & opt int 2
    & info [ "clients" ] ~docv:"N" ~doc:"Number of model clients for --model.")

let model_segments =
  Arg.(
    value & opt int 1
    & info [ "segments" ] ~docv:"N"
        ~doc:
          "Number of independent segments (model shards) for --model.  \
           Client $(i,i) writes segment $(i,i) mod $(docv) and reads segment \
           ($(i,i)+1) mod $(docv), so every invariant is re-checked with \
           per-shard locks, WALs, and checkpoints.")

let model_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Shuffle the per-state action order of --model deterministically; \
           different seeds walk the same state space in a different order.")

let model_broken =
  Arg.(
    value
    & opt (some string) None
    & info [ "model-broken" ] ~docv:"VARIANT"
        ~doc:
          "Re-introduce a protocol bug on purpose (no-dedup-rebuild, \
           ack-before-log, no-lock-check, no-reclaim, stale-full-reads, \
           shed-applied) to demonstrate the invariant that catches it.")

let model_queue =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"CAP"
        ~doc:
          "Bound the model's shard mailbox at $(docv) queued releases: \
           releases split into submit (admission-gated), then apply or shed \
           (refused without side effects; the client resubmits).  This is \
           the default server's gate too: at one shard the mailbox is the \
           requests inside the shard.  Default: the unbounded pre-overload \
           model.")

let model_coherence =
  Arg.(
    value
    & opt string "full,delta:1"
    & info [ "coherence" ] ~docv:"LIST"
        ~doc:
          "Comma-separated per-client coherence models for --model (full, \
           delta:N, temporal, diff:N), cycled over the clients.")

let model_replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCHEDULE"
        ~doc:
          "Replay a space-separated action schedule (as printed by a \
           --model violation) under the same configuration instead of \
           exploring.")

let race_flag =
  Arg.(
    value & flag
    & info [ "race" ]
        ~doc:
          "Run the source-level lock-discipline lint (LCK001-LCK004) over \
           the .ml trees given as positional arguments (default: lib bin).")

let bench_compare_flag =
  Arg.(
    value & flag
    & info [ "bench-compare" ]
        ~doc:
          "Compare two benchmark result documents (positional: OLD.json \
           NEW.json); exit 1 when any figure's median new/old ratio exceeds \
           1.20 or a row disappeared.")

let cmd =
  let doc = "static checks for InterWeave: IDL lint, protocol model checker, lock-discipline lint, benchmark gates" in
  Cmd.v
    (Cmd.info "iw-check" ~doc)
    Term.(
      const
        (fun files json werror arches _lint bench_schema overload_smoke fault_plan
             store model depth crash clients segments seed broken coherence queue
             replay race bench_compare ->
          if race then run_race files werror
          else if model || replay <> None then
            run_model ~clients ~segments ~depth ~crash ~seed ~broken ~coherence ~queue
              ~replay_sched:replay
          else if bench_compare then
            match files with
            | [ old_path; new_path ] -> run_bench_compare old_path new_path
            | _ ->
              Printf.eprintf "iw-check: --bench-compare needs exactly OLD.json NEW.json\n";
              2
          else
            match (fault_plan, bench_schema, overload_smoke, store) with
            | Some plan, _, _, _ -> run_fault_plan plan
            | None, Some path, _, _ -> run_bench_schema path
            | None, None, Some path, _ -> run_overload_smoke path
            | None, None, None, Some dir -> run_store dir
            | None, None, None, None ->
              if files = [] then begin
                Printf.eprintf
                  "iw-check: no IDL files given (and no --model, --race, \
                   --bench-compare, --bench-schema, --overload-smoke, \
                   --fault-plan, or --store)\n";
                2
              end
              else run files json werror arches)
      $ files $ json $ werror $ arch_names $ lint_flag $ bench_schema
      $ overload_smoke $ fault_plan
      $ store_dir $ model_flag $ model_depth $ model_crash $ model_clients
      $ model_segments $ model_seed $ model_broken $ model_coherence $ model_queue
      $ model_replay $ race_flag
      $ bench_compare_flag)

let () = exit (Cmd.eval' cmd)
