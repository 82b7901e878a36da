(* Well-formedness checks on decoded wire diffs.  The payload walk drives
   the same packed-layout span iteration that [Iw_wire.collect_prims] uses
   to produce payloads, so the two cannot drift apart. *)

type issue = {
  i_code : string;
  i_serial : int option;
  i_message : string;
}

type ctx = {
  cx_desc : int -> Iw_types.desc option;
  cx_block : int -> (int * int) option;
}

let empty_ctx = { cx_desc = (fun _ -> None); cx_block = (fun _ -> None) }

let valid_mip s =
  s = ""
  ||
  match Iw_wire.Mip.parse s with
  | Some (seg, blk, _) -> seg <> "" && blk <> Iw_wire.Mip.Name ""
  | None -> false

let wire_fixed_size = function
  | Iw_arch.Char -> 1
  | Iw_arch.Short -> 2
  | Iw_arch.Int | Iw_arch.Float -> 4
  | Iw_arch.Long | Iw_arch.Double -> 8
  | Iw_arch.Pointer | Iw_arch.String _ -> assert false

(* Walk the payload claimed to cover primitive units [from, upto) of a value
   of the given descriptor, in wire layout.  Returns issues (without serial
   attached; the caller adds it). *)
let walk_payload desc ~from ~upto payload =
  let lay = Iw_types.layout Iw_types.wire desc in
  let r = Iw_wire.Reader.of_string payload in
  let issues = ref [] in
  let add code msg = issues := { i_code = code; i_serial = None; i_message = msg } :: !issues in
  (try
     Iw_types.fold_spans lay ~from ~upto ~init:() ~f:(fun () sp ->
         match sp.Iw_types.s_prim with
         | Iw_arch.Pointer ->
             for _ = 1 to sp.Iw_types.s_count do
               let m = Iw_wire.Reader.string r in
               if not (valid_mip m) then
                 add "WIRE05" (Printf.sprintf "pointer payload %S is not a valid MIP" m)
             done
         | Iw_arch.String cap ->
             for _ = 1 to sp.Iw_types.s_count do
               let s = Iw_wire.Reader.string r in
               if String.length s > cap - 1 then
                 add "WIRE06"
                   (Printf.sprintf
                      "inline string of %d bytes exceeds char[%d] capacity (%d usable)"
                      (String.length s) cap (cap - 1))
             done
         | p -> Iw_wire.Reader.skip r (sp.Iw_types.s_count * wire_fixed_size p));
     if Iw_wire.Reader.remaining r > 0 then
       add "WIRE06"
         (Printf.sprintf "%d trailing payload byte(s) after the covered units"
            (Iw_wire.Reader.remaining r))
   with Iw_wire.Malformed m -> add "WIRE06" (Printf.sprintf "payload truncated: %s" m));
  List.rev !issues

let check ctx (d : Iw_wire.Diff.t) =
  let issues = ref [] in
  let add ?serial code msg =
    issues := { i_code = code; i_serial = serial; i_message = msg } :: !issues
  in
  let add_all serial sub =
    List.iter (fun i -> issues := { i with i_serial = Some serial } :: !issues) sub
  in
  if
    d.Iw_wire.Diff.to_version < d.Iw_wire.Diff.from_version
    || (d.Iw_wire.Diff.to_version = d.Iw_wire.Diff.from_version
       && (d.Iw_wire.Diff.changes <> [] || d.Iw_wire.Diff.new_descs <> []))
  then
    add "WIRE07"
      (Printf.sprintf "version regression: non-empty diff goes from %d to %d"
         d.Iw_wire.Diff.from_version d.Iw_wire.Diff.to_version);
  (* new descriptors: serial conflicts and validity *)
  let seen_desc = Hashtbl.create 8 in
  List.iter
    (fun (serial, desc) ->
      if Hashtbl.mem seen_desc serial then
        add "WIRE10" (Printf.sprintf "descriptor serial %d appears twice in the diff" serial)
      else Hashtbl.replace seen_desc serial desc;
      (match ctx.cx_desc serial with
      | Some existing when not (Iw_types.equal existing desc) ->
          add "WIRE10"
            (Printf.sprintf "descriptor serial %d conflicts with an existing binding" serial)
      | _ -> ());
      match Iw_types.validate desc with
      | Ok () -> ()
      | Error e -> add "WIRE10" (Printf.sprintf "descriptor serial %d is invalid: %s" serial e))
    d.Iw_wire.Diff.new_descs;
  let find_desc serial =
    match Hashtbl.find_opt seen_desc serial with
    | Some _ as r -> r
    | None -> ctx.cx_desc serial
  in
  (* block changes *)
  let created = Hashtbl.create 8 and freed = Hashtbl.create 8 in
  List.iter
    (fun change ->
      match change with
      | Iw_wire.Diff.Free { serial } ->
          if
            Hashtbl.mem freed serial
            || ((not (Hashtbl.mem created serial)) && ctx.cx_block serial = None)
          then
            add ~serial "WIRE03"
              (Printf.sprintf "free of unknown or already-freed block serial %d" serial)
          else Hashtbl.replace freed serial ()
      | Iw_wire.Diff.Create { serial; desc_serial; payload; name = _ } ->
          if Hashtbl.mem created serial || (ctx.cx_block serial <> None && not (Hashtbl.mem freed serial))
          then
            add ~serial "WIRE08"
              (Printf.sprintf "create of block serial %d which already exists" serial)
          else Hashtbl.replace created serial ();
          (match find_desc desc_serial with
          | None ->
              add ~serial "WIRE04"
                (Printf.sprintf "create references unknown descriptor serial %d" desc_serial)
          | Some desc ->
              add_all serial (walk_payload desc ~from:0 ~upto:(Iw_types.prim_count desc) payload))
      | Iw_wire.Diff.Update { serial; runs } -> (
          if Hashtbl.mem freed serial then
            add ~serial "WIRE03" (Printf.sprintf "update of block serial %d freed by this diff" serial);
          match ctx.cx_block serial with
          | None ->
              if not (Hashtbl.mem freed serial) then
                add ~serial "WIRE03" (Printf.sprintf "update of unknown block serial %d" serial)
          | Some (desc_serial, pcount) ->
              let desc = find_desc desc_serial in
              if desc = None then
                add ~serial "WIRE04"
                  (Printf.sprintf "block %d has unknown descriptor serial %d" serial desc_serial);
              let prev_end = ref (-1) in
              List.iter
                (fun (run : Iw_wire.Diff.run) ->
                  let { Iw_wire.Diff.start_pu; len_pu; payload } = run in
                  if len_pu <= 0 || start_pu < 0 then
                    add ~serial "WIRE09"
                      (Printf.sprintf "run [%d, %d) has non-positive extent" start_pu
                         (start_pu + len_pu))
                  else begin
                    if start_pu + len_pu > pcount then
                      add ~serial "WIRE01"
                        (Printf.sprintf "run [%d, %d) exceeds the block's %d primitive units"
                           start_pu (start_pu + len_pu) pcount)
                    else begin
                      if start_pu < !prev_end then
                        add ~serial "WIRE02"
                          (Printf.sprintf
                             "run starting at unit %d overlaps or precedes the previous run \
                              ending at %d"
                             start_pu !prev_end);
                      match desc with
                      | None -> ()
                      | Some desc ->
                          add_all serial
                            (walk_payload desc ~from:start_pu ~upto:(start_pu + len_pu) payload)
                    end;
                    prev_end := max !prev_end (start_pu + len_pu)
                  end)
                runs))
    d.Iw_wire.Diff.changes;
  List.rev !issues

let pp_issue ppf i =
  match i.i_serial with
  | None -> Format.fprintf ppf "%s: %s" i.i_code i.i_message
  | Some s -> Format.fprintf ppf "%s: block %d: %s" i.i_code s i.i_message
