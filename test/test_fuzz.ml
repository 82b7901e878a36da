(* Randomized end-to-end properties over the full stack: random descriptors
   and random update schedules must produce identical views on every
   architecture, and survive server checkpoint/restart. *)

open Interweave

(* Every diff crossing a link — client releases checked against the server's
   pre-application state, server updates checked against the receiving
   client's pre-application state — must satisfy Iw_wire_check.  The server
   additionally re-validates incoming diffs itself (set_validate_diffs). *)
let checked_client ?arch server =
  Server.set_validate_diffs server true;
  let base = Server.direct_link server in
  let cref = ref None in
  let fail dir name issues =
    Alcotest.failf "%s diff for %s: %s" dir name
      (String.concat "; "
         (List.map (fun i -> Format.asprintf "%a" Iw_wire_check.pp_issue i) issues))
  in
  (* The receiving client's knowledge of a segment, reconstructed from its
     cached blocks (their layouts recover the descriptors). *)
  let client_ctx name =
    match !cref with
    | None -> Iw_wire_check.empty_ctx
    | Some c -> (
      match Client.find_segment c name with
      | None -> Iw_wire_check.empty_ctx
      | Some g ->
        let blocks = Client.blocks g in
        {
          Iw_wire_check.cx_desc =
            (fun serial ->
              List.find_map
                (fun b ->
                  if b.Mem.b_desc_serial = serial then Some (Types.descriptor b.Mem.b_layout)
                  else None)
                blocks);
          cx_block =
            (fun serial ->
              List.find_map
                (fun b ->
                  if b.Mem.b_serial = serial then
                    Some (b.Mem.b_desc_serial, Types.layout_prim_count b.Mem.b_layout)
                  else None)
                blocks);
        })
  in
  let checked_call ?ctx req =
    (match req with
    | Proto.Write_release { name; diff; _ } -> begin
      match Iw_wire_check.check (Server.diff_ctx server name) diff with
      | [] -> ()
      | issues -> fail "outgoing" name issues
    end
    | _ -> ());
    let resp = base.Proto.call ?ctx req in
    (match (req, resp) with
    | Proto.Read_lock { name; _ }, Proto.R_update d
    | Proto.Write_lock { name; _ }, Proto.R_granted (Some d) ->
      (* A full sync (from version 0) recreates every block; the client may
         already hold placeholder metadata for them (open_segment reserves
         addresses for swizzling), so only descriptor knowledge carries
         over. *)
      let ctx = client_ctx name in
      let ctx =
        if d.Wire.Diff.from_version = 0 then
          { ctx with Iw_wire_check.cx_block = (fun _ -> None) }
        else ctx
      in
      begin
        match Iw_wire_check.check ctx d with
        | [] -> ()
        | issues -> fail "incoming" name issues
      end
    | _ -> ());
    resp
  in
  let c = Client.connect ?arch { base with Proto.call = checked_call } in
  cref := Some c;
  Server.register_notifier server ~session:(Client.session c)
    ~push:(Client.handle_notification c);
  Client.enable_notifications c;
  c

(* Random block descriptors: modest sizes, no pointers (pointer correctness
   has dedicated tests; here the target is layout/translation coverage). *)
let desc_gen =
  let open QCheck.Gen in
  let prim =
    oneofl
      [
        Types.Prim Iw_arch.Char;
        Types.Prim Iw_arch.Short;
        Types.Prim Iw_arch.Int;
        Types.Prim Iw_arch.Long;
        Types.Prim Iw_arch.Float;
        Types.Prim Iw_arch.Double;
        Types.Prim (Iw_arch.String 8);
      ]
  in
  let rec d n =
    if n = 0 then prim
    else
      frequency
        [
          (4, prim);
          (2, map2 (fun t k -> Types.Array (t, 1 + k)) (d (n - 1)) (int_bound 6));
          ( 2,
            map
              (fun ts ->
                Types.Struct
                  (Array.of_list (List.mapi (fun i t -> { Types.fname = Printf.sprintf "f%d" i; ftype = t }) ts)))
              (list_size (int_range 1 5) (d (n - 1))) );
        ]
  in
  d 3

(* Deterministic per-index values of each primitive type. *)
let write_prim c lay base i seed =
  let loc = Types.locate_prim lay i in
  let a = base + loc.Types.l_off in
  let v = (i * 37) + seed in
  match loc.Types.l_prim with
  | Iw_arch.Char -> Client.write_char c a (Char.chr (v land 0x7f))
  | Short -> Client.write_short c a ((v land 0x7fff) - 0x4000)
  | Int -> Client.write_int c a (v * 1001)
  | Long -> Client.write_long c a (v * 100003)
  | Float -> Client.write_float c a (float_of_int v)
  | Double -> Client.write_double c a (float_of_int v /. 7.)
  | Pointer -> ()
  | String cap -> Client.write_string c ~capacity:cap a (string_of_int (v mod 10000))

let read_prim c lay base i =
  let loc = Types.locate_prim lay i in
  let a = base + loc.Types.l_off in
  match loc.Types.l_prim with
  | Iw_arch.Char -> `C (Client.read_char c a)
  | Short -> `I (Client.read_short c a)
  | Int -> `I (Client.read_int c a)
  | Long -> `I (Client.read_long c a)
  | Float -> `F (Client.read_float c a)
  | Double -> `F (Client.read_double c a)
  | Pointer -> `I (Client.read_ptr c a)
  | String cap -> `S (Client.read_string c ~capacity:cap a)

let views_equal cw lw aw cr lr ar n =
  let rec go i =
    i >= n
    ||
    (read_prim cw lw aw i = read_prim cr lr ar i && go (i + 1))
  in
  go 0

let prop_random_desc_cross_arch =
  QCheck.Test.make ~name:"random descriptors translate across all architectures" ~count:60
    (QCheck.make desc_gen) (fun desc ->
      QCheck.assume (Types.validate desc = Ok ());
      let server = start_server () in
      let w = checked_client ~arch:Arch.x86_32 server in
      let hw = open_segment w "fuzz/seg" in
      let lw = Types.layout (Types.local (Client.arch w)) desc in
      let n = Types.prim_count desc in
      let aw =
        with_write_lock hw (fun () ->
            let a = malloc hw desc ~name:"b" in
            for i = 0 to n - 1 do
              write_prim w lw a i 1
            done;
            a)
      in
      List.for_all
        (fun arch ->
          let r = checked_client ~arch server in
          let hr = open_segment ~create:false r "fuzz/seg" in
          with_read_lock hr (fun () ->
              let br = Option.get (Client.find_named_block hr "b") in
              let lr = br.Mem.b_layout in
              (* The writer's longs are 32-bit (x86_32), so no reader can
                 truncate them and plain equality is exact. *)
              Types.layout_prim_count lr = n
              && views_equal w lw aw r lr br.Mem.b_addr n))
        [ Arch.x86_32; Arch.sparc32; Arch.mips32 ])

let prop_random_updates_converge_and_survive_checkpoint =
  QCheck.Test.make ~name:"random update schedule converges and survives restart" ~count:15
    QCheck.(list_of_size Gen.(int_range 1 25) (pair (int_bound 199) (int_bound 3)))
    (fun ops ->
      let dir = Filename.temp_file "iwfuzz" "" in
      Sys.remove dir;
      let server = Server.create ~checkpoint_dir:dir () in
      let w = checked_client ~arch:Arch.x86_32 server in
      let r = checked_client ~arch:Arch.sparc32 server in
      let desc = Desc.array Desc.int 200 in
      let hw = open_segment w "fuzz/ckpt" in
      let aw = with_write_lock hw (fun () -> malloc hw desc ~name:"xs") in
      let hr = open_segment ~create:false r "fuzz/ckpt" in
      with_read_lock hr (fun () -> ());
      (* Random single-word writes, a few per critical section. *)
      List.iteri
        (fun round (idx, _) ->
          with_write_lock hw (fun () ->
              Client.write_int w (aw + (idx * 4)) (round + 1)))
        ops;
      with_read_lock hr (fun () -> ());
      let ar = (Option.get (Client.find_named_block hr "xs")).Mem.b_addr in
      let same_view () =
        let rec go i =
          i >= 200
          || (Client.read_int w (aw + (i * 4)) = Client.read_int r (ar + (i * 4)) && go (i + 1))
        in
        go 0
      in
      let converged = same_view () in
      (* Restart the server from its checkpoint; a fresh client must see the
         same contents. *)
      Server.checkpoint server;
      let server2 = Server.create ~checkpoint_dir:dir () in
      let f = checked_client server2 in
      let hf = open_segment ~create:false f "fuzz/ckpt" in
      with_read_lock hf (fun () -> ());
      let af = (Option.get (Client.find_named_block hf "xs")).Mem.b_addr in
      let survived =
        let rec go i =
          i >= 200
          || (Client.read_int w (aw + (i * 4)) = Client.read_int f (af + (i * 4)) && go (i + 1))
        in
        go 0
      in
      converged && survived)

(* One pass under a seeded fault plan: drops, delays, garbled frames, and
   one forced mid-run close must neither hang a client nor silently diverge
   server state.  Garbling is fair game now that every frame carries a
   negotiated CRC32: a flipped byte surfaces as a typed [Transport.Corrupt]
   and the client re-dials, instead of decoding into a different-but-valid
   request. *)
let test_seeded_fault_convergence () =
  let plan = Fault.parse_exn "seed:9,drop:0.03,delay:200us,garble:0.02,close@req=25" in
  let server = start_server ~lease_secs:2.0 () in
  let w = loopback_client ~fault:plan ~call_timeout:0.5 server in
  let h = open_segment w "fuzz/fault" in
  let n = 50 in
  let a = with_write_lock h (fun () -> malloc h (Desc.array Desc.int n) ~name:"xs") in
  let expected = Array.make n 0 in
  for round = 1 to 60 do
    let idx = round * 17 mod n in
    with_write_lock h (fun () -> Client.write_int w (a + (idx * 4)) round);
    expected.(idx) <- round
  done;
  (* Verify through a clean, fault-free channel. *)
  let r = direct_client server in
  let hr = open_segment ~create:false r "fuzz/fault" in
  with_read_lock hr (fun () ->
      let ar = (Option.get (Client.find_named_block hr "xs")).Mem.b_addr in
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "cell %d" i)
          expected.(i)
          (Client.read_int r (ar + (i * 4)))
      done)

(* A modified byte run may cross from a block into a neighbour that was
   freed, created, or created and freed again in the same critical section.
   The collector must cut the run at each block boundary, send the
   neighbour only as its Free or Create (or not at all), and still produce
   a diff that checks clean in both directions. *)
let test_run_spans_created_and_freed_neighbours () =
  let server = start_server () in
  let w = checked_client ~arch:Arch.sparc32 server in
  let r = checked_client ~arch:Arch.alpha64 server in
  let h = open_segment w "fuzz/adjacent" in
  let desc = Desc.array Desc.int 4 in
  let a, x, y =
    with_write_lock h (fun () ->
        let a = malloc h desc ~name:"a" in
        let x = malloc h desc in
        let y = malloc h desc ~name:"y" in
        (a, x, y))
  in
  Alcotest.(check (list int)) "blocks are adjacent" [ a + 16; x + 16 ] [ x; y ];
  let hr = open_segment ~create:false r "fuzz/adjacent" in
  with_read_lock hr ignore;
  let expect label cells =
    with_read_lock hr (fun () ->
        let base name = (Option.get (Client.find_named_block hr name)).Mem.b_addr in
        List.iter
          (fun (name, i, v) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: %s[%d]" label name i)
              v
              (Client.read_int r (base name + (i * 4))))
          cells)
  in
  (* a's last word and x's first word change, then x is freed. *)
  with_write_lock h (fun () ->
      Client.write_int w (a + 12) 1;
      Client.write_int w x 2;
      free w x);
  expect "freed neighbour" [ ("a", 3, 1); ("y", 0, 0) ];
  (* A block created in x's old place, written end to end, between writes
     to a's last word and y's first. *)
  with_write_lock h (fun () ->
      Client.write_int w (a + 12) 3;
      let c = malloc h desc ~name:"c" in
      Alcotest.(check int) "new block reuses the freed space" x c;
      for i = 0 to 3 do
        Client.write_int w (c + (i * 4)) (10 + i)
      done;
      Client.write_int w y 4);
  expect "created neighbour" [ ("a", 3, 3); ("c", 0, 10); ("c", 3, 13); ("y", 0, 4) ];
  (* c is freed; a block created and freed again in one critical section
     leaves changed free space in the middle of the run. *)
  with_write_lock h (fun () -> free w x);
  with_write_lock h (fun () ->
      Client.write_int w (a + 12) 5;
      let d = malloc h desc in
      Alcotest.(check int) "ephemeral block reuses the freed space" x d;
      for i = 0 to 3 do
        Client.write_int w (d + (i * 4)) (20 + i)
      done;
      free w d;
      Client.write_int w y 6);
  expect "ephemeral neighbour" [ ("a", 3, 5); ("y", 0, 6) ];
  with_read_lock hr (fun () ->
      Alcotest.(check (list (option string)))
        "reader holds exactly a and y"
        [ Some "a"; Some "y" ]
        (List.map (fun b -> b.Mem.b_name) (Client.blocks hr)))

let suite =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest prop_random_desc_cross_arch;
      QCheck_alcotest.to_alcotest prop_random_updates_converge_and_survive_checkpoint;
      Alcotest.test_case "seeded fault plan converges" `Quick test_seeded_fault_convergence;
      Alcotest.test_case "runs spanning created and freed neighbours" `Quick
        test_run_spans_created_and_freed_neighbours;
    ] )
