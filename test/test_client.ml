(* Client-library behaviours beyond the core system tests: facade helpers,
   MIP edge cases, statistics, option toggles, and randomized convergence. *)

open Interweave

let fresh () =
  let server = start_server () in
  (server, direct_client server)

let test_desc_builders () =
  let d =
    Desc.structure
      [
        Desc.field "a" Desc.int;
        Desc.field "b" (Desc.array Desc.double 3);
        Desc.field "c" (Desc.ptr "node");
        Desc.field "d" (Desc.string 32);
        Desc.field "e" Desc.opaque_ptr;
        Desc.field "f" Desc.char;
        Desc.field "g" Desc.short;
        Desc.field "h" Desc.long;
        Desc.field "i" Desc.float;
      ]
  in
  Alcotest.(check int) "prim count" 11 (Types.prim_count d);
  Alcotest.(check bool) "valid" true (Types.validate d = Ok ())

let test_offset_paths () =
  let _server, c = fresh () in
  let d =
    Desc.structure
      [
        Desc.field "hdr" Desc.int;
        Desc.field "rows" (Desc.array (Desc.structure [ Desc.field "x" Desc.int; Desc.field "y" Desc.double ]) 10);
      ]
  in
  let off, sub = offset c d [ F "rows"; I 3; F "y" ] in
  (* x86: row = {int(4); double(8, align 4)} = 12 bytes; rows start at 4. *)
  Alcotest.(check int) "offset" (4 + (3 * 12) + 4) off;
  Alcotest.(check bool) "sub-descriptor" true (sub = Desc.double);
  (try
     ignore (offset c d [ F "nope" ]);
     Alcotest.fail "bad field accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (offset c d [ F "rows"; I 10 ]);
     Alcotest.fail "index out of bounds accepted"
   with Invalid_argument _ -> ());
  try
    ignore (offset c d [ I 0 ]);
    Alcotest.fail "index on struct accepted"
  with Invalid_argument _ -> ()

let test_with_lock_helpers () =
  let _server, c = fresh () in
  let h = open_segment c "cl/locks" in
  let a = with_write_lock h (fun () -> malloc h Desc.int) in
  with_write_lock h (fun () -> Client.write_int c a 7);
  Alcotest.(check int) "read under helper" 7 (with_read_lock h (fun () -> Client.read_int c a));
  (* The lock is released even if the body raises. *)
  (try with_write_lock h (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "released after exception" false (Client.locked h)

let test_mip_error_cases () =
  let _server, c = fresh () in
  let h = open_segment c "cl/mips" in
  with_write_lock h (fun () -> ignore (malloc h Desc.int ~name:"x" : addr));
  List.iter
    (fun mip ->
      try
        ignore (mip_to_ptr c mip : addr);
        Alcotest.failf "MIP %S accepted" mip
      with Client.Error _ -> ())
    [
      "no-hash";
      "cl/mips#999";
      "cl/mips#nosuch";
      "cl/mips#x#1#2";
      "ghost/seg#1";
      "cl/mips#x#zz";
      "cl/mips#1#";
      "cl/mips#1#x";
      "cl/mips#1#2#3";
      "cl/mips#-1#2";
      "cl/mips#1#99999999999999999999";
      "cl/mips#99999999999999999999";
    ];
  Alcotest.(check string) "block 1 formats without its zero offset" "cl/mips#1"
    (ptr_to_mip c (mip_to_ptr c "cl/mips#x"));
  (* ptr_to_mip on free space is an error. *)
  try
    ignore (ptr_to_mip c 4 : string);
    Alcotest.fail "unmapped address accepted"
  with Client.Error _ -> ()

let test_segment_name_validation () =
  let _server, c = fresh () in
  (try
     ignore (open_segment c "bad#name" : seg);
     Alcotest.fail "segment name with # accepted"
   with Client.Error _ -> ());
  let h = open_segment c "cl/names" in
  wl_acquire h;
  (try
     ignore (malloc h Desc.int ~name:"has#hash" : addr);
     Alcotest.fail "block name with # accepted"
   with Client.Error _ -> ());
  (try
     ignore (malloc h Desc.int ~name:"123" : addr);
     Alcotest.fail "all-digit block name accepted"
   with Client.Error _ -> ());
  ignore (malloc h Desc.int ~name:"ok" : addr);
  (try
     ignore (malloc h Desc.int ~name:"ok" : addr);
     Alcotest.fail "duplicate block name accepted"
   with Client.Error _ -> ());
  wl_release h

let test_invalid_descriptor_rejected () =
  let _server, c = fresh () in
  let h = open_segment c "cl/baddesc" in
  wl_acquire h;
  (try
     ignore (malloc h (Types.Array (Types.Prim Iw_arch.Int, 0)) : addr);
     Alcotest.fail "zero-length array accepted"
   with Client.Error _ -> ());
  wl_release h

let test_stats_accounting () =
  let server, c1 = fresh () in
  let c2 = direct_client server in
  let h1 = open_segment c1 "cl/stats" in
  with_write_lock h1 (fun () ->
      let a = malloc h1 (Desc.array Desc.int 1000) in
      for i = 0 to 999 do
        Client.write_int c1 (a + (i * 4)) i
      done);
  let s1 = Client.stats c1 in
  Alcotest.(check int) "one diff sent" 1 s1.Client.diffs_sent;
  Alcotest.(check bool) "bytes sent counted" true (s1.Client.bytes_sent >= 4000);
  Alcotest.(check bool) "calls counted" true (s1.Client.calls >= 3);
  let h2 = open_segment ~create:false c2 "cl/stats" in
  with_read_lock h2 (fun () -> ());
  let s2 = Client.stats c2 in
  Alcotest.(check int) "one diff received" 1 s2.Client.diffs_received;
  Alcotest.(check bool) "bytes received counted" true (s2.Client.bytes_received >= 4000);
  Client.reset_stats c2;
  Alcotest.(check int) "reset" 0 (Client.stats c2).Client.bytes_received

let test_twin_pages_counted () =
  let _server, c = fresh () in
  let h = open_segment c "cl/twins" in
  let a = with_write_lock h (fun () -> malloc h (Desc.array Desc.int 4096)) in
  Client.reset_stats c;
  with_write_lock h (fun () ->
      Client.write_int c a 1;
      Client.write_int c (a + 8192) 2);
  Alcotest.(check int) "two pages twinned" 2 (Client.stats c).Client.twin_pages

let test_multiple_segments_one_client () =
  let _server, c = fresh () in
  let segs = List.init 10 (fun i -> open_segment c (Printf.sprintf "cl/multi%d" i)) in
  List.iteri
    (fun i h ->
      with_write_lock h (fun () ->
          let a = malloc h Desc.int ~name:"v" in
          Client.write_int c a i))
    segs;
  List.iteri
    (fun i h ->
      with_read_lock h (fun () ->
          let a = (Option.get (Client.find_named_block h "v")).Mem.b_addr in
          Alcotest.(check int) "per-segment value" i (Client.read_int c a)))
    segs;
  (* Each address maps back to its segment. *)
  List.iteri
    (fun i h ->
      let a = (Option.get (Client.find_named_block h "v")).Mem.b_addr in
      match Client.segment_of_addr c a with
      | Some g ->
        Alcotest.(check string) "segment lookup"
          (Printf.sprintf "cl/multi%d" i) (Client.segment_name g)
      | None -> Alcotest.fail "segment_of_addr failed")
    segs

let test_long_truncation_32bit () =
  (* A 64-bit writer stores a value too wide for a 32-bit reader's long:
     the reader sees the low 32 bits, sign-extended — C semantics. *)
  let server = start_server () in
  let w = direct_client ~arch:Arch.alpha64 server in
  let r = direct_client ~arch:Arch.x86_32 server in
  let hw = open_segment w "cl/long" in
  let a =
    with_write_lock hw (fun () ->
        let a = malloc hw Desc.long ~name:"l" in
        Client.write_long w a 0x1_2345_6789;
        a)
  in
  Alcotest.(check int) "writer keeps 64-bit value" 0x1_2345_6789 (Client.read_long w a);
  let hr = open_segment ~create:false r "cl/long" in
  with_read_lock hr (fun () ->
      let b = (Option.get (Client.find_named_block hr "l")).Mem.b_addr in
      Alcotest.(check int) "reader sees low 32 bits" 0x2345_6789 (Client.read_long r b))

let test_busy_retry_with_loopback () =
  let server = start_server () in
  let c1 = loopback_client server in
  let c2 = loopback_client server in
  let h1 = open_segment c1 "cl/busy" in
  let h2 = open_segment ~create:false c2 "cl/busy" in
  wl_acquire h1;
  let acquired = ref false in
  let t =
    Thread.create
      (fun () ->
        wl_acquire h2;
        acquired := true;
        wl_release h2)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "still waiting" false !acquired;
  wl_release h1;
  Thread.join t;
  Alcotest.(check bool) "acquired after release" true !acquired;
  Client.disconnect c1;
  Client.disconnect c2

let test_forced_no_diff_off () =
  let _server, c = fresh () in
  let h = open_segment c "cl/forced" in
  let a = with_write_lock h (fun () -> malloc h (Desc.array Desc.int 1000)) in
  Client.set_no_diff h false;
  (* Even after many full modifications, forcing diff mode sticks. *)
  for round = 1 to 5 do
    with_write_lock h (fun () ->
        for i = 0 to 999 do
          Client.write_int c (a + (i * 4)) (i + round)
        done)
  done;
  Alcotest.(check bool) "still diffing" false (Client.no_diff_mode h)

let test_free_then_allocate_propagates () =
  let server, c1 = fresh () in
  let c2 = direct_client server in
  let h1 = open_segment c1 "cl/cycle" in
  let a1 = with_write_lock h1 (fun () -> malloc h1 (Desc.array Desc.int 10) ~name:"first") in
  let h2 = open_segment ~create:false c2 "cl/cycle" in
  with_read_lock h2 (fun () -> ());
  (* Free and allocate in a single critical section. *)
  with_write_lock h1 (fun () ->
      free c1 a1;
      let b = malloc h1 (Desc.array Desc.int 10) ~name:"second" in
      Client.write_int c1 b 11);
  with_read_lock h2 (fun () ->
      Alcotest.(check bool) "first gone" true (Client.find_named_block h2 "first" = None);
      let b = Option.get (Client.find_named_block h2 "second") in
      Alcotest.(check int) "second value" 11 (Client.read_int c2 b.Mem.b_addr))

let test_malloc_free_same_cs_invisible () =
  let server, c1 = fresh () in
  let c2 = direct_client server in
  let h1 = open_segment c1 "cl/ephemeral" in
  with_write_lock h1 (fun () ->
      let a = malloc h1 Desc.int ~name:"temp" in
      Client.write_int c1 a 5;
      free c1 a);
  let h2 = open_segment ~create:false c2 "cl/ephemeral" in
  with_read_lock h2 (fun () ->
      Alcotest.(check int) "ephemeral block never transmitted" 0
        (List.length (Client.blocks h2)))

let test_coherence_getter () =
  let _server, c = fresh () in
  let h = open_segment c "cl/coherence" in
  Alcotest.(check bool) "default full" true (Client.coherence h = Proto.Full);
  set_coherence h (Proto.Delta 7);
  Alcotest.(check bool) "updated" true (Client.coherence h = Proto.Delta 7)

(* A block created and freed between a reader's [open_segment] and its first
   read lock appears in neither a Create nor a Free of the reader's update
   from version 0, so the space reserved for it from segment metadata must be
   released once the reader catches up to the metadata's version. *)
let test_placeholder_released () =
  let server = start_server () in
  let a = direct_client server and b = direct_client server in
  let ha = open_segment a "cl/placeholder" in
  let keep, x = with_write_lock ha (fun () -> (malloc ha Desc.int, malloc ha Desc.int)) in
  let serial_of p = (fst (Option.get (Client.block_of_addr a p))).Mem.b_serial in
  let serial = serial_of x in
  let hb = open_segment ~create:false b "cl/placeholder" in
  let placeholder =
    match Client.find_block hb ~serial with
    | Some blk -> blk
    | None -> Alcotest.fail "open_segment reserved no space for the block"
  in
  with_write_lock ha (fun () -> free a x);
  with_read_lock hb (fun () -> ());
  Alcotest.(check bool) "freed block forgotten" true (Client.find_block hb ~serial = None);
  Alcotest.(check bool) "freed block unmapped" true
    (Client.block_of_addr b placeholder.Mem.b_addr = None);
  Alcotest.(check (list int)) "live block kept" [ serial_of keep ]
    (List.map (fun blk -> blk.Mem.b_serial) (Client.blocks hb))

(* Randomized convergence: a writer performs random typed writes; after each
   critical section a reader must see an identical byte-for-byte view
   (modulo architecture layout) of every primitive. *)
let prop_random_convergence =
  QCheck.Test.make ~name:"random writes converge across architectures" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 99) small_int))
    (fun writes ->
      let server = start_server () in
      let w = direct_client ~arch:Arch.x86_32 server in
      let r = direct_client ~arch:Arch.mips32 server in
      let elem =
        Desc.structure
          [
            Desc.field "i" Desc.int;
            Desc.field "d" Desc.double;
            Desc.field "s" (Desc.string 8);
          ]
      in
      let hw = open_segment w "cl/converge" in
      let aw = with_write_lock hw (fun () -> malloc hw (Desc.array elem 100) ~name:"xs") in
      let hr = open_segment ~create:false r "cl/converge" in
      with_read_lock hr (fun () -> ());
      (* Apply the writes a few per critical section. *)
      let rec chunks = function
        | [] -> []
        | l ->
          let n = min 7 (List.length l) in
          let rec split i acc = function
            | x :: rest when i < n -> split (i + 1) (x :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let c, rest = split 0 [] l in
          c :: chunks rest
      in
      (* Strides and field offsets differ per architecture. *)
      let field c name = fst (offset c elem [ F name ]) in
      let stride c = Types.size (Types.layout (Types.local (Client.arch c)) elem) in
      let sw = stride w and sr = stride r in
      List.iter
        (fun chunk ->
          with_write_lock hw (fun () ->
              List.iter
                (fun (idx, v) ->
                  let base = aw + (idx * sw) in
                  Client.write_int w (base + field w "i") v;
                  Client.write_double w (base + field w "d") (float_of_int v /. 3.);
                  Client.write_string w ~capacity:8 (base + field w "s")
                    (string_of_int (v mod 1000)))
                chunk))
        (chunks writes);
      (* Compare every element. *)
      let ar = (Option.get (Client.find_named_block hr "xs")).Mem.b_addr in
      rl_acquire hr;
      let ok = ref true in
      for idx = 0 to 99 do
        let bw = aw + (idx * sw) and br = ar + (idx * sr) in
        if
          Client.read_int w (bw + field w "i") <> Client.read_int r (br + field r "i")
          || Client.read_double w (bw + field w "d") <> Client.read_double r (br + field r "d")
          || Client.read_string w ~capacity:8 (bw + field w "s")
             <> Client.read_string r ~capacity:8 (br + field r "s")
        then ok := false
      done;
      rl_release hr;
      !ok)

let suite =
  ( "client",
    [
      Alcotest.test_case "desc builders" `Quick test_desc_builders;
      Alcotest.test_case "offset paths" `Quick test_offset_paths;
      Alcotest.test_case "lock helpers" `Quick test_with_lock_helpers;
      Alcotest.test_case "MIP errors" `Quick test_mip_error_cases;
      Alcotest.test_case "name validation" `Quick test_segment_name_validation;
      Alcotest.test_case "invalid descriptor" `Quick test_invalid_descriptor_rejected;
      Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
      Alcotest.test_case "twin pages counted" `Quick test_twin_pages_counted;
      Alcotest.test_case "multiple segments" `Quick test_multiple_segments_one_client;
      Alcotest.test_case "long truncation" `Quick test_long_truncation_32bit;
      Alcotest.test_case "busy retry loopback" `Quick test_busy_retry_with_loopback;
      Alcotest.test_case "forced diff mode" `Quick test_forced_no_diff_off;
      Alcotest.test_case "free then allocate" `Quick test_free_then_allocate_propagates;
      Alcotest.test_case "ephemeral block" `Quick test_malloc_free_same_cs_invisible;
      Alcotest.test_case "coherence getter" `Quick test_coherence_getter;
      Alcotest.test_case "placeholder released" `Quick test_placeholder_released;
      QCheck_alcotest.to_alcotest prop_random_convergence;
    ] )
