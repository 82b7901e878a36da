(* Wire format: buffers, descriptor codec, diff codec, primitive translation. *)

open Iw_wire

let test_buf_reader_roundtrip () =
  let b = Buf.create () in
  Buf.u8 b 0xab;
  Buf.u16 b 0x1234;
  Buf.u32 b 0xdeadbeef;
  Buf.u64 b 0x1122334455667788;
  Buf.f32 b 1.5;
  Buf.f64 b (-2.25);
  Buf.string b "hi";
  Buf.lstring b "longer";
  let r = Reader.of_string (Buf.contents b) in
  Alcotest.(check int) "u8" 0xab (Reader.u8 r);
  Alcotest.(check int) "u16" 0x1234 (Reader.u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Reader.u32 r);
  Alcotest.(check int) "u64" 0x1122334455667788 (Reader.u64 r);
  Alcotest.(check (float 0.)) "f32" 1.5 (Reader.f32 r);
  Alcotest.(check (float 0.)) "f64" (-2.25) (Reader.f64 r);
  Alcotest.(check string) "string" "hi" (Reader.string r);
  Alcotest.(check string) "lstring" "longer" (Reader.lstring r);
  Alcotest.(check bool) "eof" true (Reader.eof r)

let test_buf_growth () =
  let b = Buf.create ~capacity:4 () in
  for i = 0 to 9999 do
    Buf.u32 b i
  done;
  Alcotest.(check int) "length" 40000 (Buf.length b);
  let r = Reader.of_string (Buf.contents b) in
  for i = 0 to 9999 do
    if Reader.u32 r <> i then Alcotest.failf "corrupt at %d" i
  done

let test_reader_truncation () =
  let r = Reader.of_string "ab" in
  (try
     ignore (Reader.u32 r : int);
     Alcotest.fail "expected Malformed"
   with Malformed _ -> ());
  let r2 = Reader.of_string "\x00\x05ab" in
  try
    ignore (Reader.string r2 : string);
    Alcotest.fail "expected Malformed on short string"
  with Malformed _ -> ()

let fig3 : Iw_types.desc =
  Struct
    [|
      { fname = "i0"; ftype = Prim Iw_arch.Int };
      { fname = "d0"; ftype = Prim Iw_arch.Double };
      { fname = "name"; ftype = Prim (Iw_arch.String 32) };
      { fname = "next"; ftype = Ptr "node" };
      { fname = "raw"; ftype = Prim Iw_arch.Pointer };
      { fname = "xs"; ftype = Array (Prim Iw_arch.Short, 5) };
    |]

let test_desc_codec () =
  List.iter
    (fun d ->
      let b = Buf.create () in
      put_desc b d;
      let d' = get_desc (Reader.of_string (Buf.contents b)) in
      if not (Iw_types.equal d d') then
        Alcotest.failf "descriptor roundtrip failed for %a" Iw_types.pp d)
    [
      Iw_types.Prim Iw_arch.Int;
      Prim (Iw_arch.String 256);
      Ptr "node";
      Array (Prim Iw_arch.Double, 42);
      fig3;
      Array (fig3, 3);
    ]

let test_diff_codec () =
  let diff =
    {
      Diff.from_version = 3;
      to_version = 5;
      new_descs = [ (1, Iw_types.Prim Iw_arch.Int); (2, fig3) ];
      changes =
        [
          Diff.Create { serial = 7; name = Some "head"; desc_serial = 2; payload = "abc" };
          Diff.Update
            {
              serial = 3;
              runs =
                [
                  { Diff.start_pu = 0; len_pu = 4; payload = "0123456789abcdef" };
                  { Diff.start_pu = 100; len_pu = 1; payload = "zzzz" };
                ];
            };
          Diff.Free { serial = 9 };
        ];
    }
  in
  let b = Buf.create () in
  Diff.encode b diff;
  let diff' = Diff.decode (Reader.of_string (Buf.contents b)) in
  Alcotest.(check bool) "roundtrip" true (diff = diff');
  Alcotest.(check int) "payload bytes" 23 (Diff.payload_bytes diff);
  Alcotest.(check int) "touched units" 5 (Diff.touched_units diff)

(* Translation: local -> wire -> local across architectures must preserve
   values, with pointers passing through the swizzle callbacks. *)
let test_translate_cross_arch () =
  let src_arch = Iw_arch.x86_32 and dst_arch = Iw_arch.sparc32 in
  let desc = fig3 in
  let src_lay = Iw_types.layout (Iw_types.local src_arch) desc in
  let dst_lay = Iw_types.layout (Iw_types.local dst_arch) desc in
  let src = Bytes.make (Iw_types.size src_lay) '\000' in
  let dst = Bytes.make (Iw_types.size dst_lay) '\000' in
  let off lay i = (Iw_types.locate_prim lay i).Iw_types.l_off in
  Iw_arch.store_uint src_arch src ~off:(off src_lay 0) ~size:4 123456;
  Iw_arch.store_double src_arch src ~off:(off src_lay 1) 3.14159;
  Iw_arch.store_cstring src ~off:(off src_lay 2) ~capacity:32 "wire-format";
  Iw_arch.store_uint src_arch src ~off:(off src_lay 3) ~size:4 0xbeef (* a live pointer *);
  Iw_arch.store_uint src_arch src ~off:(off src_lay 4) ~size:4 0 (* null *);
  List.iteri
    (fun i v -> Iw_arch.store_uint src_arch src ~off:(off src_lay (5 + i)) ~size:2 v)
    [ 1; 2; 3; 4; 5 ];
  let swizzled = ref [] in
  let buf = Buf.create () in
  collect_prims buf src_arch src_lay src ~base:0 ~from:0 ~upto:10 ~swizzle:(fun a ->
      swizzled := a :: !swizzled;
      Printf.sprintf "seg#%d" a);
  Alcotest.(check (list int)) "swizzle called for live pointer only" [ 0xbeef ] !swizzled;
  let unswizzled = ref [] in
  let r = Reader.of_string (Buf.contents buf) in
  apply_prims r dst_arch dst_lay dst ~base:0 ~from:0 ~upto:10 ~unswizzle:(fun mip ->
      unswizzled := mip :: !unswizzled;
      0x1000);
  Alcotest.(check (list string)) "unswizzle got the MIP" [ "seg#48879" ] !unswizzled;
  Alcotest.(check int) "int survives" 123456
    (Iw_arch.load_sint dst_arch dst ~off:(off dst_lay 0) ~size:4);
  Alcotest.(check (float 0.)) "double survives" 3.14159
    (Iw_arch.load_double dst_arch dst ~off:(off dst_lay 1));
  Alcotest.(check string) "string survives" "wire-format"
    (Iw_arch.load_cstring dst ~off:(off dst_lay 2) ~capacity:32);
  Alcotest.(check int) "pointer rewritten" 0x1000
    (Iw_arch.load_uint dst_arch dst ~off:(off dst_lay 3) ~size:4);
  Alcotest.(check int) "null stays null" 0
    (Iw_arch.load_uint dst_arch dst ~off:(off dst_lay 4) ~size:4);
  List.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "short %d" i) v
        (Iw_arch.load_sint dst_arch dst ~off:(off dst_lay (5 + i)) ~size:2))
    [ 1; 2; 3; 4; 5 ]

let test_translate_partial_range () =
  let arch = Iw_arch.x86_32 in
  let lay = Iw_types.layout (Iw_types.local arch) (Array (Prim Iw_arch.Int, 100)) in
  let src = Bytes.make (Iw_types.size lay) '\000' in
  for i = 0 to 99 do
    Iw_arch.store_uint arch src ~off:(i * 4) ~size:4 (i * 11)
  done;
  let buf = Buf.create () in
  collect_prims buf arch lay src ~base:0 ~from:40 ~upto:60 ~swizzle:(fun _ -> assert false);
  Alcotest.(check int) "20 ints = 80 bytes" 80 (Buf.length buf);
  let dst = Bytes.make (Iw_types.size lay) '\000' in
  apply_prims (Reader.of_string (Buf.contents buf)) arch lay dst ~base:0 ~from:40 ~upto:60
    ~unswizzle:(fun _ -> assert false);
  for i = 40 to 59 do
    Alcotest.(check int) (Printf.sprintf "elt %d" i) (i * 11)
      (Iw_arch.load_sint arch dst ~off:(i * 4) ~size:4)
  done;
  Alcotest.(check int) "outside range untouched" 0 (Iw_arch.load_sint arch dst ~off:0 ~size:4)

let test_long_widening () =
  (* 4-byte longs on x86 travel as 8-byte wire longs and land correctly in
     8-byte alpha longs, and vice versa (with truncation). *)
  let desc = Iw_types.Prim Iw_arch.Long in
  let x86_lay = Iw_types.layout (Iw_types.local Iw_arch.x86_32) desc in
  let alpha_lay = Iw_types.layout (Iw_types.local Iw_arch.alpha64) desc in
  let src = Bytes.make 4 '\000' and dst = Bytes.make 8 '\000' in
  Iw_arch.store_uint Iw_arch.x86_32 src ~off:0 ~size:4 (-42);
  let buf = Buf.create () in
  collect_prims buf Iw_arch.x86_32 x86_lay src ~base:0 ~from:0 ~upto:1 ~swizzle:(fun _ ->
      assert false);
  Alcotest.(check int) "wire long is 8 bytes" 8 (Buf.length buf);
  apply_prims (Reader.of_string (Buf.contents buf)) Iw_arch.alpha64 alpha_lay dst ~base:0
    ~from:0 ~upto:1 ~unswizzle:(fun _ -> assert false);
  Alcotest.(check int) "sign-extended on alpha" (-42)
    (Iw_arch.load_sint Iw_arch.alpha64 dst ~off:0 ~size:8)

let test_wire_size_of_prims () =
  let lay = Iw_types.layout Iw_types.wire fig3 in
  (* int 4 + double 8 + string/ptr/ptr as given + 5 shorts *)
  Alcotest.(check int) "all, strings as 4" (4 + 8 + 4 + 4 + 4 + 10)
    (wire_size_of_prims lay ~from:0 ~upto:10 ~strings_as:4);
  Alcotest.(check int) "partial" (8 + 4) (wire_size_of_prims lay ~from:1 ~upto:3 ~strings_as:4)

let prop_value_roundtrip =
  (* Random int arrays survive x86 -> wire -> alpha -> wire -> x86. *)
  QCheck.Test.make ~name:"translation roundtrip across architectures" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 64) int)
    (fun xs ->
      let n = List.length xs in
      let desc = Iw_types.Array (Prim Iw_arch.Long, n) in
      let a1 = Iw_arch.alpha64 and a2 = Iw_arch.sparc32 in
      let l1 = Iw_types.layout (Iw_types.local a1) desc in
      let l2 = Iw_types.layout (Iw_types.local a2) desc in
      let b1 = Bytes.make (Iw_types.size l1) '\000' in
      let b2 = Bytes.make (Iw_types.size l2) '\000' in
      let b3 = Bytes.make (Iw_types.size l1) '\000' in
      List.iteri (fun i v -> Iw_arch.store_uint a1 b1 ~off:(i * 8) ~size:8 v) xs;
      let buf = Buf.create () in
      collect_prims buf a1 l1 b1 ~base:0 ~from:0 ~upto:n ~swizzle:(fun _ -> "");
      apply_prims (Reader.of_string (Buf.contents buf)) a2 l2 b2 ~base:0 ~from:0 ~upto:n
        ~unswizzle:(fun _ -> 0);
      let buf2 = Buf.create () in
      collect_prims buf2 a2 l2 b2 ~base:0 ~from:0 ~upto:n ~swizzle:(fun _ -> "");
      apply_prims (Reader.of_string (Buf.contents buf2)) a1 l1 b3 ~base:0 ~from:0 ~upto:n
        ~unswizzle:(fun _ -> 0);
      (* sparc 32-bit longs truncate; so compare modulo 32-bit wraparound. *)
      List.for_all2
        (fun v i ->
          let got = Iw_arch.load_sint a1 b3 ~off:(i * 8) ~size:8 in
          let truncated =
            let m = v land 0xffffffff in
            if m land 0x80000000 <> 0 then m - (1 lsl 32) else m
          in
          got = truncated)
        xs
        (List.init n Fun.id))

(* Bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320): the reference
   the table-driven [Crc32.update] must agree with. *)
let crc_ref_byte c byte =
  let c = ref (c lxor byte) in
  for _ = 0 to 7 do
    c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
  done;
  !c

let crc_ref s ~off ~len =
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c := crc_ref_byte !c (Char.code s.[i])
  done;
  !c lxor 0xffffffff

let test_crc_known_answer () =
  Alcotest.(check int) "123456789" 0xcbf43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "reference agrees" 0xcbf43926
    (crc_ref "123456789" ~off:0 ~len:9)

let prop_crc_every_split =
  (* Every (off, len) window of a random string, including the unaligned
     heads and tails around the eight-byte main loop, and every two-part
     chaining of the whole string. *)
  QCheck.Test.make ~name:"crc32 matches the bitwise reference on every split" ~count:30
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun s ->
      let n = String.length s in
      let windows_ok = ref true in
      for off = 0 to n do
        let c = ref 0xffffffff in
        for len = 0 to n - off do
          if len > 0 then c := crc_ref_byte !c (Char.code s.[off + len - 1]);
          if Crc32.update 0 s ~off ~len <> !c lxor 0xffffffff then windows_ok := false
        done
      done;
      let whole = Crc32.string s in
      let chained_ok =
        List.for_all
          (fun k -> Crc32.update (Crc32.update 0 s ~off:0 ~len:k) s ~off:k ~len:(n - k) = whole)
          (List.init (n + 1) Fun.id)
      in
      !windows_ok && chained_ok && whole = crc_ref s ~off:0 ~len:n)

let test_crc_bounds () =
  Alcotest.check_raises "window past the end" (Invalid_argument "Iw_wire.Crc32.update")
    (fun () -> ignore (Crc32.update 0 "abc" ~off:2 ~len:2 : int))

let prop_mip_format =
  QCheck.Test.make ~name:"MIP formatting matches Printf and parses back" ~count:500
    QCheck.(
      triple
        (string_gen_of_size Gen.(int_range 0 12) Gen.(oneofl [ 'a'; 'z'; '/'; '0'; '9'; '-' ]))
        (oneof [ int_range 0 20; int_range 0 max_int ])
        (oneof [ int_range 0 20; int_range 0 max_int ]))
    (fun (seg, serial, unit) ->
      let mip = Mip.format seg ~serial ~unit in
      let expect =
        if unit = 0 then Printf.sprintf "%s#%d" seg serial
        else Printf.sprintf "%s#%d#%d" seg serial unit
      in
      mip = expect && Mip.parse mip = Some (seg, Mip.Serial serial, unit))

let test_mip_parse () =
  let show = function
    | None -> "rejected"
    | Some (seg, Mip.Serial n, u) -> Printf.sprintf "%s|serial %d|%d" seg n u
    | Some (seg, Mip.Name b, u) -> Printf.sprintf "%s|name %S|%d" seg b u
  in
  List.iter
    (fun (mip, expect) -> Alcotest.(check string) mip expect (show (Mip.parse mip)))
    [
      ("seg#12", "seg|serial 12|0");
      ("seg#12#7", "seg|serial 12|7");
      ("seg#007#0", "seg|serial 7|0");
      ("seg#head#3", "seg|name \"head\"|3");
      ("seg#", "seg|name \"\"|0");
      (* A block part that is not all digits is a (possibly unknown) name. *)
      ("a#-1#2", "a|name \"-1\"|2");
      ("no-hash", "rejected");
      ("a#1#", "rejected");
      ("a#1#x", "rejected");
      ("a#1#2#3", "rejected");
      ("a#1#-2", "rejected");
      ("a#1#99999999999999999999", "rejected");
      ("a#99999999999999999999", "rejected");
      ("a#99999999999999999999x", "a|name \"99999999999999999999x\"|0");
    ];
  Alcotest.check_raises "negative unit" (Invalid_argument "Iw_wire.Mip.format") (fun () ->
      ignore (Mip.format "s" ~serial:1 ~unit:(-1) : string))

(* Reference: sort with polymorphic compare, then merge overlapping or
   adjacent ranges pairwise. *)
let normalize_ref ranges =
  let rec merge = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 -> merge ((a1, max b1 b2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge (List.sort compare ranges)

let prop_normalize_ranges =
  QCheck.Test.make ~name:"normalize_ranges sorts and merges like the reference" ~count:1000
    QCheck.(
      pair (int_bound 2)
        (list_of_size Gen.(int_range 0 40) (pair (int_bound 100) (int_range 0 30))))
    (fun (order, pairs) ->
      let ranges = List.map (fun (a, l) -> (a, a + l)) pairs in
      let ranges =
        match order with
        | 0 -> ranges
        | 1 -> List.sort compare ranges
        | _ -> List.rev (List.sort compare ranges)
      in
      Diff.normalize_ranges ranges = normalize_ref ranges)

let suite =
  ( "wire",
    [
      Alcotest.test_case "buf/reader roundtrip" `Quick test_buf_reader_roundtrip;
      Alcotest.test_case "buf growth" `Quick test_buf_growth;
      Alcotest.test_case "reader truncation" `Quick test_reader_truncation;
      Alcotest.test_case "descriptor codec" `Quick test_desc_codec;
      Alcotest.test_case "diff codec" `Quick test_diff_codec;
      Alcotest.test_case "cross-arch translation" `Quick test_translate_cross_arch;
      Alcotest.test_case "partial range translation" `Quick test_translate_partial_range;
      Alcotest.test_case "long widening" `Quick test_long_widening;
      Alcotest.test_case "wire_size_of_prims" `Quick test_wire_size_of_prims;
      QCheck_alcotest.to_alcotest prop_value_roundtrip;
      Alcotest.test_case "crc32 known answer" `Quick test_crc_known_answer;
      Alcotest.test_case "crc32 bounds" `Quick test_crc_bounds;
      QCheck_alcotest.to_alcotest prop_crc_every_split;
      QCheck_alcotest.to_alcotest prop_mip_format;
      Alcotest.test_case "MIP parsing" `Quick test_mip_parse;
      QCheck_alcotest.to_alcotest prop_normalize_ranges;
    ] )
