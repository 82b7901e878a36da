(* Emulated memory: allocation, write barrier, twins, word diffing. *)

let int_lay arch n =
  Iw_types.layout (Iw_types.local arch) (Iw_types.Array (Iw_types.Prim Iw_arch.Int, n))

let make_heap ?(arch = Iw_arch.x86_32) () =
  let sp = Iw_mem.create_space arch in
  (sp, Iw_mem.create_heap sp ~seg_id:1)

let test_alloc_basic () =
  let sp, h = make_heap () in
  let b1 = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 10) in
  let b2 = Iw_mem.alloc h ~serial:2 ~desc_serial:1 (int_lay Iw_arch.x86_32 10) in
  Alcotest.(check bool) "distinct addrs" true (b1.Iw_mem.b_addr <> b2.Iw_mem.b_addr);
  Alcotest.(check int) "sizes" 40 b1.Iw_mem.b_size;
  Alcotest.(check int) "aligned" 0 (b1.Iw_mem.b_addr mod 8);
  (match Iw_mem.find_block sp (b1.Iw_mem.b_addr + 12) with
  | Some (b, off) ->
    Alcotest.(check int) "found serial" 1 b.Iw_mem.b_serial;
    Alcotest.(check int) "offset" 12 off
  | None -> Alcotest.fail "block not found");
  Alcotest.(check bool) "unmapped below" true (Iw_mem.find_block sp 0 = None)

let test_alloc_zeroed () =
  let sp, h = make_heap () in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 4) in
  Iw_mem.store_prim sp Iw_arch.Int b.Iw_mem.b_addr 42;
  Iw_mem.free_block b;
  let b2 = Iw_mem.alloc h ~serial:2 ~desc_serial:1 (int_lay Iw_arch.x86_32 4) in
  Alcotest.(check int) "reused memory zeroed" 0 (Iw_mem.load_prim sp Iw_arch.Int b2.Iw_mem.b_addr)

let test_free_and_reuse () =
  let _sp, h = make_heap () in
  let b1 = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 100) in
  let addr1 = b1.Iw_mem.b_addr in
  Iw_mem.free_block b1;
  (try
     Iw_mem.free_block b1;
     Alcotest.fail "double free should raise"
   with Invalid_argument _ -> ());
  let b2 = Iw_mem.alloc h ~serial:2 ~desc_serial:1 (int_lay Iw_arch.x86_32 100) in
  Alcotest.(check int) "space reused" addr1 b2.Iw_mem.b_addr

let test_free_coalescing () =
  let _sp, h = make_heap () in
  let lay = int_lay Iw_arch.x86_32 25 in
  let b1 = Iw_mem.alloc h ~serial:1 ~desc_serial:1 lay in
  let b2 = Iw_mem.alloc h ~serial:2 ~desc_serial:1 lay in
  let b3 = Iw_mem.alloc h ~serial:3 ~desc_serial:1 lay in
  ignore (b3 : Iw_mem.block);
  Iw_mem.free_block b1;
  Iw_mem.free_block b2;
  (* Coalesced b1+b2 (200 bytes) must satisfy a 200-byte request. *)
  let big = Iw_mem.alloc h ~serial:4 ~desc_serial:1 (int_lay Iw_arch.x86_32 50) in
  Alcotest.(check int) "coalesced region reused" b1.Iw_mem.b_addr big.Iw_mem.b_addr

let test_heap_growth () =
  let _sp, h = make_heap () in
  (* Allocate more than one subsegment's worth. *)
  let blocks =
    List.init 20 (fun i ->
        Iw_mem.alloc h ~serial:(i + 1) ~desc_serial:1 (int_lay Iw_arch.x86_32 1024))
  in
  Alcotest.(check int) "all live" 20 (List.length (Iw_mem.heap_blocks h));
  Alcotest.(check bool) "grew" true (Iw_mem.heap_bytes h >= 20 * 4096);
  List.iter Iw_mem.free_block blocks;
  Alcotest.(check int) "all freed" 0 (List.length (Iw_mem.heap_blocks h))

let test_big_block () =
  let sp, h = make_heap () in
  (* A block bigger than the minimum subsegment. *)
  let lay = int_lay Iw_arch.x86_32 (1 lsl 20) in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 lay in
  Alcotest.(check int) "4MB block" (4 lsl 20) b.Iw_mem.b_size;
  Iw_mem.store_prim sp Iw_arch.Int (b.Iw_mem.b_addr + (4 lsl 20) - 4) 7;
  Alcotest.(check int) "end accessible" 7
    (Iw_mem.load_prim sp Iw_arch.Int (b.Iw_mem.b_addr + (4 lsl 20) - 4))

let test_write_barrier_twins () =
  let sp, h = make_heap () in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 4096) in
  Iw_mem.protect h;
  Alcotest.(check int) "no twins yet" 0 (Iw_mem.twinned_pages h);
  Iw_mem.store_prim sp Iw_arch.Int b.Iw_mem.b_addr 1;
  Alcotest.(check int) "one twin after first store" 1 (Iw_mem.twinned_pages h);
  Iw_mem.store_prim sp Iw_arch.Int (b.Iw_mem.b_addr + 8) 2;
  Alcotest.(check int) "same page, still one twin" 1 (Iw_mem.twinned_pages h);
  Iw_mem.store_prim sp Iw_arch.Int (b.Iw_mem.b_addr + 8192) 3;
  Alcotest.(check int) "second page twinned" 2 (Iw_mem.twinned_pages h);
  Iw_mem.unprotect h;
  Alcotest.(check int) "twins dropped" 0 (Iw_mem.twinned_pages h)

let test_modified_runs_simple () =
  let sp, h = make_heap () in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 1024) in
  Iw_mem.protect h;
  Iw_mem.store_prim sp Iw_arch.Int (b.Iw_mem.b_addr + 100) 42;
  (match Iw_mem.modified_runs h with
  | [ (addr, len) ] ->
    Alcotest.(check int) "run addr" (b.Iw_mem.b_addr + 100) addr;
    Alcotest.(check int) "run len" 4 len
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs));
  Iw_mem.unprotect h

let test_modified_runs_splicing () =
  let sp, h = make_heap () in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 1024) in
  let base = b.Iw_mem.b_addr in
  Iw_mem.protect h;
  (* Words 0 and 3 changed; gap of 2 unchanged words is spliced. *)
  Iw_mem.store_prim sp Iw_arch.Int base 1;
  Iw_mem.store_prim sp Iw_arch.Int (base + 12) 1;
  (match Iw_mem.modified_runs h with
  | [ (addr, len) ] ->
    Alcotest.(check int) "spliced start" base addr;
    Alcotest.(check int) "spliced len" 16 len
  | runs -> Alcotest.failf "expected one spliced run, got %d" (List.length runs));
  Iw_mem.unprotect h;
  (* Gap of 3 words is NOT spliced. *)
  Iw_mem.protect h;
  Iw_mem.store_prim sp Iw_arch.Int base 2;
  Iw_mem.store_prim sp Iw_arch.Int (base + 16) 2;
  (match Iw_mem.modified_runs h with
  | [ (a1, l1); (a2, l2) ] ->
    Alcotest.(check int) "run1" base a1;
    Alcotest.(check int) "len1" 4 l1;
    Alcotest.(check int) "run2" (base + 16) a2;
    Alcotest.(check int) "len2" 4 l2
  | runs -> Alcotest.failf "expected two runs, got %d" (List.length runs));
  Iw_mem.unprotect h

let test_splice_gap_configurable () =
  let sp, h = make_heap () in
  Iw_mem.set_splice_gap sp 0;
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 1024) in
  let base = b.Iw_mem.b_addr in
  Iw_mem.protect h;
  Iw_mem.store_prim sp Iw_arch.Int base 1;
  Iw_mem.store_prim sp Iw_arch.Int (base + 8) 1;
  (match Iw_mem.modified_runs h with
  | [ _; _ ] -> ()
  | runs -> Alcotest.failf "splicing disabled: expected 2 runs, got %d" (List.length runs));
  Iw_mem.unprotect h

let test_runs_cross_page_boundary () =
  let sp, h = make_heap () in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 4096) in
  (* Block starts page-aligned because it is the first in a fresh heap. *)
  let base = b.Iw_mem.b_addr in
  Iw_mem.protect h;
  for i = 1020 to 1030 do
    Iw_mem.store_prim sp Iw_arch.Int (base + (i * 4)) i
  done;
  (match Iw_mem.modified_runs h with
  | [ (addr, len) ] ->
    Alcotest.(check int) "crosses page" (base + 4080) addr;
    Alcotest.(check int) "len" 44 len
  | runs -> Alcotest.failf "expected one merged run, got %d" (List.length runs));
  Iw_mem.unprotect h

let test_unprotected_stores_produce_no_runs () =
  let sp, h = make_heap () in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 64) in
  Iw_mem.store_prim sp Iw_arch.Int b.Iw_mem.b_addr 5;
  Alcotest.(check int) "no twins, no runs" 0 (List.length (Iw_mem.modified_runs h))

let test_typed_accessors () =
  let sp, _h = make_heap ~arch:Iw_arch.sparc32 () in
  let h = Iw_mem.create_heap sp ~seg_id:2 in
  let lay =
    Iw_types.layout (Iw_types.local Iw_arch.sparc32)
      (Iw_types.Struct
         [|
           { fname = "c"; ftype = Prim Iw_arch.Char };
           { fname = "s"; ftype = Prim Iw_arch.Short };
           { fname = "d"; ftype = Prim Iw_arch.Double };
           { fname = "str"; ftype = Prim (Iw_arch.String 16) };
         |])
  in
  let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 lay in
  let a = b.Iw_mem.b_addr in
  let off i = (Iw_types.locate_prim lay i).Iw_types.l_off in
  Iw_mem.store_prim sp Iw_arch.Char (a + off 0) (Char.code 'x');
  Iw_mem.store_prim sp Iw_arch.Short (a + off 1) (-7);
  Iw_mem.store_double sp (a + off 2) 2.75;
  Iw_mem.store_string sp ~capacity:16 (a + off 3) "hi there";
  Alcotest.(check int) "char" (Char.code 'x') (Iw_mem.load_prim sp Iw_arch.Char (a + off 0));
  Alcotest.(check int) "short" (-7) (Iw_mem.load_prim sp Iw_arch.Short (a + off 1));
  Alcotest.(check (float 0.)) "double" 2.75 (Iw_mem.load_double sp (a + off 2));
  Alcotest.(check string) "string" "hi there" (Iw_mem.load_string sp ~capacity:16 (a + off 3))

let test_next_block () =
  let sp, h = make_heap () in
  let lay = int_lay Iw_arch.x86_32 16 in
  let b1 = Iw_mem.alloc h ~serial:1 ~desc_serial:1 lay in
  let b2 = Iw_mem.alloc h ~serial:2 ~desc_serial:1 lay in
  Iw_mem.free_block b1;
  (match Iw_mem.next_block sp b1.Iw_mem.b_addr with
  | Some b -> Alcotest.(check int) "skips freed" 2 b.Iw_mem.b_serial
  | None -> Alcotest.fail "expected next block");
  match Iw_mem.next_block sp (b2.Iw_mem.b_addr + b2.Iw_mem.b_size) with
  | None -> ()
  | Some b -> Alcotest.failf "expected no block after the last, got %d" b.Iw_mem.b_serial

let prop_diff_finds_exact_words =
  (* Store into random word offsets; every modified word must be covered by
     some run, and runs must lie within the block. *)
  QCheck.Test.make ~name:"modified_runs covers exactly the stores (mod splicing)"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 1023))
    (fun words ->
      let sp = Iw_mem.create_space Iw_arch.x86_32 in
      let h = Iw_mem.create_heap sp ~seg_id:1 in
      let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 1024) in
      Iw_mem.protect h;
      List.iter (fun w -> Iw_mem.store_prim sp Iw_arch.Int (b.Iw_mem.b_addr + (w * 4)) 0xdead) words
      ;
      let runs = Iw_mem.modified_runs h in
      Iw_mem.unprotect h;
      let covered (a, l) w =
        let wa = b.Iw_mem.b_addr + (w * 4) in
        wa >= a && wa + 4 <= a + l
      in
      List.for_all (fun w -> List.exists (fun r -> covered r w) runs) words
      && List.for_all
           (fun (a, l) -> a >= b.Iw_mem.b_addr && a + l <= b.Iw_mem.b_addr + b.Iw_mem.b_size)
           runs)

(* Reference: a one-word-at-a-time scan with the same splice rule, over a
   subsegment whose twins are all zero. *)
let word_scan_ref ~gap ~base bytes =
  let acc = ref [] in
  for page = 0 to (Bytes.length bytes / Iw_mem.page_size) - 1 do
    let page_off = page * Iw_mem.page_size in
    let run_start = ref (-1) and last_changed = ref (-3) in
    let flush upto =
      if !run_start >= 0 then begin
        let s = base + page_off + (!run_start * 4) and e = base + page_off + (upto * 4) in
        (match !acc with
        | (ps, pl) :: rest when ps + pl >= s -> acc := (ps, max (ps + pl) e - ps) :: rest
        | _ -> acc := (s, e - s) :: !acc);
        run_start := -1
      end
    in
    for w = 0 to (Iw_mem.page_size / 4) - 1 do
      if Bytes.get_int32_ne bytes (page_off + (w * 4)) <> 0l then begin
        if !run_start < 0 then run_start := w
        else if w - !last_changed > gap + 1 then begin
          flush (!last_changed + 1);
          run_start := w
        end;
        last_changed := w
      end
    done;
    flush (!last_changed + 1)
  done;
  List.rev !acc

let prop_diff_matches_word_scan =
  (* Byte stores at random offsets (a zero store changes nothing) leave
     mismatches in either half of an eight-byte pair; the runs must be
     exactly the one-word scan's, splicing included, for every gap. *)
  QCheck.Test.make ~name:"eight-byte diff yields the one-word scan's runs" ~count:300
    QCheck.(
      pair (int_bound 4)
        (list_of_size Gen.(int_range 0 80) (pair (int_bound ((4 * 4096) - 1)) (int_bound 3))))
    (fun (gap, stores) ->
      let sp = Iw_mem.create_space Iw_arch.x86_32 in
      Iw_mem.set_splice_gap sp gap;
      let h = Iw_mem.create_heap sp ~seg_id:1 in
      let b = Iw_mem.alloc h ~serial:1 ~desc_serial:1 (int_lay Iw_arch.x86_32 4096) in
      Iw_mem.protect h;
      List.iter
        (fun (off, v) -> Iw_mem.store_prim sp Iw_arch.Char (b.Iw_mem.b_addr + off) v)
        stores;
      let runs = Iw_mem.modified_runs h in
      Iw_mem.unprotect h;
      Iw_mem.with_raw sp b.Iw_mem.b_addr (fun bytes off ->
          runs = word_scan_ref ~gap ~base:(b.Iw_mem.b_addr - off) bytes))

(* [find_block] and [next_block] against a list of live blocks, after every
   step of random allocs and frees over two heaps whose subsegments
   interleave in one space.  Probes sit on block edges, one past them, in
   freed gaps, below the first subsegment and at random addresses; the
   subsegment extent that bounds [next_block] is read back through
   [with_raw]. *)
let prop_block_lookup_matches_model =
  QCheck.Test.make ~name:"find_block/next_block match a list model" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (triple bool (int_bound 1) (int_range 1 1500)))
        (list_of_size Gen.(int_range 0 20) (int_bound (1 lsl 19))))
    (fun (ops, randoms) ->
      let sp = Iw_mem.create_space Iw_arch.x86_32 in
      let heaps = [| Iw_mem.create_heap sp ~seg_id:1; Iw_mem.create_heap sp ~seg_id:2 |] in
      let live = ref [] and gaps = ref [] and serial = ref 0 in
      let subseg a =
        match Iw_mem.with_raw sp a (fun bytes off -> (off, Bytes.length bytes)) with
        | off, len when off < 0 || off >= len ->
          QCheck.Test.fail_reportf "with_raw %d: offset %d outside its subsegment" a off
        | off, len -> Some (a - off, a - off + len)
        | exception Invalid_argument _ -> None
      in
      let model_find a =
        List.find_map
          (fun (b : Iw_mem.block) ->
            if b.b_addr <= a && a < b.b_addr + b.b_size then Some (b.b_serial, a - b.b_addr)
            else None)
          !live
      in
      let model_next a =
        match subseg a with
        | None -> None
        | Some (_, limit) ->
          List.filter (fun (b : Iw_mem.block) -> a <= b.b_addr && b.b_addr < limit) !live
          |> List.sort (fun (x : Iw_mem.block) y -> compare x.b_addr y.b_addr)
          |> List.map (fun (b : Iw_mem.block) -> b.b_serial)
          |> function [] -> None | s :: _ -> Some s
      in
      let check () =
        List.iter
          (fun (b : Iw_mem.block) ->
            match subseg b.b_addr with
            | Some (_, limit) when b.b_addr + b.b_size <= limit -> ()
            | _ -> QCheck.Test.fail_reportf "block %d spans subsegments" b.b_serial)
          !live;
        let edges =
          List.concat_map
            (fun (b : Iw_mem.block) ->
              [ b.b_addr - 1; b.b_addr; b.b_addr + b.b_size - 1; b.b_addr + b.b_size ])
            !live
        in
        List.iter
          (fun a ->
            let found =
              Option.map
                (fun ((b : Iw_mem.block), off) -> (b.b_serial, off))
                (Iw_mem.find_block sp a)
            and next = Option.map (fun (b : Iw_mem.block) -> b.b_serial) (Iw_mem.next_block sp a) in
            if found <> model_find a then QCheck.Test.fail_reportf "find_block %d" a;
            if next <> model_next a then QCheck.Test.fail_reportf "next_block %d" a)
          ((0 :: (Iw_mem.page_size - 1) :: edges) @ !gaps @ randoms)
      in
      List.iter
        (fun (alloc, h, n) ->
          (match !live with
          | _ :: _ when not alloc ->
            let b = List.nth !live (n mod List.length !live) in
            Iw_mem.free_block b;
            live := List.filter (fun x -> x != b) !live;
            gaps := b.Iw_mem.b_addr :: (b.Iw_mem.b_addr + b.Iw_mem.b_size - 1) :: !gaps
          | _ ->
            incr serial;
            let b =
              Iw_mem.alloc heaps.(h) ~serial:!serial ~desc_serial:1 (int_lay Iw_arch.x86_32 n)
            in
            live := b :: !live);
          check ())
        ops;
      true)

let suite =
  ( "mem",
    [
      Alcotest.test_case "alloc basics" `Quick test_alloc_basic;
      Alcotest.test_case "alloc zeroes" `Quick test_alloc_zeroed;
      Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
      Alcotest.test_case "free coalescing" `Quick test_free_coalescing;
      Alcotest.test_case "heap growth" `Quick test_heap_growth;
      Alcotest.test_case "big block" `Quick test_big_block;
      Alcotest.test_case "write barrier twins" `Quick test_write_barrier_twins;
      Alcotest.test_case "modified runs" `Quick test_modified_runs_simple;
      Alcotest.test_case "run splicing" `Quick test_modified_runs_splicing;
      Alcotest.test_case "splice gap configurable" `Quick test_splice_gap_configurable;
      Alcotest.test_case "runs cross pages" `Quick test_runs_cross_page_boundary;
      Alcotest.test_case "no runs without protect" `Quick test_unprotected_stores_produce_no_runs;
      Alcotest.test_case "typed accessors" `Quick test_typed_accessors;
      Alcotest.test_case "next_block" `Quick test_next_block;
      QCheck_alcotest.to_alcotest prop_diff_finds_exact_words;
      QCheck_alcotest.to_alcotest prop_diff_matches_word_scan;
      QCheck_alcotest.to_alcotest prop_block_lookup_matches_model;
    ] )
