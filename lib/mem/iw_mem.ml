type addr = int

let page_size = 4096

module Addr_tree = Map.Make (Int)

type space = {
  sp_arch : Iw_arch.t;
  mutable sp_subsegs : subsegment Addr_tree.t;
  mutable sp_next_base : addr;
  mutable sp_splice_gap : int;  (* words; 0 disables run splicing *)
  (* Observation hook for dynamic checkers (the lockset sanitizer): fired on
     every typed access before the address is resolved, so the observer sees
     accesses to freed or unmapped addresses too.  None costs one branch. *)
  mutable sp_on_access : (store:bool -> addr -> len:int -> unit) option;
}

and subsegment = {
  ss_base : addr;
  ss_bytes : Bytes.t;
  ss_npages : int;
  ss_heap : heap;
  ss_twins : Bytes.t option array;  (* pagemap: twin per page *)
  ss_protected : bool array;
  mutable ss_blocks : block Addr_tree.t;  (* blk_addr_tree *)
}

and heap = {
  h_space : space;
  h_seg : int;
  mutable h_subsegs : subsegment list;  (* allocation order *)
  mutable h_free : (addr * int) list;  (* sorted by addr; ranges never span subsegments *)
}

and block = {
  b_serial : int;
  b_name : string option;
  b_addr : addr;
  b_size : int;
  b_layout : Iw_types.layout;
  b_desc_serial : int;
  b_heap : heap;
  mutable b_freed : bool;
}

let create_space arch =
  {
    sp_arch = arch;
    sp_subsegs = Addr_tree.empty;
    sp_next_base = page_size;
    sp_splice_gap = 2;
    sp_on_access = None;
  }

let set_access_hook sp hook = sp.sp_on_access <- hook

let observe sp ~store a len =
  match sp.sp_on_access with None -> () | Some f -> f ~store a ~len

let set_splice_gap sp words =
  if words < 0 then invalid_arg "Iw_mem.set_splice_gap";
  sp.sp_splice_gap <- words

let splice_gap sp = sp.sp_splice_gap

let arch sp = sp.sp_arch

let create_heap sp ~seg_id =
  { h_space = sp; h_seg = seg_id; h_subsegs = []; h_free = [] }

let heap_space h = h.h_space

let heap_seg_id h = h.h_seg

let heap_bytes h =
  List.fold_left (fun acc ss -> acc + Bytes.length ss.ss_bytes) 0 h.h_subsegs

let heap_blocks h =
  let blocks =
    List.concat_map
      (fun ss -> List.map snd (Addr_tree.bindings ss.ss_blocks))
      h.h_subsegs
  in
  List.sort (fun a b -> compare a.b_addr b.b_addr) blocks

(* Allocation granularity: large enough for any primitive's alignment. *)
let block_align = 8

let min_subseg_pages = 4

let grow_heap h size =
  let sp = h.h_space in
  let npages = max min_subseg_pages ((size + page_size - 1) / page_size) in
  let ss =
    {
      ss_base = sp.sp_next_base;
      ss_bytes = Bytes.make (npages * page_size) '\000';
      ss_npages = npages;
      ss_heap = h;
      ss_twins = Array.make npages None;
      ss_protected = Array.make npages false;
      ss_blocks = Addr_tree.empty;
    }
  in
  sp.sp_next_base <- sp.sp_next_base + (npages * page_size);
  sp.sp_subsegs <- Addr_tree.add ss.ss_base ss sp.sp_subsegs;
  h.h_subsegs <- h.h_subsegs @ [ ss ];
  h.h_free <- h.h_free @ [ (ss.ss_base, npages * page_size) ];
  ss

let subseg_of_addr sp a =
  match Addr_tree.find_last_opt (fun k -> k <= a) sp.sp_subsegs with
  | Some (_, ss) when a < ss.ss_base + Bytes.length ss.ss_bytes -> Some ss
  | Some _ | None -> None

let subseg_exn sp a =
  match subseg_of_addr sp a with
  | Some ss -> ss
  | None -> invalid_arg (Printf.sprintf "Iw_mem: address %d is not mapped" a)

(* Carve [size] bytes out of the free list, first fit.  Returns an
   8-byte-aligned address whose whole extent lies in one subsegment. *)
let take_free h size =
  let rec go acc = function
    | [] -> None
    | ((start, len) as range) :: rest ->
      let a = (start + block_align - 1) / block_align * block_align in
      let waste = a - start in
      if len - waste >= size then begin
        let before = if waste > 0 then [ (start, waste) ] else [] in
        let after_start = a + size in
        let after_len = start + len - after_start in
        let after = if after_len > 0 then [ (after_start, after_len) ] else [] in
        h.h_free <- List.rev_append acc (before @ after @ rest);
        Some a
      end
      else go (range :: acc) rest
  in
  go [] h.h_free

let alloc h ~serial ?name ~desc_serial layout =
  let size = max block_align (Iw_types.size layout) in
  let a =
    match take_free h size with
    | Some a -> a
    | None ->
      let _ss = grow_heap h size in
      begin
        match take_free h size with
        | Some a -> a
        | None -> assert false (* the fresh subsegment fits [size] by construction *)
      end
  in
  let ss = subseg_exn h.h_space a in
  Bytes.fill ss.ss_bytes (a - ss.ss_base) size '\000';
  let b =
    {
      b_serial = serial;
      b_name = name;
      b_addr = a;
      b_size = size;
      b_layout = layout;
      b_desc_serial = desc_serial;
      b_heap = h;
      b_freed = false;
    }
  in
  ss.ss_blocks <- Addr_tree.add a b ss.ss_blocks;
  b

(* Insert a range into the sorted free list, coalescing neighbours that
   belong to the same subsegment. *)
let release_range h (start, len) =
  let rec insert = function
    | [] -> [ (start, len) ]
    | (s, l) :: rest when s + l = start -> coalesce ((s, l + len) :: rest)
    | (s, l) :: rest when s > start ->
      if start + len = s then (start, len + l) :: rest
      else (start, len) :: (s, l) :: rest
    | range :: rest -> range :: insert rest
  and coalesce = function
    | (s1, l1) :: (s2, l2) :: rest when s1 + l1 = s2 -> (s1, l1 + l2) :: rest
    | l -> l
  in
  (* Never coalesce across subsegment boundaries: bases are page-aligned and
     subsegments of one heap may be non-adjacent in the space, so equality of
     [s + l] and [start] across subsegments cannot occur unless two subsegs
     are adjacent *and* belong to the same heap — in which case merging is
     still unsound for [take_free]'s single-subsegment guarantee. *)
  let ss = subseg_exn h.h_space start in
  let limit = ss.ss_base + Bytes.length ss.ss_bytes in
  let clipped_ok = start >= ss.ss_base && start + len <= limit in
  assert clipped_ok;
  let same_subseg (s, _) = s >= ss.ss_base && s < limit in
  let inside, outside = List.partition same_subseg h.h_free in
  h.h_free <-
    List.sort (fun (a, _) (b, _) -> compare a b) (insert inside @ outside)

let free_block b =
  if b.b_freed then invalid_arg "Iw_mem.free_block: block already freed";
  b.b_freed <- true;
  let ss = subseg_exn b.b_heap.h_space b.b_addr in
  ss.ss_blocks <- Addr_tree.remove b.b_addr ss.ss_blocks;
  release_range b.b_heap (b.b_addr, b.b_size)

(* [free_block] drops a block from [ss_blocks] as it sets [b_freed], so every
   block the index yields is live. *)
let find_block sp a =
  match subseg_of_addr sp a with
  | None -> None
  | Some ss -> begin
    match Addr_tree.find_last_opt (fun k -> k <= a) ss.ss_blocks with
    | Some (_, b) when a < b.b_addr + b.b_size -> Some (b, a - b.b_addr)
    | Some _ | None -> None
  end

let next_block sp a =
  match subseg_of_addr sp a with
  | None -> None
  | Some ss ->
    Option.map snd (Addr_tree.find_first_opt (fun k -> k >= a) ss.ss_blocks)

let destroy_heap h =
  let sp = h.h_space in
  List.iter
    (fun ss -> sp.sp_subsegs <- Addr_tree.remove ss.ss_base sp.sp_subsegs)
    h.h_subsegs;
  h.h_subsegs <- [];
  h.h_free <- []

(* Modification tracking. *)

let protect h =
  List.iter
    (fun ss ->
      Array.fill ss.ss_protected 0 ss.ss_npages true;
      Array.fill ss.ss_twins 0 ss.ss_npages None)
    h.h_subsegs

let unprotect h =
  List.iter
    (fun ss ->
      Array.fill ss.ss_protected 0 ss.ss_npages false;
      Array.fill ss.ss_twins 0 ss.ss_npages None)
    h.h_subsegs

let twinned_pages h =
  List.fold_left
    (fun acc ss ->
      Array.fold_left (fun acc t -> if t = None then acc else acc + 1) acc ss.ss_twins)
    0 h.h_subsegs

let restore_twins h =
  List.iter
    (fun ss ->
      Array.iteri
        (fun page twin ->
          match twin with
          | Some twin ->
            Bytes.blit twin 0 ss.ss_bytes (page * page_size) page_size;
            ss.ss_protected.(page) <- true;
            ss.ss_twins.(page) <- None
          | None -> ())
        ss.ss_twins)
    h.h_subsegs

(* The emulated page fault: first write to a protected page snapshots it. *)
let fault ss page =
  let off = page * page_size in
  ss.ss_twins.(page) <- Some (Bytes.sub ss.ss_bytes off page_size);
  ss.ss_protected.(page) <- false

let barrier ss off len =
  let first = off / page_size and last = (off + len - 1) / page_size in
  for p = first to last do
    if ss.ss_protected.(p) then fault ss p
  done

let word = Iw_arch.word_size

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(* Word-by-word comparison of a twinned page, extended with run splicing:
   gaps of one or two unchanged words between changed words are folded into
   the surrounding run (paper, Sec. 3.3). Returns byte runs relative to the
   subsegment, ascending, given the accumulated reversed list.  Words are
   compared eight bytes at a time; only a mismatching pair is split into its
   two words, so the runs are exactly those of a one-word-at-a-time scan. *)
let diff_page ss page acc =
  match ss.ss_twins.(page) with
  | None -> acc
  | Some twin ->
    let gap = ss.ss_heap.h_space.sp_splice_gap in
    let bytes = ss.ss_bytes in
    let page_off = page * page_size in
    let base = ss.ss_base + page_off in
    (* Collect maximal changed word runs with splicing. *)
    let acc = ref acc in
    let run_start = ref (-1) in
    let last_changed = ref (-3) in
    let flush upto =
      if !run_start >= 0 then begin
        let s = base + (!run_start * word) and e = base + (upto * word) in
        (* Merge with the previous run when contiguous (page-crossing runs
           or splice-adjacent runs). *)
        (match !acc with
        | (ps, pl) :: rest when ps + pl >= s ->
          acc := (ps, max (ps + pl) e - ps) :: rest
        | _ -> acc := (s, e - s) :: !acc);
        run_start := -1
      end
    in
    let changed w =
      if !run_start < 0 then run_start := w
      else if w - !last_changed > gap + 1 then begin
        (* Too many unchanged words in between: close the previous run. *)
        flush (!last_changed + 1);
        run_start := w
      end;
      last_changed := w
    in
    for pair = 0 to (page_size / (2 * word)) - 1 do
      let o = pair * 2 * word in
      if get64u bytes (page_off + o) <> get64u twin o then begin
        if get32u bytes (page_off + o) <> get32u twin o then changed (2 * pair);
        if get32u bytes (page_off + o + word) <> get32u twin (o + word) then
          changed ((2 * pair) + 1)
      end
    done;
    flush (!last_changed + 1);
    !acc

let modified_runs h =
  (* Per-subsegment accumulators so runs never merge across subsegments even
     when two subsegments happen to be address-adjacent. *)
  List.concat_map
    (fun ss ->
      let acc = ref [] in
      for p = 0 to ss.ss_npages - 1 do
        acc := diff_page ss p !acc
      done;
      List.rev !acc)
    h.h_subsegs

(* Typed access. *)

let locate sp a len =
  let ss = subseg_exn sp a in
  if a + len > ss.ss_base + Bytes.length ss.ss_bytes then
    invalid_arg "Iw_mem: access crosses end of subsegment";
  (ss, a - ss.ss_base)

let store_barrier sp a len =
  let ss, off = locate sp a len in
  barrier ss off len;
  (ss, off)

let load_prim sp prim a =
  let arch = sp.sp_arch in
  let size = Iw_arch.prim_size arch prim in
  observe sp ~store:false a size;
  let ss, off = locate sp a size in
  match prim with
  | Iw_arch.Char | Short | Int | Long ->
    Iw_arch.load_sint arch ss.ss_bytes ~off ~size
  | Pointer -> Iw_arch.load_uint arch ss.ss_bytes ~off ~size
  | Float | Double | String _ ->
    invalid_arg "Iw_mem.load_prim: not an integer primitive"

let store_prim sp prim a v =
  let arch = sp.sp_arch in
  let size = Iw_arch.prim_size arch prim in
  observe sp ~store:true a size;
  let ss, off = store_barrier sp a size in
  match prim with
  | Iw_arch.Char | Short | Int | Long | Pointer ->
    Iw_arch.store_uint arch ss.ss_bytes ~off ~size v
  | Float | Double | String _ ->
    invalid_arg "Iw_mem.store_prim: not an integer primitive"

let load_double sp a =
  observe sp ~store:false a 8;
  let ss, off = locate sp a 8 in
  Iw_arch.load_double sp.sp_arch ss.ss_bytes ~off

let store_double sp a v =
  observe sp ~store:true a 8;
  let ss, off = store_barrier sp a 8 in
  Iw_arch.store_double sp.sp_arch ss.ss_bytes ~off v

let load_float sp a =
  observe sp ~store:false a 4;
  let ss, off = locate sp a 4 in
  Iw_arch.load_float sp.sp_arch ss.ss_bytes ~off

let store_float sp a v =
  observe sp ~store:true a 4;
  let ss, off = store_barrier sp a 4 in
  Iw_arch.store_float sp.sp_arch ss.ss_bytes ~off v

let load_string sp ~capacity a =
  observe sp ~store:false a capacity;
  let ss, off = locate sp a capacity in
  Iw_arch.load_cstring ss.ss_bytes ~off ~capacity

let store_string sp ~capacity a s =
  observe sp ~store:true a capacity;
  let ss, off = store_barrier sp a capacity in
  Iw_arch.store_cstring ss.ss_bytes ~off ~capacity s

let with_raw sp a f =
  let ss = subseg_exn sp a in
  f ss.ss_bytes (a - ss.ss_base)

let touch sp a ~len =
  let ss, off = locate sp a len in
  barrier ss off len
