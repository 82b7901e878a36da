(* What every workload shares: per-thread latency lanes, the workload
   interface, and small helpers. *)

(* A growable buffer of unboxed floats. *)
module Fbuf = struct
  type t = {
    mutable a : Float.Array.t;
    mutable n : int;
  }

  let create () = { a = Float.Array.create 256; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  let to_array t = Array.init t.n (Float.Array.get t.a)
end

(* Nearest-rank quantile of sorted samples; nan when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A window is cut into one-second slices as it is measured, so a run can
   report medians over slices while keeping only the latencies, 8 bytes an
   op, whatever its throughput. *)
let slice_s = 1.0

type slice = {
  reads : Fbuf.t;  (* seconds per read critical section *)
  writes : Fbuf.t;
  mutable excluded_s : float;  (* checker work and scaffolding, not load *)
}

(* One load thread's record of a measurement window. *)
type lane = {
  t0 : float;
  slices : slice array;
  mutable failed : int;  (* ops that raised *)
  mutable cache_served : int;  (* read locks that made no round trip *)
}

(* A lane for a window of [n] slices starting at [t0]. *)
let lane ~t0 ~n =
  {
    t0;
    slices =
      Array.init n (fun _ -> { reads = Fbuf.create (); writes = Fbuf.create (); excluded_s = 0. });
    failed = 0;
    cache_served = 0;
  }

(* The slice a sample taken at [t] belongs to; an op that overruns the
   window's end lands in the last one. *)
let slice_at l t =
  l.slices.(max 0 (min (Array.length l.slices - 1) (int_of_float ((t -. l.t0) /. slice_s))))

(* Run [f] as checker work or scaffolding: its wall time is kept out of
   the throughput denominator. *)
let excluded l f =
  let t0 = Spans.now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Spans.now () in
      let s = slice_at l t1 in
      s.excluded_s <- s.excluded_s +. (t1 -. t0))
    f

(* Workload scaffolding inside a window (mining_poll's epoch reset) runs
   through this hook; main.ml points it at a counter snapshot, so the
   scaffolding's traffic is kept out of the window's counter deltas as well
   as out of its time. *)
let scaffold_hook : ((unit -> unit) -> unit) ref = ref (fun f -> f ())

let scaffold l f = excluded l (fun () -> !scaffold_hook f)

type kind =
  | Read
  | Write

(* One timed critical section on [ctx]'s client.  A raise counts as a
   failed op and is otherwise swallowed, so one failure cannot stop the
   window; the checker still sees every successful op. *)
let op lane kind ctx f =
  match Spans.op ctx f with
  | dt ->
    let s = slice_at lane (Spans.now ()) in
    Fbuf.add (match kind with Read -> s.reads | Write -> s.writes) dt;
    true
  | exception e ->
    lane.failed <- lane.failed + 1;
    if lane.failed <= 5 then Printf.eprintf "op failed: %s\n%!" (Printexc.to_string e);
    false

(* A read op: records whether the acquire made a round trip. *)
let read_op lane ctx client f =
  let calls0 = (Iw_client.stats client).Iw_client.calls in
  let ok = op lane Read ctx f in
  let round_trip = (Iw_client.stats client).Iw_client.calls > calls0 in
  if ok && not round_trip then lane.cache_served <- lane.cache_served + 1;
  (ok, round_trip)

(* A set-up workload, ready for its first timed op. *)
type instance = {
  threads : int;  (* load threads, each with its own lane *)
  warmup : int;  (* untimed iterations per thread before the first window *)
  step : int -> lane -> unit;  (* one iteration on load thread [k] *)
  clients : (Iw_client.t * Spans.ctx) list;  (* the load clients *)
  server : unit -> Iw_server.t;
  store_dir : string option;
  fsync : string;  (* the store's fsync policy, or "none" without a store *)
  user_bytes : unit -> int;  (* bytes the workload has stored so far *)
  commits : unit -> int;  (* write releases acknowledged so far *)
  finish : unit -> unit;  (* final-state checks (R4); after the last window *)
  tally : Checker.tally;
  teardown : unit -> unit;
}

type workload = {
  name : string;
  setup : seed:int -> work_dir:string -> instance;
}

(* {1 Helpers} *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
