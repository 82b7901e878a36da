(* The output checker.

   Writers record, for every version they commit, the exact state that
   version holds ([commit], before the release is sent, so a reader can
   never see a version the record does not know yet) and then [ack] it once
   the release returns.  Readers report every observation, and the checker
   applies the per-model rules:

   R1  the observed state is exactly the recorded state of the version
       [Iw_client.segment_version] reports;
   R2  the versions one reader observes of one segment never decrease;
   R3  a read lock that made a server round trip is at most [bound] versions
       behind the newest version acknowledged before the acquire began
       (0 for Full coherence, k for Delta k);
   R4  after the run, a fresh client sees exactly the final acknowledged
       state ([final]).

   A read served from the client's cache with no round trip that is more
   than [bound] versions behind is not a violation: it is the notification
   window (a change notification still in flight), and it is counted in
   [stale_reads] / [stale_max] instead. *)

type 'a seg = {
  mutable acked : int;
  states : (int, 'a) Hashtbl.t;  (* version -> recorded state *)
}

(* What a run reports, whatever the shape of the states it checks. *)
type tally = {
  mutable violations : string list;  (* newest first, at most [max_kept] *)
  mutable n_violations : int;
  mutable stale_reads : int;
  mutable stale_max : int;
}

type 'a t = {
  m : Mutex.t;
  keep : int;  (* versions of history kept per segment *)
  segs : (string, 'a seg) Hashtbl.t;
  last_seen : (string * string, int) Hashtbl.t;  (* (reader, segment) -> version *)
  tally : tally;
}

let max_kept = 20

let create ?(keep = 256) () =
  {
    m = Mutex.create ();
    keep;
    segs = Hashtbl.create 64;
    last_seen = Hashtbl.create 64;
    tally = { violations = []; n_violations = 0; stale_reads = 0; stale_max = 0 };
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Callers hold the lock. *)
let violate t msg =
  let r = t.tally in
  r.n_violations <- r.n_violations + 1;
  if r.n_violations <= max_kept then r.violations <- msg :: r.violations

let seg t name =
  match Hashtbl.find_opt t.segs name with
  | Some s -> s
  | None ->
    let s = { acked = 0; states = Hashtbl.create 16 } in
    Hashtbl.replace t.segs name s;
    s

let commit t ~seg:name ~version st =
  locked t (fun () ->
      let s = seg t name in
      Hashtbl.replace s.states version st;
      Hashtbl.remove s.states (version - t.keep))

let ack t ~seg:name ~version =
  locked t (fun () ->
      let s = seg t name in
      if not (Hashtbl.mem s.states version) then
        violate t (Printf.sprintf "%s: version %d acknowledged but never recorded" name version)
      else if version <= s.acked then
        violate t
          (Printf.sprintf "%s: acknowledged version %d after version %d" name version s.acked)
      else s.acked <- version)

let acked t ~seg:name = locked t (fun () -> (seg t name).acked)

(* R1 against the recorded state; [check] returns a mismatch description. *)
let check_state t name s ~version ~check =
  match Hashtbl.find_opt s.states version with
  | None ->
    violate t
      (Printf.sprintf "%s: observed version %d, which no write committed (or older than the %d kept)"
         name version t.keep)
  | Some st -> (
    match check st with
    | None -> ()
    | Some what -> violate t (Printf.sprintf "%s@v%d: %s" name version what))

let observe t ~reader ~seg:name ~version ~round_trip ~acked_before ~bound ~check =
  locked t (fun () ->
      let s = seg t name in
      check_state t name s ~version ~check;
      let key = (reader, name) in
      let last = Option.value ~default:0 (Hashtbl.find_opt t.last_seen key) in
      if version < last then
        violate t
          (Printf.sprintf "%s: reader %s saw version %d after version %d" name reader version
             last)
      else Hashtbl.replace t.last_seen key version;
      let lag = acked_before - version in
      if lag > bound then begin
        if round_trip then
          violate t
            (Printf.sprintf
               "%s: reader %s fetched version %d, %d behind acknowledged version %d (bound %d)"
               name reader version lag acked_before bound)
        else begin
          t.tally.stale_reads <- t.tally.stale_reads + 1;
          if lag > t.tally.stale_max then t.tally.stale_max <- lag
        end
      end)

let final t ~seg:name ~version ~check =
  locked t (fun () ->
      let s = seg t name in
      if version <> s.acked then
        violate t
          (Printf.sprintf "%s: final read found version %d, last acknowledged is %d" name version
             s.acked)
      else check_state t name s ~version ~check)

(* The tally is read between windows and after the run, when no load
   thread records into it. *)
let tally t = t.tally

let ok r = r.n_violations = 0

let reset_stale r =
  r.stale_reads <- 0;
  r.stale_max <- 0

(* {1 State comparisons}  Shared by the workloads and the self-test. *)

let words ~expected ~observed =
  if Array.length expected <> Array.length observed then
    Some
      (Printf.sprintf "%d words observed, %d expected" (Array.length observed)
         (Array.length expected))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e ->
        if !bad = None && observed.(i) <> e then
          bad := Some (Printf.sprintf "word %d is %d, expected %d" i observed.(i) e))
      expected;
    !bad
  end

(* One element of the scatter array as a reader saw it: its index, key,
   value, and the local address its [next] pointer was swizzled to. *)
type elem = {
  e_index : int;
  e_key : int;
  e_val : float;
  e_next : int;
}

(* The scatter array's recorded state: keys and next-element indices (the
   values never change and come from [val_of]).  [addr_of j] is element
   [j]'s address in the reader's space. *)
type scatter = {
  keys : int array;
  nexts : int array;
}

let scatter ~val_of ~addr_of (expected : scatter) (observed : elem array) =
  let bad = ref None in
  Array.iter
    (fun e ->
      if !bad = None then begin
        let i = e.e_index in
        if e.e_key <> expected.keys.(i) then
          bad := Some (Printf.sprintf "key[%d] is %d, expected %d" i e.e_key expected.keys.(i))
        else if e.e_val <> val_of i then
          bad := Some (Printf.sprintf "val[%d] is %h, expected %h" i e.e_val (val_of i))
        else if e.e_next <> addr_of expected.nexts.(i) then
          bad :=
            Some
              (Printf.sprintf "next[%d] points to %#x, expected element %d at %#x" i e.e_next
                 expected.nexts.(i)
                 (addr_of expected.nexts.(i)))
      end)
    observed;
  !bad

(* A mining query's answer: the top sequences with their supports. *)
let top ~expected ~observed =
  if observed = expected then None
  else
    let first l = match l with (_, s) :: _ -> s | [] -> -1 in
    Some
      (Printf.sprintf "top-%d differs (%d entries, first support %d; expected %d, %d)"
         (List.length expected) (List.length observed) (first observed)
         (List.length expected) (first expected))
