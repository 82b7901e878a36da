type phase = Decode | Lock_wait | Service | Wal | Reply

let phases = [ Decode; Lock_wait; Service; Wal; Reply ]

let n_phases = 5

let index = function
  | Decode -> 0
  | Lock_wait -> 1
  | Service -> 2
  | Wal -> 3
  | Reply -> 4

let name = function
  | Decode -> "decode"
  | Lock_wait -> "lock_wait"
  | Service -> "service"
  | Wal -> "wal"
  | Reply -> "reply"

(* Exclusive attribution: [stack.(0 .. depth - 1)] holds the open phases,
   innermost last; [acc.(last_at)] is the instant attribution last changed
   hands.  Every transition charges [now - last] to the phase that owned
   the interval.  Floats live in [acc] and phases in an int-like array, so
   a transition allocates nothing; without an injected clock the wall
   clock is read unboxed. *)
type timer = {
  clock : (unit -> float) option;
  mutable depth : int;
  mutable stack : phase array;
  acc : float array;
      (* exclusive seconds per phase, then the start and last instants *)
}

let start_at = n_phases

let last_at = n_phases + 1

let[@inline] now t = match t.clock with None -> Unix.gettimeofday () | Some c -> c ()

let start ?clock () =
  let t =
    { clock; depth = 0; stack = Array.make 4 Decode; acc = Array.make (n_phases + 2) 0. }
  in
  let now = now t in
  t.acc.(start_at) <- now;
  t.acc.(last_at) <- now;
  t

let charge_open t now =
  if t.depth > 0 then begin
    let i = index t.stack.(t.depth - 1) in
    t.acc.(i) <- t.acc.(i) +. (now -. t.acc.(last_at))
  end

let enter_at t p now =
  charge_open t now;
  if t.depth = Array.length t.stack then t.stack <- Array.append t.stack t.stack;
  t.stack.(t.depth) <- p;
  t.depth <- t.depth + 1;
  t.acc.(last_at) <- now

let enter t p = enter_at t p (now t)

(* Credit already-measured time to a phase without opening it.  Used when
   the interval happened where enter/leave cannot bracket it — a request
   sitting in a shard mailbox between the submitting connection thread and
   the worker domain is Lock_wait, but no phase is open while it waits. *)
let add t p us = t.acc.(index p) <- t.acc.(index p) +. (us /. 1e6)

let rec leave_at t p now =
  if t.depth > 0 then begin
    let top = t.stack.(t.depth - 1) in
    charge_open t now;
    t.depth <- t.depth - 1;
    t.acc.(last_at) <- now;
    (* Close abandoned inner phases (a handler raised between enter and
       leave) until the named one has been closed. *)
    if top <> p then leave_at t p now
  end

let leave t p = leave_at t p (now t)

let elapsed_us t p =
  let base = t.acc.(index p) *. 1e6 in
  if t.depth > 0 && t.stack.(t.depth - 1) = p then
    base +. ((now t -. t.acc.(last_at)) *. 1e6)
  else base

let total_us t = (now t -. t.acc.(start_at)) *. 1e6

type stats = {
  mutex : Mutex.t;
  by_phase : Iw_hist.t array;  (* all variants merged *)
  total : Iw_hist.t;
  by_variant : (string, float array) Hashtbl.t;  (* exact exclusive us per phase *)
  mutable sums : float array;  (* exact exclusive us per phase *)
  mutable total_sum : float;
}

let create_stats ?(error = 0.01) () =
  {
    mutex = Mutex.create ();
    by_phase = Array.init n_phases (fun _ -> Iw_hist.create ~error ());
    total = Iw_hist.create ~error ();
    by_variant = Hashtbl.create 16;
    sums = Array.make n_phases 0.;
    total_sum = 0.;
  }

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

type variant = float array

let variant s name =
  locked s (fun () ->
      match Hashtbl.find_opt s.by_variant name with
      | Some a -> a
      | None ->
        let a = Array.make n_phases 0. in
        Hashtbl.add s.by_variant name a;
        a)

(* Once per request: a plain lock/unlock pair and a loop, no closure.
   Nothing between them can raise. *)
let record s per_var ~total_us t =
  Mutex.lock s.mutex;
  for i = 0 to n_phases - 1 do
    let us = t.acc.(i) *. 1e6 in
    Iw_hist.record s.by_phase.(i) us;
    per_var.(i) <- per_var.(i) +. us;
    s.sums.(i) <- s.sums.(i) +. us
  done;
  Iw_hist.record s.total total_us;
  s.total_sum <- s.total_sum +. total_us;
  Mutex.unlock s.mutex

let phase_summary s p = locked s (fun () -> Iw_hist.summary s.by_phase.(index p))

let total_summary s = locked s (fun () -> Iw_hist.summary s.total)

let phase_sum_us s p = locked s (fun () -> s.sums.(index p))

let total_sum_us s = locked s (fun () -> s.total_sum)

let variant_sum_us s variant p =
  locked s (fun () ->
      Option.map (fun a -> a.(index p)) (Hashtbl.find_opt s.by_variant variant))

let variants s =
  locked s (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) s.by_variant []
      |> List.sort compare)
