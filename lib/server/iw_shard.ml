(* A shard's execution engine; the interface says why one shard runs inline.

   Worker: connection threads submit a closure and block on a per-request
   future; the worker domain drains the mailbox in batches, runs each
   closure (the submitter's closure does the shard locking — this module
   only sequences), and signals the futures, a deferred job's only after
   the flush that follows its batch.  Inline: the closure runs on the
   caller's thread, the callers inside [run] are the queue the gate counts,
   and a deferred job's caller flushes before returning — the first flush
   to take the shard lock covers every append made before it, so
   concurrent callers still share fsyncs.  A job's exception is re-raised in
   the submitting thread; the worker never dies from a handler error. *)

type job = {
  j_run : unit -> bool;  (* true = completion deferred to the batch flush *)
  j_finish : exn option -> unit;  (* called after flush for deferred jobs *)
}

type t = {
  q_inline : bool;  (* jobs run on the caller's thread; no mailbox *)
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  q_jobs : job Queue.t;
  q_pending : int Atomic.t;
      (* the admission depth: queued, not yet picked up (worker), or inside
         [run] (inline) *)
  q_hwm : int Atomic.t;  (* deepest [q_pending] has ever been *)
  q_queue_max : int option;  (* admission gate; None = unbounded *)
  q_stop : bool Atomic.t;
  q_flush : unit -> unit;
  q_max_batch : int;
  q_window_us : float;
  mutable q_domain : unit Domain.t option;
}

exception Stopped

exception Overloaded of int

let pending t = Atomic.get t.q_pending

let queued t = if t.q_inline then 0 else pending t

let high_watermark t = Atomic.get t.q_hwm

let rec note_depth t depth =
  let hwm = Atomic.get t.q_hwm in
  if depth > hwm && not (Atomic.compare_and_set t.q_hwm hwm depth) then
    note_depth t depth

(* Admission gate: past the bound, NEW work is refused at the door and the
   caller sheds it with a retry hint.  Urgent jobs (lock releases — they
   complete critical sections and free the very locks the queue is waiting
   on) always get in, so the gate can never wedge the system.  [depth] is
   the admission depth without this job. *)
let admit t ~urgent depth =
  if Atomic.get t.q_stop then raise Stopped;
  match t.q_queue_max with
  | Some cap when (not urgent) && depth >= cap -> raise (Overloaded depth)
  | _ -> ()

(* Drain up to [room] queued jobs.  Caller holds q_mutex. *)
let drain_locked t room =
  let batch = ref [] in
  let n = ref 0 in
  while !n < room && not (Queue.is_empty t.q_jobs) do
    batch := Queue.pop t.q_jobs :: !batch;
    Atomic.decr t.q_pending;
    incr n
  done;
  List.rev !batch

(* Run one batch; returns the deferred finishers in completion order. *)
let run_batch jobs =
  List.filter_map
    (fun job -> if job.j_run () then Some job.j_finish else None)
    jobs

let flush_deferred t deferred =
  match deferred with
  | [] -> ()
  | fins -> (
    match t.q_flush () with
    | () -> List.iter (fun fin -> fin None) fins
    | exception e -> List.iter (fun fin -> fin (Some e)) fins)

let worker t =
  let rec loop () =
    Mutex.lock t.q_mutex;
    while Queue.is_empty t.q_jobs && not (Atomic.get t.q_stop) do
      Condition.wait t.q_cond t.q_mutex
    done;
    if Queue.is_empty t.q_jobs then Mutex.unlock t.q_mutex
    else begin
      let batch = drain_locked t t.q_max_batch in
      Mutex.unlock t.q_mutex;
      let deferred = run_batch batch in
      (* An optional sub-millisecond window lets releases that arrive just
         behind the batch share its fsync instead of paying their own.  The
         sleep is sliced (~1 ms) with a drain-and-run between slices: a
         read that lands mid-window completes within a slice — only its
         fsync-deferring peers wait for the shared flush — so the window
         delays group-committed writes, never the read lane. *)
      let deferred =
        if deferred = [] || t.q_window_us <= 0. then deferred
        else begin
          let slice_s = Float.min t.q_window_us 1000. /. 1e6 in
          let until = Unix.gettimeofday () +. (t.q_window_us /. 1e6) in
          let acc = ref deferred in
          let open_window = ref true in
          while !open_window do
            Unix.sleepf slice_s;
            Mutex.lock t.q_mutex;
            let more = drain_locked t t.q_max_batch in
            Mutex.unlock t.q_mutex;
            acc := !acc @ run_batch more;
            if Unix.gettimeofday () >= until then open_window := false
          done;
          !acc
        end
      in
      flush_deferred t deferred;
      loop ()
    end
  in
  loop ()

let make ~inline ?(max_batch = 64) ?(window_us = 0.) ?queue_max ~flush () =
  {
    q_inline = inline;
    q_mutex = Mutex.create ();
    q_cond = Condition.create ();
    q_jobs = Queue.create ();
    q_pending = Atomic.make 0;
    q_hwm = Atomic.make 0;
    q_queue_max = (match queue_max with Some n when n >= 1 -> Some n | _ -> None);
    q_stop = Atomic.make false;
    q_flush = flush;
    q_max_batch = max max_batch 1;
    q_window_us = window_us;
    q_domain = None;
  }

let create ?max_batch ?window_us ?queue_max ~flush () =
  let t = make ~inline:false ?max_batch ?window_us ?queue_max ~flush () in
  t.q_domain <- Some (Domain.spawn (fun () -> worker t));
  t

let create_inline ?queue_max ~flush () = make ~inline:true ?queue_max ~flush ()

let run_inline t ~urgent ~defer f =
  let depth = Atomic.fetch_and_add t.q_pending 1 in
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.q_pending)
    (fun () ->
      admit t ~urgent depth;
      note_depth t (depth + 1);
      let v = f () in
      if defer () then t.q_flush ();
      v)

let run ?(urgent = false) t ~defer f =
  if t.q_inline then run_inline t ~urgent ~defer f
  else begin
    let m = Mutex.create () in
    let cv = Condition.create () in
    let result = ref None in
    let done_ = ref false in
    let signal () =
      Mutex.lock m;
      done_ := true;
      Condition.signal cv;
      Mutex.unlock m
    in
    let j_run () =
      (try result := Some (Ok (f ())) with e -> result := Some (Error e));
      let deferred =
        match !result with Some (Ok _) -> defer () | _ -> false
      in
      if not deferred then signal ();
      deferred
    in
    let j_finish flush_err =
      (match flush_err with
      | Some e -> result := Some (Error e)
      | None -> ());
      signal ()
    in
    Mutex.protect t.q_mutex (fun () ->
        admit t ~urgent (Atomic.get t.q_pending);
        Queue.push { j_run; j_finish } t.q_jobs;
        note_depth t (Atomic.fetch_and_add t.q_pending 1 + 1);
        Condition.signal t.q_cond);
    Mutex.lock m;
    while not !done_ do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false
  end

let stop t =
  Mutex.protect t.q_mutex (fun () ->
      Atomic.set t.q_stop true;
      Condition.broadcast t.q_cond);
  Option.iter Domain.join t.q_domain;
  t.q_domain <- None;
  (* Inline jobs run on their callers' threads: wait them out. *)
  while Atomic.get t.q_pending > 0 do
    Unix.sleepf 0.001
  done
