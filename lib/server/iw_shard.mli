(** A shard's execution engine: the admission gate every segment request
    passes, the executor that runs it, and the group-commit flush that makes
    its WAL append durable before the caller sees the result.

    - {b Worker} ({!create}, the server at [--domains N], N ≥ 2): a mailbox
      of jobs drained in batches (bounded by [max_batch]) by one dedicated
      OCaml 5 domain, in arrival order, so all access to the shard's
      segments is single-threaded without the submitters ever contending on
      a segment lock.
    - {b Inline} ({!create_inline}, the default one-shard server): each job
      runs on the caller's thread and no domain is spawned.  A job that does
      not defer takes no lock here and allocates no mutex or condition.  One
      shard has nothing for a worker to run in parallel, and the handoff is
      measurable: on a 2-core box, always spawning a worker at one shard
      raised the repo benchmark's [mining_poll] read p90 by 121%,
      [hetero_scatter] read/write p90 by 32%/25%, and peak RSS by 8–12%.

    Group commit: a job whose WAL append deferred its fsync (see
    {!Iw_store.begin_batch}) reports itself deferred.  The worker withholds
    its completion and, after the batch, calls [flush] (one fsync per dirty
    log) before completing every deferred job at once; inline, the caller
    runs [flush] before {!run} returns.  A flush failure fails the deferred
    jobs — nothing is acknowledged that is not durable. *)

type t

val create :
  ?max_batch:int ->
  ?window_us:float ->
  ?queue_max:int ->
  flush:(unit -> unit) ->
  unit ->
  t
(** A worker executor: spawn its domain.  [max_batch] (default [64],
    clamped ≥ 1) bounds how many queued jobs one flush can cover;
    [window_us] (default [0.]) optionally holds the group-commit window open
    that long after a batch that deferred work, letting stragglers share
    the fsync — the wait is sliced (~1 ms) with intermediate drains, so
    non-deferring jobs (reads) that arrive mid-window complete immediately
    instead of waiting the window out.  [queue_max] (default: unbounded)
    bounds the mailbox: past it, non-urgent {!run} calls are refused with
    {!Overloaded} instead of queued — the admission gate overload control is
    built on.  [flush] runs on the worker domain with no locks held by this
    module. *)

val create_inline : ?queue_max:int -> flush:(unit -> unit) -> unit -> t
(** An inline executor.  [queue_max] gates on the callers inside {!run},
    with the same {!Overloaded} refusal and urgent lane as a mailbox. *)

val run : ?urgent:bool -> t -> defer:(unit -> bool) -> (unit -> 'a) -> 'a
(** Run [f] on the executor and block until it completes; its result or
    exception is relayed to this thread (the caller does its own shard
    locking inside [f]).  After [f] succeeds, [defer ()] is consulted on the
    same thread: [true] holds the completion back until [flush] has run —
    the group-commit path — and a flush exception replaces the result.
    [urgent] (default [false]) bypasses the [queue_max] admission gate —
    reserved for work that frees resources (write-lock releases), which
    must never be refused lest the overloaded shard wedge on the locks it is
    itself waiting for.
    @raise Stopped if {!stop} was already called.
    @raise Overloaded (carrying the current depth) if the admission depth is
    at [queue_max] and [urgent] is false; [f] was not run. *)

val pending : t -> int
(** The admission depth {!run} gates on: jobs enqueued and not yet picked
    up by the worker, or, inline, callers inside {!run}.  Safe from any
    thread, including metric collection. *)

val queued : t -> int
(** Jobs accepted and not yet started: the mailbox depth, always [0]
    inline.  A gauge that already counts callers inside the shard lock adds
    this, not {!pending}, so a parked caller is counted once. *)

val high_watermark : t -> int
(** The deepest {!pending} has ever been — the queue high-watermark gauge.
    Safe from any thread. *)

val stop : t -> unit
(** Stop accepting jobs and let every accepted one finish (a worker drains
    its mailbox, flush included, and its domain is joined).  Idempotent. *)

exception Stopped

exception Overloaded of int
(** Raised by {!run} at admission when the depth is at [queue_max]; the
    payload is the observed depth.  The job was NOT run. *)
