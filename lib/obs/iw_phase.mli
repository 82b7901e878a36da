(** Request-lifecycle phase timing.

    A request entering the server passes through a fixed pipeline of
    phases — decode the frame, wait for the (today: global) server lock,
    service the request with the lock held, append to the write-ahead log,
    write the reply — and a slow request is only diagnosable when the time
    can be attributed to one of them.  A {!timer} is started at arrival and
    carried through the pipeline; each phase brackets itself with
    {!enter}/{!leave} and the timer accumulates {e exclusive} time per
    phase: entering a nested phase (the WAL append happens inside the
    service phase) suspends the enclosing one, so the per-phase times sum
    to the bracketed wall time with nothing counted twice.

    Timers are single-owner values — cheap (no allocation per transition)
    and not thread-safe.  Ownership may be handed off
    (connection thread → shard worker → connection thread) as long as each
    handoff synchronizes through a mutex or condition variable, which the
    shard mailbox does; only one thread touches the timer at a time.  Finished timers are folded into a {!stats} accumulator
    (internally locked) holding per-phase {!Iw_hist} histograms and exact
    per-(variant, phase) sums, which is what the ycsb bench's [phase] section
    and the acceptance check ("phases sum to within 10% of total") read. *)

type phase =
  | Decode  (** envelope + request body parsing *)
  | Lock_wait  (** blocked acquiring the server lock *)
  | Service  (** request dispatch with the lock held *)
  | Wal  (** write-ahead-log append (+ any synchronous fsync) *)
  | Reply  (** response encode + frame write *)

val phases : phase list
(** Pipeline order; also the canonical iteration order for reports. *)

val name : phase -> string
(** Stable lowercase label ([decode], [lock_wait], [service], [wal],
    [reply]) used for metric labels, BENCH JSON series, and admin views. *)

type timer

val start : ?clock:(unit -> float) -> unit -> timer
(** A timer whose arrival instant is now.  [clock] (seconds, monotonic
    enough) defaults to [Unix.gettimeofday]; tests inject a fake. *)

val enter : timer -> phase -> unit
(** Begin attributing elapsed time to [phase].  If another phase is open it
    is suspended (its exclusive time keeps everything up to this instant)
    until the nested phase {!leave}s. *)

val add : timer -> phase -> float -> unit
(** Credit [us] microseconds of already-elapsed time to [phase] without
    opening it.  For intervals that cannot be bracketed by {!enter}/{!leave}
    on one thread: a request queued to a shard worker spends its mailbox
    wait with no phase open (the submitting thread has handed the timer
    off), and the worker credits that wait to [Lock_wait] on dequeue.
    Callers must ensure the credited interval is not also covered by an
    open phase, or it would be counted twice. *)

val leave : timer -> phase -> unit
(** Stop attributing to [phase] and resume the enclosing phase, if any.
    Leaving a phase that is not the innermost open one is forgiving: inner
    phases still open are closed first, so a handler that raises between
    [enter] and [leave] cannot corrupt attribution. *)

val now : timer -> float
(** The timer's clock, in seconds. *)

val enter_at : timer -> phase -> float -> unit
(** {!enter} at an instant the caller already read from {!now} — a caller
    timing the same interval itself saves a clock read. *)

val leave_at : timer -> phase -> float -> unit
(** {!leave} at an instant already read from {!now}. *)

val elapsed_us : timer -> phase -> float
(** Exclusive microseconds accumulated so far for [phase]. *)

val total_us : timer -> float
(** Microseconds since {!start} — the request's wall time so far. *)

type stats

val create_stats : ?error:float -> unit -> stats
(** An accumulator of finished timers.  [error] is the {!Iw_hist} relative
    error bound (default [0.01]).  Thread-safe. *)

type variant
(** One request variant's exact per-phase sums. *)

val variant : stats -> string -> variant
(** The named variant's accumulators, created on first call (idempotent:
    every call for a name returns the same value).  A variant exists for
    {!variants} and {!variant_sum_us} from its first call, so resolve it
    just before its first {!record}; a hot caller resolves it once and
    keeps it. *)

val record : stats -> variant -> total_us:float -> timer -> unit
(** Fold one finished request in: each phase's exclusive time lands in the
    per-phase histogram and the variant's per-phase sum, [total_us] in the
    total histogram.  Phases with zero accumulated time are recorded too —
    their zeros keep per-phase counts comparable to the total count.  One mutex
    acquisition; no allocation beyond the recorded floats. *)

val phase_summary : stats -> phase -> Iw_hist.summary
(** All variants merged. *)

val total_summary : stats -> Iw_hist.summary

val phase_sum_us : stats -> phase -> float
(** Exact accumulated exclusive microseconds for [phase] (all variants). *)

val total_sum_us : stats -> float

val variant_sum_us : stats -> string -> phase -> float option
(** Exact accumulated exclusive microseconds for one variant's [phase];
    [None] if the variant was never resolved. *)

val variants : stats -> string list
