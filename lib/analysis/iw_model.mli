(** Executable small-step model of the InterWeave coherence protocol.

    The model abstracts the client/server protocol that {!Iw_server} and
    {!Iw_client} implement — N model clients running bounded write and read
    transactions against one server with write locks, session leases,
    per-session release dedup, a write-ahead log with checkpoint barriers,
    and injectable crash points — into a finite transition system that
    {!Iw_explore} can search exhaustively.  Data is opaque: a transaction is
    identified only by its base version, so the state space is bounded by
    the per-client operation budgets in {!config}.

    Each client follows the paper's access discipline (Section 2.2): acquire
    the segment's write lock, stage a diff against the version the grant
    carried, release (the server applies the diff, appends a WAL commit
    record, and only then acks), and read under one of the four coherence
    models (Full, Delta, Temporal, Diff).  Crash actions model the failure
    points the durability layer (lib/store) is built around: the server can
    crash at any interleaving point, losing volatile state (the lock table,
    in-flight acks, the dedup table) but not the WAL or checkpoints;
    recovery rebuilds from checkpoint + log replay exactly as
    [Iw_server.recover_store] does.

    Invariants, checked on every reachable state and transition:

    - [MDL01] — write-lock exclusivity: a release commits only when the
      server's lock table names the releasing session; a session whose lease
      was reclaimed must never advance the version.
    - [MDL02] — durability: no version observed by any client (write ack or
      read reply) may exceed the durable frontier (checkpoint version or
      highest WAL commit) — the log-before-ack discipline.  A crash can
      therefore never lose an acked version.
    - [MDL03] — coherence staleness bounds: an "up to date" reply must
      satisfy the client's model — equality under Full, version lag ≤ x
      under Delta x, an unexpired copy under Temporal, a modification
      counter within bound under Diff (paper §2.2).
    - [MDL04] — release-dedup idempotence: a release retried after a lost
      ack must be answered with its committed version whenever the durable
      history contains the commit, never refused (refusal makes the client
      roll back and re-apply — a duplicate commit).
    - [MDL05] — lease reclamation never strands a lock: a lock held by a
      crashed session with a live contender waiting must be reclaimable.
    - [MDL06] — monotonicity: the server version never regresses (including
      across crash + recovery), and no client's validated version can be
      ahead of the server it talks to.

    [broken] variants re-introduce protocol bugs on purpose so the explorer
    (and the test suite) can demonstrate that the invariants actually catch
    them.

    With [n_segments] > 1 the model server is sharded the way
    {!Iw_server.create} with [~domains] is: each segment carries its own
    version counter, lock table, dedup table, WAL, and checkpoint, and
    recovers from its own log.  Client [i] writes its home segment
    [i mod n_segments] and reads the cross segment [(i + 1) mod n_segments],
    so all six invariants are re-checked per segment with write-path and
    read-path state on different shards.  [n_segments = 1] is exactly the
    unsharded model, schedule for schedule. *)

type coherence =
  | Full
  | Delta of int  (** version lag bound *)
  | Temporal  (** expiry is a nondeterministic {!action.Expire} *)
  | Diff_bound of int  (** modification counter bound *)

type broken =
  | No_dedup_rebuild
      (** recovery forgets the release-dedup table: a release retried across
          a crash is refused even though its commit is in the log (the bug
          class behind MDL04) *)
  | Ack_before_log
      (** commits are acked without a WAL record: a crash loses acked
          versions (MDL02) *)
  | No_lock_check
      (** releases apply without checking the lock table: a session whose
          lease was reclaimed can still commit (MDL01) *)
  | No_reclaim
      (** leases exist but reclamation never runs: a crashed holder strands
          the lock for every live contender (MDL05) *)
  | Stale_full_reads
      (** Full-coherence reads tolerate a version of lag, violating the
          staleness bound (MDL03) *)
  | Shed_applied
      (** the overloaded dequeue path notices an expired deadline only after
          applying the release, yet still answers "expired — nothing
          applied"; the client re-stages and double-commits (MDL04).
          Requires [queue = Some _]. *)

type config = {
  n_clients : int;
  n_segments : int;
      (** independent segments, one per model shard; client [i] writes
          segment [i mod n_segments] and reads [(i + 1) mod n_segments].
          Values below 1 behave as 1. *)
  writes_per_client : int;  (** write-transaction budget per client *)
  reads_per_client : int;  (** read-acquire budget per client *)
  coherences : coherence array;
      (** per-client model; cycled when shorter than [n_clients] *)
  lease : bool;  (** enable lease reclamation ({!action.Reclaim}) *)
  crash : bool;  (** enable Crash / Recover / Checkpoint / Client_crash *)
  queue : int option;
      (** bounded shard-mailbox capacity.  [None] (the default) keeps the
          pre-overload model: a release applies in one {!action.Release}
          step.  [Some cap] splits it into {!action.Submit} (enter the
          mailbox, admission-gated on occupancy < [cap]), then either
          {!action.Apply} (dequeue + commit) or {!action.Shed} (refused —
          deadline expired or load shed — before any work; the client keeps
          its lock and resubmits).  A server crash empties the mailbox.
          MDL01–06 are re-checked over the widened state space.  This is
          the server that ships by default: every shard count gates
          admission the same way, and at the default one shard the
          "mailbox" is the requests admitted into the shard and not yet
          finished. *)
  broken : broken option;
}

val default_config : config
(** 2 clients, 1 segment, 2 writes and 1 read each, [Full] and [Delta 1],
    leases on, crash off, nothing broken. *)

val coherence_of_string : string -> (coherence, string) result
(** ["full"], ["delta:N"], ["temporal"], ["diff:N"]. *)

val broken_of_string : string -> (broken, string) result
(** Hyphenated variant names, e.g. ["no-dedup-rebuild"]. *)

(** One atomic protocol step.  Client-indexed actions name the session. *)
type action =
  | Lock of int  (** write-lock request, granted (lock free) *)
  | Reclaim of int  (** write-lock grant via lease reclamation from holder *)
  | Release of int  (** diff reaches the server: apply + WAL append
                        (unbounded model, [queue = None] only) *)
  | Submit of int
      (** [queue = Some _]: the release enters the shard mailbox, gated on
          occupancy below capacity *)
  | Apply of int  (** [queue = Some _]: dequeue the release and commit it *)
  | Shed of int
      (** [queue = Some _]: refuse the queued release without applying it
          (shed or deadline-expired); the client keeps its lock *)
  | Ack of int  (** the release's ack reaches the client *)
  | Retry of int  (** release resent after a crash ate the ack *)
  | Read of int  (** read-lock round trip under the client's coherence *)
  | Expire of int  (** the Temporal client's copy passes its time bound *)
  | Client_crash of int  (** client dies silently (lease fodder) *)
  | Crash  (** server dies: volatile state lost, WAL + checkpoints survive *)
  | Recover  (** restart: checkpoint load + WAL replay + dedup rebuild *)
  | Checkpoint  (** checkpoint barrier: WAL truncated behind it *)

val action_to_string : action -> string
(** Compact, e.g. ["lock:0"], ["crash"].  Inverse of
    {!action_of_string}; a whole schedule prints as these joined with
    spaces. *)

val action_of_string : string -> (action, string) result

type state

val initial : config -> state

val enabled : config -> state -> action list
(** Actions whose preconditions hold in [state], in a fixed order. *)

type violation = {
  v_code : string;  (** stable, e.g. ["MDL04"] *)
  v_message : string;
}

val step : config -> state -> action -> (state * violation list) option
(** Deterministically apply one action.  [None] when the action is not
    enabled.  The violation list carries transition-level invariant
    failures (MDL01, MDL03, MDL04 fire at the offending transition). *)

val check : config -> state -> violation list
(** State-level invariants (MDL02, MDL05, MDL06) of one reachable state. *)

val independent : action -> action -> bool
(** Conservative commutativity for partial-order reduction: [true] only
    when executing the two actions in either order from any state reaches
    the same state.  Actions of the same client, lock-table writers among
    each other, version writers against readers, and the global
    crash/recover/checkpoint actions are all dependent. *)

val fingerprint : state -> int
(** Structural hash, for the explorer's visited table. *)

val pp_state : Format.formatter -> state -> unit
(** One-line rendering, for counterexample traces. *)
