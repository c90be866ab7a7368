(** The daemon's bounded job queue and job registry.

    Jobs are submitted by connection-handler threads, claimed FIFO by
    worker domains, and observed (listings, progress streams) by other
    handler threads - every transition goes through one internal mutex,
    and every state change broadcasts a condition the progress streamers
    wait on. Backpressure is explicit: {!submit} on a full queue returns
    [`Full] with the current depth instead of blocking, which the server
    turns into a structured 429-style rejection. *)

module Scenario = Acs_dse.Scenario
module Json = Acs_util.Json

type status = Queued | Running | Done | Failed of string | Cancelled

val status_to_string : status -> string
(** "queued" / "running" / "done" / "failed" / "cancelled". *)

type result = {
  designs : int;  (** points evaluated *)
  compliant : int;  (** compliant and manufacturable designs *)
  best_ttft_s : float;  (** nan when no design was evaluated *)
  best_tbt_s : float;
  wall_s : float;  (** running time, excluding queue wait *)
}

type job = {
  id : int;
  scenario : Scenario.t;
  submitted_at : float;  (** epoch seconds *)
  total : int;  (** points this job evaluates *)
  cancel_requested : bool Atomic.t;
      (** set by [DELETE /jobs/<id>]; the runner polls it between
          batches *)
  mutable status : status;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable progress : int;  (** points evaluated so far *)
  mutable memo_hits : int;  (** points answered by the warm in-memory tier *)
  mutable disk_hits : int;  (** points promoted from the disk tier *)
  mutable cold : int;  (** points actually simulated *)
  mutable result : result option;
  mutable seq : int;  (** sequence number of the newest event *)
  mutable events : (int * Json.t) list;
      (** newest first, bounded; just the terminal event once finished
          and no longer watched *)
  mutable watched : bool;  (** a [submit ~watch] stream is still reading *)
}

val finished : job -> bool

val warm_hit_rate : job -> float
(** (memo + disk hits) / looked-up points so far; nan before any point
    was looked up. *)

val job_to_json : job -> Json.t
(** The wire shape of a job: id, scenario name, status, progress/total,
    timestamps, per-tier cache provenance, warm hit rate and (when
    finished) the result summary. *)

(** {2 The queue} *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] unless [capacity >= 1]. *)

val capacity : t -> int

val depth : t -> int
(** Jobs queued and not yet claimed (running jobs excluded). *)

val submit :
  ?watch:bool ->
  t ->
  Scenario.t ->
  (job, [ `Full of int | `Draining ]) Stdlib.result
(** Enqueue a new job (FIFO). [`Full depth] when the queue is at
    capacity - the caller rejects, never blocks; [`Draining] after
    {!drain}. [~watch:true] registers a stream that will read the job's
    events from the start: its event log is kept whole until that
    stream calls {!unwatch}, however soon the job finishes. *)

val claim : t -> job option
(** Block until a queued job is available and mark it [Running] (under
    the queue lock, so a concurrent cancel always observes a definite
    state); skips jobs cancelled while queued. [None] once the queue is
    empty and draining - the worker exit signal. *)

val retained_finished : int
(** Finished jobs kept for {!find} and {!jobs} (256): once more have
    finished, the one that finished earliest is forgotten. Queued and
    running jobs are always kept. *)

val find : t -> int -> job option
val jobs : t -> job list
(** Every retained job, oldest first. *)

val cancel : t -> int -> [ `Cancelled | `Cancelling | `Already_finished | `Unknown ]
(** Queued jobs cancel immediately ([`Cancelled], with a terminal event
    emitted, and their queue slot freed); running jobs get their flag set ([`Cancelling]) and the
    runner emits the terminal event when it notices. *)

val drain : t -> unit
(** Stop accepting submissions and wake every {!claim}er; already-queued
    jobs still run to completion (the graceful-shutdown contract). *)

val draining : t -> bool

(** {2 Progress events} *)

val emit : t -> job -> Json.t -> unit
(** Append an event to the job's bounded event log (the event object
    gains ["seq"] and ["id"] members) and wake all waiters. *)

val finish : t -> job -> ?result:result -> status -> Json.t -> unit
(** [finish t job ?result status ev] ends a running job: sets its
    result, terminal [status] and [finished_at], and emits the terminal
    event [ev], all under the queue lock - so a job is never seen
    finished before its terminal event is in the log. The event log then
    shrinks to that one event (once the watching stream, if any, is
    done).
    Raises [Invalid_argument] on a
    non-terminal status or a job already finished. *)

val events_after : t -> job -> int -> (int * Json.t) list * bool
(** Events with sequence number beyond the given one, oldest first, and
    whether the job had finished at that read - if so the job's terminal
    event is in the list or was returned before, and no event follows.
    Blocks until at least one event arrives, the job finishes, or a
    waker arrives (every state change broadcasts; the server's poll loop
    calls {!tick}) - callers loop, so a spurious empty return is fine. *)

val unwatch : t -> job -> unit
(** The stream registered by [submit ~watch:true] is done reading. *)

val tick : t -> unit
(** Wake every waiter (the liveness heartbeat behind
    {!events_after}). *)
