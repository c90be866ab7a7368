(** Persistent on-disk eval-cache tier (under the in-memory {!Eval}
    cache).

    One JSON record per evaluated (context, point) pair, content-addressed
    by {!Scenario.context_hash} and {!Space.params_hash}, conventionally
    under [results/cache/]. A handle is bound to one scenario's evaluation
    context at {!open_dir}. Because a record's file name is a function of
    (context, point), the tier keeps no index: {!open_dir} reads nothing,
    and {!find} reads only the one file its point would live in. A
    lookup therefore costs the same however many records - of this or any
    other context - the directory holds.

    Durability contract:
    - writes are atomic (temp file + rename in the same directory);
    - records carry a {!version} header - an entry written by a different
      version is a miss, which is how a perf-model change invalidates a
      stale cache;
    - records of another context (or, on a file-name collision, another
      point) are misses, never answers;
    - corrupt, truncated or otherwise unreadable records are counted in
      [stats.skipped] and answered as misses; the next {!store} of that
      point overwrites them. Nothing here raises on bad cache contents.

    Only (params, ttft, tbt) are stored; the rest of a {!Design.t} is
    rebuilt via {!Space.build} and {!Design.of_latencies}, producing a
    bitwise-equal design (latency bits are stored exactly, as IEEE-754 bit
    patterns). *)

type t

type stats = {
  hits : int;  (** {!find} calls answered by a healthy record *)
  stores : int;  (** records written by {!store} *)
  skipped : int;
      (** corrupt or version-stale records {!find} read and ignored *)
}

val version : int
(** Record-format/model generation. Bump to orphan every existing cache
    entry. *)

val default_dir : string
(** [results/cache] - where the CLI puts the cache unless told otherwise. *)

val open_dir : dir:string -> Scenario.t -> t
(** Create [dir] if needed (recursively) and bind a handle to the
    scenario's evaluation context. Reads no record. *)

val find : t -> Space.params -> Design.t option
(** Read the point's record, if any: [Some] for a healthy record of this
    context, version and point (counted in [stats.hits]); [None] for a
    missing, foreign, stale or corrupt one (the last two counted in
    [stats.skipped]). *)

val store : t -> Space.params -> Design.t -> unit
(** Write the point's record (temp file + atomic rename), replacing any
    record already at its name. Callers store only points they had to
    evaluate cold, so warm runs do no disk I/O. *)

val stats : t -> stats

(** {2 The lookup order} *)

type tier = Memo | Disk | Cold

val classify : t option -> Scenario.t -> Space.params -> tier
(** Where a point's design will come from, checked in the tiers' order:
    [Memo] when {!Eval.probe} finds it in memory; else [Disk] when the
    handle (if any) {!find}s it - the design is then promoted into the
    memo via {!Eval.seed}; else [Cold], to be simulated - and, by the
    caller, {!store}d. *)
