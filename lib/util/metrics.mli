(** Process-wide metrics registry: counters, gauges and log-scale
    histograms, with optional labels.

    Instrumented subsystems ({!Parallel}, the evaluation engine, the
    serving simulator) register their metrics by name at module
    initialisation - not behind a [lazy], which raises
    [CamlinternalLazy.Undefined] when two domains force it at once.
    Registration is mutex-guarded get-or-create, so the handle returned
    for a given (name, labels) pair is always the same underlying metric
    and increments from any module or domain accumulate in one place. Counters and histogram buckets are
    atomics - safe and cheap to bump from worker domains; sums use a
    compare-and-set loop.

    Histograms are log-scale: buckets at four per decade from 1 ns to
    1000 s (values at or below the floor land in an underflow bucket,
    values beyond the range in the top bucket). That spans kernel-level
    nanoseconds to sweep-level minutes with a bounded 50-slot array, which
    is what latency distributions need. {!quantile} answers from bucket
    upper bounds (a <= factor-of-1.78 overestimate).

    Everything exports as JSON ({!export}) and as an aligned summary table
    ({!summary_table}) - the end-of-run table [acs profile] prints. *)

type labels = (string * string) list

type counter
type gauge
type histogram

(** {2 Counters (monotone integers)} *)

val counter : ?labels:labels -> string -> counter
(** Get or create. Raises [Invalid_argument] if (name, labels) is already
    registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
(** [by] defaults to 1 and must be >= 0 (counters are monotone). *)

val counter_value : counter -> int

(** {2 Gauges (floats that can also accumulate)} *)

val gauge : ?labels:labels -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms (log-scale, seconds-oriented)} *)

val histogram : ?labels:labels -> string -> histogram

val observe : histogram -> float -> unit
(** NaN observations are counted in the underflow bucket (they carry no
    magnitude) and excluded from the sum. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the body and observe its wall-clock duration in seconds.
    Exception-safe: a raising body is still observed, then the exception
    propagates. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]: the upper bound of the bucket
    holding the [q]-th observation; [nan] on an empty histogram. Raises
    [Invalid_argument] outside [0, 1]. *)

val buckets : histogram -> (float * int) list
(** (upper bound in seconds, count) per non-empty bucket, ascending. The
    underflow bucket reports the range floor as its bound. *)

(** {2 Registry} *)

val reset : unit -> unit
(** Zero every registered metric in place. Handles stay valid (the
    registry keeps its entries), so instrumented modules that cached a
    metric keep reporting into it - this is what tests use for
    isolation. *)

val export : unit -> Json.t
(** [{"counters": [...], "gauges": [...], "histograms": [...]}], each
    entry carrying name, labels and current values; deterministic order
    (sorted by name, then labels). *)

val summary_table : unit -> Table.t
(** One row per metric: name{labels}, kind, value (count for histograms)
    and mean/p50/p95 in seconds for histograms. Rows are sorted like
    {!export}. *)
