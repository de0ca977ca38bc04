(** Pipeline telemetry: hierarchical spans, counters/gauges, pluggable sinks.

    The pipeline (chase, the six rewriters, both NDL evaluators) reports
    what it does through this module: {!with_span} brackets a stage and
    records wall time, nesting and outcome; {!incr}/{!count} accumulate
    event counts (clauses emitted, tuples derived, chase elements
    materialised); {!set_int}/{!set_float} record final quantities of a run
    (program size/width/depth, answer counts, budget headroom).

    Telemetry is {b disabled by default}: with no sink installed every
    entry point is a single load-and-branch on {!val-enabled}, so the hot
    loops pay one predictable branch per event and nothing allocates.  A
    sink is installed per run ({!install}/{!uninstall}, or the
    {!collecting} bracket); the state is a process-wide single slot, like
    the similarly-scoped loggers of the OCaml ecosystem.  Spans nest per
    domain: requests served concurrently on different domains each keep
    their own span tree.

    Metric names are dot-separated, lowercase, stable — they are part of
    the CLI surface (see README "Observability" for the full table and the
    paper quantity each corresponds to, e.g. [ndl.size] ↔ the size columns
    of Table 1). *)

type value = Int of int | Float of float

type outcome =
  | Completed
  | Failed of string
      (** the [Obda_runtime.Error.class_name] of the raised [Obda_error]
          (["parse"], ["not-applicable"], ["budget"], ["inconsistent"],
          ["internal"]), or ["exception"] for a foreign exception *)

type span = {
  id : int;  (** unique per installed sink, in span-opening order *)
  parent : int option;
  depth : int;  (** nesting level; 0 for a root span *)
  name : string;
  attrs : (string * string) list;
  start : float;  (** seconds since the sink was installed *)
  duration : float;  (** seconds *)
  outcome : outcome;
}

type kind = Counter | Gauge

type sink = {
  on_span : span -> unit;  (** called when a span closes *)
  on_metric : kind -> string -> value -> unit;
      (** called once per metric with its final value, at {!flush} time *)
  on_flush : unit -> unit;
}

(** {1 Recording — the instrumented pipeline calls these} *)

val enabled : unit -> bool
(** Whether a sink is installed.  Instrumentation whose event {e payload}
    is costly to compute (e.g. [Ndl.width]) guards on this explicitly; the
    recording functions below already no-op when disabled. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span around it.  The span's
    outcome is [Completed] on normal return and [Failed class] when [f]
    raises (the exception is re-raised).  When disabled this is
    [f ()] after one branch. *)

val incr : string -> unit
(** Add 1 to a counter. *)

val count : string -> int -> unit
(** Add [n] to a counter. *)

val set_int : string -> int -> unit
(** Set a gauge (last write wins — pipeline stages overwrite, so after a
    multi-stage rewriting the gauge describes the final program). *)

val set_float : string -> float -> unit

(** {1 Sink management} *)

val install : sink -> unit
(** Install [sink], making telemetry enabled.  Replaces (without flushing)
    any previously installed sink; use {!uninstall} first to flush. *)

val tap : sink -> unit -> unit
(** [tap s] tees [s] into the installed sink (or installs [s] alone when
    none is) and returns the function that puts the sink state from before
    back — a no-op once {!install}, {!uninstall} or {!collecting} replaced
    the slot.  The serve loop's slow-query log taps its sink this way,
    beside the sinks the CLI installed. *)

val uninstall : unit -> unit
(** Flush final metric values to the sink and disable telemetry.  No-op
    when disabled. *)

val flush : unit -> unit
(** Push current metric totals to the sink ([on_metric] per metric, then
    [on_flush]) without uninstalling. *)

val counter_value : string -> int
(** Current total of a counter (0 when absent or disabled). *)

val gauge_value : string -> value option

(** {1 Sinks} *)

val null_sink : sink
(** Discards everything — for measuring dispatch overhead. *)

val tee : sink list -> sink

val json_sink : ?spans:bool -> ?metrics:bool -> (string -> unit) -> sink
(** A JSON-lines writer: each completed span and each flushed metric
    becomes one JSON object passed (without trailing newline) to the given
    writer.  Span lines:
    [{"type":"span","id":3,"parent":1,"depth":1,"name":"rewrite.tw",
      "attrs":{...},"start_ms":0.21,"duration_ms":4.75,"outcome":"ok"}]
    (failed spans have ["outcome":"error","error_class":"budget"]).
    Metric lines: [{"type":"metric","kind":"counter","name":"ndl.clauses_emitted","value":42}].
    [spans]/[metrics] (default both [true]) select which events are
    written. *)

(** An in-memory sink: collects completed spans and final metric values
    for programmatic access (the bench harness) and the human [--stats]
    rendering. *)
module Collector : sig
  type t

  val create : unit -> t
  val sink : t -> sink

  val spans : t -> span list
  (** In completion order (a parent closes after its children). *)

  val counter : t -> string -> int
  (** Total of a counter, 0 when absent.  Populated at {!flush}. *)

  val gauge : t -> string -> value option
  val gauge_int : t -> string -> int option
  val gauge_float : t -> string -> float option

  val metrics : t -> (string * kind * value) list
  (** All flushed metrics, sorted by name. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable summary: the span tree (indented by nesting, with
      durations and outcomes) followed by the metrics table. *)
end

val collecting : (unit -> 'a) -> 'a * Collector.t
(** [collecting f] installs a fresh collector, runs [f], flushes, restores
    the previously installed sink (if any), and returns [f]'s result with
    the filled collector.  Events inside the bracket go only to the inner
    collector.  Exceptions from [f] propagate after the sink is restored. *)
