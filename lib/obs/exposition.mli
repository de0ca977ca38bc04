(** The service's metrics as typed rows, each declared with its kind by
    the module that counts it, and their renderings: the [STATS] text,
    the Prometheus-style exposition of the [METRICS] verb (the feed of
    [obda top]), and the metrics of the installed telemetry sink.

    A render appends every histogram in the {!Histogram} registry as
    cumulative [_bucket{le="..."}] lines with [_sum] and [_count].  Sample
    names are the row/histogram names with non-alphanumerics replaced by
    ['_'] and an [obda_] prefix.  Latency histograms record seconds. *)

type value =
  | Int of int
  | Float of { value : float; decimals : int }  (** [STATS] prints [decimals] places *)
  | Bool of bool option  (** [yes], [no] or [unknown] *)
  | Span of (int * int) option  (** a revision span: ["lo-hi"], or ["-"] *)

type row = Counter of string * int | Gauge of string * value

val stats_line : row -> string
(** ["name value"]: the row as the [STATS] verb prints it. *)

val render : row list -> string
(** The exposition text, one line per [# TYPE] comment or sample, with a
    trailing newline: each row as samples under its kind — a number as
    itself, [yes]/[no] as 1/0, a span as [_lo]/[_hi] gauges, [unknown]
    and ["-"] as none — then the histograms.  Guarded by the [obs.export]
    fault site: an armed fault raises the injected [Obda_error] before
    anything is rendered. *)

val publish : row list -> unit
(** Record the rows' samples, under their [STATS] names, as metrics of
    the installed telemetry sink (counters added, gauges set), reported at
    its next {!Obs.flush}.  A no-op when telemetry is disabled. *)

val sanitize : string -> string
(** The exposition name of a row or histogram ([obda_] prefix, ['_'] for
    anything outside [[A-Za-z0-9_]]). *)
