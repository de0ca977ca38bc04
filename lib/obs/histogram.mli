(** Mergeable log-bucketed latency/size histograms — the third telemetry
    pillar, next to spans and counters.

    A histogram is a fixed array of [2^(1/4)]-ratio log buckets (about 19%
    relative width) plus a running sum.  Recording is lock-free (atomic
    bucket increments), so one histogram is shared by all the server's
    connection domains; merging is an exact bucket-wise integer sum, so it
    is associative and commutative — the serve-load bench's per-client
    histograms combine in any order with the same result.

    Recording is {b off by default}: {!record} with the global flag clear
    is one atomic load and one branch (the same ≤5 ns discipline the
    obs-overhead bench pins for [Obs] and [Fault]).  The server, the CLI
    serve path and the benches call {!set_enabled}; library code never
    does. *)

type t

val create : ?scale:float -> string -> t
(** A standalone histogram.  [scale] (default 1e6) is the integer
    resolution of the running sum — use [1e9] when recording seconds so
    the sum is exact to the nanosecond, [1.] when recording integer sizes. *)

val name : t -> string

val record : t -> float -> unit
(** Record one value (no-op unless {!set_enabled}).  Non-positive and NaN
    values clamp into the lowest bucket. *)

val set_enabled : bool -> unit
(** Arm or disarm recording process-wide. *)

val recording : unit -> bool

val merge_into : into:t -> t -> unit
(** Add [src]'s buckets and sum into [into] (atomically per bucket; exact). *)

val reset : t -> unit

(** {1 Buckets} *)

val buckets : int
(** Number of buckets, including the [+Inf] overflow bucket. *)

val bucket_of : float -> int

val bucket_upper : int -> float
(** Upper bound of a bucket; [infinity] for the overflow bucket.  A
    recorded value [v] satisfies
    [bucket_upper (bucket_of v) /. ratio < v <= bucket_upper (bucket_of v)]
    (away from the clamped extremes). *)

val ratio : float
(** The bucket ratio [2^(1/4)] — one bucket's relative error. *)

(** {1 Snapshots and quantiles} *)

type snapshot = {
  sname : string;
  scounts : int array;  (** per-bucket counts, length {!buckets} *)
  total : int;
  sum : float;  (** in recorded-value units *)
}

val snapshot : t -> snapshot

val quantile : snapshot -> float -> float
(** [quantile s q] for [q] in [0, 1]: the upper bound of the bucket
    holding the rank-[ceil (q * total)] smallest recorded value — so the
    exact value at that rank lies within one bucket ratio below the
    returned bound.  [0.] on an empty snapshot; monotone in [q]. *)

(** {1 The process-wide registry} *)

val registered : ?scale:float -> string -> t
(** Find or create the named histogram in the process-wide registry — the
    set the METRICS exposition renders. *)

val snapshots : unit -> snapshot list
(** Snapshots of every registered histogram, sorted by name. *)
