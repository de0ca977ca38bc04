(** Content-addressed LRU cache for NDL rewritings.

    Keys are {!Obda_rewriting.Omq.digest} strings, so two textually
    different but canonically equal OMQs share a slot.  The cache is
    bounded by an entry count and/or a total weight (the sum of
    {!Obda_ndl.Ndl.size} over resident rewritings); the least recently
    used entries are evicted when either bound is exceeded.

    Every lookup passes the [service.cache] fault-injection site.  The
    session's [cache.*] STATS rows read {!hits}, {!misses} and
    {!evictions}. *)

type t

val create : ?max_entries:int -> ?max_weight:int -> unit -> t
(** Omitted bounds are unlimited.  Raises [Invalid_argument] on a bound
    below 1. *)

val find_or_add :
  t -> key:string -> (unit -> Obda_ndl.Ndl.query) ->
  Obda_ndl.Ndl.query * [ `Hit | `Miss ]
(** Return the cached rewriting for [key], or run [build], cache its
    result and return it.  A hit refreshes the entry's recency (a no-op
    when the entry is already most recent); a miss may evict
    least-recently-used entries (never the one just inserted).
    Exceptions from [build] propagate and leave the cache — entries and
    counters alike — unchanged: a failed build is neither a hit nor a
    miss. *)

val mem : t -> string -> bool
val length : t -> int
val weight : t -> int
(** Σ {!Obda_ndl.Ndl.size} of resident rewritings. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val relinks : t -> int
(** Recency-list splices performed by hits: a repeated hit on the MRU
    entry takes the fast path and does not relink. *)

val keys_mru_first : t -> string list
(** Resident keys, most recently used first (for tests and STATS). *)
