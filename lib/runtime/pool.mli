(** A reusable pool of worker domains.  The network server
    ({!Obda_service.Server}) runs its accept loop and connection workers
    on one.

    A pool of [jobs] workers keeps [jobs - 1] domains parked between calls;
    the calling domain participates as worker 0.  With [jobs = 1] no
    domains exist at all and {!run} degenerates to a plain call.

    The pool makes no scheduling decisions: {!run} hands every worker its
    index and the caller is responsible for partitioning the work.

    The symbol interner and the telemetry sink are mutex-guarded, so
    worker bodies may intern and observe (the network server's connection
    workers do both).  The fault registry's activation counters are still
    single-domain: deterministic fault plans require sequential request
    execution. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] domains).  Raises
    [Invalid_argument] when [jobs < 1]. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f 0 .. f (jobs - 1)] concurrently, [f 0] on the
    calling domain, and returns when all have finished.  If any call
    raises, the remaining workers still run to completion (the pool stays
    reusable) and the first exception — caller's first, then by worker
    index — is re-raised.  Not reentrant: at most one [run] per pool at a
    time.  Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)
