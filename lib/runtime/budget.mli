(** Per-request resource budgets.

    A budget is created once per request (CLI invocation, server request,
    bench row) and threaded through the hot loops of the pipeline: chase
    materialisation, clause generation in the rewriters, and NDL fixpoint
    evaluation.  Each loop iteration calls {!step}; each unit of output
    (clause, tuple, chase element) calls {!grow}.  Both are cheap: the step
    counter is a single increment, and the wall clock is only consulted
    on the first step and then every [2^10] steps, so even a request that
    takes a handful of steps sees a spent allowance.

    Exhaustion raises
    [Error.Obda_error (Error.Budget_exhausted _)] so a runaway rewriting or
    evaluation terminates promptly instead of hanging or exhausting
    memory. *)

type t

val create : ?timeout:float -> ?max_steps:int -> ?max_size:int -> unit -> t
(** [timeout] is a wall-clock allowance in seconds, converted to an absolute
    deadline at creation time.  Omitted resources are unlimited. *)

val none : t
(** A shared budget with no limits; threading [none] never raises.  This is
    the default of every [?budget] parameter in the pipeline. *)

val is_limited : t -> bool

val sub : t -> t
(** A fresh budget for one attempt of a fallback chain: the step and size
    counters restart from zero with the same limits, but the absolute
    wall-clock deadline is shared with the parent, so retrying a request
    never extends its total time allowance. *)

val restart : t -> t
(** The whole allowance again, counted from now: the same limits, the
    step and size counters at zero, and the wall-clock deadline (when
    there is a timeout) at [now + timeout].  Restarting an unlimited
    budget gives an unlimited one.  Every served request runs under a
    restart of its session's budget. *)

val sub_scaled : factor:float -> t -> t
(** Like {!sub}, but the step and size {e limits} are multiplied by
    [factor] (rounded up, floor 1) — the escalated sub-budget of a retry.
    The wall-clock deadline is still shared verbatim, so escalation can
    never extend the request's total time allowance.  Raises
    [Invalid_argument] when [factor < 1]. *)

val step : t -> unit
(** Count one unit of work; raises [Budget_exhausted] when the step budget
    is spent or (checked on the first step and every 1024 steps) the
    deadline has passed. *)

val grow : ?by:int -> t -> unit
(** Count [by] (default 1) units of output; raises [Budget_exhausted] when
    the output-size cap is exceeded. *)

val charge : t -> int -> unit
(** [charge b n] counts [n] steps and [n] units of output at once, for work
    done in bulk (the engine answering a renaming from the relation it
    renames instead of copying it row by row): raises [Budget_exhausted]
    when the step or the size cap is exceeded, and consults the wall clock
    whenever the step count reaches 1 or passes a multiple of 1024, as
    {!step} does. *)

val check_deadline : t -> unit
(** Consult the wall clock immediately (for coarse-grained loops whose
    iterations are individually expensive). *)

val steps_spent : t -> int
val size_spent : t -> int

(** {2 Introspection}

    Read-only views of a budget's configuration and headroom, for
    telemetry and the CLI [--stats] report. *)

type limits = {
  timeout : float option;  (** the original allowance in seconds *)
  max_steps : int option;
  max_size : int option;
}

val limits : t -> limits
(** The limits this budget was created with ([None] = unlimited). *)

val steps_remaining : t -> int option
(** Steps left before exhaustion; [None] when unlimited. *)

val size_remaining : t -> int option

val wall_remaining : t -> float option
(** Seconds until the deadline (clamped at 0); [None] when no timeout. *)

val wall_exhausted : t -> bool
(** [true] once the deadline has passed ([false] when no timeout): the gate
    that stops a retry policy from starting another attempt. *)
