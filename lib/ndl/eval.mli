(** Bottom-up evaluation of datalog over a data instance.

    Every IDB predicate is fully materialised in dependence order, exactly
    like the RDFox configuration used in the paper's Appendix D (no magic
    sets).  Nonrecursive strata take a single pass; a recursive stratum
    (the engine accepts recursive programs, though the paper's rewritings
    never produce them) runs a semi-naïve fixpoint: per round, every
    recursive clause is rewritten into delta variants — one per in-stratum
    body atom, that atom probing the stratum's delta relation — so rounds
    only join against newly derived tuples.  Clause bodies are reordered
    and given per-atom access strategies by the cost model in {!Plan};
    [naive] restores the legacy written-order/index-only engine as a
    baseline.  The number of generated tuples is reported, matching the
    "generated tuples" columns of Tables 3–5; [tuples_read] counts the
    tuples the matcher pulled from storage, the measure the [eval-plan]
    bench gates on.

    {b Storage.}  A relation is one arity-strided [int] buffer of symbol
    ids, a row per insertion, made a set by an open-addressed table of row
    ids under an int-mixing hash.  An index on a position list is an
    open-addressed table of distinct keys, each heading a chain of the rows
    with that key, maintained on every add.  The matcher compiles each plan
    step's checks and bindings once, from the plan's static bound set, and
    reads, probes and adds rows in place, allocating per row only when a
    buffer grows.  Tuples become [Symbol.t list list] only in
    {!relation_tuples}. *)

open Obda_syntax
open Obda_data

exception Timeout

type relation
(** A set of constant tuples of fixed arity (the storage is described in
    the header). *)

val relation_arity : relation -> int
val relation_size : relation -> int
val relation_tuples : relation -> Symbol.t list list

type result = {
  answers : Symbol.t list list;  (** tuples of the goal relation, sorted *)
  generated_tuples : int;  (** Σ sizes of all materialised IDB relations *)
  tuples_read : int;
      (** tuples delivered from relation storage and domain sweeps;
          identical at every worker count *)
  idb_relations : relation Symbol.Map.t;
}

type plan_cache
(** Holds a compiled, planned program across runs of the same query value
    (physical identity).  A cached plan is reused until the ABox size
    drifts past a 2× threshold in either direction, at which point the
    next run replans (counted by the ["eval.plan.replans"] telemetry
    counter).  Concurrent runs sharing a cache (the server's ANSWER path)
    race only on which thread's plans get memoised: plans are immutable
    data valid for any instance, so a lost race costs duplicated planning
    work, never wrong answers. *)

val plan_cache : unit -> plan_cache
(** A fresh, empty cache — typically one per prepared query. *)

val run :
  ?pool:Obda_runtime.Pool.t ->
  ?plan:plan_cache ->
  ?naive:bool ->
  ?observe:bool ->
  ?budget:Obda_runtime.Budget.t ->
  ?deadline:(unit -> bool) ->
  ?edb:(Symbol.t -> int -> Symbol.t list list option) ->
  ?extra_domain:Symbol.t list ->
  ?explain:(string -> unit) ->
  Ndl.query -> Abox.t -> result
(** Raises [Timeout] whenever [deadline ()] becomes true.

    [plan] caches the compiled program (clause order, per-atom strategies,
    the fixpoint's delta variants) across runs; without it every run plans
    afresh.  [naive = true] selects the legacy baseline: written-order
    heuristic, maintained-index probes only, and a naïve fixpoint that
    re-derives every recursive clause from the full relations each round.

    [explain] receives one line per planned clause (chosen order, per-atom
    strategy, cardinality estimates) as plans are computed; a cached run
    computes no plans and emits nothing.

    [pool] enables the parallel driver: for every stratum of [Ndl.strata]
    — and every round of a recursive stratum's fixpoint — clause bodies
    are evaluated concurrently by the pool's workers (the first planned
    atom's rows are partitioned across workers by row hash) and the
    derived relations are merged at the stratum or round barrier.  Plans
    are computed once per clause on the main domain, so workers know every
    index position statically and perform pure reads of the shared
    relations.  Answers are byte-identical to the sequential engine for
    any worker count (relations are sets and the answer view is sorted).
    Each worker runs under a [Budget.slice] of [budget], so step/size caps
    and the wall deadline still bind globally (a budget error from a
    worker reports its slice's limits).  A pool with one worker, or no
    pool, is exactly the sequential engine.

    [observe = false] runs without touching the global telemetry sink or
    the fault registry — required when the caller itself runs on a worker
    domain (the service layer's BATCH path); those globals are
    single-domain.

    [budget] is checked on every matcher step (a budget step per visited
    search node, a size unit per materialised tuple); exhaustion raises
    [Obda_runtime.Error.Obda_error (Budget_exhausted _)].  The legacy
    [deadline] thunk is kept for callers that manage their own clock.

    [edb] supplies tuples for extensional predicates not stored in the ABox
    (e.g. the n-ary relations of a mapped data source); it is consulted
    first, with the ABox as fallback.  A supplied tuple whose length is not
    the atom's arity, like a predicate used at two arities, raises
    [Obda_runtime.Error.Obda_error (Parse_error _)].  [extra_domain]
    extends the active domain (⊤) beyond ind(A). *)

val answers :
  ?pool:Obda_runtime.Pool.t ->
  ?observe:bool ->
  ?budget:Obda_runtime.Budget.t ->
  ?plan:plan_cache ->
  ?naive:bool -> Ndl.query -> Abox.t -> Symbol.t list list

val boolean : Ndl.query -> Abox.t -> bool
(** For a 0-ary goal: whether the goal is derivable. *)

val explain :
  ?naive:bool ->
  ?edb:(Symbol.t -> int -> Symbol.t list list option) ->
  Ndl.query -> Abox.t -> string list
(** Evaluate the query (unobserved) and return one line per planned clause
    describing the chosen atom order and access strategies.  Evaluation is
    required for honest plans: later strata are planned against the true
    sizes of the relations the earlier ones materialised. *)

(** Testing and benchmarking hooks for the relation storage (see the
    header).  The evaluator's performance contract, pinned by the unit
    suite: an index over a position list is built by a full scan exactly
    once per relation and maintained incrementally by additions —
    semi-naïve re-rounds must not rebuild it — and {!relation_tuples}
    memoises its sorted view until the next mutation.  A [Hash] plan step
    builds the same index per clause evaluation without registering it, so
    it counts no build.  The hooks raise [Invalid_argument] on a tuple,
    row or key of the wrong length. *)
module Internal : sig
  val relation_create : int -> relation
  val relation_add : relation -> Symbol.t list -> bool
  val relation_lookup : relation -> int list -> Symbol.t list -> Symbol.t list list
  (** The rows whose values at the positions equal the key, through the
      maintained index on those positions (built on first use); every row
      when the position list is empty. *)

  val add_row : relation -> int array -> bool
  (** {!relation_add} on a row of symbol ids of the relation's arity: the
      evaluator's own add path, with no conversion. *)

  val prober : relation -> int list -> int array -> int
  (** [prober r positions] resolves the maintained index on a non-empty
      position list (building it on first use); the function it returns
      counts the rows matching a key of symbol ids by walking the index in
      place, as the evaluator's [Index] steps do. *)

  val index_builds : relation -> int
  (** Number of full-scan index constructions performed on this relation. *)

  val index_positions : relation -> int list list
  (** The position lists currently indexed, one entry per index. *)

  val sorted_view_memoised : relation -> bool
  (** Whether a memoised {!relation_tuples} view is currently live. *)
end
