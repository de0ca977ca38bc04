(** Bottom-up evaluation of datalog over a data instance.

    {b Goal-directed answering.}  {!run} evaluates the program
    {!Demand.transform} derives from it for the data at hand: clauses over
    empty EDB relations (or over IDB predicates left with no clause) are
    dropped, strata the goal does not reach are skipped, and a
    non-recursive predicate with one consumer, probed there after a
    selective prefix, is computed only for the keys that prefix demands
    (magic sets restricted to single-consumer predicates).  {!materialise}
    makes every IDB predicate a root, so it only drops dead clauses and
    computes every relation in full, like the RDFox configuration of the
    paper's Appendix D (no magic sets): the generated tuples of Tables 3–5
    are its counts.  Both engines evaluate the same transformed program.

    Evaluation runs in dependence order.  Nonrecursive strata take a single pass; a recursive stratum
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

    {b Storage.}  Every relation is an {!Obda_data.Relation.t}.  The EDB
    relations are the ABox's own, read in place: the engine never
    registers an index on them or writes them, so a snapshot can be read
    from many domains at once.  A probe binding every position is a
    row-set lookup, which leaves a binary ABox relation's maintained
    [[0]] and [[1]] indexes to answer every other EDB probe.  The matcher
    compiles each plan step's checks and bindings once, from the plan's
    static bound set, and reads, probes and adds rows in place, allocating
    per row only when a buffer grows.  A non-recursive stratum's relation
    is created at the size its plans estimate, the sum of
    {!Plan.t.est_out} over its clauses, capped at |ind(A)|{^ arity}, at
    {!Obda_data.Relation.max_capacity} rows and, under a size cap, at the
    size the budget has left; so an accurately estimated relation never
    regrows.  The estimate is kept with the cached plan and the caps take
    O(1), so a cached run builds no ⊤ for it.  Fixpoint strata and the
    [naive] engine start at the default size and grow by doubling.

    {b Renamings.}  A clause [p(a_π) <- s(a)] — one body atom over
    distinct variables, a head that permutes them — only renames [s]'s
    columns, and the planned engine does not copy it.  A {e view} is a
    non-recursive IDB predicate other than the goal whose only clause is a
    renaming: it gets no relation, and every atom over it is compiled as
    the permuted atom over its source (chains of views compose), so plans,
    probes and planner statistics see the source.  Views are found once
    per program and kept by the {!plan_cache}.  A {e shared} stratum is
    decided per run: when every clause of a non-recursive stratum is a
    renaming and exactly one of their sources is non-empty as it runs,
    renamed by the identity, the stratum's relation is that source's
    relation.  Either way the predicate holds exactly the tuples a copy
    would, is counted in [generated_tuples] at its source's size and
    charged that much to the budget ({!Obda_runtime.Budget.charge}), and
    is never written: a shared ABox relation stays as unindexed and
    unwritten as every other.  [naive] copies every renaming, as the
    reference engine always has. *)

open Obda_syntax
open Obda_data

type result = {
  answers : Symbol.t list list;
      (** tuples of the goal relation, sorted by
          {!Obda_data.Relation.sorted_ids} *)
  generated_tuples : int;
      (** Σ sizes of the IDB relations of the evaluated program, as if every
          one were materialised: a view counts as the relation it renames.
          Under {!run} that program is the transformed one: a skipped
          predicate counts nothing, a restricted one its demanded rows, and
          the magic (demand) relations count too. *)
  tuples_read : int;
      (** tuples delivered from relation storage and domain sweeps *)
  idb_relations : Relation.t Symbol.Map.t Lazy.t;
      (** the relations of the evaluated program's IDB predicates, to read,
          built when forced: a view is then copied with its columns
          permuted, and a shared stratum is the relation it shares, an ABox
          relation included.  Under {!materialise} that is every IDB
          predicate of the program, one whose clauses were all dropped as
          an empty relation.  Under {!run} a predicate the goal does not
          need is absent, a restricted predicate holds only the rows its
          consumer demanded, and the [magic:] demand relations are
          included.  No answer path forces it. *)
}

type plan_cache
(** Holds a transformed, compiled, planned program across runs of the same
    query value (physical identity).  A cached plan is reused until the
    ABox size drifts past a 2× threshold in either direction, or an EDB
    relation the program reads turns empty or non-empty (the
    transformation depends on which are), at which point the next run
    transforms and replans (counted by the ["eval.plan.replans"] telemetry
    counter).  The cache keeps one plan per emptiness pattern, up to four,
    so data that empties and refills a relation replans once each way.
    Checking a cached plan costs one lookup per EDB predicate of the
    program.  Concurrent runs sharing a cache (the server's ANSWER path)
    race only on which thread's plans get memoised: plans are immutable
    data valid for any instance, so a lost race costs duplicated planning
    work, never wrong answers. *)

val plan_cache : unit -> plan_cache
(** A fresh, empty cache — typically one per prepared query. *)

val run :
  ?plan:plan_cache ->
  ?naive:bool ->
  ?budget:Obda_runtime.Budget.t ->
  ?edb:(Symbol.t -> int -> Symbol.t list list option) ->
  ?extra_domain:Symbol.t list ->
  ?explain:(string -> unit) ->
  Ndl.query -> Abox.t -> result
(** The goal's answers, computed goal-directed (see above).  [plan] caches
    the transformed and compiled program (the views, clause order,
    per-atom strategies, the fixpoint's delta variants) across runs;
    without it every run transforms and plans afresh.  [naive = true] selects the legacy baseline: written-order
    heuristic, maintained-index probes only, and a naïve fixpoint that
    re-derives every recursive clause from the full relations each round —
    the reference the differential tests and the [eval-plan] bench compare
    the planner against.

    [explain] receives, when the program is transformed, one line per
    dropped clause with the atom that killed it
    ([drop G(x) <- A(x), S(x,y)  empty S(x,y)]), per skipped stratum
    ([skip P]) and per restricted predicate, with its probed positions,
    its demand predicate, the estimated demand and distinct keys, and its
    estimated full size
    ([restrict Q on [0] by magic:Q  demand~4 of 250 keys  full~6.2e+03]).
    Then one line per planned clause (chosen order, per-atom strategy,
    cardinality estimates) as plans are computed, so the lines describe
    this run: later strata are planned against the true sizes of the
    relations earlier ones materialised.  A cached run computes no plans
    and emits none of these lines.  Every run ends with one line per
    restricted predicate giving the rows it holds ([restricted Q rows=5]).  Each view and each shared stratum of
    the run gets a line too, its clause followed by [  view] or
    [  shared]: [Gtw4(x1,x0) <- R*(x0,x1)  view].

    Each run is one [eval.ndl] telemetry span ([plan=fresh|cached|
    replanned|naive]).  [eval.derived_facts] counts derived tuples once
    per derived straight stratum, from the size of its fresh relation, and
    once per fixpoint round, from the tuples the round found new.

    [budget] is checked on every matcher step (a budget step per visited
    search node, with the wall clock consulted on the first step and every
    1024 steps, and a
    size unit per materialised tuple; a view or shared stratum is charged
    its source's size in both at once); exhaustion raises
    [Obda_runtime.Error.Obda_error (Budget_exhausted _)].

    [edb] supplies tuples for extensional predicates not stored in the ABox
    (e.g. the n-ary relations of a mapped data source); it is consulted
    first, with the ABox as fallback.  A supplied tuple whose length is not
    the atom's arity, like a predicate used at two arities, raises
    [Obda_runtime.Error.Obda_error (Parse_error _)].  [extra_domain]
    extends the active domain (⊤) beyond ind(A).

    ⊤ is built on demand, from {!Abox.individuals} (sorted already; only a
    non-empty [extra_domain] costs a sort): by the planner's statistics,
    or by a [Dom] step or an [Eq] step that binds both sides from ⊤.  A
    run on a cached plan that has no such step does no work proportional
    to ind(A). *)

val materialise :
  ?naive:bool ->
  ?budget:Obda_runtime.Budget.t ->
  ?edb:(Symbol.t -> int -> Symbol.t list list option) ->
  ?extra_domain:Symbol.t list ->
  ?explain:(string -> unit) ->
  Ndl.query -> Abox.t -> result
(** Every IDB predicate in full, as {!run} with every IDB predicate a root:
    clauses that can derive nothing are dropped, nothing is skipped or
    restricted, and [idb_relations] holds every predicate of the program.
    For callers that need whole relations (a mapping's materialised ABox,
    the generated tuples of Tables 3–5).  Never cached. *)

val answers :
  ?budget:Obda_runtime.Budget.t ->
  ?plan:plan_cache -> Ndl.query -> Abox.t -> Symbol.t list list
(** The goal tuples of {!run} with the planner; the legacy baseline is
    [run ~naive:true] only. *)

val boolean : Ndl.query -> Abox.t -> bool
(** For a 0-ary goal: whether the goal is derivable. *)
