(** Ontology-mediated queries and the top-level rewriting/answering API.

    An OMQ is a pair Q(x) = (T, q(x)).  [classify] places it in the
    complexity landscape of Fig. 1; [rewrite] produces an NDL-rewriting with
    the requested algorithm (over complete or arbitrary data instances);
    [answer] evaluates a rewriting over an ABox, checking consistency
    first. *)

open Obda_syntax
open Obda_ontology
open Obda_cq
open Obda_data

type t = { tbox : Tbox.t; cq : Cq.t }

val make : Tbox.t -> Cq.t -> t

type algorithm =
  | Tw  (** Section 3.4: tree witnesses, LOGCFL, any-depth ontology *)
  | Lin  (** Section 3.3: slices, NL, finite-depth ontology *)
  | Log  (** Section 3.2: tree decomposition, LOGCFL, finite-depth ontology *)
  | Ucq  (** PerfectRef baseline (Clipper star) *)
  | Ucq_condensed  (** PerfectRef + subsumption pruning (Rapid star) *)
  | Presto_like  (** flat tree-witness baseline (Presto star) *)

val all_algorithms : algorithm list
val algorithm_name : algorithm -> string

val algorithm_of_string : string -> algorithm option
(** The CLI/protocol spellings: ["tw"], ["lin"], ["log"], ["ucq"]/["clipper"],
    ["ucq-condensed"]/["rapid"], ["presto"]/["flat-tw"] (case-insensitive). *)

val default_algorithm : t -> algorithm
(** [Tw] for forest-shaped CQs, [Log] otherwise — the choice [answer] makes
    when no algorithm is requested. *)

val applicable : algorithm -> t -> bool
(** Whether the algorithm's side conditions hold (tree shape, finite depth…). *)

val digest : ?over:[ `Complete | `Arbitrary ] -> algorithm -> t -> string
(** A content digest of (TBox, CQ, algorithm, [over]) (default
    [`Arbitrary]), canonical up to axiom and atom order — the
    content-addressed key under which the service layer caches rewritings:
    equal digests guarantee interchangeable rewritings. *)

type classification = {
  ontology_depth : Tbox.depth;
  treewidth : int;  (** upper bound from the decomposition *)
  tree_shaped : bool;
  leaves : int option;  (** for tree-shaped CQs *)
  linear : bool;
  classes : string list;
      (** the OMQ(·,·,·) classes of Fig. 1 the OMQ belongs to *)
}

val classify : t -> classification
val pp_classification : Format.formatter -> classification -> unit

val rewrite :
  ?budget:Obda_runtime.Budget.t ->
  ?over:[ `Complete | `Arbitrary ] ->
  ?consistency:bool ->
  algorithm -> t -> Obda_ndl.Ndl.query
(** Default [`Arbitrary].  The UCQ baselines are rewritings over arbitrary
    instances natively; Tw/Lin/Log are produced over complete instances and
    passed through the ∗-transformation (the linearity-preserving Lemma 3
    construction for Lin) when [`Arbitrary] is requested.

    When the algorithm's side conditions fail, raises
    [Obda_runtime.Error.Obda_error (Not_applicable _)]; when clause
    generation outgrows [budget], [Budget_exhausted].

    With [~consistency:true] (and [`Arbitrary]), the ⊥-axioms of the
    ontology are compiled in following the remark at the end of Section 2:
    the program outputs every tuple over the active domain when (T,A) is
    inconsistent, so [Eval] alone computes certain answers on any data. *)

val answer :
  ?budget:Obda_runtime.Budget.t ->
  ?explain:(string -> unit) ->
  ?on_inconsistent:[ `All_tuples | `Error ] ->
  ?algorithm:algorithm -> t -> Abox.t -> Symbol.t list list
(** Certain answers via rewriting + NDL evaluation.  Defaults to [Tw] for
    tree-shaped CQs and [Log] otherwise.  If (T,A) is inconsistent, every
    tuple over ind(A) is returned (of the answer arity), per the convention
    at the end of Section 2 — or, with [~on_inconsistent:`Error],
    [Obda_error (Inconsistent_data _)] is raised instead.

    Every call runs the consistency pre-check, which returns at once when
    the TBox has no ⊥-axiom.  Callers answering many queries over one
    instance keep their own verdict (the service layer's sessions memoise
    it per data revision).

    [explain] is handed to the {!Obda_ndl.Eval.run} that computes the
    answers and receives one line per planned clause of the rewriting (the
    [--explain] CLI output), under the same [budget]; it receives nothing
    when the inconsistency convention answers, since no rewriting is
    evaluated. *)

val all_tuples : Abox.t -> int -> Symbol.t list list
(** Every tuple over ind(A) of the given arity — the inconsistency
    convention of Section 2, exposed for callers that maintain their own
    consistency token (the service layer's sessions) and implement the
    convention themselves. *)

val answer_certain :
  ?budget:Obda_runtime.Budget.t ->
  ?on_inconsistent:[ `All_tuples | `Error ] ->
  t -> Abox.t -> Symbol.t list list
(** Ground-truth answers via the canonical model (chase), for testing. *)

(** {2 Graceful degradation} *)

type attempt = {
  algorithm : algorithm;
  trial : int;
      (** 1 for the first attempt of an algorithm, incremented per retry *)
  outcome : (unit, Obda_runtime.Error.t) result;
      (** [Ok ()] for the attempt that produced the answer; [Error e] with
          the [Not_applicable] or [Budget_exhausted] error that made the
          chain retry or fall through to the next algorithm *)
  duration : float;  (** wall-clock seconds spent on this attempt *)
}

type fallback_answer = {
  answers : Symbol.t list list;
  answered_by : algorithm option;
      (** [None] when the inconsistency convention produced the answers
          without running any rewriting *)
  attempts : attempt list;
      (** every attempt in chain order, the successful one (if any) last *)
}

val default_chain : algorithm -> algorithm list
(** The preferred algorithm followed by the always-applicable baselines:
    Presto*(TW), then the UCQ engines. *)

val answer_with_fallback :
  ?budget:Obda_runtime.Budget.t ->
  ?explain:(string -> unit) ->
  ?retries:int ->
  ?chain:algorithm list ->
  ?on_inconsistent:[ `All_tuples | `Error ] ->
  t -> Abox.t -> fallback_answer
(** Try each algorithm of [chain] (default
    [default_chain] of the OMQ's preferred algorithm) in order.  An attempt
    that raises [Not_applicable] or [Budget_exhausted] is recorded (with why
    it failed and how long it ran) and the next algorithm is tried under a
    fresh step/size allowance; the wall-clock deadline of [budget] is shared
    across attempts, so fallback never extends a request's total time
    allowance.  If every algorithm fails, the last error is re-raised.

    With [~retries] (default 0: one trial per algorithm), an attempt that
    fails with {e transient} exhaustion — [Budget_exhausted] on the steps
    or size of its own sub-budget, never on the shared wall clock — is
    retried up to [retries] times under sub-budgets whose step/size limits
    double per trial (via {!Obda_runtime.Budget.sub_scaled}).  A retry
    never starts once the request's wall deadline has passed, so the total
    time stays bounded by the deadline plus the granularity of one
    in-flight attempt's budget check.  Every trial appears in [attempts]
    with its [trial] number.

    [explain] is handed to every attempt's evaluation, as in {!answer}:
    an attempt that fails mid-evaluation has already reported the plans it
    computed, and an attempt that fails before evaluating reports none.

    Each attempt is additionally bracketed by an [omq.attempt] telemetry
    span (with [algorithm] and, on retries, [trial] attributes) when a sink
    is installed. *)
