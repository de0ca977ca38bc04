(** A PerfectRef-style UCQ rewriter (Calvanese et al. 2007), standing in for
    the UCQ-based engines Rapid and Clipper of the paper's experiments
    (Section 6): it exhibits the same exponential behaviour on the
    OMQ(1,1,2) sequences.

    Starting from the input CQ, atoms are rewritten backwards through the
    (saturated) ontology axioms and unifiable atoms are merged (the "reduce"
    step) until a fixpoint; the result is returned as an NDL program with one
    clause per CQ.  The rewriting is over arbitrary data instances. *)

open Obda_ontology
open Obda_cq

val rewrite_cqs :
  ?budget:Obda_runtime.Budget.t -> ?max_cqs:int -> Tbox.t -> Cq.t -> Cq.t list
(** The CQs of the UCQ-rewriting (the input CQ included) that have distinct
    answer variables; CQs where reduce unified two distinguished variables
    (they repeat a head variable) are only representable in the NDL form and
    are omitted here.  Raises [Obda_runtime.Error.Obda_error
    (Budget_exhausted _)] with resource [Size] beyond [max_cqs] (default
    100_000). *)

val rewrite :
  ?budget:Obda_runtime.Budget.t ->
  ?max_cqs:int ->
  Tbox.t ->
  Cq.t ->
  Obda_ndl.Ndl.query
(** [rewrite_cqs] as an NDL query (the Clipper* baseline). *)

val rewrite_condensed :
  ?budget:Obda_runtime.Budget.t ->
  ?max_cqs:int ->
  Tbox.t ->
  Cq.t ->
  Obda_ndl.Ndl.query
(** Like [rewrite], but prunes CQs subsumed by another CQ of the union
    (the Rapid* baseline — Rapid performs similar minimisations). *)

val subsumes : Cq.t -> Cq.t -> bool
(** [subsumes q1 q2]: there is an answer-variable-preserving homomorphism
    from q1 into q2 (so q2's answers are contained in q1's). *)
