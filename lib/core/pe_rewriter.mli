(** Positive-existential (PE) rewritings (Fig. 1(b)).

    The tree-witness PE-rewriting of [37]: q_tw = ⋁_Θ ∃y (⋀ atoms outside Θ
    ∧ ⋀_{t∈Θ} tw_t), over the independent (atom-disjoint) sets Θ of tree
    witnesses — the formula counterpart of {!Presto_like}.  Its size can be
    super-polynomial (that is the point of Fig. 1(b)); comparing it with the
    linear-sized NDL-rewritings reproduces the figure's message. *)

open Obda_ontology
open Obda_cq
module Pe = Obda_reductions.Pe

val rewrite : ?max_subsets:int -> Tbox.t -> Cq.t -> Pe.t
(** The PE-rewriting over complete data instances; the answer variables are
    free, every other variable is implicitly existentially quantified (the
    formula has no [Exists] node, so {!Pe.size} is the |q′| of Section 2).
    Raises [Obda_runtime.Error.Obda_error (Budget_exhausted _)] with
    resource [Size] beyond [max_subsets] independent sets (default
    100_000). *)

val matrix_depth : Pe.t -> int
(** Alternation depth of the ∧/∨ matrix (the k of Π_k-rewritings). *)

val certain_answers :
  Tbox.t -> Cq.t -> Pe.t -> Obda_data.Abox.t -> Obda_syntax.Symbol.t list list
(** Evaluate the PE-rewriting over the completion of the given instance with
    {!Pe.all_bindings} (for testing: agrees with the NDL rewritings). *)
