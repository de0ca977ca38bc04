(** The flat tree-witness rewriting (Kikot, Kontchakov & Zakharyaschev,
    KR 2012), standing in for Presto in the paper's experiments: an NDL
    program with one auxiliary predicate per tree witness and one goal clause
    per independent (atom-disjoint) set of tree witnesses.

    Its size is exponential in the number of compatible tree witnesses, but
    with a smaller base than PerfectRef — reproducing the middle column of
    Fig. 2 / Table 1. *)

open Obda_ontology
open Obda_cq

val independent_subsets :
  ?budget:Obda_runtime.Budget.t ->
  limit:int ->
  Tree_witness.t list ->
  Tree_witness.t list list
(** Every set of pairwise atom-disjoint tree witnesses.  Raises
    [Obda_runtime.Error.Obda_error (Budget_exhausted _)] with resource
    [Size] past [limit] sets. *)

val rewrite :
  ?budget:Obda_runtime.Budget.t ->
  ?max_subsets:int ->
  Tbox.t ->
  Cq.t ->
  Obda_ndl.Ndl.query
(** Raises [Obda_runtime.Error.Obda_error (Budget_exhausted _)] with
    resource [Size] when more than [max_subsets] independent tree-witness
    sets would be generated (default 100_000), and when the given budget
    is spent first. *)
