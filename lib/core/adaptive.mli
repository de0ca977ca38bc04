(** Cost-based rewriting selection — the "adaptable splitting strategy"
    sketched in the paper's concluding discussion (Section 6): none of the
    three optimal rewritings dominates, so use statistics of the relational
    tables to estimate the evaluation cost of candidate NDL programs and
    pick the cheapest.

    A candidate's cost is {!Obda_ndl.Demand}'s estimate pass, the one cost
    model the evaluator plans with: the tuples {!Obda_ndl.Plan} estimates
    the goal-directed evaluation of the candidate reads, with EDB
    statistics read off the ABox and IDB cardinalities propagated stratum
    by stratum. *)

open Obda_ontology
open Obda_cq
open Obda_data

type candidate = { name : string; query : Obda_ndl.Ndl.query; cost : float }

val candidates : Tbox.t -> Cq.t -> Abox.t -> candidate list
(** Costed applicable variants: Lin with each endpoint (and the centre) as
    root, Log, Tw, and Tw* — all over arbitrary instances, sorted by
    estimated cost. *)

val choose : Tbox.t -> Cq.t -> Abox.t -> candidate
(** The cheapest candidate for this data. *)

val answer : Tbox.t -> Cq.t -> Abox.t -> Obda_syntax.Symbol.t list list
(** Answer with the chosen candidate. *)
