(** Tree witnesses (Section 3.4, after [37]).

    For an OMQ (T, q(x)), a pair t = (t_r, t_i) of disjoint variable sets
    with t_i ≠ ∅ and t_i ∩ x = ∅ is a tree witness generated by ρ if the
    subquery q_t (the atoms of q with at least one variable in t_i) maps
    homomorphically into C_{T,{A_ρ(a)}} with exactly t_r sent to a. *)

open Obda_syntax
open Obda_ontology
open Obda_cq

type t = {
  roots : Cq.var list;  (** t_r, sorted *)
  interior : Cq.var list;  (** t_i, sorted *)
  atoms : Cq.atom list;  (** q_t *)
  generators : Role.t list;  (** all ρ generating t (non-empty) *)
}

val pp : Format.formatter -> t -> unit

val enumerate : ?limit:int -> Tbox.t -> Cq.t -> t list
(** All tree witnesses with connected t_i — sufficient for the rewriting of
    Section 3.4 (the completeness proof only produces connected interiors).
    [limit] bounds the number of connected candidate sets explored
    (default 100_000); exceeding it raises [Invalid_argument].

    One call tests each connected candidate t_i once.  A letter test first
    (arc consistency over the last letters of the nulls the interior could
    map to) rejects most non-witnesses without a model; the survivors are
    decided by {!Obda_chase.Certain.find_hom} into C_{T,{A_ρ(a)}} to depth
    |t_i| + 1, and each such (ρ, depth) model is built once per call and
    shared by its candidates.  Nothing is kept across calls.  Adds the
    number of witnesses to the [rewrite.tree_witnesses] counter. *)

val within : t list -> Cq.t -> t list
(** [within (enumerate T q) q'] keeps, in order, the witnesses whose
    interior lies in the existential variables of [q'].

    When [q'] is a subquery of [q] whose existential variables are
    existential in [q] and which keeps every atom of [q] mentioning one of
    them — as every subquery the Tw rewriter forms does, at any depth: a
    branch of q − z with z answer, or a component of q minus q_t with t_r
    answer — this equals [enumerate T q']: the same connected candidates,
    roots, atoms and generators, in the same order.  So the Tw rewriter
    enumerates each component of the CQ once and selects per subquery. *)
