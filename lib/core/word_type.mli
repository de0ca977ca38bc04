(** Types in the sense of Sections 3.2 and 3.3: partial maps from query
    variables to witness words of W_T (the empty word ε denotes "mapped to an
    individual constant"). *)

open Obda_syntax
open Obda_ontology
open Obda_cq

type word = Role.t list
(** In reading order; [] is ε. *)

val pp_word : Format.formatter -> word -> unit
val compare_word : word -> word -> int

type t = word Cq.Var_map.t
(** A type w; absent variables are outside dom(w). *)

val candidates : Tbox.t -> max_depth:int -> word list
(** ε together with all words of W_T of length ≤ [max_depth]. *)

val locally_ok : Tbox.t -> Cq.t -> Cq.var -> word -> bool
(** The per-variable conditions: answer variables get ε; A(z) ∈ q needs ε or
    a last letter ρ with T ⊨ ∃y ρ(y,x) → A(x); P(z,z) ∈ q needs ε or
    reflexive P. *)

val pair_ok : Tbox.t -> Symbol.t -> word -> word -> bool
(** [pair_ok T P wy wz]: whether an atom P(y,z) is consistent with y, z being
    mapped according to the two words — conditions (i)–(iii) of
    "compatible" in Section 3.2. *)

val at_atoms :
  Tbox.t -> Cq.atom list -> scope:Cq.var list -> emit_for:(Cq.var -> bool) ->
  t -> Obda_ndl.Ndl.atom list
(** The conjunction At^s of Section 3.2 over the given atoms of q (in
    order) that lie within [scope] — the rewriters pass just those:
    (a) data atoms for ε-variables, (b) equalities when a variable is mapped
    into the anonymous part, (c) A_ρ(z) for variables whose word starts with
    ρ.  Only atoms having at least one variable satisfying [emit_for] are
    emitted (used by the Lin-rewriting to emit each atom exactly once), and
    (c) only for variables satisfying [emit_for]. *)
