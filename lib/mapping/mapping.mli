(** GAV mappings M from a relational source to the ontology vocabulary
    (Section 1 / reduction (1) of the paper).

    A mapping is a set of rules [S(x…) ← body] whose heads are unary or
    binary ontology atoms and whose bodies are conjunctions over the source
    relations (plus equalities).  Two evaluation modes are provided:

    - {!materialise}: compute the ABox M(D) explicitly and proceed as usual
      ("in practice, both!" — materialisation);
    - {!unfold}: splice the mapping under an NDL-rewriting so the rewriting
      evaluates directly over the source ("so there is no need to
      materialise M(D)"). *)

open Obda_syntax
open Obda_data

type rule = {
  head : Symbol.t * string list;  (** a unary or binary ontology atom *)
  body : Obda_ndl.Ndl.atom list;  (** over the source relations *)
}

type t = rule list

val rule : string -> string list -> Obda_ndl.Ndl.atom list -> rule
(** Convenience constructor; validates that head variables occur in the body
    and the head arity is 1 or 2. *)

val validate : t -> (unit, string) result

val materialise : t -> Source.t -> Abox.t
(** The instance M(D).  Raises [Obda_runtime.Error.Obda_error
    (Parse_error _)] when a body atom's arity differs from its source
    relation's, as does {!answers_virtual}. *)

val unfold : t -> Obda_ndl.Ndl.query -> Obda_ndl.Ndl.query
(** Replace the ontology's extensional predicates by their mapping
    definitions, yielding a program over the source schema. *)

val answers_virtual :
  t -> Obda_ndl.Ndl.query -> Source.t -> Symbol.t list list
(** Evaluate an (unfolded) rewriting directly over the source. *)
