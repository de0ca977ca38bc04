(** A small textual format for ontologies, queries and data.

    Ontology files: one axiom per line, [#] starts a comment.
    {v
      A(x) -> B(x)            # concept inclusion
      A(x) -> P(x,_)          # A ⊑ ∃P     (underscore = existential)
      P(_,x) -> B(x)          # ∃P⁻ ⊑ B
      P(x,_) -> S(x,_)        # ∃P ⊑ ∃S
      P(x,y) -> S(x,y)        # role inclusion
      P(x,y) -> R(y,x)        # P ⊑ R⁻
      refl P                  # ∀x P(x,x)
      irrefl P
      A(x), B(x) -> false     # disjoint concepts
      P(x,y), S(x,y) -> false # disjoint roles
    v}

    Query files: a single rule
    {v q(x,y) <- R(x,z), A(z), S(z,y) v}

    Data files: whitespace-separated facts, with optional periods:
    {v A(a). R(a,b). S(b,c) v} *)

open Obda_ontology
open Obda_cq
open Obda_data

(** All parsers report failures by raising
    [Obda_runtime.Error.Obda_error (Parse_error _)] with a 1-based line
    (and, for lexical errors, column) location.  The [?file] argument and
    the verbatim offending line are recorded in the payload so the CLI can
    print a caret diagnostic.  Arity clashes and malformed query heads
    detected by the AST smart constructors are reported as parse errors
    too. *)

val ontology_of_string : ?file:string -> string -> Tbox.t
val query_of_string : ?file:string -> string -> Cq.t
val data_of_string : ?file:string -> string -> Abox.t

val facts_of_string : ?file:string -> string -> Abox.fact list
(** The facts of a data file in text order, repeats kept, with no instance
    built: the write path's parser ([ASSERT]/[RETRACT], WAL replay).
    [data_of_string] is [Abox.of_facts] over it. *)

val ontology_of_file : string -> Tbox.t
val query_of_file : string -> Cq.t
val data_of_file : string -> Abox.t

val mapping_of_string : ?file:string -> string -> Obda_mapping.Mapping.t
(** Mapping files: one GAV rule per line,
    {v Employee(x) <- employees(x,n,d,m)
       worksOn(x,p) <- contracts(x,p,r) v} *)

val source_of_string : ?file:string -> string -> Obda_mapping.Source.t
(** Source files: whitespace-separated ground rows of any arity:
    {v employees(e1,ada,research,e2). contracts(e1,warp,lead) v} *)

val mapping_of_file : string -> Obda_mapping.Mapping.t
val source_of_file : string -> Obda_mapping.Source.t

val ontology_to_string : Tbox.t -> string
(** Round-trips through [ontology_of_string]. *)

val query_to_string : Cq.t -> string
val data_to_string : Abox.t -> string

val facts_to_string : Abox.fact list -> string
(** One fact per line, in list order; round-trips through
    [facts_of_string].  [data_to_string] is this over [Abox.to_facts]. *)
