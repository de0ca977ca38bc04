(** Data instances (ABoxes): finite sets of unary and binary ground atoms.

    Each predicate's facts of one arity are one flat {!Relation.t} (a
    predicate used at two arities has two); a binary relation maintains its
    [[0]] and [[1]] indexes, the adjacency in both directions.  The
    datalog engine reads these relations in place. *)

open Obda_syntax
open Obda_ontology

type const = Symbol.t

type fact =
  | Concept_assertion of Symbol.t * const  (** A(a) *)
  | Role_assertion of Symbol.t * const * const  (** P(a,b) *)

val pp_fact : Format.formatter -> fact -> unit

type t

val create : unit -> t
val copy : t -> t
(** An independent instance with the same facts: a flat copy of every
    relation. *)

val of_facts : fact list -> t
val to_facts : t -> fact list
val add_unary : t -> Symbol.t -> const -> unit
val add_binary : t -> Symbol.t -> const -> const -> unit

val add_role : t -> Role.t -> const -> const -> unit
(** [add_role a ρ c d] adds P(c,d) if ρ = P and P(d,c) if ρ = P⁻. *)

val add_fact : t -> fact -> unit

val remove_unary : t -> Symbol.t -> const -> bool
(** [true] iff the atom was present (and is now gone). *)

val remove_binary : t -> Symbol.t -> const -> const -> bool
val remove_fact : t -> fact -> bool

val revision : t -> int
(** A counter bumped on every effective mutation (add or remove of an atom
    not already in / still in the instance).  Two observations of the same
    revision on the same instance guarantee the data has not changed in
    between — the change-detection hook behind cached consistency checks
    and the query service's dirty tracking. *)

val snapshot : t -> t
(** An O(1) copy-on-write snapshot: the result shares the live instance's
    relations and ind(A) and carries its current {!revision}.  The
    relation is the copy-on-write unit: the first effective mutation of
    predicate [p] on either side — original or snapshot — copies the
    predicate maps, in O(#predicates), and [p]'s relation, in O(|p|)
    buffer copies with no rehash, then writes the copy; later writes to [p]
    on that side go in place.  ind(A) is persistent
    and needs no copy.  The first write to a snapshot also counts the
    occurrences of its individuals once, in O(|A|), since the counts
    belong to the record that maintains them.  So a snapshot is immutable
    for as long as its holder does not mutate it, no matter what happens
    to the original.  This is the isolation mechanism behind the query
    service: every [ANSWER]/[BATCH] evaluates against a frozen revision
    while concurrent writers advance the live store to new ones.
    Snapshots of snapshots are equally O(1).

    Mutation and snapshotting on the same instance must still be
    serialised externally (the service session holds its lock around
    both); the guarantee is that a snapshot taken under that discipline
    can then be {e read} from any number of domains with no further
    synchronisation, because the relations it points at are never written
    again. *)

val relation : t -> Symbol.t -> arity:int -> Relation.t option
(** The relation holding the predicate's facts of that arity, [None] when
    it holds none.  For reading only: on a {!snapshot}, from any number of
    domains.  Readers must not register indexes on it; the binary
    relations' [[0]] and [[1]] indexes and the row set answer every probe
    of a unary or binary atom. *)

val mem_unary : t -> Symbol.t -> const -> bool
val mem_binary : t -> Symbol.t -> const -> const -> bool
val mem_role : t -> Role.t -> const -> const -> bool
val mem_fact : t -> fact -> bool

val individuals : t -> const list
(** ind(A), sorted, in O(|ind(A)|): the set is maintained by every write
    (a retraction drops an individual when its last atom goes) and shared
    by snapshots. *)

val num_individuals : t -> int
(** |ind(A)|, in O(1). *)

val num_atoms : t -> int
val unary_preds : t -> Symbol.t list
val binary_preds : t -> Symbol.t list
val unary_members : t -> Symbol.t -> const list
val binary_members : t -> Symbol.t -> (const * const) list

val successors : t -> Symbol.t -> const -> const list
(** [{b | P(a,b) ∈ A}]: one probe of P's [[0]] index and a walk of its
    chain, O(1 + |result|), plus the list it builds. *)

val predecessors : t -> Symbol.t -> const -> const list
(** [{a | P(a,b) ∈ A}], the same way through P's [[1]] index. *)

val role_successors : t -> Role.t -> const -> const list
(** ρ-successors, resolving inverses. *)

val pp : Format.formatter -> t -> unit

(** {1 Binary serialization}

    A self-contained canonical binary encoding, used by the service
    layer's checkpoint files.  Symbols are written as a length-prefixed
    string dictionary (interned symbols are process-local and must never
    cross a process boundary raw), atoms as dictionary indices; predicates
    and members are sorted, so equal instances — whatever their insertion
    history — serialize to identical bytes. *)

exception Corrupt of string
(** Raised by {!deserialize} on a malformed blob: bad magic, unsupported
    version, truncation, out-of-range dictionary index or trailing
    garbage. *)

val serialize : t -> string
(** The instance as a versioned binary blob (magic ["OBAX"], format
    version byte, dictionary, unary then binary relations).  The
    {!revision} counter is {e not} encoded: a {!deserialize}d instance is
    a fresh store whose revision counts its own insertions. *)

val deserialize : string -> t
(** Inverse of {!serialize} up to revision history.  Raises {!Corrupt} on
    malformed input. *)

(** {1 Interaction with an ontology} *)

val satisfies_concept : Tbox.t -> t -> const -> Concept.t -> bool
(** [satisfies_concept T A a τ] iff T,A ⊨ τ(a) — ABox-level instance check. *)

val complete : Tbox.t -> t -> t
(** The complete (w.r.t. the TBox) extension of the instance: all entailed
    ground atoms over ind(A) whose predicates appear in the TBox or the
    instance are added (including the normalisation predicates A_ρ). *)

val is_complete : Tbox.t -> t -> bool

val consistent : Tbox.t -> t -> bool
(** Whether (T, A) has a model, i.e. no disjointness or irreflexivity axiom
    is violated. *)
