(** Goal-directed rewriting of an NDL program for one evaluation.

    {!transform} rewrites a program for the data it is about to run on, so
    that {!Eval} computes only what can reach its roots:

    - {b Pruning.}  A clause with an atom over an empty EDB relation, or
      over an IDB predicate left with no clause, derives nothing and is
      dropped (the least fixpoint, so a recursive predicate with no base
      case goes too).
    - {b Skipping.}  Only the clauses of the predicates the roots reach
      through surviving clauses are kept; every other stratum is skipped.
    - {b Restriction} (goal-directed only: magic sets for single-consumer
      predicates, Bancilhon, Maier, Sagiv and Ullman, PODS 1986).  Every
      IDB predicate's rows are estimated stratum by stratum with
      {!Plan.make}.  Then, top-down from the goal, a predicate [q] that is
      non-recursive, not the goal, and has exactly one surviving consumer
      atom, in a non-recursive clause whose estimated join order probes
      [q] on positions [K] after a non-empty prefix, gets
      [magic:q(t_K) <- prefix], and each clause of [q] gets [magic:q] of
      its head's [K] terms prepended: [q] is then computed only for the
      keys its consumer probes.  Restriction passes down chains, since the
      prefix of a restricted predicate's clause starts with its magic
      atom.  An atom over a renaming predicate (a {e view}, see {!Eval})
      counts as the permuted atom over its source.  Restriction is applied
      only when the estimated demand is at most half of [q]'s estimated
      distinct keys at [K].

    The result depends on the program and the data statistics only, never
    on the engine, so {!Eval}'s planned and naïve engines evaluate the same
    program.  Statistics are read through [relation], which must not
    register anything with the evaluator.  Magic predicates are named
    [magic:p] after the predicate [p] they restrict, so transforming a
    program again interns no new name; a program that already names a
    predicate [magic:...] is not restricted. *)

open Obda_syntax
open Obda_data

type restriction = {
  pred : Symbol.t;  (** the restricted predicate *)
  magic : Symbol.t;  (** its demand predicate, [magic:pred] *)
  positions : int list;  (** [K]: the probed positions, ascending *)
  demand : float;  (** estimated rows of the demand (the consumer's prefix) *)
  keys : float;  (** estimated distinct keys of the whole predicate at [K] *)
  full : float;  (** estimated rows of the whole predicate *)
}

type t = {
  query : Ndl.query;
      (** the program to evaluate: the surviving clauses of the needed
          predicates in written order, restricted clauses with their magic
          atom first, then the magic clauses *)
  dropped : (Ndl.clause * Ndl.atom) list;
      (** each dropped clause with its first atom that can hold nothing *)
  skipped : Symbol.t list list;
      (** the strata, with a surviving clause, that no root reaches *)
  restricted : restriction list;  (** top-down order *)
  cost : float Lazy.t;
      (** estimated tuples read by evaluating [query]: {!Plan.t.est_reads}
          summed over its clauses, planned stratum by stratum against the
          estimated sizes of the strata below *)
}

val transform :
  goal_directed:bool ->
  relation:(Symbol.t -> int -> Relation.t option) ->
  domain:int -> Ndl.query -> t
(** [goal_directed = true] roots the program at its goal alone and
    restricts; [false] makes every IDB predicate a root, so only pruning
    applies and every surviving predicate keeps all its rows.  [relation p
    arity] is the EDB relation of [p] at [arity], [None] when there is
    none; [domain] is the size of the active domain, for the estimates. *)

val edb_atoms : Ndl.query -> (Symbol.t * int) list
(** The EDB predicates the program reads, each with every arity it is read
    at: what decides which clauses {!transform} drops. *)

(** {1 Renamings} *)

type renaming = {
  src : Symbol.t;
  arity : int;
  perm : int array;
      (** [perm.(j)] is the head position of the body's [j]th variable *)
  identity : bool;  (** [perm.(j) = j] for every [j] *)
}

val renaming_of : Ndl.clause -> renaming option
(** [Some] for a renaming clause [p(a_π) <- s(a)]: one body atom over
    distinct variables, and a head that permutes them. *)
