(** Cost-based join planning for compiled NDL clause bodies.

    A clause body is compiled to a sequence of {!step}s: the planner
    estimates per-atom cardinality from relation sizes and bound-variable
    selectivity (distinct-key counts off the evaluator's existing indexes
    when one is built, a domain-based estimate otherwise), greedily
    reorders the atoms to minimise the estimated intermediate result, and
    picks an access strategy per atom.  Plans are pure data: every probe
    position is static, so the evaluator compiles each step's checks and
    bindings once, before it reads a row. *)

open Obda_syntax

(** {1 Compiled atoms} *)

type cterm = CV of int | CC of int
(** A clause term after variable numbering: variable slot or constant. *)

type catom =
  | CPred of Symbol.t * cterm array
  | CEq of cterm * cterm
  | CDom of cterm

(** {1 Plans} *)

type strategy =
  | Scan  (** enumerate all tuples, filter inline — tiny or unbound atoms *)
  | Index
      (** probe the relation's maintained incremental index on the bound
          positions; build-once amortised across clauses and rounds, so it
          beats a fresh hash table whenever probes are selective *)
  | Hash
      (** build a transient hash table on the bound positions, once per
          clause evaluation, never registered on the relation — for
          transient relations (semi-naïve deltas) where a maintained index
          would be rebuilt every round *)

type step = {
  atom : catom;
  probe : int list;
      (** positions bound when the step runs (ascending); [[]] for
          non-predicate atoms and unbound scans *)
  strategy : strategy;  (** meaningful for [CPred] steps *)
  est_matches : float;  (** estimated matching tuples per probe *)
}

type t = {
  steps : step list;
  order : int list;
      (** the written position of each step's atom, in step order *)
  est_reads : float;  (** estimated tuples read by the whole body *)
  est_out : float;
      (** estimated matches of the whole body, so head tuples emitted
          before duplicates are dropped: the product of the steps'
          [est_matches].  [Eval] sums it over a stratum's clauses to size
          the stratum's relation when it creates it.  0 in a {!trivial}
          plan. *)
  reordered : bool;  (** the order differs from the written body *)
}

(** {1 Statistics sources} *)

type stats = {
  card : Symbol.t -> int;  (** current cardinality of a relation *)
  distinct : Symbol.t -> int list -> int option;
      (** exact distinct-key count from an already-built index, if any *)
  transient : Symbol.t -> bool;
      (** relations replaced wholesale between evaluations (deltas) *)
  domain : int;  (** size of the active domain *)
}

val scan_cutoff : int
(** Relations at or below this cardinality are always scanned: probing —
    let alone building anything — loses to walking a handful of tuples. *)

val compile : Ndl.clause -> int * string array * cterm array * catom list
(** A clause with its variables numbered in {!Ndl.clause_vars} order: the
    number of variables, their names by slot, the head and the body. *)

val distinct_keys : stats -> Symbol.t -> int list -> int -> float
(** [distinct_keys stats p probe card]: the distinct keys the planner
    assumes on [probe] of [p], a relation of [card] rows — exact when
    [stats.distinct] knows them, else at most |domain|{^|probe|}, and at
    least 1. *)

val make : stats -> nvars:int -> catom list -> t
(** Cost-based plan: greedy reorder plus per-atom strategy choice. *)

val trivial : nvars:int -> catom list -> t
(** Wrap an externally ordered body with no reordering and the legacy
    strategy (always probe the maintained index): the naïve baseline. *)

val describe : names:string array -> t -> string
(** One-line rendering of the chosen order and strategies, for
    [--explain]: variable slots are shown via [names]. *)
