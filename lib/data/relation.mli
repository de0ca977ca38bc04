(** Flat relation storage, shared by the data instance ({!Abox}) and the
    datalog engine ([Ndl.Eval]).

    A relation keeps its rows back to back in one arity-strided [int]
    buffer of symbol ids; a row is named by its id, and ids [0 .. size - 1]
    are always in use: a removal moves the last row into the hole.  An
    open-addressed table of row ids (linear probing, load at most 1/2,
    backward-shift deletion) makes the buffer a set; a slot is one word,
    the row id over the low 32 bits of the row's hash under an int-mixing
    hash, or -1 when empty.  An index on a position list is a second such
    table with one slot per distinct key, holding the head of a chain of
    the rows with that key through [next].  Registered indexes are
    maintained on every add and remove, so probing one walks a chain in
    place; a probe on every position is a row-set lookup and needs no
    index.  Probes allocate nothing.  An add allocates only when the row
    buffer, the row set or an index outgrows its size and doubles; a
    relation created with the number of rows it will hold ([?capacity]),
    up to {!max_capacity}, never doubles its buffer or its row set.  A removal walks the chains
    of the removed and the moved row's keys.  Tuples become
    [Symbol.t list list] only in {!tuples}, in the order of {!sorted_ids}.

    The records are readable in place, for the engine's matcher; every
    write goes through the functions below.  A relation has one writer at
    a time; readers on other domains need it not to be written meanwhile,
    which {!Abox.snapshot}'s copy-on-write guarantees for its relations. *)

open Obda_syntax

type index = private {
  positions : int array;  (** the indexed positions, ascending *)
  mutable heads : int array;  (** key slots: a row with the key, chain head *)
  mutable next : int array;  (** row id -> next row with its key, or -1 *)
  mutable keys : int;  (** distinct keys *)
  key : int array;  (** the writer's scratch key *)
}

type t = private {
  arity : int;
  mutable data : int array;  (** row [id] at [id * arity ..] *)
  mutable size : int;
  mutable rows : int array;  (** the row set's slots *)
  mutable indexes : index list;  (** the registered indexes *)
  mutable index_builds : int;
      (** full-scan index constructions: one per registered position list,
          since adds and removes maintain them in place *)
}

val max_capacity : int
(** The most rows {!create} allocates up front, 2{^ 20}: a hint above it
    allocates this many and the relation doubles from there. *)

val create : ?capacity:int -> int -> t
(** An empty relation of the given arity, with room for [capacity] rows
    (at least 8, the default, and at most {!max_capacity}): a row buffer
    of that many rows and the smallest power-of-two row set, of at least
    16 slots, that holds them at load 1/2.  The capacity is a hint, not a
    bound: the relation holds the same rows under the same ids whatever it
    is, and grows past it by doubling. *)

val copy : t -> t
(** A flat copy, registered indexes included: buffer copies, no rehash. *)

val add : t -> int array -> int -> bool
(** [add r src off] adds the row [src.(off .. off + arity - 1)]; [false]
    when it was present. *)

val add_hashed : t -> int array -> int -> int -> bool
(** {!add} with the row's hash already known, as {!add_all} hands it to
    [on_new]. *)

val add_all : t -> t -> (int array -> int -> int -> unit) -> unit
(** [add_all dst src on_new] adds every row of [src] to [dst]; [on_new]
    receives each row that was new, as buffer, offset and hash. *)

val remove : t -> int array -> int -> bool
(** [remove r src off] removes the row; [false] when it was absent.  The
    last row takes the removed row's id. *)

val find : t -> int array -> int -> int
(** The id of the row [src.(off ..)], or -1: a row-set lookup. *)

val index : t -> int array -> index
(** The registered index on a position list, built by one full scan and
    registered on first use. *)

val find_index : t -> int array -> index option
(** The registered index on a position list, if any; builds nothing. *)

val build_index : t -> int array -> index
(** An index over the current rows that is not registered, so later writes
    do not maintain it: the planner's per-evaluation hash table. *)

val probe : index -> t -> int array -> int
(** The head of the chain of rows whose values at the index's positions
    are the key, or -1; the rest of the chain follows through [next]. *)

val covers_row : t -> int array -> bool
(** Whether a position list is every position in order, the probe a
    row-set lookup answers. *)

val lookup : t -> int array -> int array -> int list
(** The ids of the rows whose values at the positions equal the key:
    every row for no positions, a row-set lookup for every position, the
    registered index otherwise (registered on first use). *)

val sorted_ids : t -> int array
(** Row ids in lexicographic order of their values.  From 64 rows up, and
    when no value is negative, a stable least-significant-digit radix sort
    over the values as stored: one counting pass per 8-bit digit of a
    position's value less that position's minimum, positions from last to
    first, skipping a digit every row shares.  So ordering [n] rows costs
    [O(n)] per digit pass, with no comparison closure.  Fewer rows take a
    comparison sort, which is cheaper at that size. *)

val tuples : t -> Symbol.t list list
(** The rows as symbol tuples, in the order of {!sorted_ids}.  Reading
    writes nothing, so readers on other domains may share the relation. *)
