open Obda_syntax
open Obda_data
module Budget = Obda_runtime.Budget
module Error = Obda_runtime.Error
module Fault = Obda_runtime.Fault
module Pool = Obda_runtime.Pool
module Obs = Obda_obs.Obs

exception Timeout

(* ------------------------------------------------------------------ *)
(* Relations

   A relation keeps its rows back to back in one arity-strided [int]
   buffer; a row is named by its id, its rank in insertion order, and rows
   are never moved or removed.  An open-addressed table of row ids (linear
   probing, load at most 1/2, each slot paired with its row's hash) makes
   the buffer a set.  An index on a position list is a second such table
   with one slot per distinct key, holding the newest row with that key;
   [next] chains each row to the previous row with the same key.  Indexes
   are maintained on every add, so probing one walks a chain in place.
   Adds and probes allocate nothing beyond amortised buffer growth. *)

(* Row hashes: an odd-multiplier fold over the values, then a xor-shift
   finaliser that brings the high bits down to the slot bits.  Symbol ids
   are small dense ints, so the finaliser matters. *)
let hash_seed = 0x2545F4914F6CDD1D
let[@inline] hash_step h v = (h + v) * 0x3f58476d1ce4e5b9

let[@inline] hash_finish h =
  let h = (h lxor (h lsr 31)) * 0x14d049bb133111eb in
  (h lxor (h lsr 29)) land max_int

(* The hash of [n] values from [a.(i)]; a key buffer and the row it
   matches hash alike. *)
let hash_values a i n =
  let h = ref hash_seed in
  for k = i to i + n - 1 do
    h := hash_step !h a.(k)
  done;
  hash_finish !h

let rec values_equal a i b j n =
  n = 0 || (a.(i) = b.(j) && values_equal a (i + 1) b (j + 1) (n - 1))

(* A row (at offset [i] of [a]) matches a key buffer on [positions]. *)
let rec matches_key a i positions key k =
  k = Array.length key
  || a.(i + positions.(k)) = key.(k) && matches_key a i positions key (k + 1)

(* An open-addressed table: [2 * s] holds the row id at slot [s] (-1 when
   empty), [2 * s + 1] its hash.  The slot count is a power of two. *)
let empty_slots n = Array.make (2 * n) (-1)
let[@inline] slot_mask slots = (Array.length slots lsr 1) - 1

(* Rehash every occupied slot into a table twice the size. *)
let grow_slots slots =
  let bigger = empty_slots (Array.length slots) in
  let mask = slot_mask bigger in
  for s = 0 to (Array.length slots lsr 1) - 1 do
    let id = slots.(2 * s) in
    if id >= 0 then begin
      let h = slots.((2 * s) + 1) in
      let t = ref (h land mask) in
      while bigger.(2 * !t) >= 0 do
        t := (!t + 1) land mask
      done;
      bigger.(2 * !t) <- id;
      bigger.((2 * !t) + 1) <- h
    end
  done;
  bigger

type index = {
  positions : int array;
  mutable heads : int array;  (* key slots: newest row with the key *)
  mutable next : int array;  (* row id -> older row with its key, or -1 *)
  mutable keys : int;  (* distinct keys *)
  key : int array;  (* scratch: the key of the row being inserted *)
}

type relation = {
  arity : int;
  mutable data : int array;  (* row [id] at [id * arity ..] *)
  mutable size : int;
  mutable rows : int array;  (* the row set's slots *)
  mutable indexes : index list;
  mutable index_builds : int;
      (* full-scan index constructions — additions maintain existing
         indexes incrementally, so this stays at one per position list *)
  mutable sorted_view : Symbol.t list list option;
      (* memoised [relation_tuples] result, invalidated on mutation *)
}

let relation_create arity =
  {
    arity;
    data = Array.make (8 * arity) 0;
    size = 0;
    rows = empty_slots 16;
    indexes = [];
    index_builds = 0;
    sorted_view = None;
  }

let relation_arity r = r.arity
let relation_size r = r.size

(* The slot holding the row equal to [src.(off ..)] (hash [h]), or the
   empty slot where it belongs. *)
let rec find_row slots mask data arity src off h s =
  let id = slots.(2 * s) in
  if id < 0
     || slots.((2 * s) + 1) = h && values_equal data (id * arity) src off arity
  then s
  else find_row slots mask data arity src off h ((s + 1) land mask)

(* The key slot of the rows matching [key], or the empty slot where the key
   belongs. *)
let rec find_key slots mask data arity positions key h s =
  let id = slots.(2 * s) in
  if id < 0
     || slots.((2 * s) + 1) = h && matches_key data (id * arity) positions key 0
  then s
  else find_key slots mask data arity positions key h ((s + 1) land mask)

let index_insert ix data arity id =
  if id >= Array.length ix.next then begin
    let next = Array.make (max 16 (2 * (id + 1))) (-1) in
    Array.blit ix.next 0 next 0 (Array.length ix.next);
    ix.next <- next
  end;
  let key = ix.key in
  for k = 0 to Array.length key - 1 do
    key.(k) <- data.((id * arity) + ix.positions.(k))
  done;
  let h = hash_values key 0 (Array.length key) in
  let heads = ix.heads in
  let s =
    find_key heads (slot_mask heads) data arity ix.positions key h
      (h land slot_mask heads)
  in
  let head = heads.(2 * s) in
  ix.next.(id) <- head;
  heads.(2 * s) <- id;
  heads.((2 * s) + 1) <- h;
  if head < 0 then begin
    ix.keys <- ix.keys + 1;
    if 2 * ix.keys > Array.length heads lsr 1 then
      ix.heads <- grow_slots heads
  end

let rec index_all data arity id = function
  | [] -> ()
  | ix :: rest ->
    index_insert ix data arity id;
    index_all data arity id rest

(* Add the row [src.(off ..)] whose hash is [h]; false if already present. *)
let add_hashed r src off h =
  let arity = r.arity and rows = r.rows in
  let s =
    find_row rows (slot_mask rows) r.data arity src off h
      (h land slot_mask rows)
  in
  if rows.(2 * s) >= 0 then false
  else begin
    let id = r.size in
    if (id + 1) * arity > Array.length r.data then begin
      let data = Array.make (2 * Array.length r.data) 0 in
      Array.blit r.data 0 data 0 (id * arity);
      r.data <- data
    end;
    let data = r.data in
    for k = 0 to arity - 1 do
      data.((id * arity) + k) <- src.(off + k)
    done;
    rows.(2 * s) <- id;
    rows.((2 * s) + 1) <- h;
    r.size <- id + 1;
    if 2 * r.size > Array.length rows lsr 1 then r.rows <- grow_slots rows;
    index_all data arity id r.indexes;
    r.sorted_view <- None;
    true
  end

let add_row r src off = add_hashed r src off (hash_values src off r.arity)

(* Add every row of [src] to [dst]; [on_new] sees each row that was new. *)
let add_all dst src on_new =
  for id = 0 to src.size - 1 do
    let off = id * src.arity in
    let h = hash_values src.data off src.arity in
    if add_hashed dst src.data off h then on_new src.data off h
  done

(* An index over the current rows, not registered on the relation: the
   [Hash] strategy's transient table, and the start of every maintained
   index. *)
let index_build r positions =
  let ix =
    {
      positions;
      heads = empty_slots 16;
      next = Array.make (max 16 r.size) (-1);
      keys = 0;
      key = Array.make (Array.length positions) 0;
    }
  in
  for id = 0 to r.size - 1 do
    index_insert ix r.data r.arity id
  done;
  ix

let find_index r positions =
  List.find_opt (fun ix -> ix.positions = positions) r.indexes

let relation_index r positions =
  match find_index r positions with
  | Some ix -> ix
  | None ->
    let ix = index_build r positions in
    r.indexes <- ix :: r.indexes;
    r.index_builds <- r.index_builds + 1;
    ix

(* The newest row whose values at the index's positions are [key], or -1;
   older rows with the same key follow through [ix.next]. *)
let index_probe ix r key =
  let h = hash_values key 0 (Array.length key) and heads = ix.heads in
  let s =
    find_key heads (slot_mask heads) r.data r.arity ix.positions key h
      (h land slot_mask heads)
  in
  heads.(2 * s)

let rec compare_rows a i j n =
  if n = 0 then 0
  else
    let c = Int.compare a.(i) a.(j) in
    if c <> 0 then c else compare_rows a (i + 1) (j + 1) (n - 1)

let decode r id =
  List.init r.arity (fun k -> Symbol.unsafe_of_int r.data.((id * r.arity) + k))

let relation_tuples r =
  match r.sorted_view with
  | Some view -> view
  | None ->
    let ids = Array.init r.size Fun.id in
    Array.stable_sort
      (fun i j -> compare_rows r.data (i * r.arity) (j * r.arity) r.arity)
      ids;
    let view = Array.fold_right (fun id acc -> decode r id :: acc) ids [] in
    r.sorted_view <- Some view;
    view

(* ------------------------------------------------------------------ *)
(* Compiled clauses *)

type cterm = Plan.cterm = CV of int | CC of int

type catom = Plan.catom =
  | CPred of Symbol.t * cterm array
  | CEq of cterm * cterm
  | CDom of cterm

let compile_clause (c : Ndl.clause) =
  let vars = Ndl.clause_vars c in
  let index = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let cterm = function
    | Ndl.Var v -> CV (Hashtbl.find index v)
    | Ndl.Cst c -> CC (c :> int)
  in
  let catom = function
    | Ndl.Pred (p, ts) -> CPred (p, Array.of_list (List.map cterm ts))
    | Ndl.Eq (t1, t2) -> CEq (cterm t1, cterm t2)
    | Ndl.Dom t -> CDom (cterm t)
  in
  let head = Array.of_list (List.map cterm (snd c.head)) in
  (List.length vars, Array.of_list vars, head, List.map catom c.body)

(* A plan step as the matcher runs it.  The plan fixes which variables are
   bound when each step runs, so a predicate step's key, the checks on each
   row it reads and the slots it binds are all known before evaluation. *)
type pred_step = {
  pred : Symbol.t;
  arity : int;
  strategy : Plan.strategy;
  probe : int array;  (* [Index]/[Hash]: the bound positions, ascending *)
  key : cterm array;  (* the term at each probe position *)
  consts : int array;  (* (position, constant) pairs a row must hold *)
  binds : int array;  (* (position, slot) pairs each row binds *)
  agrees : int array;
      (* (position, slot) pairs a row must agree with: slots bound before
         the step ([Scan] only) or by an earlier position of the atom *)
}

type mstep =
  | Pred of pred_step
  | Eq_test of cterm * cterm  (* both sides bound *)
  | Eq_bind of int * cterm  (* the slot takes the bound side's value *)
  | Eq_sweep of int * int  (* neither side bound: both range over ⊤ *)
  | Dom_test of cterm
  | Dom_sweep of int

let matcher ~nvars (plan : Plan.t) =
  let bound = Array.make nvars false in
  let is_bound = function CV i -> bound.(i) | CC _ -> true in
  let mark = function CV i -> bound.(i) <- true | CC _ -> () in
  let pairs l =
    Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) (List.rev l))
  in
  let step (s : Plan.step) =
    match s.atom with
    | CEq (t1, t2) ->
      let m =
        match (is_bound t1, is_bound t2, t1, t2) with
        | true, true, _, _ -> Eq_test (t1, t2)
        | true, false, _, CV j -> Eq_bind (j, t1)
        | false, true, CV i, _ -> Eq_bind (i, t2)
        | false, false, CV i, CV j -> Eq_sweep (i, j)
        | _ -> assert false (* constants are bound *)
      in
      mark t1;
      mark t2;
      m
    | CDom t ->
      let m =
        match t with
        | _ when is_bound t -> Dom_test t
        | CV i -> Dom_sweep i
        | CC _ -> assert false
      in
      mark t;
      m
    | CPred (pred, ts) ->
      let keyed = s.strategy <> Plan.Scan in
      let key = ref [] and consts = ref [] in
      let binds = ref [] and agrees = ref [] in
      Array.iteri
        (fun pos t ->
          match t with
          | CC c ->
            if keyed then key := (pos, t) :: !key
            else consts := (pos, c) :: !consts
          | CV j when bound.(j) ->
            if keyed then key := (pos, t) :: !key
            else agrees := (pos, j) :: !agrees
          | CV j ->
            if List.exists (fun (_, j') -> j' = j) !binds then
              agrees := (pos, j) :: !agrees
            else binds := (pos, j) :: !binds)
        ts;
      Array.iter mark ts;
      let key = List.rev !key in
      (* the planner tracked the same bound set *)
      assert ((not keyed) || List.map fst key = s.probe);
      Pred
        {
          pred;
          arity = Array.length ts;
          strategy = s.strategy;
          probe = Array.of_list (List.map fst key);
          key = Array.of_list (List.map snd key);
          consts = pairs !consts;
          binds = pairs !binds;
          agrees = pairs !agrees;
        }
  in
  Array.of_list (List.map step plan.steps)

type compiled = {
  nvars : int;
  names : string array;
  head : cterm array;
  plan : Plan.t;
  steps : mstep array;  (* [plan] compiled for the matcher *)
}

(* ------------------------------------------------------------------ *)
(* Evaluation *)

type result = {
  answers : Symbol.t list list;
  generated_tuples : int;
  tuples_read : int;
  idb_relations : relation Symbol.Map.t;
}

type env = {
  relations : relation Symbol.Tbl.t;  (* EDB (from the ABox) and IDB *)
  abox : Abox.t;
  external_edb : Symbol.t -> int -> Symbol.t list list option;
  domain : int array;  (* sorted, for membership by binary search *)
  deadline : unit -> bool;
  budget : Budget.t;
  observe : bool;
      (* when false — worker domains, unobserved batch runs — the evaluator
         must not touch the global telemetry sink or the fault registry *)
  explain : (string -> unit) option;
  mutable ticks : int;
  mutable reads : int;
      (* tuples delivered from relation storage or domain sweeps — the
         engine-work measure the eval-plan bench gates on.  First-atom
         candidates rejected by a worker's partition filter are not
         counted, so the total is identical at every worker count *)
}

(* Whether [c] occurs in the sorted [a.(lo .. hi - 1)]. *)
let rec sorted_mem a c lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let v = a.(mid) in
  v = c || if v < c then sorted_mem a c (mid + 1) hi else sorted_mem a c lo mid

let tick env =
  env.ticks <- env.ticks + 1;
  Budget.step env.budget;
  if env.ticks land 0xFFF = 0 && env.deadline () then raise Timeout

let get_relation env p ~arity =
  match Symbol.Tbl.find_opt env.relations p with
  | Some r ->
    if r.arity <> arity then
      Error.parse_error ~line:0 "relation %a is used with arities %d and %d"
        Symbol.pp p r.arity arity;
    r
  | None ->
    (* an EDB predicate: the external source first, then the ABox *)
    let r = relation_create arity in
    let row = Array.make arity 0 in
    (match env.external_edb p arity with
    | Some tuples ->
      List.iter
        (fun tuple ->
          (* a short or long row would be read across its neighbours in
             the strided buffer *)
          let n = List.length tuple in
          if n <> arity then
            Error.parse_error ~line:0
              "relation %a has a row of arity %d in the data source but \
               arity %d in the query"
              Symbol.pp p n arity;
          List.iteri (fun k (c : Symbol.t) -> row.(k) <- (c :> int)) tuple;
          ignore (add_row r row 0))
        tuples
    | None -> (
      match arity with
      | 1 ->
        List.iter
          (fun (c : Symbol.t) ->
            row.(0) <- (c :> int);
            ignore (add_row r row 0))
          (Abox.unary_members env.abox p)
      | 2 ->
        List.iter
          (fun ((c : Symbol.t), (d : Symbol.t)) ->
            row.(0) <- (c :> int);
            row.(1) <- (d :> int);
            ignore (add_row r row 0))
          (Abox.binary_members env.abox p)
      | 0 -> ()
      | n -> invalid_arg (Printf.sprintf "Eval: EDB predicate of arity %d" n)));
    Symbol.Tbl.replace env.relations p r;
    r

(* The naïve baseline's static atom order: repeatedly pick the cheapest
   atom given the variables bound so far (bound count first, then smaller
   relations), exactly the pre-planner heuristic. *)
let order_atoms env nvars atoms =
  let bound = Array.make nvars false in
  let term_bound = function CV i -> bound.(i) | CC _ -> true in
  let score = function
    | CEq (t1, t2) ->
      if term_bound t1 || term_bound t2 then max_int else -1000
    | CDom t -> if term_bound t then max_int - 1 else -100
    | CPred (p, ts) ->
      let bound_count =
        Array.fold_left (fun acc t -> if term_bound t then acc + 1 else acc) 0 ts
      in
      let size =
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> relation_size r
        | None -> 0 (* EDB not yet materialised; assume large-ish *)
      in
      (bound_count * 1_000_000) - min size 999_999
  in
  let bind_atom = function
    | CEq (t1, t2) | CPred (_, [| t1; t2 |]) ->
      (match t1 with CV i -> bound.(i) <- true | CC _ -> ());
      (match t2 with CV i -> bound.(i) <- true | CC _ -> ())
    | CDom t | CPred (_, [| t |]) -> (
      match t with CV i -> bound.(i) <- true | CC _ -> ())
    | CPred (_, ts) ->
      Array.iter (function CV i -> bound.(i) <- true | CC _ -> ()) ts
  in
  let rec pick acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let best =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b -> if score a > score b then Some a else best)
          None remaining
      in
      let a = Option.get best in
      bind_atom a;
      pick (a :: acc) (List.filter (fun a' -> a' != a) remaining)
  in
  pick [] atoms

(* Planner statistics, read off the evaluator's current state: exact
   relation sizes, exact distinct-key counts whenever an index on those
   positions has already been built, the active-domain size otherwise. *)
let stats_of_env env ~transient =
  {
    Plan.card =
      (fun p ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> relation_size r
        | None -> 0);
    distinct =
      (fun p probe ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r ->
          Option.map (fun ix -> ix.keys) (find_index r (Array.of_list probe))
        | None -> None);
    transient = (fun p -> Symbol.Set.mem p transient);
    domain = Array.length env.domain;
  }

let compile_and_plan env ~naive ~transient (c : Ndl.clause) =
  let nvars, names, head, body = compile_clause c in
  let plan =
    if naive then
      (* legacy order first (its scoring expects lazily materialised EDB
         sizes), then materialise, preserving the pre-planner behaviour *)
      let ordered = Plan.trivial ~nvars (order_atoms env nvars body) in
      List.iter
        (function
          | CPred (p, ts) -> ignore (get_relation env p ~arity:(Array.length ts))
          | CEq _ | CDom _ -> ())
        body;
      ordered
    else begin
      List.iter
        (function
          | CPred (p, ts) -> ignore (get_relation env p ~arity:(Array.length ts))
          | CEq _ | CDom _ -> ())
        body;
      Plan.make (stats_of_env env ~transient) ~nvars body
    end
  in
  (match env.explain with
  | Some f ->
    let hp, hts = c.head in
    let args =
      String.concat ","
        (List.map (fun t -> Format.asprintf "%a" Ndl.pp_term t) hts)
    in
    f
      (Printf.sprintf "%s(%s) <- %s" (Symbol.name hp) args
         (Plan.describe ~names plan))
  | None -> ());
  { nvars; names; head; plan; steps = matcher ~nvars plan }

(* Per-row tests of a predicate step, as tail-recursive loops over the
   step's (position, value) pairs. *)
let rec consts_hold data off consts k =
  k = Array.length consts
  || data.(off + consts.(k)) = consts.(k + 1)
     && consts_hold data off consts (k + 2)

let rec agrees_hold data off binding agrees k =
  k = Array.length agrees
  || data.(off + agrees.(k)) = binding.(agrees.(k + 1))
     && agrees_hold data off binding agrees (k + 2)

(* Placeholders for a step's relation and index until the step is first
   reached: resolving lazily keeps index builds — which the planner's
   statistics see — exactly where the evaluation first probes. *)
let unresolved = relation_create 0
let no_index =
  { positions = [||]; heads = [||]; next = [||]; keys = 0; key = [||] }

(* Evaluate one compiled clause into [target].  [keep], if given, is a
   partition filter consulted only at the clause's first step: for a leading
   [CPred] it receives the hash of each candidate row, for a leading
   domain sweep (unbound [CDom], unbound–unbound [CEq]) the domain constant.
   A worker passing [keep] sees a disjoint slice of the first step's search
   space; the union over workers is exactly the sequential enumeration. *)
let eval_compiled env target ?keep cc =
  let { nvars; head; steps; _ } = cc in
  let nsteps = Array.length steps in
  let partitioned, accept =
    match keep with None -> (false, fun _ -> true) | Some k -> (true, k)
  in
  let binding = Array.make nvars (-1) in
  let out = Array.make (Array.length head) 0 in
  let rels = Array.make nsteps unresolved in
  let indexes = Array.make nsteps no_index in
  let keys =
    Array.map
      (function Pred p -> Array.make (Array.length p.probe) 0 | _ -> [||])
      steps
  in
  let value = function CV i -> binding.(i) | CC c -> c in
  let emit () =
    for k = 0 to Array.length head - 1 do
      let v = value head.(k) in
      assert (v >= 0);
      out.(k) <- v
    done;
    if add_row target out 0 then begin
      Budget.grow env.budget;
      if env.observe then Obs.incr "eval.derived_facts"
    end
  in
  let resolve si p =
    let r = get_relation env p.pred ~arity:p.arity in
    rels.(si) <- r;
    (match p.strategy with
    | Plan.Index -> indexes.(si) <- relation_index r p.probe
    | Plan.Hash -> indexes.(si) <- index_build r p.probe
    | Plan.Scan -> ());
    r
  in
  let rec go si =
    tick env;
    if si = nsteps then emit ()
    else
      match steps.(si) with
      | Pred p -> (
        let r = if rels.(si) == unresolved then resolve si p else rels.(si) in
        match p.strategy with
        | Plan.Scan ->
          (* every row; [visit] tests any bound positions inline *)
          for row = 0 to r.size - 1 do
            visit si p r row
          done
        | Plan.Index | Plan.Hash ->
          let key = keys.(si) in
          for k = 0 to Array.length key - 1 do
            key.(k) <- value p.key.(k)
          done;
          let ix = indexes.(si) in
          let row = ref (index_probe ix r key) in
          while !row >= 0 do
            visit si p r !row;
            row := ix.next.(!row)
          done)
      | Eq_test (t1, t2) -> if value t1 = value t2 then go (si + 1)
      | Eq_bind (i, t) ->
        binding.(i) <- value t;
        go (si + 1)
      | Eq_sweep (i, j) ->
        (* last resort: both sides range over the active domain *)
        let domain = env.domain in
        for k = 0 to Array.length domain - 1 do
          let c = domain.(k) in
          if si > 0 || accept c then begin
            env.reads <- env.reads + 1;
            binding.(i) <- c;
            binding.(j) <- c;
            go (si + 1)
          end
        done
      | Dom_test t ->
        let domain = env.domain in
        if sorted_mem domain (value t) 0 (Array.length domain) then go (si + 1)
      | Dom_sweep i ->
        let domain = env.domain in
        for k = 0 to Array.length domain - 1 do
          let c = domain.(k) in
          if si > 0 || accept c then begin
            env.reads <- env.reads + 1;
            binding.(i) <- c;
            go (si + 1)
          end
        done
  and visit si p r row =
    let data = r.data and off = row * p.arity in
    if si > 0 || (not partitioned) || accept (hash_values data off p.arity)
    then begin
      env.reads <- env.reads + 1;
      if consts_hold data off p.consts 0 then begin
        let binds = p.binds in
        for k = 0 to (Array.length binds lsr 1) - 1 do
          binding.(binds.((2 * k) + 1)) <- data.(off + binds.(2 * k))
        done;
        if agrees_hold data off binding p.agrees 0 then go (si + 1)
      end
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Parallel batch evaluation.

   Plans are computed once per clause on the main domain, so the set of
   bound positions at every step is static: a prepass can materialise every
   EDB relation and build every index an [Index] step will probe — leaving
   the worker domains with pure reads of [env.relations] ([Hash] steps
   build their transient tables in worker-local memory).  Workers derive
   into worker-local relations (budgeted by a [Budget.slice] each) and the
   caller merges them into the batch's target relations: the barrier
   between strata, and between semi-naïve rounds. *)

let prepare_clause env cc =
  Array.iter
    (function
      | Pred p ->
        let r = get_relation env p.pred ~arity:p.arity in
        if p.strategy = Plan.Index then ignore (relation_index r p.probe)
      | Eq_test _ | Eq_bind _ | Eq_sweep _ | Dom_test _ | Dom_sweep _ -> ())
    cc.steps

(* How a clause's first-step search space is split across workers.  A
   leading [CPred] enumerates rows (partition by row hash); a leading
   domain sweep enumerates constants (partition by constant).  Anything
   else — a leading bound [CEq]/[CDom], an empty body — explores a
   constant-size space, so the whole clause goes to one worker. *)
type scheme = Enum_tuples | Enum_domain | Whole

let scheme_of_plan (plan : Plan.t) =
  match plan.steps with
  | { atom = CPred _; _ } :: _ -> Enum_tuples
  | { atom = CEq (CV _, CV _); _ } :: _ ->
    Enum_domain (* nothing bound at the first step: a domain sweep *)
  | { atom = CDom (CV _); _ } :: _ -> Enum_domain
  | _ -> Whole

(* Evaluate [assignments] — (target index, compiled clause) pairs — into
   [targets], in parallel when a pool with more than one worker is given.
   [count_derived] controls whether the merge reports "eval.derived_facts"
   (the semi-naïve driver counts additions to the full relations itself). *)
let eval_batch env ?(count_derived = true) pool targets assignments =
  match pool with
  | Some pool when Pool.jobs pool > 1 && assignments <> [] ->
    let jobs = Pool.jobs pool in
    List.iter (fun (_, cc) -> prepare_clause env cc) assignments;
    let work = Array.of_list assignments in
    let schemes = Array.map (fun (_, cc) -> scheme_of_plan cc.plan) work in
    let locals =
      Array.init jobs (fun _ ->
          Array.map (fun (t : relation) -> relation_create t.arity) targets)
    in
    let slices =
      Array.init jobs (fun _ -> Budget.slice ~parts:jobs env.budget)
    in
    let wenvs =
      Array.init jobs (fun w ->
          { env with budget = slices.(w); observe = false; ticks = 0; reads = 0 })
    in
    Pool.run pool (fun w ->
        let wenv = wenvs.(w) in
        let keep h = (h land max_int) mod jobs = w in
        Array.iteri
          (fun ci (ti, cc) ->
            match schemes.(ci) with
            | Whole -> if ci mod jobs = w then eval_compiled wenv locals.(w).(ti) cc
            | Enum_tuples | Enum_domain ->
              eval_compiled wenv locals.(w).(ti) ~keep cc)
          work);
    (* merge: worker budgets and read counts back into the parent, worker
       derivations into the target relations (deduplicating across workers) *)
    Array.iter (fun s -> Budget.absorb env.budget ~from:s) slices;
    Array.iter (fun wenv -> env.reads <- env.reads + wenv.reads) wenvs;
    let added = ref 0 in
    Array.iteri
      (fun w wlocals ->
        Array.iteri
          (fun ti local -> add_all targets.(ti) local (fun _ _ _ -> incr added))
          wlocals;
        if env.observe && Obs.enabled () then
          Obs.count
            (Printf.sprintf "eval.worker%d.derived" w)
            (Array.fold_left (fun acc l -> acc + relation_size l) 0 wlocals))
      locals;
    if env.observe then begin
      if count_derived then Obs.count "eval.derived_facts" !added;
      Obs.incr "eval.parallel_rounds"
    end
  | _ ->
    List.iter (fun (ti, cc) -> eval_compiled env targets.(ti) cc) assignments

(* ------------------------------------------------------------------ *)
(* Compiled programs and the plan cache.

   The stratum structure (from [Ndl.strata]) and the clause groupings are
   data-independent and built upfront; per-clause plans are filled in
   lazily during the first evaluation, when the relations a clause reads
   have their true sizes (a fixpoint's delta variants are planned after
   round 0, against the actual base deltas).  A [plan_cache] keeps the
   whole compiled program across runs of the same query value: [Prepared]
   queries replan only when the store size drifts past a threshold. *)

type cstraight = {
  spred : Symbol.t;
  sarity : int;
  sclauses : Ndl.clause list;
  mutable sccs : compiled list option;
}

type cfixpoint = {
  fpreds : (Symbol.t * int) array;
  fdelta : Symbol.t array;  (* delta symbol per predicate, aligned *)
  ftransient : Symbol.Set.t;  (* the delta symbols, for the planner *)
  fbase_clauses : (int * Ndl.clause) list;
  fvariant_clauses : (int * Ndl.clause) list;
  mutable fbase : (int * compiled) list option;
  mutable fvariants : (int * compiled) list option;
}

type cstratum = CStraight of cstraight | CFixpoint of cfixpoint

type cached = {
  cfor : Ndl.query;  (* physical identity of the planned query *)
  cnaive : bool;
  catoms : int;  (* ABox size at plan time, for the replan threshold *)
  cstrata : cstratum array;
}

type plan_cache = { mutable slot : cached option }

let plan_cache () = { slot = None }

let replan_factor = 2.0
(* a cached plan survives while |ABox| stays within this factor of its
   plan-time size in either direction *)

(* One delta variant per in-stratum body atom: that atom probes the delta
   relation, every other atom the full one. *)
let delta_variants scc delta_of (c : Ndl.clause) =
  let rec go prefix acc = function
    | [] -> List.rev acc
    | (Ndl.Pred (p, ts) as a) :: rest when Symbol.Set.mem p scc ->
      let variant =
        {
          c with
          Ndl.body =
            List.rev_append prefix
              (Ndl.Pred (Symbol.Map.find p delta_of, ts) :: rest);
        }
      in
      go (a :: prefix) (variant :: acc) rest
    | a :: rest -> go (a :: prefix) acc rest
  in
  go [] [] c.Ndl.body

let skeleton ~naive ~atoms (q : Ndl.query) =
  let by_head = Symbol.Tbl.create 16 in
  List.iter
    (fun (c : Ndl.clause) ->
      let cur =
        Option.value ~default:[] (Symbol.Tbl.find_opt by_head (fst c.head))
      in
      Symbol.Tbl.replace by_head (fst c.head) (c :: cur))
    q.clauses;
  let clauses_of p =
    List.rev (Option.value ~default:[] (Symbol.Tbl.find_opt by_head p))
  in
  let arity_of = function
    | (c : Ndl.clause) :: _ -> List.length (snd c.head)
    | [] -> 0
  in
  let cstrata =
    List.map
      (fun (preds, recursive) ->
        match (preds, recursive) with
        | [ p ], false ->
          let clauses = clauses_of p in
          CStraight
            { spred = p; sarity = arity_of clauses; sclauses = clauses; sccs = None }
        | preds, _ ->
          let scc = Symbol.Set.of_list preds in
          let fpreds =
            Array.of_list
              (List.map (fun p -> (p, arity_of (clauses_of p))) preds)
          in
          let fdelta =
            Array.map
              (fun (p, _) -> Symbol.fresh ("delta:" ^ Symbol.name p))
              fpreds
          in
          let delta_of =
            snd
              (Array.fold_left
                 (fun (i, m) (p, _) ->
                   (i + 1, Symbol.Map.add p fdelta.(i) m))
                 (0, Symbol.Map.empty) fpreds)
          in
          let ftransient =
            Array.fold_left
              (fun acc d -> Symbol.Set.add d acc)
              Symbol.Set.empty fdelta
          in
          let base_clauses =
            List.concat
              (List.mapi
                 (fun i (p, _) ->
                   List.map (fun c -> (i, c)) (clauses_of p))
                 (Array.to_list fpreds))
          in
          let variant_clauses =
            List.concat_map
              (fun (i, c) ->
                List.map (fun v -> (i, v)) (delta_variants scc delta_of c))
              base_clauses
          in
          CFixpoint
            {
              fpreds;
              fdelta;
              ftransient;
              fbase_clauses = base_clauses;
              fvariant_clauses = variant_clauses;
              fbase = None;
              fvariants = None;
            })
      (Ndl.strata q)
  in
  { cfor = q; cnaive = naive; catoms = atoms; cstrata = Array.of_list cstrata }

let cache_disposition ?plan ~naive (q : Ndl.query) abox =
  match plan with
  | None -> `Uncached
  | Some cache -> (
    match cache.slot with
    | Some cp when cp.cfor == q && cp.cnaive = naive ->
      let ratio =
        float_of_int (Abox.num_atoms abox) /. float_of_int (max 1 cp.catoms)
      in
      if ratio >= 1.0 /. replan_factor && ratio <= replan_factor then `Hit
      else `Replan
    | Some _ -> `Replan
    | None -> `Fresh)

(* ------------------------------------------------------------------ *)
(* Stratum drivers *)

let round_marker env =
  if env.observe then begin
    Fault.hit Fault.eval_ndl_round;
    Obs.incr "eval.rounds"
  end

let eval_straight env pool ~naive (st : cstraight) =
  round_marker env;
  let target = relation_create st.sarity in
  (* register first so in-stratum references resolve to the (empty) target *)
  Symbol.Tbl.replace env.relations st.spred target;
  let ccs =
    match st.sccs with
    | Some ccs -> ccs
    | None ->
      let ccs =
        List.map
          (compile_and_plan env ~naive ~transient:Symbol.Set.empty)
          st.sclauses
      in
      st.sccs <- Some ccs;
      ccs
  in
  eval_batch env pool [| target |] (List.map (fun cc -> (0, cc)) ccs)

(* Semi-naïve fixpoint for a recursive stratum (naïve re-derivation when
   [naive]).  Derivation happens into per-round accumulators under an
   unobserved child environment; the driver itself counts the genuinely new
   tuples and fires the per-round fault site / counters, so telemetry means
   the same thing it does on the straight path. *)
let eval_fixpoint env pool ~naive (fx : cfixpoint) =
  let qenv = { env with observe = false } in
  let fulls =
    Array.map
      (fun (p, arity) ->
        let r = relation_create arity in
        Symbol.Tbl.replace env.relations p r;
        r)
      fx.fpreds
  in
  let fresh_accs () = Array.map (fun (r : relation) -> relation_create r.arity) fulls in
  let merge accs =
    let added = ref 0 in
    let deltas =
      Array.mapi
        (fun i (acc : relation) ->
          let delta = relation_create acc.arity in
          add_all fulls.(i) acc (fun data off h ->
              incr added;
              ignore (add_hashed delta data off h));
          delta)
        accs
    in
    if env.observe then Obs.count "eval.derived_facts" !added;
    (deltas, !added)
  in
  let compile_assignments ~naive clauses =
    List.map
      (fun (ti, c) ->
        (ti, compile_and_plan qenv ~naive ~transient:fx.ftransient c))
      clauses
  in
  let base_ccs =
    match fx.fbase with
    | Some ccs -> ccs
    | None ->
      let ccs = compile_assignments ~naive fx.fbase_clauses in
      fx.fbase <- Some ccs;
      ccs
  in
  if naive then begin
    (* naïve fixpoint: re-derive every clause from the full relations *)
    let rec loop () =
      round_marker env;
      let accs = fresh_accs () in
      eval_batch qenv ~count_derived:false pool accs base_ccs;
      let _, added = merge accs in
      if added > 0 then loop ()
    in
    loop ()
  end
  else begin
    round_marker env;
    let acc0 = fresh_accs () in
    eval_batch qenv ~count_derived:false pool acc0 base_ccs;
    let deltas0, added0 = merge acc0 in
    if added0 > 0 then begin
      let register deltas =
        Array.iteri
          (fun i d -> Symbol.Tbl.replace qenv.relations fx.fdelta.(i) d)
          deltas
      in
      register deltas0;
      (* delta variants are planned once, here, against the true round-0
         sizes of the full and delta relations *)
      let variant_ccs =
        match fx.fvariants with
        | Some ccs -> ccs
        | None ->
          let ccs = compile_assignments ~naive:false fx.fvariant_clauses in
          fx.fvariants <- Some ccs;
          ccs
      in
      let rec loop deltas =
        register deltas;
        round_marker env;
        let accs = fresh_accs () in
        eval_batch qenv ~count_derived:false pool accs variant_ccs;
        let deltas', added = merge accs in
        if added > 0 then loop deltas'
      in
      loop deltas0;
      (* the delta views are dead past the fixpoint *)
      Array.iter (fun d -> Symbol.Tbl.remove qenv.relations d) fx.fdelta
    end
  end;
  env.reads <- qenv.reads;
  env.ticks <- qenv.ticks

(* ------------------------------------------------------------------ *)

let plan_gauges cstrata =
  let index_probes = ref 0
  and hash_joins = ref 0
  and scans = ref 0
  and reordered = ref 0 in
  let note (cc : compiled) =
    if cc.plan.Plan.reordered then incr reordered;
    List.iter
      (fun (s : Plan.step) ->
        match s.atom with
        | CPred _ -> (
          match s.strategy with
          | Plan.Index -> incr index_probes
          | Plan.Hash -> incr hash_joins
          | Plan.Scan -> incr scans)
        | CEq _ | CDom _ -> ())
      cc.plan.Plan.steps
  in
  Array.iter
    (function
      | CStraight st -> List.iter note (Option.value ~default:[] st.sccs)
      | CFixpoint fx ->
        List.iter (fun (_, cc) -> note cc) (Option.value ~default:[] fx.fbase);
        List.iter
          (fun (_, cc) -> note cc)
          (Option.value ~default:[] fx.fvariants))
    cstrata;
  Obs.set_int "eval.plan.index_probes" !index_probes;
  Obs.set_int "eval.plan.hash_joins" !hash_joins;
  Obs.set_int "eval.plan.scans" !scans;
  Obs.set_int "eval.plan.reordered" !reordered

let run_unobserved ?pool ?plan ~naive ~observe ~budget ~deadline ~edb
    ~extra_domain ~explain (q : Ndl.query) abox =
  let idb = Ndl.idb_preds q in
  let domain =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.map
            (fun (c : Abox.const) -> (c :> int))
            (Abox.individuals abox @ extra_domain)))
  in
  let env =
    {
      relations = Symbol.Tbl.create 64;
      abox;
      external_edb = edb;
      domain;
      deadline;
      budget;
      observe;
      explain;
      ticks = 0;
      reads = 0;
    }
  in
  let disposition = cache_disposition ?plan ~naive q abox in
  let program =
    match (disposition, plan) with
    | `Hit, Some cache -> Option.get cache.slot
    | (`Replan | `Fresh), Some cache ->
      let cp = skeleton ~naive ~atoms:(Abox.num_atoms abox) q in
      cache.slot <- Some cp;
      cp
    | _ -> skeleton ~naive ~atoms:(Abox.num_atoms abox) q
  in
  if observe then begin
    match disposition with
    | `Hit -> Obs.incr "eval.plan.cache_hits"
    | `Replan -> Obs.incr "eval.plan.replans"
    | `Fresh | `Uncached -> ()
  end;
  Array.iter
    (function
      | CStraight st -> eval_straight env pool ~naive st
      | CFixpoint fx -> eval_fixpoint env pool ~naive fx)
    program.cstrata;
  let idb_relations =
    Symbol.Set.fold
      (fun p acc ->
        match Symbol.Tbl.find_opt env.relations p with
        | Some r -> Symbol.Map.add p r acc
        | None -> acc)
      idb Symbol.Map.empty
  in
  let generated_tuples =
    Symbol.Map.fold (fun _ r acc -> acc + relation_size r) idb_relations 0
  in
  let answers =
    match Symbol.Map.find_opt q.goal idb_relations with
    | Some r -> relation_tuples r
    | None -> []
  in
  if observe && Obs.enabled () then begin
    Obs.set_int "eval.answers" (List.length answers);
    Obs.set_int "eval.generated_tuples" generated_tuples;
    Obs.count "eval.tuples_read" env.reads;
    plan_gauges program.cstrata;
    (match pool with
    | Some p when Pool.jobs p > 1 -> Obs.set_int "eval.workers" (Pool.jobs p)
    | _ -> ());
    if Budget.is_limited budget then begin
      Obs.set_int "budget.steps" (Budget.steps_spent budget);
      Obs.set_int "budget.size" (Budget.size_spent budget)
    end
  end;
  { answers; generated_tuples; tuples_read = env.reads; idb_relations }

let run ?pool ?plan ?(naive = false) ?(observe = true) ?(budget = Budget.none)
    ?(deadline = fun () -> false) ?(edb = fun _ _ -> None)
    ?(extra_domain = []) ?explain q abox =
  if observe then
    let attrs =
      let plan_attr =
        if naive then "naive"
        else
          match cache_disposition ?plan ~naive q abox with
          | `Hit -> "cached"
          | `Replan -> "replanned"
          | `Fresh | `Uncached -> "fresh"
      in
      ("plan", plan_attr)
      ::
      (match pool with
      | Some p when Pool.jobs p > 1 -> [ ("workers", string_of_int (Pool.jobs p)) ]
      | _ -> [])
    in
    Obs.with_span ~attrs "eval.ndl" (fun () ->
        run_unobserved ?pool ?plan ~naive ~observe ~budget ~deadline ~edb
          ~extra_domain ~explain q abox)
  else
    run_unobserved ?pool ?plan ~naive ~observe ~budget ~deadline ~edb
      ~extra_domain ~explain q abox

let answers ?pool ?observe ?budget ?plan ?naive q abox =
  (run ?pool ?observe ?budget ?plan ?naive q abox).answers

let boolean q abox =
  match (run q abox).answers with [] -> false | _ :: _ -> true

let explain ?(naive = false) ?(edb = fun _ _ -> None) q abox =
  let lines = ref [] in
  ignore
    (run ~observe:false ~naive ~edb ~explain:(fun s -> lines := s :: !lines) q
       abox);
  List.rev !lines

(* Testing hooks: the unit suite pins the relation-internals contract —
   indexes are built by one full scan per position list and then maintained
   incrementally, and the sorted tuple view is memoised until the next
   mutation. *)
module Internal = struct
  let relation_create = relation_create

  let check_length what n a =
    if Array.length a <> n then invalid_arg ("Eval.Internal: " ^ what ^ " length")

  let ids what n l =
    let a = Array.of_list (List.map (fun (c : Symbol.t) -> (c :> int)) l) in
    check_length what n a;
    a

  let relation_add (r : relation) tuple =
    add_row r (ids "tuple" r.arity tuple) 0

  let add_row (r : relation) row =
    check_length "row" r.arity row;
    add_row r row 0

  let relation_lookup r positions key =
    let key = ids "key" (List.length positions) key in
    if positions = [] then List.init r.size (decode r)
    else
      let ix = relation_index r (Array.of_list positions) in
      let rec walk row acc =
        if row < 0 then acc else walk ix.next.(row) (decode r row :: acc)
      in
      walk (index_probe ix r key) []

  let prober r positions =
    if positions = [] then invalid_arg "Eval.Internal.prober: no positions";
    let ix = relation_index r (Array.of_list positions) in
    fun key ->
      check_length "key" (List.length positions) key;
      let count = ref 0 and row = ref (index_probe ix r key) in
      while !row >= 0 do
        incr count;
        row := ix.next.(!row)
      done;
      !count

  let index_builds r = r.index_builds

  let index_positions r =
    List.map (fun ix -> Array.to_list ix.positions) r.indexes

  let sorted_view_memoised r = r.sorted_view <> None
end
